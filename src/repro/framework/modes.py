"""Memory-usage modes and reduction strategies (paper Section IV-C).

The evaluation compares five memory-usage modes for each kernel:

* ``SIO`` — stage input **and** output in shared memory (the paper's
  full design, Section III).
* ``SO`` — stage only output; input read directly from global memory.
* ``SI`` — stage only input; each warp writes its own output directly
  to global memory using warp-aggregated atomics (in-warp prefix sum,
  one set of atomic adds by the first lane).
* ``G`` — no staging; like Mars but single-pass via atomics (the
  "MapCG-like" scheme).
* ``GT`` — like G, but input bound to texture buffers and fetched
  through the read-only texture cache.

and two Reduce strategies:

* ``TR`` — thread-level reduction: one thread per distinct key set
  (Mars / Hadoop style).  Cannot stage input: a key set may be
  arbitrarily large.
* ``BR`` — block-level reduction: a block tree-reduces one key set
  (Catanzaro style).  Cannot use GT: it updates values in place and
  the texture cache is not coherent with same-kernel writes.
"""

from __future__ import annotations

from enum import Enum

from ..errors import FrameworkError


class MemoryMode(str, Enum):
    G = "G"
    GT = "GT"
    SI = "SI"
    SO = "SO"
    SIO = "SIO"

    @property
    def stages_input(self) -> bool:
        return self in (MemoryMode.SI, MemoryMode.SIO)

    @property
    def stages_output(self) -> bool:
        return self in (MemoryMode.SO, MemoryMode.SIO)

    @property
    def uses_texture(self) -> bool:
        return self is MemoryMode.GT


class ReduceStrategy(str, Enum):
    TR = "TR"
    BR = "BR"


#: All modes, in the order the paper's figures list them.
ALL_MODES = (
    MemoryMode.G,
    MemoryMode.GT,
    MemoryMode.SI,
    MemoryMode.SO,
    MemoryMode.SIO,
)

#: The one spelling of "let the tuner decide" (modes and strategies).
AUTO = "auto"


def resolve_mode_name(
    name, *, allow_auto: bool = False
) -> "MemoryMode | str":
    """The single place a mode name becomes a :class:`MemoryMode`.

    Accepts an enum member (returned as-is) or a case-insensitive
    string; ``"auto"`` passes through verbatim when ``allow_auto`` —
    the cost-model tuner (:mod:`repro.tune`) resolves it later.
    Unknown names raise a :class:`FrameworkError` listing the valid
    spellings, so both CLIs and the API show the same friendly
    message.
    """
    if isinstance(name, MemoryMode):
        return name
    if isinstance(name, str):
        if name.lower() == AUTO:
            if allow_auto:
                return AUTO
            raise FrameworkError(
                "mode 'auto' is not accepted here; pick one of "
                + ", ".join(m.value for m in ALL_MODES)
            )
        try:
            return MemoryMode(name.upper())
        except ValueError:
            pass
    valid = ", ".join(m.value for m in ALL_MODES)
    raise FrameworkError(
        f"unknown memory mode {name!r}: valid modes are {valid}"
        + (" (or 'auto' for the cost-model tuner)" if allow_auto else "")
    )


def resolve_strategy_name(
    name, *, allow_auto: bool = False
) -> "ReduceStrategy | str | None":
    """The single place a strategy name becomes a :class:`ReduceStrategy`.

    ``None`` means "no Reduce phase" and passes through.  ``"auto"``
    passes through verbatim when ``allow_auto`` (the tuner picks TR or
    BR — or map-only for a spec with no Reduce).  Anything else must
    name TR or BR, case-insensitively.
    """
    if name is None or isinstance(name, ReduceStrategy):
        return name
    if isinstance(name, str):
        if name.lower() == AUTO:
            if allow_auto:
                return AUTO
            raise FrameworkError(
                "strategy 'auto' is not accepted here; pick TR or BR"
            )
        if name.lower() in ("none", ""):
            return None
        try:
            return ReduceStrategy(name.upper())
        except ValueError:
            pass
    raise FrameworkError(
        f"unknown reduce strategy {name!r}: valid strategies are TR, BR"
        + (", auto" if allow_auto else "")
        + ", none"
    )


def effective_reduce_mode(
    mode: MemoryMode, strategy: ReduceStrategy
) -> MemoryMode:
    """Map a requested mode to the one actually run in the Reduce phase.

    Per the paper: TR cannot stage input, so SI falls back to G and
    SIO to SO (Figure 6's note); BR cannot use the texture cache.
    """
    if strategy is ReduceStrategy.TR:
        if mode is MemoryMode.SI:
            return MemoryMode.G
        if mode is MemoryMode.SIO:
            return MemoryMode.SO
        return mode
    if strategy is ReduceStrategy.BR:
        if mode is MemoryMode.GT:
            raise FrameworkError(
                "BR reduce kernels cannot use the texture cache: they "
                "update values in place and texture caches are not "
                "coherent with same-kernel global writes (Section IV-C)"
            )
        return mode
    raise FrameworkError(f"unknown strategy {strategy!r}")
