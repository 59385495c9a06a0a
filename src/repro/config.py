"""One table of every ``REPRO_*`` setting: parsed, validated and sourced here.

Each :class:`Knob` row names a setting, its environment variable, its
CLI flag (if it has one), the parser that validates a raw value, and
the default.  :func:`resolve` layers the sources — an explicit API
argument beats a CLI flag, which beats the tuner's pick, which beats
the environment, which beats the default — and returns every effective
value together with the source it came from.

This module is the only place that reads a ``REPRO_*`` variable.  The
drivers resolve the table once per job, in
:meth:`repro.backend.plan.JobPlan.normalised`, so a bad value raises
:class:`~repro.errors.FrameworkError` before any phase runs, and the
CLIs (:func:`add_flags`, :func:`cli_settings`) turn that error into
``prog: message`` and exit 2.  Every parser error has one form, naming
where the value came from::

    $REPRO_STORE='bogus': unknown store; known: memory, spill
"""

from __future__ import annotations

import os
import sys
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from .errors import FrameworkError

#: Backends that take a worker count (``"parallel:4"``, ``"dist:2"``).
SHARDED_BACKENDS = ("parallel", "dist")

# ----------------------------------------------------------------------
# Value parsers: each maps a raw value to the effective one, or raises
# ValueError with the reason (resolve() adds where the value came from).
# ----------------------------------------------------------------------

_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off")
_SUFFIX = {"k": 2**10, "m": 2**20, "g": 2**30}


def boolean(raw) -> bool:
    if isinstance(raw, bool):
        return raw
    text = str(raw).strip().lower()
    if text in _TRUE:
        return True
    if text in _FALSE:
        return False
    raise ValueError(f"expected one of {', '.join(_TRUE + _FALSE)}")


def positive_int(raw) -> int:
    if isinstance(raw, bool):
        raise ValueError("expected a positive integer")
    if isinstance(raw, int):
        n = raw
    else:
        try:
            n = int(str(raw).strip())
        except ValueError:
            raise ValueError("expected a positive integer") from None
    if n < 1:
        raise ValueError("must be >= 1")
    return n


def byte_size(raw) -> int:
    """``65536``, ``"64k"``, ``"512M"``, ``"1g"`` -> bytes (positive)."""
    if isinstance(raw, int) and not isinstance(raw, bool):
        n = raw
    else:
        text = str(raw).strip().lower()
        mult = _SUFFIX.get(text[-1:], 1)
        if mult > 1:
            text = text[:-1]
        try:
            n = int(text) * mult
        except ValueError:
            raise ValueError(
                "expected a budget in bytes, with an optional k/m/g "
                "suffix (e.g. 65536, 64k, 512M)"
            ) from None
    if n < 1:
        raise ValueError("a budget must be positive")
    return n


def choice(what: str, options: Mapping[str, object] | Iterable[str]):
    """Parser for one of a fixed set of (case-insensitive) spellings;
    a mapping sends several spellings to one value."""
    table = (dict(options) if isinstance(options, Mapping)
             else {o: o for o in options})
    known = ", ".join(sorted(table))

    def parse(raw):
        try:
            return table[str(raw).strip().lower()]
        except KeyError:
            raise ValueError(f"unknown {what}; known: {known}") from None
    return parse


def writable_dir(raw) -> str:
    """An existing directory this process may create files in."""
    path = str(raw)
    if not os.path.isdir(path):
        raise ValueError("not an existing directory")
    if not os.access(path, os.W_OK | os.X_OK):
        raise ValueError("not writable")
    return path


def _backend(raw):
    """``name`` or ``name:N`` (sharded backends only); an
    :class:`~repro.backend.base.ExecutionBackend` instance passed as an
    API argument is kept as is."""
    from .backend import BACKENDS, ExecutionBackend

    if isinstance(raw, ExecutionBackend):
        return raw
    base, colon, count = str(raw).strip().lower().partition(":")
    if base not in BACKENDS:
        known = ", ".join(sorted(BACKENDS))
        raise ValueError(f"unknown backend; known: {known}")
    if not colon:
        return base
    if base not in SHARDED_BACKENDS:
        raise ValueError(f"only {' and '.join(SHARDED_BACKENDS)} take a "
                         "worker count")
    try:
        return f"{base}:{positive_int(count)}"
    except ValueError:
        raise ValueError(f"worker count must be a positive integer "
                         f"('{base}:<n>')") from None


_check_spelling = choice("check setting", {
    **dict.fromkeys(_FALSE + ("none",), "off"),
    **dict.fromkeys(_TRUE + ("strict",), "strict"),
    "report": "report", "warn": "report",
})


def _check(raw):
    """``"off"``/``"strict"``/``"report"``; a bool toggles strict, and a
    :class:`~repro.check.CheckConfig` passed as an API argument is kept."""
    if isinstance(raw, bool):
        return "strict" if raw else "off"
    if isinstance(raw, str):
        return _check_spelling(raw)
    from .check.config import CheckConfig

    if isinstance(raw, CheckConfig):
        return raw
    raise ValueError("expected a bool, a check setting or a CheckConfig")


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Knob:
    """One setting: where it is read from, how it is parsed, its default."""

    name: str
    env: str
    #: CLI flag on ``repro-trace`` and ``repro-bench``, or None.
    flag: str | None
    parse: Callable[[object], object]
    default: object
    #: What it sets and the values it accepts (``--help`` shows it).
    help: str


KNOBS: dict[str, Knob] = {k.name: k for k in (
    Knob("backend", "REPRO_BACKEND", "--backend", _backend, "sim",
         "execution backend: sim (cycle-accurate), fast (functional), "
         "columnar (fast, vectorized), parallel[:N] (fast over a process "
         "pool) or dist[:N] (fast over socket workers)"),
    Knob("workers", "REPRO_WORKERS", "--workers", positive_int, None,
         "worker processes of the parallel and dist backends (default: "
         "the CPU count)"),
    Knob("columnar", "REPRO_COLUMNAR", None, boolean, False,
         "run the fast backend's vectorized columnar path (1/0)"),
    Knob("columnar_batch", "REPRO_COLUMNAR_BATCH", None, positive_int,
         8192, "records per columnar Map batch"),
    Knob("store", "REPRO_STORE", "--store",
         choice("store", ("memory", "spill")), "memory",
         "intermediate store of the functional backends: memory or "
         "spill (budgeted out-of-core shuffle)"),
    Knob("memory_budget", "REPRO_MEMORY_BUDGET", "--memory-budget",
         byte_size, None,
         "spill store budget in bytes, k/m/g suffixes accepted (e.g. "
         "64k, 512M; default 64M)"),
    Knob("spill_dir", "REPRO_SPILL_DIR", None, writable_dir, None,
         "existing writable directory for spill runs (default: the "
         "system temp dir)"),
    Knob("check", "REPRO_CHECK", "--check", _check, "off",
         "run simulated jobs under the repro.check sanitizer (0/off, "
         "1/on/strict, report)"),
    Knob("autotune", "REPRO_AUTOTUNE", None, boolean, False,
         "tune every run_job call that names no memory mode (1/0)"),
    Knob("ledger", "REPRO_LEDGER", None, boolean, True,
         "append one record per job to the run ledger (1/0)"),
    # Any path: an unwritable ledger degrades to no ledger, never to a
    # failed job (repro.obs.ledger).
    Knob("ledger_dir", "REPRO_LEDGER_DIR", None, str, ".repro",
         "directory of the run ledger"),
)}

# ----------------------------------------------------------------------
# Resolution
# ----------------------------------------------------------------------

#: Settings held in force by :func:`override` (the CLIs' flags).
_OVERRIDES: ContextVar[Mapping[str, object]] = ContextVar(
    "repro_config_overrides", default={})


@dataclass(frozen=True)
class Setting:
    value: object
    #: ``default``, ``env``, ``tuner``, ``flag`` or ``arg``.
    source: str


class Settings:
    """The resolved table: ``settings[name]`` is the effective value."""

    __slots__ = ("entries",)

    def __init__(self, entries: dict[str, Setting]):
        self.entries = entries

    def __getitem__(self, name: str):
        return self.entries[name].value

    def source(self, name: str) -> str:
        return self.entries[name].source

    def requested(self, name: str):
        """The value when a caller or the tuner chose it, else None —
        what trace attributes and the ledger's ``store`` field show."""
        entry = self.entries[name]
        return None if entry.source in ("default", "env") else entry.value

    def non_default(self, exclude=()) -> dict[str, list]:
        """``{name: [source, value]}`` for every knob not at its default
        and not in ``exclude``: the ledger's sparse record of the job's
        configuration."""
        return {name: [e.source, _plain(e.value)]
                for name, e in self.entries.items()
                if e.source != "default" and name not in exclude}


def _plain(value):
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    return getattr(value, "name", type(value).__name__)


def _unset(raw) -> bool:
    return raw is None or (isinstance(raw, str) and not raw.strip())


def _parse(knob: Knob, raw, origin: str):
    try:
        return knob.parse(raw)
    except ValueError as exc:
        raise FrameworkError(f"{origin}={raw!r}: {exc}") from None


def resolve(args: Mapping[str, object] | None = None, *,
            tuner: Mapping[str, object] | None = None,
            names: Iterable[str] | None = None) -> Settings:
    """Resolve ``names`` (default: every knob) to effective values.

    ``args`` are a driver's explicit arguments and ``tuner`` the
    tuner's picks; ``None`` (or a blank string) leaves a knob open for
    the next source.  Raises :class:`FrameworkError` on the first value
    its parser rejects, whatever its source.
    """
    layers = (("arg", args or {}), ("flag", _OVERRIDES.get()),
              ("tuner", tuner or {}))
    entries = {}
    for name in (KNOBS if names is None else names):
        knob = KNOBS[name]
        for source, layer in layers:
            raw = layer.get(name)
            if not _unset(raw):
                origin = knob.flag if source == "flag" and knob.flag \
                    else name
                entries[name] = Setting(_parse(knob, raw, origin), source)
                break
        else:
            raw = os.environ.get(knob.env)
            if _unset(raw):
                entries[name] = Setting(knob.default, "default")
            else:
                entries[name] = Setting(
                    _parse(knob, raw, f"${knob.env}"), "env")
    return Settings(entries)


@contextmanager
def override(**values):
    """Hold settings in force (source ``flag``) for every job run in
    the block, in this thread; ``None`` values are ignored."""
    token = _OVERRIDES.set({
        **_OVERRIDES.get(),
        **{k: v for k, v in values.items() if v is not None}})
    try:
        yield
    finally:
        _OVERRIDES.reset(token)


# ----------------------------------------------------------------------
# The CLIs' shared flags
# ----------------------------------------------------------------------


def add_flags(parser, **switches) -> None:
    """Add every knob's flag to ``parser``.  ``switches`` turns a flag
    into a value-less switch: ``check="report"`` makes ``--check``
    mean ``check=report``."""
    for name, knob in KNOBS.items():
        if knob.flag is None:
            continue
        text = f"{knob.help} [${knob.env}]"
        if name in switches:
            parser.add_argument(knob.flag, dest=name, action="store_const",
                                const=switches[name], default=None,
                                help=f"{text} (this flag: {switches[name]})")
        else:
            parser.add_argument(knob.flag, dest=name, metavar="VALUE",
                                help=text)


@contextmanager
def cli_settings(prog: str, args):
    """Validate a CLI's flags together with the environment, then hold
    the flags in force for every job the command runs.

    Yields the resolved :class:`Settings`.  A bad value from either
    source — or a :class:`FrameworkError` from the command itself —
    prints ``prog: message`` and exits 2.
    """
    flags = {name: getattr(args, name)
             for name, knob in KNOBS.items() if knob.flag}
    try:
        with override(**flags):
            settings = resolve()
            base = settings["backend"].partition(":")[0]
            if (flags.get("workers") is not None
                    and base not in SHARDED_BACKENDS):
                raise FrameworkError("--workers needs the parallel or dist "
                                     "backend")
            if (flags.get("memory_budget") is not None
                    and settings["store"] != "spill"):
                raise FrameworkError("--memory-budget needs the spill store")
            yield settings
    except FrameworkError as exc:
        print(f"{prog}: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
