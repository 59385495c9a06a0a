"""``repro.store`` — pluggable intermediate-store policies.

The paper's contribution is choosing where intermediate Map output
lives on the device (shared vs global memory, modes G/GT/SI/SO/SIO);
this package makes the *host-side* analogue of that decision pluggable
for the functional backends: an :class:`IntermediateStore` receives
Map emissions, and yields key-sorted groups into Reduce.

* ``"memory"`` — :class:`MemoryStore`: the historical unbounded dict
  group-by (default; byte-identical output and behaviour).
* ``"spill"``  — :class:`SpillStore`: tracks an approximate byte
  budget, spills sorted runs to temp files past it, merge-streams
  groups back through a k-way heap merge.  Peak tracked memory stays
  bounded, enabling intermediates ≫ RAM.

Select per job (``run_job(..., store="spill", memory_budget=...)``),
per process with the ``store`` / ``memory_budget`` settings
(:mod:`repro.config`: ``$REPRO_STORE`` / ``$REPRO_MEMORY_BUDGET``), or
on the CLIs with ``--store`` / ``--memory-budget``.  The cycle-accurate
sim backend models the *device* intermediate tiers and ignores the
host store policy.
"""

from __future__ import annotations

from ..errors import FrameworkError
from .base import IntermediateStore, StoreStats, record_cost
from .memory import MemoryStore
from .spill import (
    DEFAULT_BUDGET,
    SpillStore,
    merge_runs,
)

#: Registry of the shipped store policies, by name.
STORES: dict[str, type[IntermediateStore]] = {
    MemoryStore.name: MemoryStore,
    SpillStore.name: SpillStore,
}

def open_store(name: str, budget: int | None = None, *,
               root: str | None = None, **kwargs) -> IntermediateStore:
    """Build a live store for one shuffle hop.

    ``budget`` and ``root`` (the directory the spill store's private
    run directory is created under) only apply to the spill store; a
    budget with ``"memory"`` is legal and ignored — the memory store
    is unbounded by design.
    """
    if name not in STORES:
        known = ", ".join(sorted(STORES))
        raise FrameworkError(f"unknown store {name!r}; known stores: {known}")
    if name == SpillStore.name:
        return SpillStore(budget, root=root, **kwargs)
    return MemoryStore()


__all__ = [
    "DEFAULT_BUDGET",
    "IntermediateStore",
    "MemoryStore",
    "STORES",
    "SpillStore",
    "StoreStats",
    "merge_runs",
    "open_store",
    "record_cost",
]
