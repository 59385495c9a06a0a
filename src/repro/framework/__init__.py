"""``repro.framework`` — the paper's shared-memory-staging MapReduce
framework for the simulated GPU.

Public surface::

    from repro.framework import (
        MapReduceSpec, MemoryMode, ReduceStrategy, KeyValueSet, run_job,
    )

    result = run_job(spec, input_kvs, mode=MemoryMode.SIO,
                     strategy=ReduceStrategy.TR)
    print(result.timings.as_dict(), len(result.output))
"""

from .api import Emit, MapReduceSpec
from .bitonic import BitonicResult, bitonic_sort_device
from .pipeline import IterativeJob, IterativeResult
from .job import JobResult, PhaseTimings, run_job
from .layout import SmemLayout, plan_layout
from .modes import ALL_MODES, MemoryMode, ReduceStrategy, effective_reduce_mode
from .partition import RolePartition, partition_warps
from .records import DeviceRecordSet, KeyValueSet, OutputBuffers
from .shuffle import GroupedDeviceSet, ShuffleResult, shuffle
from .streaming import BatchTrace, StreamedResult, run_streamed_job, split_batches

__all__ = [
    "ALL_MODES",
    "DeviceRecordSet",
    "Emit",
    "GroupedDeviceSet",
    "JobResult",
    "KeyValueSet",
    "MapReduceSpec",
    "MemoryMode",
    "OutputBuffers",
    "PhaseTimings",
    "ReduceStrategy",
    "RolePartition",
    "ShuffleResult",
    "StreamedResult",
    "BatchTrace",
    "run_streamed_job",
    "BitonicResult",
    "bitonic_sort_device",
    "IterativeJob",
    "IterativeResult",
    "split_batches",
    "SmemLayout",
    "effective_reduce_mode",
    "partition_warps",
    "plan_layout",
    "run_job",
    "shuffle",
]
