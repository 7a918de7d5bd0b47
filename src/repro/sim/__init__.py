"""Cache-simulation substrate: geometry, timing, baselines, driver."""

from .base import CacheModel
from .belady import simulate_belady
from .bypass import BypassCache
from .column_assoc import ColumnAssociativeCache
from .driver import simulate
from .engine import (
    ENGINES,
    EngineMismatchError,
    cross_validate,
    native_refusal,
    resolve_engine,
    select_engine,
)
from .geometry import CacheGeometry
from .hierarchy import TwoLevelCache
from .result import SimResult
from .standard import StandardCache
from .stream_buffer import StreamBufferCache
from .subblock import SubBlockCache
from .timing import PAPER_TIMING, MemoryTiming
from .write_buffer import WriteBuffer

__all__ = [
    "CacheModel",
    "CacheGeometry",
    "MemoryTiming",
    "PAPER_TIMING",
    "WriteBuffer",
    "SimResult",
    "StandardCache",
    "BypassCache",
    "ColumnAssociativeCache",
    "StreamBufferCache",
    "SubBlockCache",
    "TwoLevelCache",
    "ENGINES",
    "EngineMismatchError",
    "cross_validate",
    "native_refusal",
    "resolve_engine",
    "select_engine",
    "simulate",
    "simulate_belady",
]
