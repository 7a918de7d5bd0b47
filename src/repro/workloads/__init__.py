"""The paper's benchmark suite, modelled as loop-nest programs."""

from .blocked import FIG11B_LEADING_DIMS, blocked_mm_program
from .dense import FIG11A_BLOCK_SIZES, blocked_mv_program, mv_program
from .livermore import liv_program
from .nas import nas_program
from .perfect import perfect_kernel, perfect_program
from .registry import (
    BENCHMARK_ORDER,
    KERNEL_ORDER,
    benchmark_names,
    build_program,
    get_blocked_mm_trace,
    get_blocked_mv_trace,
    get_kernel_trace,
    get_stream_trace,
    get_study_trace,
    get_trace,
    suite_traces,
)
from .slalom import slalom_program
from .sparse import spmv_program

__all__ = [
    "BENCHMARK_ORDER",
    "KERNEL_ORDER",
    "FIG11A_BLOCK_SIZES",
    "FIG11B_LEADING_DIMS",
    "benchmark_names",
    "build_program",
    "get_trace",
    "get_kernel_trace",
    "get_blocked_mv_trace",
    "get_blocked_mm_trace",
    "get_stream_trace",
    "get_study_trace",
    "suite_traces",
    "mv_program",
    "blocked_mv_program",
    "blocked_mm_program",
    "spmv_program",
    "liv_program",
    "nas_program",
    "slalom_program",
    "perfect_program",
    "perfect_kernel",
]
