"""Experiment harness: cached grid runner and table rendering."""

from .parallel import (
    SIM_VERSION,
    ResultCache,
    cache_enabled,
    default_cache_dir,
    resolve_jobs,
    run_cells,
)
from .runner import Sweep, run_sweep
from .tables import format_table

__all__ = [
    "Sweep",
    "run_sweep",
    "format_table",
    "ResultCache",
    "SIM_VERSION",
    "cache_enabled",
    "default_cache_dir",
    "resolve_jobs",
    "run_cells",
]
