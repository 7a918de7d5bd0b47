"""Native compiled engine tier (``engine=native``).

One C loop for the software-assisted cache (a plain cache being the
case with no assists), the write-through cache and the related-work
bypass, stream-buffer, column-associative, sub-block, HP-7200 assist
and two-level-hierarchy models, plus the offline Belady OPT loop of
:func:`repro.sim.belady.simulate_belady`, compiled
on demand with the system C compiler, cached under the result-cache
directory keyed by a source+compiler hash, and loaded via
:mod:`ctypes`.  The top of the engine ladder (:mod:`repro.sim.engine`):
``engine=auto`` picks it when :func:`~repro.sim.engine.native_refusal`
proves equivalence *and* a toolchain or prebuilt library exists;
otherwise the reference loop serves silently and the refusal records
why (``native-unavailable`` when no compiler exists).

``python -m repro.sim.native`` (``make native``) force-builds the
library and prints its cache path.
"""

from .build import availability, ensure_library, library_path, reset
from .runner import simulate_native

__all__ = [
    "availability",
    "ensure_library",
    "library_path",
    "reset",
    "simulate_native",
]
