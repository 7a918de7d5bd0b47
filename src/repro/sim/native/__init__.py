"""Native compiled engine tier (``engine=native``).

C kernels for the standard-cache hot loops, compiled on demand with
the system C compiler, cached under the result-cache directory keyed
by a source+compiler hash, and loaded via :mod:`ctypes`.  Sits above
the ``fast`` tier in the engine ladder (:mod:`repro.sim.engine`):
``engine=auto`` picks it only when :func:`~repro.sim.engine
.native_refusal` proves equivalence *and* a toolchain or prebuilt
library exists; otherwise the fast tier serves silently and the
refusal matrix shows ``native-unavailable``.

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
