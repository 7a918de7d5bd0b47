"""On-demand build and loading of the native kernel library.

The C source ships with the package (``kernels.c``); the first native
simulation compiles it with the system C compiler into a shared library
cached under the result-cache directory
(``default_cache_dir()/native/kernels-<hash>.so``).  The hash covers
the source bytes, the compiler's ``--version`` line and the flags, so

* editing the C source invalidates the cached ``.so``,
* a compiler upgrade rebuilds rather than serving a stale binary, and
* ``CC=/bin/false`` (or no toolchain at all) hashes to *nothing* —
  even a previously built library is not served, which is exactly what
  the CI no-compiler job relies on.

Everything here is failure-tolerant: any problem (no compiler, compile
error, unloadable library) is captured as a one-line *diagnostic*
string.  :func:`availability` returns ``None`` when the library is
ready and the diagnostic otherwise; the engine ladder turns a
diagnostic into the stable ``native-unavailable`` refusal, so
``engine=auto`` silently falls back to a lower tier while
``engine=native`` raises a :class:`~repro.errors.ConfigError` carrying
the diagnostic verbatim.
"""

from __future__ import annotations

import ctypes
import os
import shlex
import shutil
import subprocess
from pathlib import Path
from typing import List, Optional, Tuple

#: The shipped C source (single translation unit).
SOURCE = Path(__file__).with_name("kernels.c")

#: Flags for the on-demand build.  Deterministic (no -march=native): the
#: cached .so must be shareable across CI runs on fleet hardware.
CFLAGS = ("-O2", "-fPIC", "-shared")

#: Memoized load state for this process.  ``attempted`` latches the
#: first load so a missing toolchain is probed once per process, not
#: once per simulation; tests flip state through :func:`reset`.
_STATE = {"attempted": False, "lib": None, "diagnostic": None, "path": None}

#: ctypes argument layout of repro_sim_chunk (see kernels.c).
_ARGTYPES = (
    [ctypes.c_longlong]          # n
    + [ctypes.c_void_p] * 5      # the trace columns
    + [ctypes.c_void_p] * 11     # params, cache and buffer state, regs
    + [ctypes.c_void_p] * 4      # per-reference outputs
)


def _source_bytes() -> bytes:
    """The C source to hash and compile (monkeypatch seam for the
    cache-invalidation tests)."""
    return SOURCE.read_bytes()


def compiler_command() -> Optional[List[str]]:
    """The C compiler argv prefix: ``$CC`` (shell-split) or the first of
    cc/gcc/clang on PATH; None when there is no toolchain at all."""
    cc = os.environ.get("CC", "").strip()
    if cc:
        return shlex.split(cc)
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return [path]
    return None


def _compiler_version(cmd: List[str]) -> Tuple[Optional[str], Optional[str]]:
    """``(version line, None)`` or ``(None, diagnostic)``."""
    try:
        proc = subprocess.run(
            cmd + ["--version"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=60,
        )
    except OSError as exc:
        return None, f"cannot run {cmd[0]!r}: {exc}"
    except subprocess.TimeoutExpired:
        return None, f"{cmd[0]!r} --version timed out"
    if proc.returncode != 0:
        detail = (proc.stderr or proc.stdout or "").strip().splitlines()
        tail = detail[0] if detail else "no output"
        return None, (
            f"{' '.join(cmd)} --version failed "
            f"(exit {proc.returncode}): {tail}"
        )
    lines = (proc.stdout or "").strip().splitlines()
    return (lines[0] if lines else f"{cmd[0]} (unversioned)"), None


def cache_dir() -> Path:
    """Where compiled kernels live: a ``native/`` subdirectory of the
    result cache (``$REPRO_CACHE_DIR``-aware; the result cache globs
    ``*/*.json`` so the two never collide)."""
    from ...harness.parallel import default_cache_dir

    return Path(default_cache_dir()) / "native"


def build_id(version_line: str) -> str:
    """Content hash keying the cached ``.so``: source + compiler +
    flags."""
    import hashlib

    digest = hashlib.sha256()
    digest.update(_source_bytes())
    digest.update(b"\n")
    digest.update(version_line.encode())
    digest.update(b"\n")
    digest.update(" ".join(CFLAGS).encode())
    return digest.hexdigest()[:16]


def ensure_library(
    force: bool = False,
) -> Tuple[Optional[Path], Optional[str]]:
    """Compile (if needed) and return ``(path, None)``, else
    ``(None, diagnostic)``.

    The build is atomic — compile to a temporary name, then
    ``os.replace`` — so concurrent processes racing on a cold cache
    both end with the same valid library.
    """
    cmd = compiler_command()
    if cmd is None:
        return None, (
            "no C compiler found (set $CC or install cc/gcc/clang)"
        )
    version, problem = _compiler_version(cmd)
    if version is None:
        return None, problem
    library = cache_dir() / f"kernels-{build_id(version)}.so"
    if library.exists() and not force:
        return library, None
    library.parent.mkdir(parents=True, exist_ok=True)
    # Compile the hashed bytes, not the package file directly, so the
    # binary always matches its own cache key.
    source = library.with_suffix(".c")
    source.write_bytes(_source_bytes())
    scratch = library.with_name(f".{library.name}.{os.getpid()}")
    proc = subprocess.run(
        cmd + list(CFLAGS) + ["-o", str(scratch), str(source)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    if proc.returncode != 0 or not scratch.exists():
        try:
            scratch.unlink()
        except OSError:
            pass
        detail = (proc.stderr or proc.stdout or "").strip()
        tail = "; ".join(detail.splitlines()[-3:]) or "no output"
        return None, (
            f"C compile failed (exit {proc.returncode}, "
            f"{' '.join(cmd)}): {tail}"
        )
    os.replace(scratch, library)
    return library, None


def _configure(lib: ctypes.CDLL) -> ctypes.CDLL:
    lib.repro_sim_chunk.restype = ctypes.c_longlong
    lib.repro_sim_chunk.argtypes = _ARGTYPES
    return lib


def load() -> Tuple[Optional[ctypes.CDLL], Optional[str]]:
    """Memoized ``(library, None)`` or ``(None, diagnostic)``."""
    if not _STATE["attempted"]:
        _STATE["attempted"] = True
        path, diagnostic = ensure_library()
        if path is None:
            _STATE["diagnostic"] = diagnostic
        else:
            try:
                _STATE["lib"] = _configure(ctypes.CDLL(str(path)))
                _STATE["path"] = path
            except OSError as exc:
                _STATE["diagnostic"] = f"cannot load {path}: {exc}"
    return _STATE["lib"], _STATE["diagnostic"]


def availability() -> Optional[str]:
    """None when the native library is loadable, else the diagnostic."""
    lib, diagnostic = load()
    if lib is not None:
        return None
    return diagnostic or "native kernel library unavailable"


def library_path() -> Optional[Path]:
    """Path of the loaded library (None when unavailable)."""
    load()
    return _STATE["path"]


def reset() -> None:
    """Forget the memoized load (tests re-probing the toolchain)."""
    _STATE.update(attempted=False, lib=None, diagnostic=None, path=None)
