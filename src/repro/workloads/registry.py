"""Benchmark registry: the paper's suite by name, as lazy trace handles.

The nine benchmarks of the main evaluation (figures 1, 3, 4, 6-9, 12)
are ``MDG, BDN, DYF, TRF, NAS, Slalom, LIV, MV, SpMV`` — always listed
in the paper's plotting order.  Figure 10a adds the manually
instrumented kernels of seven Perfect Club codes
(``ADM, MDG, BDN, DYF, ARC, FLO, TRF``).

Every getter returns a :class:`TraceHandle`, cached per process by its
arguments (but :func:`get_study_trace`, whose traces one study uses
once).  A handle's ``fingerprint()``, ``len()`` and ``name`` come
from a small on-disk *trace record* (``{"fingerprint", "refs",
"name"}``) once one exists, so a run whose cells all hit the result
cache never generates the trace.  The columns are generated, once, on
first access — when a cell misses or a figure analyses the trace.

Records live in the result cache's layout
(:meth:`~repro.harness.parallel.ResultCache.get_record`), keyed by the
registry call, the bytes of the generator sources (``compiler/``,
``workloads/``, ``memtrace/trace.py``, ``memtrace/timing.py``) and
numpy's version, whose ``Generator.random`` stream (the gap draws of
:meth:`~repro.memtrace.timing.GapDistribution.sample`) is not promised
stable across releases.  A record is written only when its trace was
generated anyway; a materialised handle re-hashes its columns and
raises :class:`~repro.errors.TraceRecordMismatch` if they disagree
with the record.  Records always live in the default cache directory
(``REPRO_CACHE_DIR``), whatever store a sweep's ``cache=`` argument
names; with ``REPRO_CACHE=0`` nothing is read or written.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..errors import ConfigError, TraceRecordMismatch
from ..compiler import Array, ArrayRef, Loop, Program, generate_trace, nest, var
from ..memtrace.trace import Trace
from .blocked import blocked_mm_program
from .dense import blocked_mv_program, mv_program
from .livermore import liv_program
from .nas import nas_program
from .perfect import perfect_kernel, perfect_program
from .slalom import slalom_program
from .sparse import spmv_program
from .studies import STUDY_PROGRAMS

#: The paper's benchmark order on every bar chart.
BENCHMARK_ORDER: Tuple[str, ...] = (
    "MDG", "BDN", "DYF", "TRF", "NAS", "Slalom", "LIV", "MV", "SpMV",
)

#: Figure 10a's kernel set, in the paper's order.
KERNEL_ORDER: Tuple[str, ...] = (
    "ADM", "MDG", "BDN", "DYF", "ARC", "FLO", "TRF",
)

_PROGRAM_BUILDERS: Dict[str, Callable[[str], Program]] = {
    "MDG": lambda scale: perfect_program("MDG", scale),
    "BDN": lambda scale: perfect_program("BDN", scale),
    "DYF": lambda scale: perfect_program("DYF", scale),
    "TRF": lambda scale: perfect_program("TRF", scale),
    "NAS": nas_program,
    "Slalom": slalom_program,
    "LIV": liv_program,
    "MV": mv_program,
    "SpMV": spmv_program,
}


def benchmark_names() -> List[str]:
    """All registered benchmark names, in plotting order."""
    return list(BENCHMARK_ORDER)


def build_program(name: str, scale: str = "paper") -> Program:
    """The loop-nest program of a registered benchmark."""
    try:
        builder = _PROGRAM_BUILDERS[name]
    except KeyError:
        raise ConfigError(
            f"unknown benchmark {name!r}; known: {sorted(_PROGRAM_BUILDERS)}"
        ) from None
    return builder(scale)


# ----------------------------------------------------------------------
# Trace records
# ----------------------------------------------------------------------
_PACKAGE = Path(__file__).resolve().parent.parent

#: What a trace's columns depend on, relative to the package root.
_GENERATOR_SOURCES = (
    "compiler", "workloads", "memtrace/trace.py", "memtrace/timing.py",
)

def _source_bytes(entries: Tuple[str, ...]) -> bytes:
    """Every source file under ``entries`` (package-relative files or
    directories of ``*.py``), named, in a stable order (monkeypatch seam
    for the invalidation tests)."""
    parts = []
    for entry in entries:
        path = _PACKAGE / entry
        for source in sorted(path.rglob("*.py")) if path.is_dir() else [path]:
            parts.append(source.relative_to(_PACKAGE).as_posix().encode())
            parts.append(source.read_bytes())
    return b"\0".join(parts)


@lru_cache(maxsize=None)
def source_digest(entries: Tuple[str, ...] = _GENERATOR_SOURCES) -> str:
    """sha256 of the sources under ``entries`` (by default the trace
    generators), computed on first use so that importing the registry
    reads no files."""
    return hashlib.sha256(_source_bytes(entries)).hexdigest()


def record_key(call: Tuple) -> str:
    """The record key of one registry call ``(getter, *arguments)``."""
    material = f"{call!r}\n{source_digest()}\n{np.__version__}"
    return hashlib.sha256(material.encode()).hexdigest()


def _record_cache():
    """The result cache holding records, or None under ``REPRO_CACHE=0``."""
    from ..harness.parallel import ResultCache, cache_enabled

    return ResultCache() if cache_enabled() else None


def _valid_record(record) -> Optional[Dict]:
    """The three fields of ``record`` if each holds a sane value, else
    None (a corrupt record reads as a miss)."""
    if (
        isinstance(record, dict)
        and isinstance(record.get("fingerprint"), str)
        and len(record["fingerprint"]) == 64
        and type(record.get("refs")) is int
        and record["refs"] >= 0
        and isinstance(record.get("name"), str)
    ):
        return {key: record[key] for key in ("fingerprint", "refs", "name")}
    return None


#: Trace attributes generated with the columns.
_COLUMNS = frozenset(
    ("addresses", "is_write", "temporal", "spatial", "gaps", "ref_ids", "name")
)
#: The handle's own attributes, which a pickled handle leaves behind.
_HANDLE_STATE = frozenset(("_call", "_generate", "_record"))
_UNREAD = object()


def _plain_trace(state: Dict) -> Trace:
    """Unpickle a handle as the ordinary ``Trace`` it materialised."""
    trace = Trace.__new__(Trace)
    trace.__dict__.update(state)
    return trace


class TraceHandle(Trace):
    """A registry trace whose columns are generated on first access.

    ``fingerprint()``, ``len()`` and ``name`` read the trace record when
    one exists; anything else (the columns, ``columns_list()``,
    iteration) generates the trace once and from then on the handle is
    an ordinary :class:`Trace`.  A handle pickles as its materialised
    ``Trace``, so ``repro serve``'s workers receive plain traces.
    """

    def __init__(self, call: Tuple, generate: Callable[[], Trace]) -> None:
        # Trace.__init__ is not called: the columns do not exist yet.
        self._call = call
        self._generate = generate
        self._record = _UNREAD
        self._fingerprint = None
        self._columns_list = None

    def __getattr__(self, attr: str):
        # Reached only for attributes not yet in the instance dict.
        if attr not in _COLUMNS:
            raise AttributeError(attr)
        if attr == "name":
            record = self._lookup()
            if record is not None:
                return record["name"]
        self._materialise()
        return self.__dict__[attr]

    def __len__(self) -> int:
        if "addresses" not in self.__dict__:
            record = self._lookup()
            if record is not None:
                return record["refs"]
        return len(self.addresses)

    def __reduce__(self):
        self._materialise()
        state = {
            key: value for key, value in self.__dict__.items()
            if key not in _HANDLE_STATE
        }
        return (_plain_trace, (state,))

    def fingerprint(self) -> str:
        if self._fingerprint is None:
            record = self._lookup()
            if record is not None:
                self._fingerprint = record["fingerprint"]
            else:
                self._materialise()
                return super().fingerprint()
        return self._fingerprint

    def _lookup(self) -> Optional[Dict]:
        """The trace record, read once; None when absent or disabled."""
        if self._record is _UNREAD:
            cache = _record_cache()
            self._record = None if cache is None else _valid_record(
                cache.get_record(record_key(self._call))
            )
        return self._record

    def _materialise(self) -> None:
        """Generate the columns; check them against the record, or write
        the record when there is none."""
        if "addresses" in self.__dict__:
            return
        trace = self._generate()
        cache = _record_cache()
        if cache is not None:
            record = self._lookup()
            fresh = {
                "fingerprint": trace.fingerprint(),
                "refs": len(trace),
                "name": trace.name,
            }
            if record is None:
                cache.put_record(record_key(self._call), fresh)
                self._record = fresh
            elif record != fresh:
                raise TraceRecordMismatch(
                    f"trace {self._call!r} generated {fresh}, but its "
                    f"record says {record}"
                )
        self.__dict__.update(vars(trace))
        self._generate = None


# ----------------------------------------------------------------------
# Getters
# ----------------------------------------------------------------------
@lru_cache(maxsize=128)
def get_trace(
    name: str, scale: str = "paper", seed: int = 0,
    policy: str = "elementary",
) -> Trace:
    """The instrumented trace of a benchmark (a cached handle), tagged
    by the compiler's ``policy``."""
    if name not in _PROGRAM_BUILDERS:
        build_program(name, scale)  # raises the unknown-name error
    # The default policy is left out of the key, so records written
    # before ``policy`` existed still hit.
    call = ("get_trace", name, scale, seed)
    if policy != "elementary":
        call += (policy,)
    return TraceHandle(
        call,
        lambda: generate_trace(
            build_program(name, scale), seed=seed, policy=policy
        ),
    )


@lru_cache(maxsize=64)
def get_kernel_trace(code: str, scale: str = "paper", seed: int = 0) -> Trace:
    """Figure 10a: trace of a manually instrumented Perfect Club kernel."""
    return TraceHandle(
        ("get_kernel_trace", code, scale, seed),
        lambda: generate_trace(perfect_kernel(code, scale), seed=seed),
    )


@lru_cache(maxsize=64)
def get_blocked_mv_trace(
    block: int, scale: str = "paper", seed: int = 0
) -> Trace:
    """Figure 11a: blocked matrix-vector multiply at one block size."""
    return TraceHandle(
        ("get_blocked_mv_trace", block, scale, seed),
        lambda: generate_trace(blocked_mv_program(block, scale), seed=seed),
    )


@lru_cache(maxsize=64)
def get_blocked_mm_trace(
    leading_dim: int, copying: bool, scale: str = "paper", seed: int = 0
) -> Trace:
    """Figure 11b: blocked matrix-matrix multiply at one leading dimension."""
    return TraceHandle(
        ("get_blocked_mm_trace", leading_dim, copying, scale, seed),
        lambda: generate_trace(
            blocked_mm_program(leading_dim, copying, scale), seed=seed
        ),
    )


def _stream_program(n_streams: int, scale: str) -> Program:
    """A loop body with ``n_streams`` interleaved compulsory-miss streams.

    Every reference walks its own array with stride one: exactly the
    workload shape the paper says breaks stream buffers once the stream
    count exceeds the buffer count.
    """
    length = {"tiny": 256, "test": 2000, "paper": 12000}.get(scale, 2000)
    i = var("i")
    arrays = [Array(f"S{k}", (length,)) for k in range(n_streams)]
    loop = nest(
        [Loop("i", 0, length)],
        body=[ArrayRef(f"S{k}", (i,)) for k in range(n_streams)],
        name=f"streams-{n_streams}",
    )
    return Program(f"streams{n_streams}", arrays, [loop])


@lru_cache(maxsize=16)
def get_stream_trace(n_streams: int, scale: str = "paper", seed: int = 0) -> Trace:
    """Section 5's many-stream kernel at one stream count."""
    return TraceHandle(
        ("get_stream_trace", n_streams, scale, seed),
        lambda: generate_trace(_stream_program(n_streams, scale), seed=seed),
    )


def get_study_trace(
    program: str, scale: str = "paper", seed: int = 0,
    policy: str = "elementary", expand_subscripts: bool = False,
) -> Trace:
    """The trace of an extension study's ``program``
    (:data:`~repro.workloads.studies.STUDY_PROGRAMS`), tagged by the
    compiler's ``policy``, with or without subscript expansion.

    Unlike the suite getters this one keeps no handle per process: each
    study asks for its traces once, and a kept handle would hold the
    generated columns (about 20 MB at paper scale) until exit."""
    builder = STUDY_PROGRAMS[program]
    return TraceHandle(
        ("get_study_trace", program, scale, seed, policy, expand_subscripts),
        lambda: generate_trace(
            builder(scale), seed=seed, policy=policy,
            expand_subscripts=expand_subscripts,
        ),
    )


def suite_traces(scale: str = "paper", seed: int = 0) -> Dict[str, Trace]:
    """All nine main benchmarks, in order (the common experiment input)."""
    return {name: get_trace(name, scale, seed) for name in BENCHMARK_ORDER}
