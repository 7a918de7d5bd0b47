"""Exception hierarchy for the repro package.

All errors raised by this library derive from :class:`ReproError`, so that
callers can catch library failures without masking programming errors.

Every class carries a stable machine-readable ``code`` (kebab-case) used
wherever an error crosses a machine boundary — the serve API's JSON
error bodies and the CLI's ``error [<code>]: ...`` lines.  Codes are
part of the compatibility surface: renaming one breaks clients that
branch on it, so treat them like wire-format fields.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""

    #: Stable machine-readable error code (kebab-case), overridden per
    #: subclass.  Surfaced verbatim by the serve API and the CLI.
    code = "repro-error"


class ConfigError(ReproError):
    """An invalid cache, timing or workload configuration was supplied."""

    code = "config-error"


class TraceError(ReproError):
    """A memory trace is malformed or inconsistent."""

    code = "trace-error"


class TraceRecordMismatch(TraceError):
    """A generated trace's fingerprint differs from its on-disk record."""

    code = "trace-record-mismatch"


class CompilerError(ReproError):
    """A loop nest or affine expression cannot be analysed or generated."""

    code = "compiler-error"


class SimulationError(ReproError):
    """The simulator reached an inconsistent internal state."""

    code = "simulation-error"


class WorkerDiedError(ReproError):
    """A worker process of a parallel sweep died before returning."""

    code = "worker-died"


def error_code(error: BaseException) -> str:
    """The stable code of any exception (``internal-error`` otherwise)."""
    return getattr(error, "code", "internal-error")
