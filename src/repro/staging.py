"""Atomic file publication: every file the package publishes (result
cache entries, trace-store chunks and manifests, corpus manifests,
telemetry artifacts) is written to a ``.tmp-*`` sibling and renamed in."""

from __future__ import annotations

import contextlib
import os
import tempfile
from pathlib import Path
from typing import Iterator, Union


@contextlib.contextmanager
def staged(path: Union[str, os.PathLike], mode: str = "w", **open_kwargs) -> Iterator:
    """Yield a handle (``open``'s ``mode`` and keywords) on a fresh
    ``.tmp-*`` sibling of ``path`` and rename it onto ``path`` on a clean
    exit.  If anything raises, the stage is unlinked and the exception
    propagates: ``path`` holds its old content or the whole new one."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-", suffix=path.suffix)
    try:
        with os.fdopen(fd, mode, **open_kwargs) as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
