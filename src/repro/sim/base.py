"""Common interface of all cache simulators.

A cache model is a stateful object with one hot method::

    cycles = model.access(
        address, is_write, temporal=temporal, spatial=spatial, now=now
    )

``now`` is the issue time of the reference (cycles); the returned value
is the number of cycles the access took, *including* any wait for a
locked cache or a full write buffer.  AMAT is the mean of these values.

Models keep their own :class:`~repro.sim.result.SimResult` counters; the
driver (:mod:`repro.sim.driver`) walks a trace, maintains the clock and
finalises the result.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from .result import SimResult


@runtime_checkable
class CacheModel(Protocol):
    """Structural interface every simulator implements."""

    #: Human-readable configuration label, used in result tables.
    name: str

    #: Mutable counter record; the driver stamps trace metadata into it.
    stats: SimResult

    def access(
        self,
        address: int,
        is_write: bool = False,
        *,
        temporal: bool = False,
        spatial: bool = False,
        now: int = 0,
    ) -> int:
        """Simulate one reference issued at time ``now``; return cycles."""
        ...

    def reset(self) -> None:
        """Clear all cache state and counters."""
        ...


def empty_sets(n_sets: int) -> list:
    """``n_sets`` empty per-set MRU lists."""
    return [[] for _ in range(n_sets)]


class Pending:
    """A per-instance attribute built on first use from a pending
    builder (set with :func:`pend`).  Once built or assigned, the value
    is a plain instance attribute, so the hot path is untouched."""

    def __set_name__(self, owner, name) -> None:
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__.pop("_pending" + self.name)()
        obj.__dict__[self.name] = value
        return value


def pend(obj, name: str, build) -> None:
    """Make ``build()`` the value of ``obj``'s :class:`Pending`
    attribute ``name``, called on first use."""
    obj.__dict__.pop(name, None)
    obj.__dict__["_pending" + name] = build


class PendingSets:
    """Base of the models whose main cache is ``self._sets``, per-set
    MRU lists, built on first use from a pending builder: a reset leaves
    ``empty_sets``, the native tier a run's final contents
    (:mod:`repro.sim.native.runner`).  So a sweep cell on the native
    tier, whose model is read for its counters only, never builds them."""

    _sets = Pending()

    def _pend_sets(self, build) -> None:
        """Make ``build()`` the main cache, called on first use."""
        pend(self, "_sets", build)
