"""Declarative cache configuration specs.

A :class:`CacheSpec` is a frozen, picklable, hashable *description* of a
cache configuration: a registered ``kind`` (the name of a builder in
:mod:`repro.core.presets`) plus a canonicalised tuple of keyword
parameters.  Specs are what the sweep engine ships to worker processes
(closures and ``functools.partial`` objects over local state do not
pickle reliably) and what the on-disk result cache keys on (a spec has a
stable :meth:`fingerprint`, a callable does not).

Construction goes through :meth:`CacheSpec.of`, which validates the kind
and parameter names eagerly::

    spec = CacheSpec.of("soft", virtual_line_size=128)
    model = spec.build()          # a fresh SoftwareAssistedCache

``to_dict``/``from_dict`` give a JSON-safe round-trip (``MemoryTiming``
values are encoded structurally), used by the result cache and by tests.
"""

from __future__ import annotations

import hashlib
import inspect
import json
from dataclasses import dataclass, fields as dataclass_fields
from typing import Any, Callable, Dict, Tuple

from ..errors import ConfigError
from ..sim.timing import MemoryTiming

#: kind name -> builder callable (populated by repro.core.presets).
_BUILDERS: Dict[str, Callable[..., Any]] = {}


def stable_fingerprint(payload: Dict[str, Any]) -> str:
    """sha256 hex of the canonical JSON encoding of ``payload``.

    The fingerprinting convention of cache specs: sorted keys, no
    whitespace, so logically equal payloads hash identically.
    """
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def register_kind(kind: str, builder: Callable[..., Any]) -> None:
    """Register a spec kind; ``builder(**params)`` must return a model."""
    if not kind:
        raise ConfigError("spec kind must be a non-empty string")
    _BUILDERS[kind] = builder


def registered_kinds() -> Tuple[str, ...]:
    """All registered kinds, sorted (ensures presets are loaded)."""
    _ensure_builders()
    return tuple(sorted(_BUILDERS))


def _ensure_builders() -> None:
    # The builders live in repro.core.presets, which imports this module
    # to register them — so the import must stay lazy.
    if not _BUILDERS:
        from . import presets  # noqa: F401  (import registers the kinds)


def _builder(kind: str) -> Callable[..., Any]:
    _ensure_builders()
    try:
        return _BUILDERS[kind]
    except KeyError:
        raise ConfigError(
            f"unknown cache spec kind {kind!r}; known: {sorted(_BUILDERS)}"
        ) from None


@dataclass(frozen=True)
class CacheSpec:
    """Frozen description of one cache configuration."""

    kind: str
    #: Canonical (sorted) tuple of ``(name, value)`` parameter pairs.
    params: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        # Canonicalise so equality/hash/fingerprint ignore keyword order.
        object.__setattr__(
            self, "params", tuple(sorted(tuple(p) for p in self.params))
        )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def of(cls, kind: str, **params: Any) -> "CacheSpec":
        """Validated construction: the kind and every parameter name must
        exist in the builder's signature."""
        builder = _builder(kind)
        signature = inspect.signature(builder)
        accepts_any = any(
            p.kind is inspect.Parameter.VAR_KEYWORD
            for p in signature.parameters.values()
        )
        unknown = [p for p in params if p not in signature.parameters]
        if unknown and not accepts_any:
            raise ConfigError(
                f"spec kind {kind!r} has no parameter(s) {sorted(unknown)}; "
                f"accepts: {sorted(signature.parameters)}"
            )
        return cls(kind, tuple(params.items()))

    def derive(self, **changes: Any) -> "CacheSpec":
        """A modified copy (sweeps change one knob at a time)."""
        merged = dict(self.params)
        merged.update(changes)
        return CacheSpec.of(self.kind, **merged)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def param_dict(self) -> Dict[str, Any]:
        return dict(self.params)

    def build(self):
        """Construct a fresh cache model from this spec."""
        return _builder(self.kind)(**self.param_dict())

    def label(self) -> str:
        """Short human-readable description."""
        if not self.params:
            return self.kind
        inner = ", ".join(f"{k}={v!r}" for k, v in self.params)
        return f"{self.kind}({inner})"

    # ------------------------------------------------------------------
    # Serialisation / fingerprinting
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dictionary form (round-trips via :meth:`from_dict`)."""
        return {
            "kind": self.kind,
            "params": {k: _encode_value(v) for k, v in self.params},
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "CacheSpec":
        try:
            kind = payload["kind"]
            params = payload.get("params", {})
        except (TypeError, KeyError) as error:
            raise ConfigError(f"malformed cache spec payload: {payload!r}") from error
        return cls.of(
            kind, **{k: _decode_value(v) for k, v in params.items()}
        )

    def fingerprint(self) -> str:
        """Stable content hash (hex) — the result-cache key component."""
        return stable_fingerprint(self.to_dict())

    def __str__(self) -> str:
        return self.label()


def _encode_value(value: Any) -> Any:
    if isinstance(value, MemoryTiming):
        return {
            "__type__": "MemoryTiming",
            **{f.name: getattr(value, f.name) for f in dataclass_fields(value)},
        }
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    raise ConfigError(
        f"cache spec parameter value {value!r} is not JSON-serialisable"
    )


def _decode_value(value: Any) -> Any:
    if isinstance(value, dict):
        if value.get("__type__") != "MemoryTiming":
            raise ConfigError(f"unknown encoded spec value: {value!r}")
        kwargs = {k: v for k, v in value.items() if k != "__type__"}
        return MemoryTiming(**kwargs)
    return value
