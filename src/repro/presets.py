"""The one place cache configurations are registered by name.

``SPECS`` maps every configuration selectable from the command line to a
frozen, picklable :class:`~repro.core.spec.CacheSpec`.  The CLI and the
experiment drivers both consume this registry instead of keeping their
own dicts::

    from repro import presets

    model = presets.build_config("soft")            # fresh model
    spec = presets.spec("soft", virtual_line_size=128)  # derived spec

Legacy factory-style access (``presets.standard()`` returning a model)
was removed after two release cycles of :class:`DeprecationWarning`;
build models from specs, or import :mod:`repro.core.presets` directly.
"""

from __future__ import annotations

from typing import Dict, List

from .core import presets as _factories
from .core.spec import CacheSpec, register_kind, registered_kinds
from .errors import ConfigError

__all__ = [
    "SPECS",
    "CacheSpec",
    "spec",
    "build_config",
    "config_names",
    "register_kind",
    "registered_kinds",
]

#: CLI name -> spec, in the paper's presentation order.
SPECS: Dict[str, CacheSpec] = {
    "standard": CacheSpec.of("standard"),
    "victim": CacheSpec.of("victim"),
    "temporal": CacheSpec.of("soft_temporal_only"),
    "spatial": CacheSpec.of("soft_spatial_only"),
    "soft": CacheSpec.of("soft"),
    "bypass": CacheSpec.of("bypass"),
    "bypass-buffer": CacheSpec.of("bypass_buffered"),
    "standard-prefetch": CacheSpec.of("standard_prefetch"),
    "soft-prefetch": CacheSpec.of("soft_prefetch"),
    "temporal-priority": CacheSpec.of("temporal_priority"),
}


def config_names() -> List[str]:
    """Registered configuration names, in presentation order."""
    return list(SPECS)


def spec(name: str, **overrides) -> CacheSpec:
    """The registered spec for ``name``, optionally with knob overrides."""
    try:
        base = SPECS[name]
    except KeyError:
        raise ConfigError(
            f"unknown configuration {name!r}; known: {config_names()}"
        ) from None
    return base.derive(**overrides) if overrides else base


def build_config(name: str, **overrides):
    """A fresh cache model for a registered configuration name."""
    return spec(name, **overrides).build()


def __getattr__(name: str):
    if name in _factories.__all__:
        raise AttributeError(
            f"repro.presets.{name} was a deprecated factory import, removed "
            f"after its warning period; build models from specs (repro."
            f"presets.SPECS / CacheSpec.of({name!r})) or import repro.core."
            f"presets.{name} directly"
        )
    raise AttributeError(f"module 'repro.presets' has no attribute {name!r}")
