"""Factory functions for every cache configuration the paper evaluates.

Each function returns a fresh model; all accept the shared knobs
(``size_bytes``, ``line_size``, ``ways``, ``timing``) so the sweeps of
figures 8-10 are one-liners.

Every factory here is also registered as a :class:`~repro.core.spec
.CacheSpec` *kind* (see the bottom of this module), which is the
picklable, cache-fingerprintable form the sweep engine works with.
Prefer building models through specs (``CacheSpec.of("soft").build()``
or the named registry in :mod:`repro.presets`) in new code.
"""

from __future__ import annotations

from typing import Optional

from ..sim.bypass import BypassCache
from ..sim.column_assoc import ColumnAssociativeCache
from ..sim.geometry import CacheGeometry
from ..sim.standard import StandardCache
from ..sim.stream_buffer import StreamBufferCache
from ..sim.subblock import SubBlockCache
from ..sim.timing import MemoryTiming
from .assist_hp import HPAssistCache
from .config import SoftCacheConfig
from .software_cache import SoftwareAssistedCache
from .spec import register_kind

__all__ = [
    "standard",
    "standard_cache",
    "victim",
    "soft",
    "soft_temporal_only",
    "soft_spatial_only",
    "bypass",
    "bypass_buffered",
    "temporal_priority",
    "soft_prefetch",
    "standard_prefetch",
    "soft_config",
    "column_assoc",
    "stream_buffer",
    "hp_assist",
    "subblock",
    "with_l2",
]


def _timing(timing: Optional[MemoryTiming]) -> MemoryTiming:
    return timing if timing is not None else MemoryTiming()


def standard_cache(
    size_bytes: int = 8 * 1024,
    line_size: int = 32,
    ways: int = 1,
    write_policy: str = "write-back",
    write_allocate: bool = True,
    timing: Optional[MemoryTiming] = None,
) -> StandardCache:
    """The independently implemented Standard baseline (cross-validation)."""
    return StandardCache(
        CacheGeometry(size_bytes, line_size, ways),
        _timing(timing),
        write_policy=write_policy,
        write_allocate=write_allocate,
    )


def standard(
    size_bytes: int = 8 * 1024,
    line_size: int = 32,
    ways: int = 1,
    timing: Optional[MemoryTiming] = None,
) -> SoftwareAssistedCache:
    """"Standard": plain cache, no assistance (fig 3, 6-10 baseline)."""
    config = SoftCacheConfig(
        size_bytes=size_bytes,
        line_size=line_size,
        ways=ways,
        bounce_back_lines=0,
        virtual_line_size=None,
        use_temporal=False,
        timing=_timing(timing),
    )
    return SoftwareAssistedCache(config, name=f"Stand. {config.label()}")


def victim(
    size_bytes: int = 8 * 1024,
    line_size: int = 32,
    ways: int = 1,
    victim_lines: int = 8,
    timing: Optional[MemoryTiming] = None,
) -> SoftwareAssistedCache:
    """"Stand.+Victim": the bounce-back buffer demoted to a victim cache
    (no temporal information, no virtual lines) — figure 3b / 9b."""
    config = SoftCacheConfig(
        size_bytes=size_bytes,
        line_size=line_size,
        ways=ways,
        bounce_back_lines=victim_lines,
        virtual_line_size=None,
        use_temporal=False,
        timing=_timing(timing),
    )
    return SoftwareAssistedCache(config, name=f"Stand.+Victim {config.label()}")


def soft(
    size_bytes: int = 8 * 1024,
    line_size: int = 32,
    ways: int = 1,
    virtual_line_size: int = 64,
    bounce_back_lines: int = 8,
    timing: Optional[MemoryTiming] = None,
) -> SoftwareAssistedCache:
    """"Soft.": the full mechanism (virtual lines + bounce-back cache)."""
    config = SoftCacheConfig(
        size_bytes=size_bytes,
        line_size=line_size,
        ways=ways,
        bounce_back_lines=bounce_back_lines,
        virtual_line_size=virtual_line_size,
        timing=_timing(timing),
    )
    return SoftwareAssistedCache(config, name=f"Soft. {config.label()}")


def soft_temporal_only(
    size_bytes: int = 8 * 1024,
    line_size: int = 32,
    ways: int = 1,
    bounce_back_lines: int = 8,
    timing: Optional[MemoryTiming] = None,
) -> SoftwareAssistedCache:
    """"Soft. for Temp. only": bounce-back cache, no virtual lines."""
    config = SoftCacheConfig(
        size_bytes=size_bytes,
        line_size=line_size,
        ways=ways,
        bounce_back_lines=bounce_back_lines,
        virtual_line_size=None,
        timing=_timing(timing),
    )
    return SoftwareAssistedCache(config, name=f"Soft-Temp {config.label()}")


def soft_spatial_only(
    size_bytes: int = 8 * 1024,
    line_size: int = 32,
    ways: int = 1,
    virtual_line_size: int = 64,
    bounce_back_lines: int = 8,
    timing: Optional[MemoryTiming] = None,
) -> SoftwareAssistedCache:
    """"Soft. for Spat. only": virtual lines; the buffer stays a plain
    victim cache (temporal bits ignored)."""
    config = SoftCacheConfig(
        size_bytes=size_bytes,
        line_size=line_size,
        ways=ways,
        bounce_back_lines=bounce_back_lines,
        virtual_line_size=virtual_line_size,
        use_temporal=False,
        timing=_timing(timing),
    )
    return SoftwareAssistedCache(config, name=f"Soft-Spat {config.label()}")


def bypass(
    size_bytes: int = 8 * 1024,
    line_size: int = 32,
    ways: int = 1,
    timing: Optional[MemoryTiming] = None,
) -> BypassCache:
    """Pure software bypassing (fig 3a): non-temporal misses fetch one
    word and are never cached."""
    return BypassCache(
        CacheGeometry(size_bytes, line_size, ways), _timing(timing)
    )


def bypass_buffered(
    size_bytes: int = 8 * 1024,
    line_size: int = 32,
    ways: int = 1,
    buffer_lines: int = 4,
    timing: Optional[MemoryTiming] = None,
) -> BypassCache:
    """Bypassing through a small buffer (fig 3a): the i860-style scheme
    that recovers spatial locality of bypassed streams."""
    return BypassCache(
        CacheGeometry(size_bytes, line_size, ways),
        _timing(timing),
        buffer_lines=buffer_lines,
    )


def temporal_priority(
    size_bytes: int = 8 * 1024,
    line_size: int = 32,
    ways: int = 2,
    virtual_line_size: int = 64,
    timing: Optional[MemoryTiming] = None,
) -> SoftwareAssistedCache:
    """The simplified set-associative variant of figure 9b: LRU
    preferentially replaces non-temporal lines; no bounce-back cache."""
    config = SoftCacheConfig(
        size_bytes=size_bytes,
        line_size=line_size,
        ways=ways,
        bounce_back_lines=0,
        virtual_line_size=virtual_line_size,
        temporal_priority=True,
        timing=_timing(timing),
    )
    return SoftwareAssistedCache(
        config, name=f"Simplified Soft {config.label()}"
    )


def soft_prefetch(
    size_bytes: int = 8 * 1024,
    line_size: int = 32,
    ways: int = 1,
    virtual_line_size: int = 64,
    bounce_back_lines: int = 8,
    max_prefetched: int = 4,
    timing: Optional[MemoryTiming] = None,
) -> SoftwareAssistedCache:
    """"Soft.+Prefetching" (fig 12): progressive software-assisted
    prefetch through the bounce-back cache."""
    config = SoftCacheConfig(
        size_bytes=size_bytes,
        line_size=line_size,
        ways=ways,
        bounce_back_lines=bounce_back_lines,
        virtual_line_size=virtual_line_size,
        prefetch="software",
        max_prefetched=max_prefetched,
        timing=_timing(timing),
    )
    return SoftwareAssistedCache(config, name=f"Soft+Pf {config.label()}")


def standard_prefetch(
    size_bytes: int = 8 * 1024,
    line_size: int = 32,
    ways: int = 1,
    buffer_lines: int = 8,
    max_prefetched: int = 4,
    timing: Optional[MemoryTiming] = None,
) -> SoftwareAssistedCache:
    """"Stand.+Prefetching" (fig 12): blind prefetch-on-miss into a
    prefetch buffer, no software information."""
    config = SoftCacheConfig(
        size_bytes=size_bytes,
        line_size=line_size,
        ways=ways,
        bounce_back_lines=buffer_lines,
        virtual_line_size=None,
        use_temporal=False,
        prefetch="on-miss",
        max_prefetched=max_prefetched,
        timing=_timing(timing),
    )
    return SoftwareAssistedCache(config, name=f"Stand+Pf {config.label()}")


def soft_config(**params) -> SoftwareAssistedCache:
    """Raw :class:`SoftCacheConfig` passthrough (the ablation sweeps)."""
    return SoftwareAssistedCache(SoftCacheConfig(**params))


def column_assoc(
    size_bytes: int = 8 * 1024,
    line_size: int = 32,
    timing: Optional[MemoryTiming] = None,
) -> ColumnAssociativeCache:
    """Column-associative cache (Agarwal & Pudar, paper section 5)."""
    return ColumnAssociativeCache(
        CacheGeometry(size_bytes, line_size, 1), _timing(timing)
    )


def stream_buffer(
    size_bytes: int = 8 * 1024,
    line_size: int = 32,
    ways: int = 1,
    n_buffers: int = 4,
    depth: int = 4,
    timing: Optional[MemoryTiming] = None,
) -> StreamBufferCache:
    """Jouppi stream buffers in front of a plain cache (section 5)."""
    return StreamBufferCache(
        CacheGeometry(size_bytes, line_size, ways),
        _timing(timing),
        n_buffers=n_buffers,
        depth=depth,
    )


def hp_assist(
    size_bytes: int = 8 * 1024,
    line_size: int = 32,
    ways: int = 1,
    assist_lines: int = 8,
    timing: Optional[MemoryTiming] = None,
) -> HPAssistCache:
    """HP-7200 style assist cache (buffer *before* the main cache)."""
    return HPAssistCache(
        CacheGeometry(size_bytes, line_size, ways),
        _timing(timing),
        assist_lines=assist_lines,
    )


def with_l2(
    inner: str = "standard",
    l2_size: int = 256 * 1024,
    l2_line: int = 64,
    l2_ways: int = 4,
    l2_hit_latency: int = 4,
    memory_extra: int = 16,
):
    """An L1 built by the ``inner`` factory, backed by a unified L2.

    The L1 sees the L2 hit latency as its "memory"; an L2 miss adds
    ``memory_extra`` cycles for the full DRAM trip (hierarchy study).
    """
    from ..sim.hierarchy import TwoLevelCache

    factory = globals()[inner]
    l1 = factory(timing=MemoryTiming(latency=l2_hit_latency))
    return TwoLevelCache(
        l1, CacheGeometry(l2_size, l2_line, l2_ways), memory_extra
    )


def subblock(
    size_bytes: int = 8 * 1024,
    line_size: int = 64,
    ways: int = 1,
    sub_block: int = 32,
    timing: Optional[MemoryTiming] = None,
) -> SubBlockCache:
    """Sectored (sub-block placement) cache, the section 2.1 contrast."""
    return SubBlockCache(
        CacheGeometry(size_bytes, line_size, ways),
        sub_block=sub_block,
        timing=_timing(timing),
    )


# ----------------------------------------------------------------------
# Spec kinds: every factory above, addressable by name so sweeps and
# repro serve (which ships them to its worker processes) take picklable
# CacheSpec objects.
# ----------------------------------------------------------------------
for _name in __all__:
    register_kind(_name, globals()[_name])
del _name
