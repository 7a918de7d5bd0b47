"""CacheSpec: the declarative, picklable configuration layer."""

from __future__ import annotations

import pickle

import pytest

from repro import presets
from repro.core.software_cache import SoftwareAssistedCache
from repro.core.spec import CacheSpec, registered_kinds
from repro.errors import ConfigError
from repro.sim.standard import StandardCache
from repro.sim.timing import MemoryTiming

#: Every preset plus the related-work kinds a serve submission can name.
SERVABLE_SPECS = list(presets.SPECS.values()) + [
    CacheSpec.of(kind)
    for kind in ("column_assoc", "subblock", "hp_assist", "stream_buffer",
                 "with_l2")
]

class TestOf:
    def test_builds_registered_kind(self):
        model = CacheSpec.of("standard").build()
        assert isinstance(model, SoftwareAssistedCache)

    def test_params_forwarded(self):
        model = CacheSpec.of("standard_cache", ways=4).build()
        assert isinstance(model, StandardCache)
        assert model.geometry.ways == 4

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            CacheSpec.of("no-such-cache")

    def test_unknown_param_rejected(self):
        with pytest.raises(ConfigError, match="parameter"):
            CacheSpec.of("standard", not_a_knob=3)

    def test_var_keyword_builder_accepts_any_param(self):
        spec = CacheSpec.of("soft_config", bounce_back_lines=4)
        assert isinstance(spec.build(), SoftwareAssistedCache)

    def test_registry_lists_all_presets(self):
        kinds = registered_kinds()
        for kind in ("standard", "soft", "victim", "stream_buffer"):
            assert kind in kinds


class TestValueSemantics:
    def test_frozen(self):
        spec = CacheSpec.of("standard")
        with pytest.raises(AttributeError):
            spec.kind = "soft"

    def test_equality_ignores_param_order(self):
        a = CacheSpec.of("soft", ways=1, virtual_line_size=64)
        b = CacheSpec.of("soft", virtual_line_size=64, ways=1)
        assert a == b
        assert hash(a) == hash(b)

    def test_usable_as_dict_key(self):
        table = {CacheSpec.of("standard"): "base", CacheSpec.of("soft"): "soft"}
        assert table[CacheSpec.of("soft")] == "soft"

    def test_derive_overrides_without_mutating(self):
        base = CacheSpec.of("soft", ways=1)
        derived = base.derive(ways=2)
        assert derived.param_dict()["ways"] == 2
        assert base.param_dict()["ways"] == 1
        assert derived.kind == "soft"

    def test_pickle_round_trip(self):
        spec = CacheSpec.of("soft", virtual_line_size=128)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert isinstance(clone.build(), SoftwareAssistedCache)

    @pytest.mark.parametrize("spec", SERVABLE_SPECS, ids=str)
    def test_servable_spec_pickles(self, spec):
        # repro serve ships specs to its worker processes.
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.fingerprint() == spec.fingerprint()
        assert type(clone.build()) is type(spec.build())


class TestSerialisation:
    def test_dict_round_trip(self):
        spec = CacheSpec.of("standard", size_bytes=16 * 1024)
        assert CacheSpec.from_dict(spec.to_dict()) == spec

    def test_dict_round_trip_with_timing(self):
        spec = CacheSpec.of("standard", timing=MemoryTiming(latency=25))
        clone = CacheSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.param_dict()["timing"].latency == 25

    def test_fingerprint_stable_across_param_order(self):
        a = CacheSpec.of("soft", ways=1, virtual_line_size=64)
        b = CacheSpec.of("soft", virtual_line_size=64, ways=1)
        assert a.fingerprint() == b.fingerprint()

    def test_fingerprint_distinguishes_params(self):
        a = CacheSpec.of("soft")
        b = CacheSpec.of("soft", virtual_line_size=128)
        assert a.fingerprint() != b.fingerprint()

    def test_fingerprint_distinguishes_kinds(self):
        assert (
            CacheSpec.of("standard").fingerprint()
            != CacheSpec.of("soft").fingerprint()
        )

    def test_fingerprint_sees_timing(self):
        a = CacheSpec.of("standard", timing=MemoryTiming(latency=20))
        b = CacheSpec.of("standard", timing=MemoryTiming(latency=30))
        assert a.fingerprint() != b.fingerprint()


class TestNamedRegistry:
    def test_cli_names_resolve(self):
        from repro.presets import SPECS, build_config, spec

        assert "standard" in SPECS and "soft" in SPECS
        assert spec("soft").kind == "soft"
        assert isinstance(build_config("soft"), SoftwareAssistedCache)

    def test_legacy_factory_import_removed(self):
        """The deprecated factory-import shim is gone: the old names
        raise AttributeError pointing at the spec registry instead of
        silently importing (and masking) the factory module."""
        import repro.presets as presets

        with pytest.raises(AttributeError, match="build models from specs"):
            presets.standard
        with pytest.raises(AttributeError, match="no attribute"):
            presets.definitely_not_a_name
