"""Executable contracts for the cache models, checked on both tiers.

Each cache procedure is stated as a contract, in the style of a
verified cache module (a hit exactly when a valid way holds the tag,
the tag resident after a fill, nothing valid after init):

* ``access`` — ``hits_main`` rises exactly when ``in_main(addr)`` held
  before the access, ``hits_assist`` exactly when ``in_assist(addr)``
  held, ``misses`` otherwise; afterwards the line is in the main cache,
  except on a write-through no-allocate write miss (or when the miss's
  own prefetch bounced a temporal line onto it), and its dirty and
  temporal bits are sticky: set by a write-back store or a temporal
  tag, kept while the line stays cached, clear on a fill;
* ``reset`` — every set and buffer is empty and every counter zero;
* ``check_invariants()`` — the model's structural invariants (no line in
  both caches, MRU orders are permutations within the associativity,
  the prefetch cap, the write-buffer depth) hold after every step.

A hypothesis state machine interleaves accesses and resets over
direct-mapped and 2-way geometries of every software-assisted preset
and of the Standard cache under both write policies.  On the native
tier, a fresh ``simulate(engine="native")`` of the references since the
last reset must leave state that passes the same invariants and equals
the contract-checked model's.

The column-associative, sub-block and HP-7200 assist caches have no
``in_main``/``in_assist`` split of the kind above (or, for the assist
cache, no dirty and temporal bits to follow); a second machine holds
them to the same access and reset contracts, stated through residency
(a hit exactly when the line, or for a sub-block cache its sector, was
resident before the access, and resident after it) and their own
``check_invariants()``, with the same native replay rule.
"""

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.core import HPAssistCache
from repro.core.spec import CacheSpec
from repro.presets import SPECS
from repro.sim import (
    CacheGeometry,
    ColumnAssociativeCache,
    MemoryTiming,
    SubBlockCache,
    simulate,
)
from repro.sim.engine import PARITY_FIELDS
from repro.sim.native import availability

from conftest import make_trace, model_state

#: A two-entry write buffer so full-buffer stalls and bounce aborts occur.
TIMING = MemoryTiming(latency=10, bus_bytes_per_cycle=16,
                      write_buffer_entries=2)

#: Scaled-down side buffers: two lines, one of them prefetchable.
BUFFERS = {
    "standard": {},
    "victim": {"victim_lines": 2},
    "temporal": {"bounce_back_lines": 2},
    "spatial": {"bounce_back_lines": 2},
    "soft": {"bounce_back_lines": 2},
    "temporal-priority": {},
    "standard-prefetch": {"buffer_lines": 2, "max_prefetched": 1},
    "soft-prefetch": {"bounce_back_lines": 2, "max_prefetched": 1},
}

#: The Standard cache (``StandardCache``) under both write policies.
STANDARD_CACHE = {
    "standard_cache-write-back": {},
    "standard_cache-write-through": {"write_policy": "write-through"},
    "standard_cache-no-allocate": {"write_policy": "write-through",
                                   "write_allocate": False},
}


def build_spec(name, ways):
    """Four sets of 32-byte lines at ``ways``-way associativity."""
    scale = dict(size_bytes=128 * ways, ways=ways, timing=TIMING)
    if name in STANDARD_CACHE:
        return CacheSpec.of("standard_cache", **scale, **STANDARD_CACHE[name])
    return SPECS[name].derive(**scale, **BUFFERS[name])


# Sixteen lines over four sets: plenty of conflicts and bounces.
references = st.tuples(
    st.integers(min_value=0, max_value=63).map(lambda word: word * 8),
    st.booleans(), st.booleans(), st.booleans(),
    st.integers(min_value=0, max_value=4),
)


def as_trace(refs):
    addresses, is_write, temporal, spatial, gaps = zip(*refs)
    return make_trace(addresses, is_write, temporal, spatial, gaps)


class CacheContracts(RuleBasedStateMachine):
    """One model under the access and reset rules."""

    def __init__(self, spec):
        super().__init__()
        self.spec = spec
        self.model = spec.build()
        policy = getattr(self.model, "write_policy", "write-back")
        self.write_back = policy == "write-back"
        self.no_allocate = not getattr(self.model, "write_allocate", True)
        self._restart()

    def _restart(self):
        # The driver's clock, restarted like simulate() does; ``history``
        # is the cold-start trace a fresh native run replays.
        self.clock = 0
        self.history = []

    def _in_main(self, address):
        return getattr(self.model, "in_main", self.model.contains)(address)

    def _in_assist(self, address):
        return getattr(self.model, "in_assist", lambda _: False)(address)

    def _main_entry(self, address):
        line = address >> self.model.geometry.line_shift
        for entry in self.model._sets[line % len(self.model._sets)]:
            if entry[0] == line:
                return entry
        return None

    def _bits(self, address):
        """``(dirty, temporal)`` of the cached line (False when absent);
        main and bounce-back entries both start ``[line, dirty,
        temporal]``, a plain cache's stop after ``dirty``."""
        entry = self._main_entry(address)
        if entry is None and hasattr(self.model, "bounce_back"):
            line = address >> self.model.geometry.line_shift
            entry = self.model.bounce_back.find(line)
        entry = (entry or []) + [False, False, False]
        return bool(entry[1]), bool(entry[2])

    @rule(ref=references)
    def access(self, ref):
        address, is_write, temporal, spatial, gap = ref
        model = self.model
        stats = model.stats
        before = (stats.refs, stats.hits_main, stats.hits_assist, stats.misses)
        prefetches, bounces = stats.prefetches_issued, stats.bounce_backs
        was_main, was_assist = self._in_main(address), self._in_assist(address)
        dirty, tagged = self._bits(address)

        # The driver's clock and cycle accounting (repro.sim.driver).
        self.clock += gap
        cycles = model.access(address, is_write, temporal=temporal,
                              spatial=spatial, now=self.clock)
        stats.cycles += cycles
        self.clock += max(0, cycles - model.timing.hit_time)
        self.history.append(ref)

        refs, hits_main, hits_assist, misses = (
            after - prior for after, prior in zip(
                (stats.refs, stats.hits_main, stats.hits_assist,
                 stats.misses), before)
        )
        assert refs == 1
        assert hits_main == int(was_main)
        assert hits_assist == int(was_assist)
        assert misses == int(not (was_main or was_assist))
        if self.no_allocate and is_write and misses:
            return
        entry = self._main_entry(address)
        if entry is None:
            # The one way a filled line leaves at once: the miss's own
            # prefetch pushed a temporal line out of the bounce-back
            # cache, and it bounced onto the line (blocked sets cover
            # the demand fill only).
            assert stats.prefetches_issued > prefetches, "line not resident"
            assert stats.bounce_backs > bounces, "line not resident"
            return
        # The line's bits are sticky while it stays cached: dirty after a
        # write-back store, temporal after a temporal-tagged reference;
        # a fill starts from clean and untagged.
        assert entry[1] == (self.write_back and (is_write or dirty)), "dirty"
        if len(entry) > 2:
            assert entry[2] == (temporal or tagged), "temporal bit"

    @rule()
    def reset(self):
        model = self.model
        model.reset()
        assert not any(model._sets), "a main-cache set survived reset"
        assert len(getattr(model, "bounce_back", ())) == 0
        assert model.write_buffer.occupancy == 0
        stats = model.stats
        assert (stats.refs, stats.hits_main, stats.hits_assist,
                stats.misses, stats.writebacks) == (0, 0, 0, 0, 0)
        self._restart()

    @precondition(lambda self: self.history and availability() is None)
    @rule()
    def native_replay(self):
        fresh = self.spec.build()
        result = simulate(fresh, as_trace(self.history), engine="native")
        assert result.engine == "native"
        fresh.check_invariants()
        live = self.model
        for field in ("cycles", "refs", "hits_main", "hits_assist", "misses",
                      "writebacks", "lines_fetched", "bounce_backs",
                      "bounce_aborts", "prefetches_issued"):
            assert getattr(result, field) == getattr(live.stats, field), field
        assert fresh._sets == live._sets
        if hasattr(live, "bounce_back"):
            assert fresh.bounce_back._sets == live.bounce_back._sets
        assert (list(fresh.write_buffer._completions)
                == list(live.write_buffer._completions))

    @invariant()
    def structure(self):
        self.model.check_invariants()


CONTRACT_SETTINGS = settings(
    max_examples=12, stateful_step_count=30, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.mark.parametrize("ways", (1, 2))
@pytest.mark.parametrize("name", (*STANDARD_CACHE, *BUFFERS))
def test_contracts(name, ways):
    spec = build_spec(name, ways)
    run_state_machine_as_test(
        lambda: CacheContracts(spec), settings=CONTRACT_SETTINGS
    )


#: The models whose contracts are stated through residency: a
#: four-slot column-associative cache of 32-byte lines; 64-byte lines of
#: four 16-byte sub-blocks, direct-mapped and 2-way; and a 2-way cache
#: behind a two-line assist FIFO.
REFERENCE_ONLY = {
    "column-assoc": lambda: ColumnAssociativeCache(
        CacheGeometry(128, 32, 1), TIMING),
    "subblock-1": lambda: SubBlockCache(
        CacheGeometry(256, 64, 1), sub_block=16, timing=TIMING),
    "subblock-2": lambda: SubBlockCache(
        CacheGeometry(256, 64, 2), sub_block=16, timing=TIMING),
    "hp-assist": lambda: HPAssistCache(
        CacheGeometry(128, 32, 2), TIMING, assist_lines=2),
}

#: Every address the reference strategy draws.
ADDRESSES = range(0, 64 * 8, 8)


class ReferenceOnlyContracts(RuleBasedStateMachine):
    """A model under the access, reset and native replay rules, its
    hits stated through residency."""

    def __init__(self, build):
        super().__init__()
        self.build = build
        self.model = build()
        self._restart()

    def _restart(self):
        self.clock = 0
        self.history = []

    def _resident(self, address):
        model = self.model
        if hasattr(model, "contains"):
            return model.contains(address)
        return model.in_main(address) or model.in_assist(address)

    @rule(ref=references)
    def access(self, ref):
        address, is_write, temporal, spatial, gap = ref
        model = self.model
        stats = model.stats
        before = (stats.refs, stats.misses)
        was_resident = self._resident(address)
        self.clock += gap
        cycles = model.access(address, is_write, temporal=temporal,
                              spatial=spatial, now=self.clock)
        stats.cycles += cycles
        self.clock += max(0, cycles - model.timing.hit_time)
        self.history.append(ref)
        assert (stats.refs, stats.misses) == (
            before[0] + 1, before[1] + (not was_resident)
        )
        assert self._resident(address), "line not resident"

    @rule()
    def reset(self):
        model = self.model
        model.reset()
        assert not any(self._resident(address) for address in ADDRESSES)
        assert model.write_buffer.occupancy == 0
        stats = model.stats
        assert (stats.refs, stats.hits_main, stats.hits_assist,
                stats.misses, stats.writebacks) == (0, 0, 0, 0, 0)
        self._restart()

    @precondition(lambda self: self.history and availability() is None)
    @rule()
    def native_replay(self):
        fresh = self.build()
        result = simulate(fresh, as_trace(self.history), engine="native")
        assert result.engine == "native"
        fresh.check_invariants()
        for field in PARITY_FIELDS:
            assert getattr(result, field) == getattr(self.model.stats,
                                                     field), field
        assert model_state(fresh) == model_state(self.model)

    @invariant()
    def structure(self):
        self.model.check_invariants()


@pytest.mark.parametrize("name", REFERENCE_ONLY)
def test_reference_only_contracts(name):
    run_state_machine_as_test(
        lambda: ReferenceOnlyContracts(REFERENCE_ONLY[name]),
        settings=CONTRACT_SETTINGS,
    )
