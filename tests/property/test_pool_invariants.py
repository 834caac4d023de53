"""Property-based tests: warm-pool and invoker-pool invariants.

The serving layer (repro.autoscale) turned both pools into concurrently
mutated state: admission hand-offs assign/release invoker slots, the
autoscaler parks and expires warm entries, the invoke path takes them,
and chaos drains everything at once.  These tests drive random
interleavings of those operations and check the invariants every caller
relies on:

* an invoker's ``active`` count is never negative and never exceeds its
  capacity;
* no warm entry is ever served twice — an entry leaves the pool exactly
  once, via exactly one of take / drain_expired / drain_all;
* expiry is monotonic in ``now_ms``: once an entry has lapsed it can
  never be taken at any later time;
* at any instant, ``drain_all`` ∪ (previously reaped/served entries) is
  a partition of everything ever added — nothing lost, nothing doubled;
* all of the above keep holding while an autoscaler-style control loop
  changes warm targets at random.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.config import default_parameters
from repro.errors import NoHostAvailableError, PlatformError
from repro.platforms.pooling import WarmEntry, WarmPool
from repro.policy.placement import POLICIES, POLICY_HASH
from repro.sim import Simulation


class _StubWorker:
    """Stands in for a sandbox; identity is all the pool cares about."""

    _next_id = 0

    def __init__(self):
        _StubWorker._next_id += 1
        self.worker_id = _StubWorker._next_id

    def pss_mb(self) -> float:
        return 100.0


FUNCTIONS = ("fn-a", "fn-b", "fn-c")

# One warm-pool operation: (op, function index, magnitude).
_pool_ops = st.lists(
    st.tuples(
        st.sampled_from(("add", "take", "advance", "drain_expired",
                         "drain_all", "target")),
        st.integers(0, len(FUNCTIONS) - 1),
        st.floats(min_value=0.0, max_value=50.0, allow_nan=False)),
    min_size=1, max_size=60)


class TestWarmPoolInvariants:
    """Random interleavings of add/take/expire/drain on one WarmPool."""

    MAX_WARM = 3   # autoscale cap mimicked by the 'target' op

    def _run_ops(self, ops):
        """Drive the pool; returns the full ledger for the final audit."""
        pool = WarmPool()
        now = 0.0
        added = {}     # id(entry) -> entry, everything ever parked
        served = []    # entries handed out by take()
        reaped = []    # entries returned by drain_expired()
        crashed = []   # entries returned by drain_all()

        def park(fn, ttl):
            entry = WarmEntry(_StubWorker(), now + ttl, paused=False)
            added[id(entry)] = entry
            pool.add(fn, entry)

        for op, fn_index, magnitude in ops:
            fn = FUNCTIONS[fn_index]
            if op == "add":
                park(fn, magnitude)
            elif op == "take":
                entry = pool.take(fn, now)
                if entry is not None:
                    # Never serve a stale entry, never serve one twice.
                    assert entry.expires_at_ms > now
                    assert id(entry) in added
                    assert all(id(entry) != id(e) for e in served)
                    served.append(entry)
            elif op == "advance":
                now += magnitude   # the clock is monotonic by construction
            elif op == "drain_expired":
                pool.expire_all(now)
                for entry in pool.drain_expired():
                    assert entry.expires_at_ms <= now
                    reaped.append(entry)
            elif op == "drain_all":
                drained = pool.drain_all()
                ids = [id(e) for e in drained]
                assert len(ids) == len(set(ids))
                crashed.extend(drained)
                assert pool.live_entries(now) == []
                assert pool.drain_expired() == []
            elif op == "target":
                # Autoscaler top-up: park until at target, capped.
                want = min(int(magnitude) % 5, self.MAX_WARM)
                before = pool.size(fn, now)
                while pool.size(fn, now) < want:
                    park(fn, 30.0)
                # Top-up adds at most (target - have), never past the cap
                # unless raw adds already overfilled the pool.
                assert pool.size(fn, now) == max(before, want)
        return pool, now, added, served, reaped, crashed

    @given(_pool_ops)
    @settings(max_examples=120)
    def test_no_entry_leaves_the_pool_twice(self, ops):
        pool, now, added, served, reaped, crashed = self._run_ops(ops)
        out = [id(e) for e in served + reaped + crashed]
        assert len(out) == len(set(out)), "an entry left the pool twice"

    @given(_pool_ops)
    @settings(max_examples=120)
    def test_drain_all_and_ledger_partition_everything_added(self, ops):
        pool, now, added, served, reaped, crashed = self._run_ops(ops)
        # Final crash-drain: whatever is still inside comes out exactly
        # once, and the four ways out partition everything ever added.
        remaining = pool.drain_all()
        out = [id(e) for e in served + reaped + crashed + remaining]
        assert sorted(out) == sorted(added)
        assert pool.drain_all() == []

    @given(_pool_ops)
    @settings(max_examples=120)
    def test_expiry_is_monotonic_in_now(self, ops):
        pool, now, added, served, reaped, crashed = self._run_ops(ops)
        # Anything still live now stays live at the same instant and is
        # exactly the complement of the lapsed set at a later instant.
        pool.expire_all(now)
        pool.drain_expired()       # flush anything already pending
        live_now = pool.live_entries(now)
        assert all(e.expires_at_ms > now for e in live_now)
        later = now + 1e9
        assert pool.live_entries(later) == []
        pool.expire_all(later)
        lapsed = pool.drain_expired()
        assert sorted(id(e) for e in lapsed) == \
            sorted(id(e) for e in live_now)


# One warm-pool operation with an absolute expiry that may be infinite:
# (op, function index, expiry offset from now).
_unbounded_pool_ops = st.lists(
    st.tuples(
        st.sampled_from(("add", "take", "size", "advance", "expire_all",
                         "drain_expired", "drain_all")),
        st.integers(0, len(FUNCTIONS) - 1),
        st.one_of(st.floats(min_value=-10.0, max_value=50.0,
                            allow_nan=False),
                  st.sampled_from((math.inf, -math.inf)))),
    min_size=1, max_size=60)


class TestEveryEntryLeavesThroughADoor:
    """Over expiries including ``+inf`` (never expires) and ``-inf``
    (already expired), an entry leaves a pool only through ``take``,
    ``drain_expired`` or ``drain_all``; ``size`` and ``expire_all`` only
    move entries to the expired list, never drop one."""

    @given(_unbounded_pool_ops)
    @settings(max_examples=200)
    def test_out_doors_partition_everything_added(self, ops):
        pool = WarmPool()
        now = 0.0
        added, out = [], []
        for op, fn_index, offset in ops:
            fn = FUNCTIONS[fn_index]
            if op == "add":
                entry = WarmEntry(_StubWorker(), now + offset, paused=False)
                pool.add(fn, entry)
                added.append(entry)
            elif op == "take":
                entry = pool.take(fn, now)
                if entry is not None:
                    assert entry.expires_at_ms > now
                    out.append(entry)
            elif op == "size":
                pool.size(fn, now)
            elif op == "advance":
                if 0 < offset < math.inf:
                    now += offset
            elif op == "expire_all":
                pool.expire_all(now)
            elif op == "drain_expired":
                out.extend(pool.drain_expired())
            else:
                out.extend(pool.drain_all())
        out.extend(pool.drain_all())
        assert sorted(id(e) for e in out) == sorted(id(e) for e in added)

    def test_a_nan_expiry_is_refused(self):
        pool = WarmPool()
        with pytest.raises(PlatformError, match="NaN expiry"):
            pool.add("fn-a", WarmEntry(_StubWorker(), math.nan,
                                       paused=False))
        assert pool.drain_all() == []


# One invoker-pool operation: pick (assign) or release on a random node.
_invoker_ops = st.lists(
    st.tuples(st.sampled_from(("pick", "release")),
              st.integers(0, len(FUNCTIONS) - 1)),
    min_size=1, max_size=80)


class TestInvokerPoolInvariants:
    """Random place/finish interleavings on a cluster's invokers, across
    every policy."""

    @staticmethod
    def _cluster(nodes, capacity, policy=POLICY_HASH):
        return Cluster(Simulation(), default_parameters(), n_hosts=nodes,
                       policy=policy, capacity_per_host=capacity)

    @given(_invoker_ops, st.sampled_from(POLICIES),
           st.integers(min_value=1, max_value=3),
           st.integers(min_value=1, max_value=4))
    @settings(max_examples=120)
    def test_active_counts_stay_within_bounds(self, ops, policy,
                                              capacity, nodes):
        cluster = self._cluster(nodes, capacity, policy)
        outstanding = []   # hosts we owe a finish
        for op, fn_index in ops:
            fn = FUNCTIONS[fn_index]
            if op == "pick":
                try:
                    host = cluster.place(fn)
                except NoHostAvailableError:
                    # Only legal when genuinely full everywhere.
                    assert cluster.total_active() == nodes * capacity
                    continue
                outstanding.append(host)
            elif op == "release" and outstanding:
                cluster.finish(outstanding.pop())
            for host in cluster.hosts:
                assert 0 <= host.active <= capacity
        assert cluster.total_active() == len(outstanding)

    @given(st.integers(min_value=1, max_value=3),
           st.integers(min_value=1, max_value=4))
    @settings(max_examples=40)
    def test_release_below_zero_is_refused(self, capacity, nodes):
        cluster = self._cluster(nodes, capacity)
        for host in cluster.hosts:
            try:
                cluster.finish(host)
                assert False, "released below zero"
            except PlatformError:
                pass
            assert host.active == 0
