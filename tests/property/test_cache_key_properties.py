"""Property tests for cache-key stability and sensitivity.

The result cache's correctness rests on two properties of
:meth:`ResultCache.key` and its :func:`canonical_jsonable` ingredient:

* **Order-insensitivity**: the key must not depend on dict insertion
  order (or ``PYTHONHASHSEED``) — permuting shard kwargs or nested
  mapping keys yields the identical key, or a warm cache would silently
  go cold across processes.
* **Sensitivity**: changing anything a shard's output *does* depend on —
  experiment, shard, any kwarg value, the params fingerprint, the seed —
  must change the key, or stale results would be served as fresh.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.engine import ResultCache, Shard
from repro.config import (canonical_jsonable, default_parameters,
                          params_fingerprint)

#: JSON-able scalar kwarg values (what real shard kwargs hold).
scalars = st.one_of(
    st.booleans(),
    st.integers(min_value=-(2 ** 40), max_value=2 ** 40),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=15),
)

kwarg_dicts = st.dictionaries(
    st.text(min_size=1, max_size=10), scalars, min_size=1, max_size=6)

#: Nested JSON-able structures for canonical_jsonable itself.
nested = st.recursive(
    st.one_of(st.none(), scalars),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=8), inner, max_size=4)),
    max_leaves=16)


def shard_with(kwargs_items):
    return Shard(experiment="exp", key="shard", kwargs=tuple(kwargs_items))


class TestOrderInsensitivity:
    @given(kwargs=kwarg_dicts, data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_kwargs_permutation_leaves_the_key_unchanged(self, kwargs,
                                                         data):
        items = list(kwargs.items())
        permuted = data.draw(st.permutations(items))
        cache = ResultCache("unused")
        assert cache.key(shard_with(items), "fp", 2022) == \
            cache.key(shard_with(permuted), "fp", 2022)

    @given(mapping=st.dictionaries(st.text(max_size=8), nested,
                                   max_size=6),
           data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_canonical_jsonable_ignores_mapping_order(self, mapping,
                                                      data):
        permuted_keys = data.draw(st.permutations(list(mapping)))
        reordered = {key: mapping[key] for key in permuted_keys}
        assert canonical_jsonable(mapping) == \
            canonical_jsonable(reordered)

    def test_fingerprint_is_stable_across_calls(self):
        assert params_fingerprint(default_parameters()) == \
            params_fingerprint(default_parameters())


class TestSensitivity:
    @given(kwargs=kwarg_dicts, seed=st.integers(0, 2 ** 31))
    @settings(max_examples=60, deadline=None)
    def test_key_changes_with_every_identity_field(self, kwargs, seed):
        cache = ResultCache("unused")
        base = shard_with(kwargs.items())
        reference = cache.key(base, "fp", seed)
        variants = [
            cache.key(dataclasses.replace(base, experiment="other"),
                      "fp", seed),
            cache.key(dataclasses.replace(base, key="other"), "fp", seed),
            cache.key(base, "other-fingerprint", seed),
            cache.key(base, "fp", seed + 1),
        ]
        assert reference not in variants

    @given(kwargs=kwarg_dicts, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_key_changes_when_any_kwarg_value_changes(self, kwargs,
                                                      data):
        victim = data.draw(st.sampled_from(sorted(kwargs)))
        changed = dict(kwargs)
        # A list wrapper can never canonicalize like any scalar (notably,
        # a float and its repr string *do* canonicalize identically).
        changed[victim] = [kwargs[victim], "changed"]
        cache = ResultCache("unused")
        assert cache.key(shard_with(kwargs.items()), "fp", 2022) != \
            cache.key(shard_with(changed.items()), "fp", 2022)

    def test_fingerprint_changes_when_a_constant_changes(self):
        params = default_parameters()
        bumped = dataclasses.replace(
            params, host=dataclasses.replace(
                params.host, dram_mb=params.host.dram_mb + 1))
        assert params_fingerprint(params) != params_fingerprint(bumped)

    def test_key_changes_with_package_version(self, monkeypatch):
        cache = ResultCache("unused")
        shard = shard_with([("a", 1)])
        before = cache.key(shard, "fp", 2022)
        monkeypatch.setattr("repro.__version__", "0.0.0-other")
        assert cache.key(shard, "fp", 2022) != before
