"""Tests for the offline Pareto policy search (the ``search`` experiment)."""

from __future__ import annotations

import json

import pytest

from repro.bench import search as search_mod
from repro.bench.engine import experiment_registry, run_experiments
from repro.bench.search import (DEFAULT_CANDIDATES, SMOKE_CANDIDATES,
                                SearchCandidateOutcome, build_search_result,
                                dominates, generate_candidates,
                                pareto_frontier, render_search_figure,
                                run_search)
from repro.bench.serialization import encode_result
from repro.policy import resolve_autoscale, resolve_placement


def _canonical(result):
    return json.dumps(encode_result(result), sort_keys=True,
                      separators=(",", ":"))


def _outcome(index, name, p99, warm, shed):
    return SearchCandidateOutcome(
        index=index, name=name, placement="hash", placement_source="dsl",
        autoscale="none", autoscale_source="builtin", keepalive_ms=600.0,
        requests=100, completed=90, p50_ms=p99 / 2, p99_ms=p99,
        shed_rate=shed, mean_warm_mb=warm)


class TestCandidateGeneration:
    def test_deterministic_for_a_seed(self):
        assert generate_candidates(2022, 24) == generate_candidates(2022, 24)

    def test_prefix_stable(self):
        # The engine shards regenerate per-index; growing count must only
        # append, never reshuffle earlier candidates.
        assert generate_candidates(2022, 24)[:10] \
            == generate_candidates(2022, 10)

    def test_seed_changes_mutated_tail(self):
        a = generate_candidates(2022, 24)
        b = generate_candidates(7, 24)
        assert a[7:] != b[7:]

    def test_candidate_zero_is_builtin_baseline(self):
        baseline = generate_candidates(2022, 24)[0]
        assert baseline.name == "baseline-rr-none"
        assert baseline.placement == "round-robin"
        assert baseline.autoscale == "none"

    def test_every_candidate_resolves(self):
        for candidate in generate_candidates(2022, DEFAULT_CANDIDATES):
            placement = resolve_placement(candidate.placement)
            autoscale = resolve_autoscale(candidate.autoscale)
            assert placement.source in ("builtin", "dsl")
            assert autoscale.source in ("builtin", "dsl")
            assert candidate.keepalive_ms > 0


class TestDominance:
    def test_strict_dominance(self):
        a = _outcome(0, "a", 100.0, 50.0, 0.0)
        b = _outcome(1, "b", 200.0, 60.0, 0.1)
        assert dominates(a, b)
        assert not dominates(b, a)

    def test_equal_is_not_dominance(self):
        a = _outcome(0, "a", 100.0, 50.0, 0.0)
        b = _outcome(1, "b", 100.0, 50.0, 0.0)
        assert not dominates(a, b)
        assert not dominates(b, a)

    def test_trade_off_is_not_dominance(self):
        a = _outcome(0, "a", 100.0, 80.0, 0.0)
        b = _outcome(1, "b", 200.0, 50.0, 0.0)
        assert not dominates(a, b)
        assert not dominates(b, a)

    def test_frontier_keeps_trade_offs_drops_dominated(self):
        best_latency = _outcome(0, "lat", 100.0, 80.0, 0.0)
        best_memory = _outcome(1, "mem", 200.0, 50.0, 0.0)
        dominated = _outcome(2, "bad", 250.0, 90.0, 0.2)
        frontier = pareto_frontier((best_latency, best_memory, dominated))
        assert [one.name for one in frontier] == ["lat", "mem"]

    def test_build_search_result_derives_dominators(self):
        baseline = _outcome(0, "baseline", 200.0, 60.0, 0.1)
        winner = _outcome(1, "winner", 100.0, 50.0, 0.0)
        loser = _outcome(2, "loser", 300.0, 70.0, 0.2)
        result = build_search_result((loser, winner, baseline))
        assert result.baseline == "baseline"
        assert [one.name for one in result.outcomes] \
            == ["baseline", "winner", "loser"]
        assert result.dominators == ("winner",)
        assert "winner" in result.frontier
        assert "loser" not in result.frontier


class TestSmokeSearch:
    @pytest.fixture(scope="class")
    def smoke(self):
        return run_search(smoke=True)

    def test_shape(self, smoke):
        assert smoke.baseline == "baseline-rr-none"
        assert len(smoke.outcomes) == SMOKE_CANDIDATES
        assert smoke.outcomes[0].placement_source == "builtin"
        assert smoke.outcomes[1].placement_source == "dsl"
        assert smoke.frontier

    def test_frontier_is_non_dominated(self, smoke):
        by_name = {one.name: one for one in smoke.outcomes}
        for name in smoke.frontier:
            assert not any(dominates(other, by_name[name])
                           for other in smoke.outcomes
                           if other.name != name)

    def test_byte_deterministic(self, smoke):
        assert _canonical(run_search(smoke=True)) == _canonical(smoke)

    def test_figure_renders(self, smoke):
        text = "\n".join(render_search_figure(smoke))
        assert "frontier" in text
        assert "baseline-rr-none" in text
        for one in smoke.outcomes:
            assert one.name in text


class TestFullSearch:
    def test_searched_policy_dominates_the_baseline(self):
        # The search acceptance bar: >= 20 candidates and at least one
        # searched (DSL) policy beating round-robin + none autoscale on
        # p99, warm memory, AND shed rate simultaneously.
        result = run_search()
        assert len(result.outcomes) >= 20
        assert result.dominators
        by_name = {one.name: one for one in result.outcomes}
        assert any(by_name[name].placement_source == "dsl"
                   for name in result.dominators)


class TestEngineWiring:
    def test_search_experiment_registered(self):
        definition = experiment_registry()["search"]
        assert len(definition.shards) == DEFAULT_CANDIDATES
        assert all(shard.experiment == "search"
                   for shard in definition.shards)

    def test_engine_run_matches_serial(self, tmp_path):
        # The sharded engine path (with caching) must reproduce the
        # serial run_search bytes exactly.
        engine_result = run_experiments(
            ["search"], seed=2022, jobs=1, use_cache=True,
            cache_dir=tmp_path / "cache").results["search"]
        assert _canonical(engine_result) == _canonical(run_search(seed=2022))

    def test_outcome_roundtrips_through_codec(self):
        from repro.bench.serialization import decode_result
        outcome = _outcome(3, "roundtrip", 123.4, 56.7, 0.01)
        assert decode_result(encode_result(outcome)) == outcome
