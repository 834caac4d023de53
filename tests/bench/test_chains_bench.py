"""Unit tests for the `figure chains` experiment driver."""

import pytest

from repro.bench.chains import (CHAIN_DAGS, CHAIN_POLICIES, ChainOutcome,
                                _resolve_chain_policy, build_chain_trace,
                                run_chains_platform,
                                shipped_placement_document, tenant_dags,
                                tenant_diamond_dag, tenant_events_db,
                                tenant_pipeline_dag)
from repro.bench.serialization import (decode_result, dumps_result,
                                       encode_result, loads_result)
from repro.bench.stats import LatencyStats
from repro.errors import ValidationError
from repro.policy.placement import POLICY_HASH

FAST = dict(n_hosts=2, n_tenants=2, duration_ms=30_000.0,
            mean_interarrival_ms=6_000.0)


def _outcome(**overrides):
    base = dict(platform="fireworks", policy="hash", n_hosts=2, tenants=2,
                chains=10, completed=8, failed=2, stages=30, triggers=4,
                shed_stages=1, failed_stages=1,
                latency=LatencyStats.from_samples([100.0, 200.0]),
                warm_stages=24, locality_hits=3, locality_chances=6)
    base.update(overrides)
    return ChainOutcome(**base)


class TestChainOutcome:
    def test_derived_metrics(self):
        outcome = _outcome()
        assert outcome.goodput == 0.8
        assert outcome.cold_stage_share == pytest.approx(0.2)
        assert outcome.locality_fraction == 0.5

    def test_zero_denominators(self):
        outcome = _outcome(chains=0, completed=0, stages=0, warm_stages=0,
                           locality_hits=0, locality_chances=0)
        assert outcome.goodput == 1.0
        assert outcome.cold_stage_share == 0.0
        assert outcome.locality_fraction == 0.0

    def test_as_line_mentions_the_row(self):
        line = _outcome().as_line()
        assert "fireworks" in line
        assert "chains=  10" in line
        assert "triggers=" in line

    def test_serialization_round_trips(self):
        outcome = _outcome()
        assert decode_result(encode_result(outcome)) == outcome
        assert loads_result(dumps_result(outcome)) == outcome


class TestTenantWorkflows:
    def test_diamond_shape(self):
        dag = tenant_diamond_dag("tenant-00")
        assert dag.entry == "split"
        assert {e.dst for e in dag.invoke_out_edges("split")} == \
            {"left", "right"}
        assert {e.src for e in dag.invoke_in_edges("join")} == \
            {"left", "right"}
        audit = dag.invoke_in_edges("audit")
        assert audit[0].when_key == "priority"
        # Only high-priority payloads take the audit edge.
        assert "audit" in dag.active_stages({"priority": "high"})
        assert "audit" not in dag.active_stages({"priority": "normal"})

    def test_pipeline_trigger_edge(self):
        dag = tenant_pipeline_dag("tenant-00")
        [trigger] = dag.trigger_edges()
        assert trigger.database == tenant_events_db("tenant-00")
        assert trigger.dst == "report"

    def test_tenant_namespaces_disjoint(self):
        a = {fn.name for dag in tenant_dags("tenant-00").values()
             for fn in dag.functions}
        b = {fn.name for dag in tenant_dags("tenant-01").values()
             for fn in dag.functions}
        assert not a & b
        assert set(tenant_dags("tenant-00")) == set(CHAIN_DAGS)


class TestPolicyResolution:
    def test_registered_name_passes_through(self):
        spec, name = _resolve_chain_policy(POLICY_HASH)
        assert spec == POLICY_HASH
        assert name == POLICY_HASH

    def test_shipped_document_loads_by_name(self):
        spec, name = _resolve_chain_policy("chain-affinity")
        assert name == "chain-affinity"
        assert isinstance(spec, dict)
        assert spec["domain"] == "placement"

    def test_mapping_passes_through(self):
        document = shipped_placement_document("chain-affinity")
        spec, name = _resolve_chain_policy(document)
        assert spec is document
        assert name == "chain-affinity"

    def test_unknown_name_raises(self):
        with pytest.raises(ValidationError, match="no shipped placement"):
            _resolve_chain_policy("no-such-policy")


class TestTrace:
    def test_build_chain_trace_deterministic(self):
        a = build_chain_trace(3, 60_000.0, seed=9)
        b = build_chain_trace(3, 60_000.0, seed=9)
        assert a == b
        tenants, trace = a
        assert tenants == ["tenant-00", "tenant-01", "tenant-02"]
        assert {event.dag for event in trace} <= set(CHAIN_DAGS)


class TestRunChainsPlatform:
    def test_unknown_platform_raises(self):
        with pytest.raises(KeyError, match="unknown chains platform"):
            run_chains_platform("lambda")

    def test_row_is_byte_deterministic(self):
        blobs = [dumps_result(run_chains_platform("fireworks", **FAST))
                 for _ in range(2)]
        assert blobs[0] == blobs[1]

    def test_row_accounting_consistent(self):
        outcome, platform, all_runs = run_chains_platform(
            "firecracker", return_platform=True, **FAST)
        assert outcome.platform == "firecracker"
        assert outcome.completed + outcome.failed == outcome.chains
        assert outcome.chains > 0
        assert outcome.stages == sum(sum(run.ledger.values())
                                     for run in all_runs)
        # At-most-once everywhere: no ledger entry ever exceeds one.
        for run in all_runs:
            assert all(count == 1 for count in run.ledger.values())
        assert outcome.triggers == len(
            [run for run in all_runs if run.trigger_database])

    def test_policy_changes_reporting_name(self):
        outcome = run_chains_platform("gvisor", policy="chain-affinity",
                                      **FAST)
        assert outcome.policy == "chain-affinity"
        assert outcome.locality_chances > 0


class TestEngineRegistration:
    def test_chains_experiment_registered(self):
        from repro.bench.engine import experiment_ids, experiment_registry
        assert "chains" in experiment_ids()
        definition = experiment_registry()["chains"]
        from repro.bench.load import LOAD_PLATFORMS
        expected = {f"{platform}@{policy}"
                    for platform in LOAD_PLATFORMS
                    for policy in CHAIN_POLICIES}
        assert {shard.key for shard in definition.shards} == expected

    def test_merge_keys_rows(self):
        from repro.bench.engine import experiment_registry
        definition = experiment_registry()["chains"]
        shards = {shard.key: _outcome() for shard in definition.shards}
        merged = definition.merge(shards)
        assert set(merged) == set(shards)

    def test_render_uses_as_line(self):
        from repro.bench.render import render_experiment_text
        result = {"fireworks@hash": _outcome()}
        text = render_experiment_text("chains", result)
        assert "fireworks" in text
        assert "goodput=" in text
