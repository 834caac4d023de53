"""Two identically-seeded chaos runs are byte-identical — the property
that makes the chaos suite a regression suite rather than a flake
generator."""

import json

from repro.bench.chaos import run_chaos_experiment
from repro.bench.serialization import encode_result
from repro.chaos import ChaosPlan
from repro.policy.placement import (POLICY_ROUND_ROBIN,
                                    POLICY_SNAPSHOT_LOCALITY)

#: A small-but-real configuration: 2 hosts, a handful of functions, the
#: crash a third of the way in.  Small enough to run twice in a test.
SMALL = dict(n_hosts=2, n_functions=6, duration_ms=180_000.0, seed=13,
             crash_at_ms=60_000.0)


class TestExperimentDeterminism:
    def test_two_runs_byte_identical(self):
        rows = ((POLICY_ROUND_ROBIN, False),
                (POLICY_SNAPSHOT_LOCALITY, True))
        transcripts = [
            json.dumps(encode_result(run_chaos_experiment(rows=rows,
                                                          **SMALL)),
                       sort_keys=True)
            for _ in range(2)]
        assert transcripts[0] == transcripts[1]

    def test_rows_do_not_contaminate_each_other(self):
        # An armed fault budget leaking from one row into the next would
        # make a row's outcome depend on which rows ran before it.  Each
        # row's controller arms its budgets afresh from the shared,
        # immutable plan; this pins that no state outlives a row.
        label = f"{POLICY_SNAPSHOT_LOCALITY}+failover"
        alone = run_chaos_experiment(
            rows=((POLICY_SNAPSHOT_LOCALITY, True),), **SMALL)
        paired = run_chaos_experiment(
            rows=((POLICY_ROUND_ROBIN, False),
                  (POLICY_SNAPSHOT_LOCALITY, True)), **SMALL)
        assert alone[label] == paired[label]

    def test_acceptance_ordering_holds(self):
        outcomes = run_chaos_experiment(
            rows=((POLICY_ROUND_ROBIN, False),
                  (POLICY_SNAPSHOT_LOCALITY, True)), **SMALL)
        plain = outcomes[POLICY_ROUND_ROBIN]
        repaired = outcomes[f"{POLICY_SNAPSHOT_LOCALITY}+failover"]
        assert 0.0 < plain.availability <= 1.0
        assert repaired.availability >= plain.availability


class TestRandomPlanDeterminism:
    def test_same_seed_same_plan(self):
        plans = [ChaosPlan.random(seed=42, n_hosts=4, duration_ms=60_000.0)
                 for _ in range(2)]
        assert plans[0] == plans[1]

    def test_different_seeds_differ(self):
        assert ChaosPlan.random(3, n_hosts=4, duration_ms=60_000.0) != \
            ChaosPlan.random(4, n_hosts=4, duration_ms=60_000.0)
