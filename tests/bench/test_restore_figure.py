"""The restore figure's acceptance criteria, asserted as tests.

The figure exists to demonstrate two claims; these tests pin them so a
model change that silently breaks either one fails loudly:

* the warm ``lazy`` restore moves fewer bytes than whole-image prefetch
  at equal-or-better latency;
* streaming transfers cut time-to-runnable for off-home placements while
  every byte still lands (the residual just moves off the critical path).
"""

import hashlib
import json

import pytest

from repro.bench import fresh_platform, install_all, invoke_once
from repro.bench.engine import run_experiments
from repro.bench.restore import (_restore_span_of, run_restore_policy,
                                 run_streaming_transfer)
from repro.bench.serialization import encode_result
from repro.config import default_parameters
from repro.errors import ValidationError
from repro.platforms import OpenWhiskPlatform
from repro.snapshot.restorer import POLICY_LAZY, POLICY_REAP
from repro.workloads import faasdom_spec


@pytest.fixture(scope="module")
def figure():
    return run_experiments(["restore"], use_cache=False).results["restore"]


class TestLazyAcceptance:
    @pytest.mark.parametrize("language", ["nodejs", "python"])
    def test_warm_lazy_moves_fewer_bytes_than_whole_image(self, figure,
                                                          language):
        lazy = figure[f"fireworks@{POLICY_LAZY}@{language}"]
        reap = figure[f"fireworks@{POLICY_REAP}@{language}"]
        # reap's *cold* row is whole-image prefetch (no profile yet).
        assert lazy.warm_bytes_mb < reap.cold_bytes_mb
        assert lazy.warm_bytes_mb < lazy.image_mb

    def test_warm_lazy_latency_beats_whole_image_prefetch(self, figure):
        lazy = figure[f"fireworks@{POLICY_LAZY}@nodejs"]
        reap = figure[f"fireworks@{POLICY_REAP}@nodejs"]
        assert lazy.warm_restore_ms <= reap.cold_restore_ms

    def test_lazy_warm_ledger(self, figure):
        lazy = figure[f"fireworks@{POLICY_LAZY}@nodejs"]
        assert lazy.warm_bytes_mb == pytest.approx(
            lazy.warm_prefetched_mb + lazy.warm_demand_faulted_mb)
        assert lazy.warm_prefetched_mb > 0.0

    def test_recorderless_lazy_never_warms_up(self, figure):
        """fc-snapshot has no working-set recorder: lazy there keeps
        demand-faulting everything — the honest contrast."""
        cell = figure[f"fc-snapshot@{POLICY_LAZY}@nodejs"]
        assert cell.warm_prefetched_mb == 0.0
        assert cell.warm_bytes_mb == pytest.approx(cell.cold_bytes_mb)


class TestStreamingAcceptance:
    def test_streaming_cuts_time_to_runnable(self, figure):
        full = figure["stream@full"]
        streaming = figure["stream@streaming"]
        assert streaming.mean_transfer_ms < full.mean_transfer_ms
        assert streaming.mean_off_home_total_ms < full.mean_off_home_total_ms

    def test_streaming_moves_critical_path_bytes_off(self, figure):
        full = figure["stream@full"]
        streaming = figure["stream@streaming"]
        assert streaming.foreground_mb < full.foreground_mb
        assert streaming.background_mb > 0.0
        assert full.background_mb == 0.0

    def test_every_byte_still_lands(self, figure):
        assert figure["stream@full"].stores_complete
        assert figure["stream@streaming"].stores_complete

    def test_streamed_transfer_counted(self, figure):
        streaming = figure["stream@streaming"]
        assert streaming.streamed_transfers >= 1
        assert streaming.streamed_transfers <= streaming.transfers


def _digest(result) -> str:
    blob = json.dumps(encode_result(result), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class TestDeterminism:
    def test_policy_cell_replays_byte_identically(self):
        params = default_parameters()
        first = run_restore_policy("fireworks", POLICY_LAZY, "nodejs",
                                   params, seed=7)
        second = run_restore_policy("fireworks", POLICY_LAZY, "nodejs",
                                    params, seed=7)
        assert _digest(first) == _digest(second)

    def test_streaming_cell_replays_byte_identically(self):
        params = default_parameters()
        first = run_streaming_transfer("streaming", params, seed=7)
        second = run_streaming_transfer("streaming", params, seed=7)
        assert _digest(first) == _digest(second)


class TestRestoreSpanOf:
    def test_a_record_without_a_restore_names_its_trace(self):
        # An OpenWhisk container boots; it never restores a snapshot.
        platform = fresh_platform(OpenWhiskPlatform)
        spec = faasdom_spec("faas-fact", "nodejs")
        install_all(platform, [spec])
        record = invoke_once(platform, spec.name)
        with pytest.raises(ValidationError, match=record.trace_id):
            _restore_span_of(record)
