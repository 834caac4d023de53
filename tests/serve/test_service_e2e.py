"""End-to-end tests for the experiment service over the ASGI test client.

These drive the full submit → poll → stream → fetch loop in-process:
the real app callable, the real registry threads, the real engine —
only the socket is skipped.  The headline assertion is the service's
determinism guarantee: two consecutive submissions of the same scenario
produce byte-identical (sha256-equal) results and figures payloads,
whether the shards were computed or served from the cache.
"""

from __future__ import annotations

import hashlib
import json
import threading

import pytest

from repro.bench.serialization import BINARY_MAGIC
from repro.serve.app import create_app
from repro.serve.registry import ExperimentRun
from repro.serve.scenarios import Scenario

from tests.serve.testclient import ASGITestClient

#: One cheap scenario (sub-second) the whole module drives.
SMOKE = {
    "name": "smoke",
    "title": "two fast tables",
    "description": "",
    "experiments": ["table1", "table2"],
    "seed": 2022,
    "jobs": 1,
    "tags": ["smoke"],
    "docs": [],
}


@pytest.fixture()
def client(tmp_path):
    """A test client over a fresh app, library, and cache directory."""
    root = tmp_path / "scenarios"
    root.mkdir()
    (root / "smoke.json").write_text(json.dumps(SMOKE))
    app = create_app(scenario_root=root,
                     cache_dir=str(tmp_path / "cache"))
    return ASGITestClient(app)


def wait_done(client, run_id, polls=60):
    """Long-poll until the run reaches a terminal state; return snapshot."""
    after = 0
    for _ in range(polls):
        snapshot = client.get(
            f"/experiments/{run_id}?wait=5&after={after}").json()
        if snapshot["state"] in ("done", "failed"):
            return snapshot
        after = snapshot["last_seq"]
    raise AssertionError(f"run {run_id} never finished: {snapshot}")


class TestDiscovery:
    def test_index_maps_the_endpoints(self, client):
        body = client.get("/").json()
        assert body["service"] == "repro.serve"
        assert body["endpoints"]["submit"] == "POST /experiments"

    def test_healthz(self, client):
        assert client.get("/healthz").json() == {"ok": True}

    def test_scenarios_listing_and_detail(self, client):
        listing = client.get("/scenarios").json()
        assert [one["name"] for one in listing] == ["smoke"]
        detail = client.get("/scenarios/smoke").json()
        assert detail == SMOKE

    def test_unknown_scenario_404_lists_known(self, client):
        response = client.get("/scenarios/nope")
        assert response.status == 404
        assert "smoke" in response.json()["error"]

    def test_unknown_route_404(self, client):
        assert client.get("/frobnicate").status == 404

    def test_wrong_method_405_names_allowed(self, client):
        response = client.post("/scenarios/smoke", json_body={})
        assert response.status == 405
        assert "GET" in response.json()["error"]


class TestSubmitPollStreamFetch:
    """The full loop, plus the byte-identity acceptance criterion."""

    def test_submit_returns_201_with_links(self, client):
        response = client.post("/experiments", json_body={
            "scenario": "smoke"})
        assert response.status == 201
        body = response.json()
        assert response.header("location") == f"/experiments/{body['id']}"
        assert body["links"]["results"].endswith("/results")
        wait_done(client, body["id"])

    def test_end_to_end_submit_poll_stream_fetch(self, client):
        run_id = client.post("/experiments", json_body={
            "scenario": "smoke"}).json()["id"]

        # Poll (long-poll) until done; the snapshot accounts every shard.
        snapshot = wait_done(client, run_id)
        assert snapshot["state"] == "done"
        assert snapshot["shards_done"] == snapshot["shards_total"] == 2
        assert {one["status"] for one in snapshot["shards"]} <= {
            "cached", "done"}
        assert snapshot["stats"]["shards_total"] == 2

        # Stream: the finite SSE log replays the whole run in order.
        stream = client.get(f"/experiments/{run_id}/events")
        assert stream.status == 200
        assert stream.header("content-type").startswith("text/event-stream")
        events = stream.sse_events()
        kinds = [event["event"] for event in events]
        assert kinds[0] == "run-queued"
        assert kinds[1] == "run-started"
        assert kinds[-1] == "run-finished"
        assert [event["seq"] for event in events] == list(
            range(1, len(events) + 1))
        shard_kinds = {kind for kind in kinds if kind.startswith("shard-")}
        assert shard_kinds <= {"shard-started", "shard-finished",
                               "shard-cache-hit"}

        # Fetch: all three artifacts exist and are well-formed.
        results = client.get(f"/experiments/{run_id}/results")
        assert results.status == 200
        assert set(results.json()) == {"table1", "table2"}
        binary = client.get(
            f"/experiments/{run_id}/results?format=binary")
        assert binary.status == 200
        assert binary.body.startswith(BINARY_MAGIC)
        figures = client.get(f"/experiments/{run_id}/figures")
        assert figures.status == 200
        assert "== table1 ==" in figures.text
        traces = client.get(f"/experiments/{run_id}/traces").json()
        assert traces["otherData"]["deterministic"] is False
        assert len(traces["traceEvents"]) >= 2

    def test_two_consecutive_runs_are_byte_identical(self, client):
        """The acceptance bar: sha256(results) and sha256(figures) agree
        across a computed run and its cache-served rerun."""
        digests = []
        for attempt in range(2):
            run_id = client.post("/experiments", json_body={
                "scenario": "smoke"}).json()["id"]
            snapshot = wait_done(client, run_id)
            assert snapshot["state"] == "done"
            results = client.get(f"/experiments/{run_id}/results").body
            figures = client.get(f"/experiments/{run_id}/figures").body
            binary = client.get(
                f"/experiments/{run_id}/results?format=binary").body
            digests.append((hashlib.sha256(results).hexdigest(),
                            hashlib.sha256(figures).hexdigest(),
                            hashlib.sha256(binary).hexdigest()))
        assert digests[0] == digests[1]

    def test_second_run_hits_the_cache(self, client):
        first = client.post("/experiments", json_body={
            "scenario": "smoke"}).json()["id"]
        wait_done(client, first)
        second = client.post("/experiments", json_body={
            "scenario": "smoke"}).json()["id"]
        snapshot = wait_done(client, second)
        assert snapshot["stats"]["cache_hits"] == 2
        assert snapshot["stats"]["executed"] == 0

    def test_inline_scenario_document(self, client):
        response = client.post("/experiments", json_body={
            "scenario": {"name": "inline", "title": "inline doc",
                         "experiments": ["table2"]}})
        assert response.status == 201
        snapshot = wait_done(client, response.json()["id"])
        assert snapshot["state"] == "done"
        assert snapshot["scenario"]["name"] == "inline"

    def test_runs_listing_preserves_submission_order(self, client):
        ids = [client.post("/experiments", json_body={
            "scenario": "smoke"}).json()["id"] for _ in range(2)]
        for run_id in ids:
            wait_done(client, run_id)
        listing = client.get("/experiments").json()
        assert [one["id"] for one in listing] == ids


def get_with_deadline(client, path, seconds=15.0):
    """GET *path* on a worker thread; fail if it never returns.

    Guards the SSE regression tests: a stream that never closes must
    fail the test, not hang the suite.
    """
    result = {}

    def fetch():
        result["response"] = client.get(path)

    worker = threading.Thread(target=fetch, daemon=True)
    worker.start()
    worker.join(seconds)
    assert "response" in result, \
        f"GET {path} did not finish in {seconds}s (stream never closed)"
    return result["response"]


class TestSseResume:
    """``?since=N`` resumption, including the finished-run edges.

    Regression: resuming a finished run at (or past) its terminal
    event's seq used to busy-spin forever — wait_events returned an
    empty list instantly, the handler sent a keep-alive and looped.
    The stream must close instead.
    """

    @pytest.fixture()
    def finished(self, client):
        run_id = client.post("/experiments", json_body={
            "scenario": "smoke"}).json()["id"]
        wait_done(client, run_id)
        events = client.get(f"/experiments/{run_id}/events").sse_events()
        assert events[-1]["event"] == "run-finished"
        return run_id, events

    def test_resume_mid_log_replays_the_tail_and_closes(self, client,
                                                        finished):
        run_id, events = finished
        response = get_with_deadline(
            client, f"/experiments/{run_id}/events?since=2")
        assert response.sse_events() == events[2:]

    def test_resume_at_terminal_seq_closes_empty(self, client, finished):
        run_id, events = finished
        terminal_seq = events[-1]["seq"]
        response = get_with_deadline(
            client, f"/experiments/{run_id}/events?since={terminal_seq}")
        assert response.status == 200
        assert response.sse_events() == []

    def test_resume_past_terminal_seq_closes_empty(self, client, finished):
        run_id, events = finished
        since = events[-1]["seq"] + 7
        response = get_with_deadline(
            client, f"/experiments/{run_id}/events?since={since}")
        assert response.status == 200
        assert response.sse_events() == []

    def test_resume_past_terminal_of_failed_run_closes(self, client,
                                                       monkeypatch):
        from repro.errors import ReproError

        def explode(*args, **kwargs):
            raise ReproError("synthetic engine failure")

        monkeypatch.setattr("repro.bench.engine.run_experiments", explode)
        run_id = client.post("/experiments", json_body={
            "scenario": "smoke"}).json()["id"]
        wait_done(client, run_id)
        events = client.get(f"/experiments/{run_id}/events").sse_events()
        assert events[-1]["event"] == "run-failed"
        response = get_with_deadline(
            client,
            f"/experiments/{run_id}/events?since={events[-1]['seq']}")
        assert response.sse_events() == []


class TestErrorPaths:
    def test_unknown_run_404(self, client):
        for suffix in ("", "/events", "/results", "/figures", "/traces"):
            response = client.get(f"/experiments/run-9999{suffix}")
            assert response.status == 404, suffix

    def test_unknown_scenario_name_404_with_path(self, client):
        response = client.post("/experiments", json_body={
            "scenario": "nope"})
        assert response.status == 404
        body = response.json()
        assert body["path"] == "scenario"
        assert "smoke" in body["error"]

    def test_invalid_inline_scenario_422_with_json_path(self, client):
        response = client.post("/experiments", json_body={
            "scenario": {"name": "x", "title": "t",
                         "experiments": ["table1", "fig99"]}})
        assert response.status == 422
        body = response.json()
        assert body["path"] == "scenario.experiments[1]"
        assert "fig99" in body["error"]

    def test_unknown_submit_key_422(self, client):
        response = client.post("/experiments", json_body={
            "scenario": "smoke", "bogus": 1})
        assert response.status == 422
        assert response.json()["path"] == "bogus"

    def test_missing_scenario_key_422(self, client):
        response = client.post("/experiments", json_body={"seed": 1})
        assert response.status == 422
        assert response.json()["path"] == "scenario"

    def test_zero_jobs_422(self, client):
        response = client.post("/experiments", json_body={
            "scenario": "smoke", "jobs": 0})
        assert response.status == 422
        assert response.json()["path"] == "jobs"

    def test_non_boolean_use_cache_422(self, client):
        response = client.post("/experiments", json_body={
            "scenario": "smoke", "use_cache": "yes"})
        assert response.status == 422
        assert response.json()["path"] == "use_cache"

    def test_malformed_json_body_400(self, client):
        response = client.post("/experiments", body=b"{not json")
        assert response.status == 400
        assert "not valid JSON" in response.json()["error"]

    def test_empty_body_400(self, client):
        assert client.post("/experiments", body=b"").status == 400

    def test_artifacts_of_unfinished_run_409(self, client):
        # A hand-planted running run: deterministic, no race with a real
        # worker thread.
        app = client.app
        scenario = Scenario(name="stuck", title="t",
                            experiments=("table1",))
        run = ExperimentRun(id="run-7777", scenario=scenario, seed=2022,
                            jobs=1, use_cache=True, state="running")
        with app.registry._cond:
            app.registry._runs["run-7777"] = run
            app.registry._order.append("run-7777")
        for artifact in ("results", "figures", "traces"):
            response = client.get(f"/experiments/run-7777/{artifact}")
            assert response.status == 409, artifact
            assert "running" in response.json()["error"]

    def test_bad_results_format_422(self, client):
        run_id = client.post("/experiments", json_body={
            "scenario": "smoke"}).json()["id"]
        wait_done(client, run_id)
        response = client.get(
            f"/experiments/{run_id}/results?format=msgpack")
        assert response.status == 422
        assert response.json()["path"] == "format"

    def test_failed_run_reports_the_engine_error(self, client, monkeypatch):
        """An engine error fails the run cleanly: run-failed event, error
        in the snapshot, 409 on every artifact."""
        from repro.errors import ReproError

        def explode(*args, **kwargs):
            raise ReproError("synthetic engine failure")

        monkeypatch.setattr("repro.bench.engine.run_experiments", explode)
        run_id = client.post("/experiments", json_body={
            "scenario": "smoke"}).json()["id"]
        snapshot = wait_done(client, run_id)
        assert snapshot["state"] == "failed"
        assert "synthetic engine failure" in snapshot["error"]
        events = client.get(
            f"/experiments/{run_id}/events").sse_events()
        assert events[-1]["event"] == "run-failed"
        response = client.get(f"/experiments/{run_id}/results")
        assert response.status == 409
        assert "synthetic engine failure" in response.json()["error"]


class TestSubmitOverrides:
    def test_seed_override_changes_results(self, client):
        base = client.post("/experiments", json_body={
            "scenario": "smoke"}).json()["id"]
        wait_done(client, base)
        other = client.post("/experiments", json_body={
            "scenario": "smoke", "seed": 7}).json()["id"]
        snapshot = wait_done(client, other)
        assert snapshot["seed"] == 7
        # Different seed means different cache keys: nothing was reused.
        assert snapshot["stats"]["cache_hits"] == 0

    def test_use_cache_false_recomputes(self, client):
        first = client.post("/experiments", json_body={
            "scenario": "smoke"}).json()["id"]
        wait_done(client, first)
        second = client.post("/experiments", json_body={
            "scenario": "smoke", "use_cache": False}).json()["id"]
        snapshot = wait_done(client, second)
        assert snapshot["stats"]["cache_hits"] == 0
        assert snapshot["stats"]["executed"] == 2


class TestChainsScenario:
    """The shipped multi-tenant-chains scenario, end to end.

    The DAG-executor experiment is not special-cased anywhere in the
    service; this locks the whole path — shipped scenario file, submit
    by name, parallel shards, SSE log, results/figures fetch — for the
    chains experiment id specifically.
    """

    @pytest.fixture()
    def chains_client(self, tmp_path):
        import pathlib
        shipped = (pathlib.Path(__file__).resolve().parents[2]
                   / "scenarios" / "multi-tenant-chains.json")
        root = tmp_path / "scenarios"
        root.mkdir()
        (root / shipped.name).write_text(shipped.read_text())
        app = create_app(scenario_root=root,
                         cache_dir=str(tmp_path / "cache"))
        return ASGITestClient(app)

    def test_shipped_scenario_runs_to_done(self, chains_client):
        from repro.bench.chains import CHAIN_POLICIES
        from repro.bench.load import LOAD_PLATFORMS
        client = chains_client
        detail = client.get("/scenarios/multi-tenant-chains").json()
        assert detail["experiments"] == ["chains"]

        run_id = client.post("/experiments", json_body={
            "scenario": "multi-tenant-chains"}).json()["id"]
        snapshot = wait_done(client, run_id, polls=240)
        assert snapshot["state"] == "done"
        expected = {f"{platform}@{policy}"
                    for platform in LOAD_PLATFORMS
                    for policy in CHAIN_POLICIES}
        assert snapshot["shards_total"] == len(expected)

        results = client.get(f"/experiments/{run_id}/results").json()
        assert set(results) == {"chains"}
        from repro.bench.serialization import decode_result
        assert set(decode_result(results["chains"])) == expected
        figures = client.get(f"/experiments/{run_id}/figures")
        assert "goodput=" in figures.text
        kinds = [event["event"]
                 for event in client.get(
                     f"/experiments/{run_id}/events").sse_events()]
        assert kinds[-1] == "run-finished"
