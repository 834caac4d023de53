"""Regression: a parallel submission on a single-CPU host must not hang.

The engine demotes ``jobs > 1`` to a serial run when ``os.cpu_count()``
is 1 (a fork pool there only adds IPC overhead — and historically the
hang risk this test pins down).  The service inherits that protection:
a scenario submitted with ``jobs: 4`` on a one-core box completes, logs
the serial fallback, and still closes its progress stream.
"""

from __future__ import annotations

import json
import logging

import pytest

from repro.serve.app import create_app

from tests.serve.test_service_e2e import wait_done
from tests.serve.testclient import ASGITestClient

SCENARIO = {
    "name": "wide",
    "title": "a deliberately parallel scenario",
    "experiments": ["table1", "table2"],
    "jobs": 4,
}


@pytest.fixture()
def client(tmp_path, monkeypatch):
    monkeypatch.setattr("os.cpu_count", lambda: 1)
    root = tmp_path / "scenarios"
    root.mkdir()
    (root / "wide.json").write_text(json.dumps(SCENARIO))
    return ASGITestClient(create_app(
        scenario_root=root, cache_dir=str(tmp_path / "cache")))


def test_single_cpu_serve_falls_back_to_serial(client, caplog):
    caplog.set_level(logging.INFO, logger="repro.bench.engine")
    run_id = client.post("/experiments", json_body={
        "scenario": "wide"}).json()["id"]
    snapshot = wait_done(client, run_id)

    # The run completed instead of wedging on a useless fork pool...
    assert snapshot["state"] == "done"
    assert snapshot["jobs"] == 4          # the request was honoured...
    assert snapshot["stats"]["executed"] == 2

    # ...because the engine demoted it to the serial path, and said so.
    assert any("single-CPU host" in record.message
               and "serially" in record.message
               for record in caplog.records)

    # The progress stream still terminates (no dangling SSE consumer).
    events = client.get(f"/experiments/{run_id}/events").sse_events()
    assert events[-1]["event"] == "run-finished"


def test_single_cpu_cli_figure_falls_back_too(tmp_path, monkeypatch,
                                              caplog, capsys):
    """Same guard on the CLI front: `figure --jobs 8` on one core."""
    from repro.cli import main
    monkeypatch.setattr("os.cpu_count", lambda: 1)
    caplog.set_level(logging.INFO, logger="repro.bench.engine")
    assert main(["figure", "table1", "--jobs", "8",
                 "--cache-dir", str(tmp_path / "cache")]) == 0
    assert "== table1 ==" in capsys.readouterr().out
    assert any("single-CPU host" in record.message
               for record in caplog.records)
