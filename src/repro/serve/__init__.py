"""The experiment service: a REST control surface over the engine.

``repro.serve`` wraps the parallel experiment engine
(:mod:`repro.bench.engine`) and its content-addressed result cache in a
long-running HTTP service plus a library of *named scenarios*
(``scenarios/*.json``) — every experiment documented under ``docs/`` is
one ``POST /experiments`` or one ``repro figure <scenario>`` away.

The pieces:

* :mod:`repro.serve.scenarios` — the scenario schema + loader shared by
  the CLI and the API (JSON-path-carrying :class:`ValidationError`);
* :mod:`repro.serve.registry`  — the run registry: submits scenarios to
  the engine on worker threads, records per-shard progress events, and
  renders artifacts (canonical JSON, figure text, shard trace);
* :mod:`repro.serve.app`       — the ASGI application (pure stdlib: the
  routing table, JSON error model, SSE/long-poll progress streaming);
* :mod:`repro.serve.http`      — a threaded stdlib HTTP adapter so
  ``repro serve`` needs no third-party server.

The tests drive the app in process, without sockets, through the ASGI
client in ``tests/serve/testclient.py``.

Determinism guarantee: the service adds no RNG draws and no merge
reordering — ``GET /experiments/{id}/results`` and ``/figures`` are
byte-identical to the equivalent ``repro figure`` CLI run with the same
seed, and to themselves across repeat submissions (same cache keys).
"""

from repro.serve.app import create_app
from repro.serve.registry import ExperimentRun, RunRegistry
from repro.serve.scenarios import (Scenario, dump_scenario, load_scenario,
                                   load_scenario_file,
                                   load_scenario_library)

__all__ = [
    "ExperimentRun",
    "RunRegistry",
    "Scenario",
    "create_app",
    "dump_scenario",
    "load_scenario",
    "load_scenario_file",
    "load_scenario_library",
    "serve_forever",
]


def serve_forever(host: str = "127.0.0.1", port: int = 8177,
                  jobs=None, use_cache: bool = True,
                  cache_dir=None) -> int:
    """Boot the stdlib HTTP server for ``repro serve``; blocks until ^C."""
    from repro.serve.http import run_server
    return run_server(host=host, port=port, jobs=jobs, use_cache=use_cache,
                      cache_dir=cache_dir)
