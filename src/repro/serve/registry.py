"""The run registry: scenario submissions, progress events, artifacts.

Each ``POST /experiments`` becomes one :class:`ExperimentRun`: the
scenario's experiment ids go through :func:`repro.bench.engine.run_experiments`
on a worker thread, per-shard :class:`~repro.bench.engine.ShardEvent`
notifications append to the run's event log, and completion freezes three
artifacts:

* ``results_json`` — canonical JSON of the merged results (sorted keys,
  compact separators, loss-free codec) — byte-identical across repeat
  runs with the same scenario + seed, and to the engine's own payloads;
* ``figures_text`` — the rendered figure bodies, byte-identical to the
  ``repro figure <ids>`` CLI stdout for the same run;
* ``trace_events`` — a Chrome ``trace_event`` document of the run's
  shard schedule (wall-clock; the one deliberately non-deterministic
  artifact).

Everything here is plain threads + condition variables; the ASGI layer
adapts it to coroutines.  The registry never mutates engine state: all
determinism comes from the engine's own keyed merge.
"""

from __future__ import annotations

import json
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ReproError, ValidationError
from repro.serve.scenarios import Scenario, dump_scenario

__all__ = ["ExperimentRun", "RunRegistry", "TERMINAL_EVENTS",
           "TERMINAL_STATES"]

#: Event kinds that end a run's progress stream.
TERMINAL_EVENTS = ("run-finished", "run-failed")

#: Run states in which no further events will ever be emitted.
TERMINAL_STATES = ("done", "failed")


@dataclass
class ExperimentRun:
    """One submitted scenario run and everything it produced."""

    id: str
    scenario: Scenario
    seed: int
    jobs: int
    use_cache: bool
    state: str = "queued"             # queued | running | done | failed
    created_s: float = field(default_factory=time.time)
    shard_status: "Dict[Tuple[str, str], str]" = field(default_factory=dict)
    events: List[Dict[str, Any]] = field(default_factory=list)
    error: Optional[str] = None
    stats: Optional[Dict[str, Any]] = None
    results_json: Optional[bytes] = None
    results_binary: Optional[bytes] = None
    figures_text: Optional[str] = None
    trace_events: Optional[Dict[str, Any]] = None

    def snapshot(self) -> Dict[str, Any]:
        """The JSON body of ``GET /experiments/{id}`` (no artifacts)."""
        shards = [{"experiment": experiment, "shard": shard,
                   "status": status}
                  for (experiment, shard), status
                  in self.shard_status.items()]
        done = sum(1 for one in shards
                   if one["status"] in ("cached", "done"))
        body: Dict[str, Any] = {
            "id": self.id,
            "state": self.state,
            "scenario": dump_scenario(self.scenario),
            "seed": self.seed,
            "jobs": self.jobs,
            "use_cache": self.use_cache,
            "shards": shards,
            "shards_done": done,
            "shards_total": len(shards),
            "last_seq": len(self.events),
        }
        if self.error is not None:
            body["error"] = self.error
        if self.stats is not None:
            body["stats"] = self.stats
        return body


class RunRegistry:
    """Submits scenarios to the engine and tracks their runs.

    Thread-safe: the ASGI handlers call in from the event loop's executor
    threads while engine runs report progress from their worker threads.
    """

    def __init__(self, jobs: Optional[int] = None, use_cache: bool = True,
                 cache_dir: Optional[str] = None) -> None:
        self._jobs = jobs          # force a jobs level on every run (CLI -j)
        self._use_cache = use_cache
        self._cache_dir = cache_dir
        self._runs: "Dict[str, ExperimentRun]" = {}
        self._order: List[str] = []
        self._next = 1
        self._cond = threading.Condition()

    # -- submission ---------------------------------------------------------
    def submit(self, scenario: Scenario, seed: Optional[int] = None,
               jobs: Optional[int] = None,
               use_cache: Optional[bool] = None) -> ExperimentRun:
        """Register *scenario* and start executing it on a worker thread.

        The shard table is the engine's plan of the run, keyed by each
        shard's label, so it lists every distinct shard once."""
        from repro.bench.engine import plan_run
        planned = plan_run(scenario.experiments).shards
        with self._cond:
            run_id = f"run-{self._next:04d}"
            self._next += 1
            run = ExperimentRun(
                id=run_id, scenario=scenario,
                seed=seed if seed is not None else scenario.seed,
                jobs=self._resolve_jobs(scenario, jobs),
                use_cache=(self._use_cache if use_cache is None
                           else use_cache))
            for one in planned:
                run.shard_status[one.label] = "pending"
            self._runs[run_id] = run
            self._order.append(run_id)
        self._emit(run, "run-queued")
        worker = threading.Thread(target=self._execute, args=(run,),
                                  name=f"repro-serve-{run_id}", daemon=True)
        worker.start()
        return run

    def _resolve_jobs(self, scenario: Scenario,
                      override: Optional[int]) -> int:
        if override is not None:
            if override < 1:
                raise ValidationError(
                    f"jobs: must be >= 1, got {override}")
            return override
        return self._jobs if self._jobs is not None else scenario.jobs

    # -- lookup -------------------------------------------------------------
    def get(self, run_id: str) -> ExperimentRun:
        """The run with *run_id*; raises ``KeyError`` if unknown."""
        with self._cond:
            if run_id not in self._runs:
                raise KeyError(run_id)
            return self._runs[run_id]

    def list(self) -> List[Dict[str, Any]]:
        """Summaries of every run, in submission order.

        Built entirely under the lock so each summary's fields are read
        consistently with the worker threads' mutations.
        """
        with self._cond:
            return [{"id": run.id, "state": run.state,
                     "scenario": run.scenario.name, "seed": run.seed}
                    for run in (self._runs[run_id]
                                for run_id in self._order)]

    def snapshot(self, run: ExperimentRun) -> Dict[str, Any]:
        """*run*'s snapshot body, read atomically under the lock (so the
        state can never pair with stale shard/stats fields)."""
        with self._cond:
            return run.snapshot()

    # -- events -------------------------------------------------------------
    def _emit(self, run: ExperimentRun, kind: str,
              set_state: Optional[str] = None, **attrs: Any) -> None:
        """Append one event; *set_state* changes ``run.state`` in the same
        critical section, so a waiter can never observe a terminal state
        without the matching terminal event already being in the log."""
        with self._cond:
            if set_state is not None:
                run.state = set_state
            event = {"seq": len(run.events) + 1, "event": kind,
                     "run": run.id,
                     "t_ms": round((time.time() - run.created_s) * 1e3, 3)}
            event.update(attrs)
            run.events.append(event)
            self._cond.notify_all()

    def wait_events(self, run: ExperimentRun, seq: int,
                    timeout_s: float) -> List[Dict[str, Any]]:
        """Block (up to *timeout_s*) until events beyond *seq* exist."""
        deadline = time.monotonic() + timeout_s
        with self._cond:
            while len(run.events) <= seq:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or run.state in TERMINAL_STATES:
                    break
                self._cond.wait(remaining)
            return list(run.events[seq:])

    # -- execution ----------------------------------------------------------
    def _execute(self, run: ExperimentRun) -> None:
        from repro.bench.engine import ShardEvent, run_experiments
        from repro.bench.render import render_run_text
        from repro.bench.serialization import dumps_result, encode_result

        status_of = {"cache-hit": "cached", "started": "running",
                     "finished": "done"}

        def on_progress(event: ShardEvent) -> None:
            with self._cond:
                run.shard_status[(event.experiment, event.shard)] = \
                    status_of[event.kind]
            self._emit(run, f"shard-{event.kind}",
                       experiment=event.experiment, shard=event.shard,
                       index=event.index, total=event.total)

        self._emit(run, "run-started", set_state="running",
                   scenario=run.scenario.name, seed=run.seed, jobs=run.jobs)
        started = time.time()
        try:
            outcome = run_experiments(
                list(run.scenario.experiments), seed=run.seed,
                jobs=run.jobs, use_cache=run.use_cache,
                cache_dir=self._cache_dir, progress=on_progress)
        except ReproError as exc:
            self._fail(run, str(exc))
            return
        except Exception as exc:  # noqa: BLE001 - a run must never wedge
            traceback.print_exc()
            self._fail(run, f"internal error: {exc!r}")
            return

        # Encode and render outside the lock (rendering is the slow part),
        # then publish the artifacts before the state flips to "done" —
        # any reader that observes "done" sees every artifact in place.
        encoded = {name: encode_result(result)
                   for name, result in outcome.results.items()}
        results_json = json.dumps(encoded, sort_keys=True,
                                  separators=(",", ":")).encode("utf-8")
        results_binary = dumps_result(
            {"run": "repro.serve", "results": encoded})
        figures_text = render_run_text(outcome.results)
        stats = {
            "jobs": outcome.stats.jobs,
            "shards_total": outcome.stats.shards_total,
            "cache_hits": outcome.stats.cache_hits,
            "executed": outcome.stats.executed,
            "elapsed_s": round(outcome.stats.elapsed_s, 6),
        }
        with self._cond:
            run.results_json = results_json
            run.results_binary = results_binary
            run.figures_text = figures_text
            run.trace_events = self._shard_trace(run, started)
            run.stats = stats
        self._emit(run, "run-finished", set_state="done", **stats)

    def _fail(self, run: ExperimentRun, message: str) -> None:
        with self._cond:
            run.error = message
        self._emit(run, "run-failed", set_state="failed", error=message)

    def _shard_trace(self, run: ExperimentRun,
                     started_s: float) -> Dict[str, Any]:
        """Chrome ``trace_event`` JSON of the run's shard schedule.

        Built from the run's own event log: a complete-event per shard
        (started→finished wall time), instant events for cache hits.
        Timing is wall clock — the only artifact that is *not*
        byte-deterministic, and says so in its metadata.
        """
        events: List[Dict[str, Any]] = []
        open_ts: Dict[Tuple[str, str], float] = {}
        for event in run.events:
            kind = event["event"]
            if not kind.startswith("shard-"):
                continue
            key = (event["experiment"], event["shard"])
            name = f"{key[0]}/{key[1]}"
            ts_us = event["t_ms"] * 1e3
            if kind == "shard-started":
                open_ts[key] = ts_us
            elif kind == "shard-finished":
                begin = open_ts.pop(key, ts_us)
                events.append({"name": name, "cat": "shard", "ph": "X",
                               "ts": begin, "dur": ts_us - begin,
                               "pid": 1, "tid": 1,
                               "args": {"experiment": key[0],
                                        "shard": key[1]}})
            elif kind == "shard-cache-hit":
                events.append({"name": name, "cat": "cache", "ph": "i",
                               "ts": ts_us, "pid": 1, "tid": 1, "s": "t",
                               "args": {"experiment": key[0],
                                        "shard": key[1]}})
        return {"traceEvents": events,
                "displayTimeUnit": "ms",
                "otherData": {"run": run.id,
                              "scenario": run.scenario.name,
                              "deterministic": False,
                              "wall_started_s": round(started_s, 3)}}
