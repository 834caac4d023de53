"""The benchmark's four workloads, driven through public ``repro.bench`` entry
points.

A workload is a function ``(seed, probe, workdir) -> Outcome``.  It runs its
body inside ``with probe.timed():``, the only region whose host time becomes
``wall_s`` (and which a traced unit profiles), then checks its own output.
Everything outside that region is checking or side measurement.

Every workload is a batch run with one run in flight at a time; the open
loops are open in *simulated* time, so no host-side generator can run late.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import statistics
import tempfile
import time
from typing import Callable, Dict, List, Optional

from repro.bench.engine import LOAD_SWEEP_RATES, run_experiments
from repro.bench.serialization import encode_result

#: Simulated length of the ``replay`` run.  The default-shape load shard
#: runs 240 s; 15 s keeps one unit near 3 s of host time, so a measured
#: run holds several units.
REPLAY_DURATION_MS = 15_000.0

#: Every registered experiment except the ``load`` family and ``search``,
#: which have workloads of their own: what a paper-reproduction user runs.
FIGURE_IDS = ("table1", "table2", "snapshot-creation", "fig6", "fig7",
              "fig9", "fig10", "fig11", "fig12", "scorecard", "burst",
              "sensitivity", "ablations", "policies", "keepalive", "cluster",
              "chaos", "chains", "restore")

#: Parts of the ``figures`` result that ignore the seed, by key path into
#: the result, with their golden digests: those of ``GOLDEN_FIGURE_HASHES``
#: in ``tests/test_golden_numbers.py``.  They are checked on every seed.
SEED_FREE_FIGURES = {
    ("fig6", "faas-fact"):
        "4b214b3ad461b9b9d3e81751f52b4289b8bc025eb26c0c51313cbf5de2c42cee",
    ("fig7", "faas-fact"):
        "d0a486034e58b8f7635fb1d6759195883c0070cdcfd4d6af2235685db8033449",
    ("fig9",):
        "1f21f019ac6571b22fba816f6bf29bc48fe960b6f527db3dfe063bd5fe16ec15",
    ("fig10", "firecracker"):
        "3fbc9636a87f7bb336be487c84fe51c5ee22b76f74c48497f5dbae63485a2d8c",
    ("fig10", "fireworks"):
        "7d3ed7a73aea311202e07584654bcf52bfbcf1cc819716c1b5403d9f4619f97b",
}

#: All-hit reruns of the cached ``search`` experiment per unit.
SEARCH_HIT_RERUNS = 50


def digest(result) -> str:
    """sha256 of the canonical JSON of ``encode_result(result)`` -- the
    same bytes ``_canonical_hash`` in ``tests/test_golden_numbers.py``
    hashes."""
    blob = json.dumps(encode_result(result), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def figure_part(results: Dict, path) -> object:
    """The sub-result of a ``figures`` run at *path* (keys, outermost first)."""
    part = results
    for key in path:
        part = part[key]
    return part


@dataclasses.dataclass
class Outcome:
    """What one workload unit produced, after its own output checks."""

    digest: str
    #: Operations attempted: a shard, or the replay call.
    ops: int
    #: Output checks that failed; any entry fails the unit.
    problems: List[str]
    #: Simulated invocations the output reports completed in the timed
    #: body, or None when the output has no such count.
    completed: Optional[int] = None
    #: Side measurements only this workload takes (host time, bytes).
    extras: Dict[str, float] = dataclasses.field(default_factory=dict)


def replay(seed: int, probe, workdir: str) -> Outcome:
    """One long open-loop replay: Fireworks, predictive warm pool."""
    del workdir
    from repro.bench.load import run_load_platform
    with probe.timed():
        outcome = run_load_platform("fireworks", "predictive",
                                    duration_ms=REPLAY_DURATION_MS,
                                    seed=seed)
    problems = []
    if outcome.completed + outcome.shed + outcome.failed != outcome.requests:
        problems.append(f"replay: {outcome.completed} completed + "
                        f"{outcome.shed} shed + {outcome.failed} failed != "
                        f"{outcome.requests} requests")
    if outcome.completed == 0:
        problems.append("replay: nothing completed")
    return Outcome(digest(outcome), ops=1, problems=problems,
                   completed=outcome.completed)


def sweep(seed: int, probe, workdir: str) -> Outcome:
    """The Fireworks row of the ``load-sweep`` experiment: four offered
    rates, every arrival spawned up front and joined by one ``all_of``."""
    del workdir
    from repro.bench.concurrency import run_load_sweep
    from repro.core.fireworks import FireworksPlatform
    with probe.timed():
        points = run_load_sweep(FireworksPlatform, rates_rps=LOAD_SWEEP_RATES,
                                seed=seed)
    problems = []
    if tuple(points) != LOAD_SWEEP_RATES:
        problems.append(f"sweep: rates {tuple(points)} != "
                        f"{LOAD_SWEEP_RATES}")
    if any(point.latency.count == 0 for point in points.values()):
        problems.append("sweep: a rate completed nothing")
    return Outcome(digest(points), ops=len(LOAD_SWEEP_RATES),
                   problems=problems,
                   completed=sum(point.latency.count
                                 for point in points.values()))


def figures(seed: int, probe, workdir: str) -> Outcome:
    """One serial, uncached pass over every paper figure and extension."""
    del workdir
    with probe.timed():
        run = run_experiments(FIGURE_IDS, seed=seed, jobs=1, use_cache=False)
    problems = []
    if run.stats.executed != run.stats.shards_total:
        problems.append(f"figures: {run.stats.executed} of "
                        f"{run.stats.shards_total} shards executed")
    for path, expected in SEED_FREE_FIGURES.items():
        got = digest(figure_part(run.results, path))
        if got != expected:
            problems.append(f"figures: {'.'.join(path)} digest {got} != "
                            f"{expected}")
    return Outcome(digest(run.results), ops=run.stats.shards_total,
                   problems=problems)


def _tree_bytes(root: str) -> int:
    return sum(os.path.getsize(os.path.join(folder, name))
               for folder, _dirs, names in os.walk(root) for name in names)


def search(seed: int, probe, workdir: str) -> Outcome:
    """The Pareto policy search: a serial cold run that fills a fresh cache
    (timed), then a parallel cold run and all-hit reruns (untimed)."""
    cold_dir = tempfile.mkdtemp(prefix="search-cold-", dir=workdir)
    parallel_dir = tempfile.mkdtemp(prefix="search-par-", dir=workdir)
    try:
        with probe.timed():
            serial = run_experiments(["search"], seed=seed, jobs=1,
                                     cache_dir=cold_dir)
        result = serial.results["search"]
        expected = digest(result)
        shards = serial.stats.shards_total
        problems = []
        extras = {"bench.cache_bytes": float(_tree_bytes(cold_dir))}
        if serial.stats.executed != shards:
            problems.append(f"search: cold run executed "
                            f"{serial.stats.executed} of {shards} shards")
        # The pool's work happens in child processes, which a profile of
        # this process cannot see, so only untraced units run it.
        if not probe.traced:
            jobs = min(2, os.cpu_count() or 1)
            started = time.perf_counter()
            parallel = run_experiments(["search"], seed=seed, jobs=jobs,
                                       cache_dir=parallel_dir)
            extras["bench.parallel_speedup"] = (
                probe.wall_s / (time.perf_counter() - started))
            if digest(parallel.results["search"]) != expected:
                problems.append(f"search: jobs={jobs} result differs from "
                                "the serial one")
        hits_ms = []
        with probe.profiled():
            for _ in range(SEARCH_HIT_RERUNS):
                started = time.perf_counter()
                again = run_experiments(["search"], seed=seed, jobs=1,
                                        cache_dir=cold_dir)
                hits_ms.append((time.perf_counter() - started) * 1e3)
                if again.stats.cache_hits != shards:
                    problems.append(f"search: rerun hit "
                                    f"{again.stats.cache_hits} of {shards}")
                if digest(again.results["search"]) != expected:
                    problems.append("search: cached result differs from "
                                    "the computed one")
        extras["bench.cache_hit_ms"] = statistics.median(hits_ms)
        extras["bench.cache_hit_p80_ms"] = statistics.quantiles(
            hits_ms, n=5)[3]
        runs = 1 + (not probe.traced) + SEARCH_HIT_RERUNS
        return Outcome(expected, ops=shards * runs,
                       problems=problems,
                       completed=sum(one.completed
                                     for one in result.outcomes),
                       extras=extras)
    finally:
        shutil.rmtree(cold_dir, ignore_errors=True)
        shutil.rmtree(parallel_dir, ignore_errors=True)


#: Workload name -> body, in report order.
WORKLOADS: Dict[str, Callable[..., Outcome]] = {
    "replay": replay,
    "sweep": sweep,
    "figures": figures,
    "search": search,
}
