"""Parallel experiment engine with content-addressed result caching.

Every paper figure — and the extension experiments around them — is one
:class:`~repro.bench.experiment.Experiment`, declared next to its driver and
listed once in this module's catalog.  The engine's one unit of work is the
*shard*: one catalog shard (one platform's Fig 10 consolidation run, one
FaaSdom benchmark's latency breakdown, one burst config) at one parameter
set.  Each builds its own :class:`~repro.sim.kernel.Simulation` from a
fixed seed, so it is deterministic and perfectly memoizable.  An
experiment either computes shards of its own or *derives* its result from
catalog shards it declares, at the run's parameters or at parameters of
its own (the scorecard, the sensitivity sweep).

The engine:

* plans a run (:func:`plan_run`): every requested experiment's shards,
  own or read, and the distinct ones among them, so a shard that several
  experiments need runs once;
* fans the missing shards out across a ``ProcessPoolExecutor``
  (``jobs > 1``) or runs them inline (``jobs == 1``), then **merges
  deterministically** — shard results are combined in requested order,
  never completion order, so serial and parallel runs produce identical
  results;
* carries each shard's result as one binary blob
  (:func:`repro.bench.serialization.dumps_result`): from the worker, into
  the cache file under ``.repro-cache/``, and through one
  :func:`~repro.bench.serialization.loads_result` before the merge — so the
  cache-hit path decodes exactly the bytes the compute path produced;
* addresses each cache file by a content hash of ``(cache schema, repro
  version, source digest, experiment id, shard key, shard kwargs,
  canonical hash of CalibratedParameters, seed)`` — a rerun of the same
  code with the same calibration is a pure cache read.

Invalidation is by key construction: changing any calibrated constant, the
seed, the package version, :data:`CACHE_SCHEMA_VERSION` or the bytes of any
``*.py`` file of the ``repro`` package (:func:`code_digest`) changes the
key, and stale entries are simply never read again; deleting
``.repro-cache/`` reclaims their space.  So after an edit, a run recomputes
every shard instead of serving results of the old code.
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import os
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench.concurrency import LOAD_SWEEP_RATES  # re-exported
from repro.bench.experiment import (DEFAULT_SEED, Cells, Experiment, Read,
                                    Shard)
from repro.bench.serialization import dumps_result, loads_result
from repro.config import (CalibratedParameters, canonical_jsonable,
                          default_parameters, params_fingerprint)
from repro.errors import ReproError, UndrainedSimulationError
from repro.sim.kernel import SimulationScope

_LOG = logging.getLogger(__name__)

#: Bump when the shard decomposition or the cache-file layout changes shape.
CACHE_SCHEMA_VERSION = 3

DEFAULT_CACHE_DIR = ".repro-cache"


# ---------------------------------------------------------------------------
# The catalog
# ---------------------------------------------------------------------------
def _catalog() -> Tuple[Experiment, ...]:
    """Every experiment in canonical order: the paper's own tables and
    figures in paper order, then the extensions."""
    from repro.bench import (ablations, chains, chaos, cluster, concurrency,
                             factors, faasdom_experiments, load, memory,
                             paper, realworld, restore, search, sensitivity,
                             tables)
    return (
        tables.TABLE1, tables.TABLE2, tables.SNAPSHOT_CREATION, memory.FIG4,
        faasdom_experiments.FIG6, faasdom_experiments.FIG7, realworld.FIG9,
        memory.FIG10, factors.FIG11, memory.FIG12, paper.SCORECARD,
        concurrency.BURST, concurrency.LOAD_SWEEP, sensitivity.SENSITIVITY,
        ablations.ABLATIONS, ablations.POLICIES, ablations.KEEPALIVE,
        cluster.CLUSTER, chaos.CHAOS, load.LOAD, chains.CHAINS,
        restore.RESTORE, search.SEARCH, search.SEARCH_SMOKE,
        faasdom_experiments.BILLING,
    )


_REGISTRY: Optional[Dict[str, Experiment]] = None


def experiment_registry() -> Dict[str, Experiment]:
    """The catalog by experiment id (built lazily, import cycles avoided)."""
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = {experiment.id: experiment for experiment in _catalog()}
    return _REGISTRY


def experiment_ids() -> Tuple[str, ...]:
    """Every runnable experiment id, in canonical order."""
    return tuple(experiment_registry())


def _execute_shard(shard: Shard, params: CalibratedParameters,
                   seed: int) -> bytes:
    """Run one shard and return its result blob.

    Runs in a pool worker under ``jobs > 1``; the blob is what crosses the
    process boundary and what the cache stores.  Once the blob is encoded
    (so no result can move), every simulation the shard built that is
    still alive is drained (a bare :meth:`~repro.sim.kernel.Simulation.run`,
    up to 24 simulated hours): a drained simulation holds no process that
    holds it, so refcounting frees it instead of the cyclic GC.  Work
    still pending after the horizon raises
    :class:`~repro.errors.UndrainedSimulationError`, naming the
    experiment, the shard and the pending entry, and the shard is not
    cached.

    The scope holds its simulations weakly.  One that the cyclic GC frees
    before the drain is not drained here, but it can no longer hang or
    leak, and every driver that drains checks its own simulations
    whatever the GC does.  Holding them strongly raised a ``load-sweep``
    row's peak RSS from 46.1 to 61.7 MiB.
    """
    experiment = experiment_registry()[shard.experiment]
    with SimulationScope() as scope:
        blob = dumps_result(experiment.run(params, seed,
                                           **shard.kwargs_dict()))
    for sim in scope.live():
        try:
            sim.run()
        except UndrainedSimulationError as error:
            raise UndrainedSimulationError(
                error.pending, error.horizon_ms, shard.experiment,
                shard.key) from None
    return blob


# ---------------------------------------------------------------------------
# Content-addressed result cache
# ---------------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def code_digest() -> str:
    """sha256 over every ``*.py`` file of the ``repro`` package: each
    file's path relative to the package, then its bytes' sha256, in sorted
    path order.

    Part of every cache key.  Computed once per process, on the first key,
    never at import: reading the package's sources takes milliseconds.
    """
    package = Path(__file__).resolve().parent.parent
    files = sorted((path.relative_to(package).as_posix(), path)
                   for path in package.rglob("*.py"))
    digest = hashlib.sha256()
    for relative, path in files:
        digest.update(relative.encode("utf-8") + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


class ResultCache:
    """Shard result blobs under *root*, addressed by content hash.

    Each entry ``<experiment>/<key>.bin`` holds exactly the blob the shard
    returned (:func:`repro.bench.serialization.dumps_result`), nothing
    else.  A missing, truncated or corrupt entry is a miss, never an
    error.

    The key bakes in everything a shard's output depends on; see the module
    docstring for the invalidation story.
    """

    def __init__(self, root: Optional[str] = None) -> None:
        # The default is resolved at call time (not def time) so test
        # harnesses can point DEFAULT_CACHE_DIR somewhere disposable.
        self.root = Path(root if root is not None else DEFAULT_CACHE_DIR)

    def key(self, shard: Shard, fingerprint: str, seed: int) -> str:
        """The content hash addressing this shard's cache entry."""
        from repro import __version__
        material = json.dumps({
            "schema": CACHE_SCHEMA_VERSION,
            "version": __version__,
            "code": code_digest(),
            "experiment": shard.experiment,
            "shard": shard.key,
            "kwargs": canonical_jsonable(shard.kwargs_dict()),
            "params": fingerprint,
            "seed": seed,
        }, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(material.encode("utf-8")).hexdigest()[:32]

    def _path(self, shard: Shard, key: str) -> Path:
        return self.root / shard.experiment / f"{key}.bin"

    def load(self, shard: Shard, fingerprint: str, seed: int
             ) -> Optional[Any]:
        """The cached shard result, decoded; None on a miss."""
        path = self._path(shard, self.key(shard, fingerprint, seed))
        try:
            result = loads_result(path.read_bytes())
        except (OSError, ReproError):
            return None
        return result

    def store(self, shard: Shard, fingerprint: str, seed: int,
              blob: bytes) -> None:
        """Persist one shard's result blob (atomic rename).

        Each writer fills a temp file of its own next to the entry, so
        concurrent writers of one entry (two service runs sharing a cache
        directory, or the CLI next to ``repro serve``) never rename each
        other's file away: the last rename wins, with a whole blob.
        """
        path = self._path(shard, self.key(shard, fingerprint, seed))
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------
@dataclass
class EngineStats:
    """What one :func:`run_experiments` call did, in distinct shards."""

    jobs: int
    shards_total: int = 0
    cache_hits: int = 0
    executed: int = 0
    elapsed_s: float = 0.0

    def summary(self) -> str:
        """One line for the CLI's stderr: shard counts and elapsed time."""
        return (f"{self.shards_total} shards: {self.cache_hits} cached, "
                f"{self.executed} executed on {self.jobs} "
                f"job{'s' if self.jobs != 1 else ''} "
                f"in {self.elapsed_s:.2f}s")


@dataclass
class EngineRun:
    """Results of one engine invocation, in requested order."""

    results: Dict[str, Any] = field(default_factory=dict)
    stats: EngineStats = field(default_factory=lambda: EngineStats(jobs=1))


@dataclass(frozen=True)
class ShardEvent:
    """One progress notification from :func:`run_experiments`.

    ``kind`` is ``"cache-hit"`` (served from the result cache),
    ``"started"`` (compute began — under ``jobs > 1`` this fires at pool
    submission), or ``"finished"`` (compute completed).  ``experiment``
    and ``shard`` are the shard's :attr:`PlannedShard.label`.  Events fire
    in the submitting process, never inside pool workers, so callbacks may
    touch shared state freely.
    """

    kind: str
    experiment: str
    shard: str
    index: int          # position in this run's plan
    total: int          # distinct shard count of this run

ProgressFn = Callable[[ShardEvent], None]


@dataclass(frozen=True)
class PlannedShard:
    """One distinct unit of a run's work: a catalog shard at one parameter
    set (the seed is the run's), compared by the shard and the parameters'
    fingerprint, its cache key material.  ``label`` is what progress
    events and the service show: the shard's ``(experiment, key)`` at the
    run's parameters, else the derived experiment that first read it and
    ``"<point>:<experiment>/<key>"``."""

    shard: Shard
    fingerprint: str
    params: CalibratedParameters = field(compare=False, repr=False)
    label: Tuple[str, str] = field(compare=False)


@dataclass(frozen=True)
class RunPlan:
    """Each requested experiment's shards (its own, or its declared
    reads), and the distinct ones among them, in run order."""

    needs: Dict[str, Tuple[PlannedShard, ...]]
    shards: Tuple[PlannedShard, ...]


def resolve_ids(ids: Sequence[str]) -> List[str]:
    """Expand ``all`` and validate experiment ids, preserving order."""
    known = experiment_registry()
    resolved: List[str] = []
    for experiment_id in ids:
        if experiment_id == "all":
            selected: Sequence[str] = list(known)
        elif experiment_id in known:
            selected = [experiment_id]
        else:
            raise ReproError(
                f"unknown experiment {experiment_id!r}; known: "
                f"{', '.join(known)} (or 'all')")
        for one in selected:
            if one not in resolved:
                resolved.append(one)
    return resolved


def plan_run(ids: Sequence[str],
             params: Optional[CalibratedParameters] = None) -> RunPlan:
    """Plan a run of *ids* (or ``["all"]``) at *params*, in requested
    order: a shard that an earlier experiment needs is not planned again,
    so each distinct shard runs at most once per run.  Derived
    experiments' ``reads`` are evaluated here, and only here."""
    params = params or default_parameters()
    fingerprint = params_fingerprint(params)
    registry = experiment_registry()

    def planned(reader: str, read: Read) -> PlannedShard:
        shard = registry[read.experiment].shard(read.key)
        if read.params is None:
            return PlannedShard(shard, fingerprint, params,
                                (shard.experiment, shard.key))
        at = params_fingerprint(read.params)
        label = ((shard.experiment, shard.key) if at == fingerprint else
                 (reader, f"{read.point}:{shard.experiment}/{shard.key}"))
        return PlannedShard(shard, at, read.params, label)

    needs: Dict[str, Tuple[PlannedShard, ...]] = {}
    for experiment_id in resolve_ids(ids):
        experiment = registry[experiment_id]
        reads = (experiment.reads(params) if experiment.derive is not None
                 else [Read(experiment_id, one.key)
                       for one in experiment.shards])
        needs[experiment_id] = tuple(planned(experiment_id, read)
                                     for read in reads)
    # A dict keeps the first of equal shards, and with it the first label.
    return RunPlan(needs, tuple(dict.fromkeys(
        one for needed in needs.values() for one in needed)))


def _execute_missing(missing: List[PlannedShard], seed: int, jobs: int,
                     notify: Callable[[str, PlannedShard], None]
                     ) -> Dict[PlannedShard, bytes]:
    """Result blobs for *missing* shards, serially or on a pool.

    *notify* is called as ``notify(kind, shard)`` with ``"started"`` /
    ``"finished"`` around each shard's compute, always in this process.
    """
    if not missing:
        return {}
    if jobs > 1 and (os.cpu_count() or 1) == 1:
        # A pool of forks on a single-CPU host only adds fork/IPC
        # overhead on top of the same serial compute — run inline.
        _LOG.info("single-CPU host: running %d shard(s) serially "
                  "(jobs=%d requested)", len(missing), jobs)
        jobs = 1
    if jobs <= 1 or len(missing) == 1:
        blobs: Dict[PlannedShard, bytes] = {}
        for one in missing:
            notify("started", one)
            blobs[one] = _execute_shard(one.shard, one.params, seed)
            notify("finished", one)
        return blobs

    import multiprocessing
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        context = None
    # Results are keyed by shard, so the merge below never observes
    # completion order; only the *progress notifications* follow it.
    with ProcessPoolExecutor(max_workers=min(jobs, len(missing)),
                             mp_context=context) as pool:
        futures = {}
        for one in missing:
            notify("started", one)
            futures[pool.submit(_execute_shard, one.shard, one.params,
                                seed)] = one
        blobs = {}
        pending = set(futures)
        while pending:
            finished, pending = wait(pending, return_when=FIRST_COMPLETED)
            for future in finished:
                one = futures[future]
                blobs[one] = future.result()
                notify("finished", one)
        return blobs


def run_experiments(ids: Sequence[str],
                    params: Optional[CalibratedParameters] = None,
                    seed: int = DEFAULT_SEED,
                    jobs: int = 1,
                    use_cache: bool = True,
                    cache_dir: Optional[str] = None,
                    progress: Optional[ProgressFn] = None) -> EngineRun:
    """Run *ids* (or ``["all"]``) and return merged results + stats.

    Each distinct shard of the run's plan (:func:`plan_run`) is read from
    the cache or computed once.  Serial (``jobs=1``), parallel, and fully
    cached invocations return identical results: every path decodes the
    same result blobs, merges computing experiments in requested order
    and derives the derived ones from their declared reads.  *progress*,
    when given, receives a :class:`ShardEvent` per cache hit / compute
    start / compute finish — it observes execution order, never
    influences results.
    """
    if jobs < 1:
        raise ReproError(f"jobs must be >= 1, got {jobs}")
    started = time.perf_counter()
    params = params or default_parameters()
    plan = plan_run(ids, params)
    registry = experiment_registry()
    cache = ResultCache(cache_dir) if use_cache else None
    indexes = {one: position for position, one in enumerate(plan.shards)}

    def notify(kind: str, one: PlannedShard) -> None:
        if progress is not None:
            progress(ShardEvent(
                kind=kind, experiment=one.label[0], shard=one.label[1],
                index=indexes[one], total=len(plan.shards)))

    results: Dict[PlannedShard, Any] = {}
    missing: List[PlannedShard] = []
    for one in plan.shards:
        cached = (cache.load(one.shard, one.fingerprint, seed)
                  if cache else None)
        if cached is not None:
            results[one] = cached
            notify("cache-hit", one)
        else:
            missing.append(one)

    for one, blob in _execute_missing(missing, seed, jobs, notify).items():
        if cache:
            cache.store(one.shard, one.fingerprint, seed, blob)
        results[one] = loads_result(blob)

    run = EngineRun(stats=EngineStats(
        jobs=jobs, shards_total=len(plan.shards),
        cache_hits=len(plan.shards) - len(missing), executed=len(missing)))
    for experiment_id, needed in plan.needs.items():
        experiment = registry[experiment_id]
        if experiment.derive is not None:
            run.results[experiment_id] = experiment.derive(Cells(
                params, seed, shards={
                    (one.shard.experiment, one.shard.key, one.fingerprint):
                        results[one] for one in needed}))
        else:
            run.results[experiment_id] = experiment.merge(
                {one.shard.key: results[one] for one in needed})
    run.stats.elapsed_s = time.perf_counter() - started
    return run


__all__ = [
    "CACHE_SCHEMA_VERSION",
    "DEFAULT_CACHE_DIR",
    "DEFAULT_SEED",
    "EngineRun",
    "EngineStats",
    "Experiment",
    "LOAD_SWEEP_RATES",
    "PlannedShard",
    "ProgressFn",
    "ResultCache",
    "RunPlan",
    "Shard",
    "ShardEvent",
    "experiment_ids",
    "experiment_registry",
    "plan_run",
    "resolve_ids",
    "run_experiments",
]
