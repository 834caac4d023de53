"""Parallel experiment engine with content-addressed result caching.

Every paper figure — and the extension experiments around them — is one
:class:`~repro.bench.experiment.Experiment`, declared next to its driver and
listed once in this module's catalog.  An experiment decomposes into
*shards*: independent units of work (one platform's Fig 10 consolidation
run, one FaaSdom benchmark's latency breakdown, one sensitivity-sweep
point, one burst config) that each build their own
:class:`~repro.sim.kernel.Simulation` from a fixed seed and are therefore
deterministic and perfectly memoizable.

The engine:

* fans shards out across a ``ProcessPoolExecutor`` (``jobs > 1``) or runs
  them inline (``jobs == 1``), then **merges deterministically** — shard
  results are combined in catalog order, never completion order, so serial
  and parallel runs produce identical results;
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
key, and stale entries are simply never read again (``prune()`` deletes
entries whose key no longer matches).  So after an edit, a run recomputes
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
from repro.bench.experiment import Experiment, Shard
from repro.bench.serialization import dumps_result, loads_result
from repro.config import (CalibratedParameters, canonical_jsonable,
                          default_parameters, params_fingerprint)
from repro.errors import ReproError

_LOG = logging.getLogger(__name__)

#: Bump when the shard decomposition or the cache-file layout changes shape.
CACHE_SCHEMA_VERSION = 2

DEFAULT_SEED = 2022
DEFAULT_CACHE_DIR = ".repro-cache"


# ---------------------------------------------------------------------------
# The catalog
# ---------------------------------------------------------------------------
def _catalog() -> Tuple[Experiment, ...]:
    """Every experiment, in canonical (report) order."""
    from repro.bench import (ablations, chains, chaos, cluster, concurrency,
                             factors, faasdom_experiments, load, memory,
                             paper, realworld, restore, search, sensitivity,
                             tables)
    return (
        tables.TABLE1, tables.TABLE2, tables.SNAPSHOT_CREATION,
        faasdom_experiments.FIG6, faasdom_experiments.FIG7, realworld.FIG9,
        memory.FIG10, factors.FIG11, memory.FIG12, paper.SCORECARD,
        concurrency.BURST, concurrency.LOAD_SWEEP, sensitivity.SENSITIVITY,
        ablations.ABLATIONS, ablations.POLICIES, ablations.KEEPALIVE,
        cluster.CLUSTER, chaos.CHAOS, load.LOAD, chains.CHAINS,
        restore.RESTORE, search.SEARCH, search.SEARCH_SMOKE,
    )


_REGISTRY: Optional[Dict[str, Experiment]] = None


def experiment_registry() -> Dict[str, Experiment]:
    """The catalog by experiment id (built lazily, import cycles avoided)."""
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = {experiment.id: experiment for experiment in _catalog()}
    return _REGISTRY


def experiment_ids() -> Tuple[str, ...]:
    """Every runnable experiment id, in canonical (report) order."""
    return tuple(experiment_registry())


def _execute_shard(shard: Shard, params: CalibratedParameters,
                   seed: int) -> bytes:
    """Run one shard and return its result blob.

    Runs in a pool worker under ``jobs > 1``; the blob is what crosses the
    process boundary and what the cache stores.
    """
    experiment = experiment_registry()[shard.experiment]
    return dumps_result(experiment.run(params, seed, **shard.kwargs_dict()))


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
        self.hits = 0
        self.misses = 0

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
            self.misses += 1
            return None
        self.hits += 1
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

    def prune(self, params: Optional[CalibratedParameters] = None,
              seed: int = DEFAULT_SEED) -> int:
        """Delete entries not reachable from the current catalog/params.

        Every ``.bin`` file at a dead key, and every ``.json`` file (the
        format of schema-1 caches), is removed.
        """
        fingerprint = params_fingerprint(params or default_parameters())
        live = {str(self._path(shard, self.key(shard, fingerprint, seed)))
                for experiment in experiment_registry().values()
                for shard in experiment.shards}
        removed = 0
        for pattern in ("*/*.bin", "*/*.json"):
            for path in self.root.glob(pattern):
                if str(path) not in live:
                    path.unlink()
                    removed += 1
        return removed


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------
@dataclass
class EngineStats:
    """What one :func:`run_experiments` call did."""

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
    submission), or ``"finished"`` (compute completed).  Events fire in the
    submitting process, never inside pool workers, so callbacks may touch
    shared state freely.
    """

    kind: str
    experiment: str
    shard: str
    index: int          # position in this run's full shard list
    total: int          # shard count of this run

ProgressFn = Callable[[ShardEvent], None]


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


def _execute_missing(missing: List[Shard], params: CalibratedParameters,
                     seed: int, jobs: int,
                     notify: Callable[[str, Shard], None]
                     ) -> Dict[Shard, bytes]:
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
        blobs: Dict[Shard, bytes] = {}
        for shard in missing:
            notify("started", shard)
            blobs[shard] = _execute_shard(shard, params, seed)
            notify("finished", shard)
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
        for shard in missing:
            notify("started", shard)
            futures[pool.submit(_execute_shard, shard, params, seed)] = shard
        blobs = {}
        pending = set(futures)
        while pending:
            finished, pending = wait(pending, return_when=FIRST_COMPLETED)
            for future in finished:
                shard = futures[future]
                blobs[shard] = future.result()
                notify("finished", shard)
        return blobs


def run_experiments(ids: Sequence[str],
                    params: Optional[CalibratedParameters] = None,
                    seed: int = DEFAULT_SEED,
                    jobs: int = 1,
                    use_cache: bool = True,
                    cache_dir: Optional[str] = None,
                    progress: Optional[ProgressFn] = None) -> EngineRun:
    """Run *ids* (or ``["all"]``) and return merged results + stats.

    Serial (``jobs=1``), parallel, and fully cached invocations return
    identical results: every path decodes the same result blobs and
    merges them in catalog order.  *progress*, when given, receives a
    :class:`ShardEvent` per cache hit / compute start / compute finish —
    it observes execution order, never influences results.
    """
    if jobs < 1:
        raise ReproError(f"jobs must be >= 1, got {jobs}")
    resolved = resolve_ids(ids)
    params = params or default_parameters()
    fingerprint = params_fingerprint(params)
    registry = experiment_registry()
    cache = ResultCache(cache_dir) if use_cache else None

    started = time.perf_counter()
    shards = [shard for experiment_id in resolved
              for shard in registry[experiment_id].shards]
    indexes = {shard: position for position, shard in enumerate(shards)}

    def notify(kind: str, shard: Shard) -> None:
        if progress is not None:
            progress(ShardEvent(
                kind=kind, experiment=shard.experiment, shard=shard.key,
                index=indexes[shard], total=len(shards)))

    results: Dict[Shard, Any] = {}
    missing: List[Shard] = []
    for shard in shards:
        cached = cache.load(shard, fingerprint, seed) if cache else None
        if cached is not None:
            results[shard] = cached
            notify("cache-hit", shard)
        else:
            missing.append(shard)

    for shard, blob in _execute_missing(missing, params, seed, jobs,
                                        notify).items():
        if cache:
            cache.store(shard, fingerprint, seed, blob)
        results[shard] = loads_result(blob)

    run = EngineRun(stats=EngineStats(
        jobs=jobs, shards_total=len(shards),
        cache_hits=len(shards) - len(missing), executed=len(missing)))
    for experiment_id in resolved:
        experiment = registry[experiment_id]
        run.results[experiment_id] = experiment.merge(
            {shard.key: results[shard] for shard in experiment.shards})
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
    "ProgressFn",
    "ResultCache",
    "Shard",
    "ShardEvent",
    "experiment_ids",
    "experiment_registry",
    "resolve_ids",
    "run_experiments",
]
