"""The parallel experiment engine: determinism, caching, registry."""

from __future__ import annotations

import dataclasses
import io
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.bench.engine import (ResultCache, Shard, code_digest,
                                experiment_ids, experiment_registry,
                                resolve_ids, run_experiments)
from repro.bench.serialization import (dumps_result, encode_result,
                                       loads_result)
from repro.bench.tables import run_table2
from repro.bench.results import FigureResult, MemorySeries
from repro.config import default_parameters, params_fingerprint
from repro.errors import ReproError

#: A cheap but representative subset: FigureResult shards with a merged
#: geomean (fig6), MemorySeries shards (fig10), and per-point sweeps
#: (sensitivity) — everything the determinism guarantee names.
SUBSET = ["fig6", "fig10", "sensitivity"]


class TestRegistry:
    def test_every_cli_figure_is_an_experiment(self):
        """The paper's own figures, the ``paper-repro`` scenario, head
        the catalog in paper order."""
        from repro.serve.scenarios import load_named_scenario
        paper = load_named_scenario("paper-repro").experiments
        assert experiment_ids()[:len(paper)] == paper

    def test_shard_keys_unique_per_experiment(self):
        for definition in experiment_registry().values():
            keys = [shard.key for shard in definition.shards]
            assert len(keys) == len(set(keys)), definition.id

    def test_resolve_all_expands_in_order(self):
        assert resolve_ids(["all"]) == list(experiment_ids())

    def test_resolve_dedupes_preserving_order(self):
        assert resolve_ids(["fig10", "fig6", "fig10"]) == ["fig10", "fig6"]

    def test_resolve_unknown_id(self):
        with pytest.raises(ReproError, match="unknown experiment"):
            resolve_ids(["fig99"])

    def test_jobs_must_be_positive(self):
        with pytest.raises(ReproError, match="jobs"):
            run_experiments(["table2"], jobs=0, use_cache=False)


class TestDeterminism:
    """Same seed => identical results across serial, parallel, cache-hit."""

    def test_serial_parallel_cached_identical(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        serial = run_experiments(SUBSET, jobs=1, cache_dir=cache_dir)
        assert serial.stats.cache_hits == 0
        parallel = run_experiments(SUBSET, jobs=4, use_cache=False)
        cached = run_experiments(SUBSET, jobs=4, cache_dir=cache_dir)
        assert cached.stats.executed == 0
        assert cached.stats.cache_hits == serial.stats.shards_total

        assert serial.results == parallel.results == cached.results
        fig6 = serial.results["fig6"]["geomean"]
        assert isinstance(fig6, FigureResult)
        assert isinstance(serial.results["fig10"]["fireworks"], MemorySeries)

    def test_engine_matches_direct_drivers(self, tmp_path):
        from repro.bench.faasdom_experiments import (build_geomean,
                                                     run_faasdom_benchmark)
        from repro.bench.memory import FIG10_PLATFORMS, run_fig10_platform
        from repro.workloads.faasdom import BENCHMARK_NAMES
        outcome = run_experiments(["fig6", "fig10"], use_cache=False)
        fig6 = {benchmark: run_faasdom_benchmark(benchmark, "nodejs")
                for benchmark in BENCHMARK_NAMES}
        fig6["geomean"] = build_geomean(fig6, "nodejs")
        assert outcome.results["fig6"] == fig6
        assert outcome.results["fig10"] == {
            platform: run_fig10_platform(platform)
            for platform in FIG10_PLATFORMS}

    def test_cached_payload_survives_disk(self, tmp_path):
        """Cache hits literally re-read binary blobs from disk — and
        still match."""
        cache_dir = str(tmp_path / "cache")
        first = run_experiments(["fig10"], cache_dir=cache_dir)
        entries = list((tmp_path / "cache" / "fig10").glob("*.bin"))
        assert len(entries) == 2  # one per platform shard
        for entry in entries:
            loads_result(entry.read_bytes())  # valid binary blob on disk
        second = run_experiments(["fig10"], cache_dir=cache_dir)
        assert second.results == first.results

    def test_cache_files_independent_of_jobs(self, tmp_path):
        """A cache entry is the shard's result blob and nothing else, so
        serial and parallel runs write byte-identical files."""
        for jobs in (1, 2):
            run_experiments(["fig10"], jobs=jobs,
                            cache_dir=str(tmp_path / f"jobs{jobs}"))
        serial = sorted((tmp_path / "jobs1" / "fig10").glob("*.bin"))
        parallel = sorted((tmp_path / "jobs2" / "fig10").glob("*.bin"))
        assert [p.name for p in serial] == [p.name for p in parallel]
        assert len(serial) == 2
        for one, other in zip(serial, parallel):
            assert one.read_bytes() == other.read_bytes()


class TestSingleCpuFallback:
    def test_single_cpu_runs_serially_and_logs(self, monkeypatch, caplog):
        import logging
        monkeypatch.setattr("os.cpu_count", lambda: 1)
        with caplog.at_level(logging.INFO, logger="repro.bench.engine"):
            outcome = run_experiments(["table2"], jobs=4, use_cache=False)
        assert outcome.stats.executed == 1
        assert any("serially" in record.message
                   for record in caplog.records)

    def test_multi_cpu_keeps_pool_path(self, monkeypatch, caplog):
        import logging
        monkeypatch.setattr("os.cpu_count", lambda: 8)
        with caplog.at_level(logging.INFO, logger="repro.bench.engine"):
            run_experiments(["fig10"], jobs=2, use_cache=False)
        assert not any("serially" in record.message
                       for record in caplog.records)


class TestResultCache:
    def _shard(self):
        return experiment_registry()["fig10"].shards[0]

    def test_key_depends_on_params(self):
        cache = ResultCache("unused")
        shard = self._shard()
        params = default_parameters()
        base = cache.key(shard, params_fingerprint(params), 2022)
        tweaked = dataclasses.replace(
            params, snapshot=dataclasses.replace(
                params.snapshot, restore_base_ms=99.0))
        assert cache.key(shard, params_fingerprint(tweaked), 2022) != base

    def test_key_depends_on_seed_and_shard(self):
        cache = ResultCache("unused")
        shard = self._shard()
        fingerprint = params_fingerprint(default_parameters())
        base = cache.key(shard, fingerprint, 2022)
        assert cache.key(shard, fingerprint, 2023) != base
        other = experiment_registry()["fig10"].shards[1]
        assert cache.key(other, fingerprint, 2022) != base

    def test_key_depends_on_code_digest(self, monkeypatch):
        from repro.bench import engine
        cache = ResultCache("unused")
        shard = self._shard()
        fingerprint = params_fingerprint(default_parameters())
        base = cache.key(shard, fingerprint, 2022)
        monkeypatch.setattr(engine, "code_digest", lambda: "0" * 64)
        assert cache.key(shard, fingerprint, 2022) != base

    def test_code_change_invalidates(self, tmp_path, monkeypatch):
        from repro.bench import engine
        cache_dir = str(tmp_path / "cache")
        run_experiments(["table2"], cache_dir=cache_dir)
        assert run_experiments(["table2"],
                               cache_dir=cache_dir).stats.cache_hits == 1
        monkeypatch.setattr(engine, "code_digest", lambda: "0" * 64)
        again = run_experiments(["table2"], cache_dir=cache_dir)
        assert again.stats.cache_hits == 0
        assert again.stats.executed == 1

    def test_code_digest_covers_the_sources_and_waits_for_first_use(
            self, tmp_path):
        """Two copies of the package that differ by one comment line
        digest differently; importing the engine and building the
        registry computes nothing."""
        package = Path(__file__).resolve().parents[2] / "src" / "repro"
        probe = ("import repro.bench.engine as engine\n"
                 "engine.experiment_registry()\n"
                 "print(engine.code_digest.cache_info().currsize)\n"
                 "print(engine.code_digest())\n")
        outputs = []
        for side in ("same", "edited"):
            root = tmp_path / side
            shutil.copytree(package, root / "repro",
                            ignore=shutil.ignore_patterns("__pycache__"))
            if side == "edited":
                with open(root / "repro" / "bench" / "load.py", "a") as f:
                    f.write("# one more line\n")
            env = dict(os.environ, PYTHONPATH=str(root),
                       PYTHONDONTWRITEBYTECODE="1")
            result = subprocess.run([sys.executable, "-c", probe], env=env,
                                    check=True, capture_output=True,
                                    text=True)
            outputs.append(result.stdout.split())
        (same_size, same), (edited_size, edited) = outputs
        assert same_size == edited_size == "0"
        assert same == code_digest()
        assert edited != same

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        first = run_experiments(["table2"], cache_dir=cache_dir)
        entry = next((tmp_path / "cache" / "table2").glob("*.bin"))
        entry.write_bytes(b"RBC\x01 truncated garbage")
        again = run_experiments(["table2"], cache_dir=cache_dir)
        assert again.stats.executed == 1
        assert again.results == first.results

    def test_truncated_entry_is_a_miss(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        first = run_experiments(["table2"], cache_dir=cache_dir)
        entry = next((tmp_path / "cache" / "table2").glob("*.bin"))
        entry.write_bytes(entry.read_bytes()[:-10])
        again = run_experiments(["table2"], cache_dir=cache_dir)
        assert again.stats.executed == 1
        assert again.results == first.results

    def test_schema_bump_invalidates(self, tmp_path, monkeypatch):
        from repro.bench import engine
        cache_dir = str(tmp_path / "cache")
        run_experiments(["table2"], cache_dir=cache_dir)
        monkeypatch.setattr(engine, "CACHE_SCHEMA_VERSION",
                            engine.CACHE_SCHEMA_VERSION + 1)
        again = run_experiments(["table2"], cache_dir=cache_dir)
        assert again.stats.executed == 1

    def test_no_cache_writes_nothing(self, tmp_path):
        cache_dir = tmp_path / "cache"
        run_experiments(["table2"], use_cache=False,
                        cache_dir=str(cache_dir))
        assert not cache_dir.exists()

    def test_interleaved_writers_of_one_entry(self, tmp_path, monkeypatch):
        """Writer A's temp-file write runs writer B's whole ``store``
        before A renames: A must not raise, and the entry must decode."""
        cache = ResultCache(str(tmp_path / "cache"))
        shard = experiment_registry()["table2"].shards[0]
        fingerprint = params_fingerprint(default_parameters())
        blob = dumps_result(run_table2())
        real_open = io.open
        interleaved = []

        class WriteThenInterleave:
            """A file whose first write lets writer B store in full."""

            def __init__(self, handle):
                self._handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return self._handle.__exit__(*exc_info)

            def __getattr__(self, name):
                return getattr(self._handle, name)

            def write(self, data):
                written = self._handle.write(data)
                if not interleaved:
                    interleaved.append("B")
                    cache.store(shard, fingerprint, 2022, blob)
                return written

        def open_interleaving(file, mode="r", *args, **kwargs):
            handle = real_open(file, mode, *args, **kwargs)
            return WriteThenInterleave(handle) if "w" in mode else handle

        monkeypatch.setattr(io, "open", open_interleaving)
        cache.store(shard, fingerprint, 2022, blob)
        monkeypatch.undo()
        assert interleaved == ["B"]
        assert cache.load(shard, fingerprint, 2022) == loads_result(blob)
        assert not list((tmp_path / "cache").glob("*/*.tmp"))

    def test_concurrent_writers_stress(self, tmp_path):
        """More writer threads than cores storing one entry at once."""
        cache = ResultCache(str(tmp_path / "cache"))
        shard = experiment_registry()["table2"].shards[0]
        fingerprint = params_fingerprint(default_parameters())
        blob = dumps_result(run_table2())
        errors = []

        def writer():
            try:
                for _ in range(100):
                    cache.store(shard, fingerprint, 2022, blob)
            except OSError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert cache.load(shard, fingerprint, 2022) == loads_result(blob)

    def test_failed_store_leaves_no_temp_file(self, tmp_path, monkeypatch):
        cache = ResultCache(str(tmp_path / "cache"))
        shard = experiment_registry()["table2"].shards[0]
        fingerprint = params_fingerprint(default_parameters())

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="disk full"):
            cache.store(shard, fingerprint, 2022, b"blob")
        assert not list((tmp_path / "cache").glob("*/*"))

    def test_stats_summary_mentions_counts(self, tmp_path):
        outcome = run_experiments(["table2"],
                                  cache_dir=str(tmp_path / "cache"))
        summary = outcome.stats.summary()
        assert "1 shards" in summary and "1 executed" in summary


class TestShard:
    def test_kwargs_are_hashable_and_ordered(self):
        shard = Shard(experiment="x", key="k", kwargs=(("b", 2), ("a", 1)))
        assert shard.kwargs_dict() == {"b": 2, "a": 1}
        hash(shard)  # frozen dataclass: usable as a dict key


class TestProgressEvents:
    """run_experiments(progress=...) narrates the shard schedule."""

    def test_serial_run_emits_started_finished_pairs(self, tmp_path):
        events = []
        run_experiments(["table1", "table2"],
                        cache_dir=str(tmp_path / "cache"),
                        progress=events.append)
        assert [(e.kind, e.experiment) for e in events] == [
            ("started", "table1"), ("finished", "table1"),
            ("started", "table2"), ("finished", "table2")]
        assert all(e.total == 2 for e in events)
        assert [e.index for e in events] == [0, 0, 1, 1]

    def test_cached_rerun_emits_cache_hits(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        run_experiments(["table1"], cache_dir=cache_dir)
        events = []
        run_experiments(["table1"], cache_dir=cache_dir,
                        progress=events.append)
        assert [e.kind for e in events] == ["cache-hit"]

    def test_progress_never_influences_results(self, tmp_path):
        quiet = run_experiments(["table2"], use_cache=False)
        noisy = run_experiments(["table2"], use_cache=False,
                                progress=lambda event: None)
        assert encode_result(quiet.results["table2"]) == \
            encode_result(noisy.results["table2"])
