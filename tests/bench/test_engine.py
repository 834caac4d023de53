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
                                plan_run, resolve_ids, run_experiments)
from repro.bench.experiment import Cells
from repro.bench.serialization import (dumps_result, encode_result,
                                       loads_result)
from repro.bench.tables import run_table2
from repro.bench.results import FigureResult, MemorySeries
from repro.config import default_parameters, params_fingerprint
from repro.errors import ReproError

#: A cheap but representative subset: FigureResult shards with a merged
#: geomean (fig6), MemorySeries shards (fig10), and the two derived
#: experiments, which read shards of those and of fig7, fig12 and
#: snapshot-creation (scorecard) or at other parameters (sensitivity) —
#: everything the determinism guarantee names.
SUBSET = ["fig6", "fig10", "scorecard", "sensitivity"]


class TestRegistry:
    def test_every_cli_figure_is_an_experiment(self):
        """The paper's own figures, the ``paper-repro`` scenario, head
        the catalog in paper order."""
        from tests.helpers import load_named_scenario
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


class TestPlan:
    """A run plans each distinct shard once, labelled for progress."""

    def test_derived_experiments_have_no_shards_of_their_own(self):
        registry = experiment_registry()
        for experiment_id in ("scorecard", "sensitivity"):
            assert registry[experiment_id].shards == ()
            assert registry[experiment_id].run is None

    def test_scorecard_plans_its_ten_reads_under_their_owners(self):
        from repro.bench.paper import SCORECARD_SHARDS
        plan = plan_run(["scorecard"])
        assert [one.label for one in plan.shards] == list(SCORECARD_SHARDS)

    def test_sensitivity_labels_points_at_other_parameters(self):
        plan = plan_run(["sensitivity"])
        hotness = "nodejs.hotness_threshold_units"
        restore = "snapshot.restore_per_working_mb_ms"
        dirty = "nodejs.steady_state_dirty_fraction"
        assert [one.label for one in plan.shards] == [
            ("sensitivity", f"{hotness}@2000:fig6/faas-fact"),
            ("sensitivity", f"{hotness}@4000:fig6/faas-fact"),
            ("fig6", "faas-fact"),     # 8000 is the calibrated value
            ("sensitivity", f"{hotness}@16000:fig6/faas-fact"),
            ("sensitivity", f"{restore}@0.1:fig6/faas-fact"),
            ("sensitivity", f"{restore}@0.9:fig6/faas-fact"),
            ("sensitivity", f"{dirty}@0.2:fig10/firecracker"),
            ("sensitivity", f"{dirty}@0.2:fig10/fireworks"),
            ("fig10", "firecracker"),  # 0.33 is the calibrated value
            ("fig10", "fireworks"),
            ("sensitivity", f"{dirty}@0.5:fig10/firecracker"),
            ("sensitivity", f"{dirty}@0.5:fig10/fireworks"),
        ]

    def test_a_shared_shard_keeps_its_owners_label(self):
        labels = [one.label for one in plan_run(["sensitivity",
                                                 "fig10"]).shards]
        assert labels.count(("fig10", "fireworks")) == 1
        assert len(labels) == 12

    def test_all_adds_only_the_reads_at_other_parameters(self):
        """Every computing experiment's shards, plus the sensitivity
        points off the calibrated values: 3 hotness, 2 restore and 2x2
        dirty-fraction shards."""
        own = sum(len(one.shards)
                  for one in experiment_registry().values())
        assert len(plan_run(["all"]).shards) == own + 9


class TestDerivedExperiments:
    """Derived experiments read the run's shards: nothing runs twice."""

    @pytest.fixture(scope="class")
    def counted_run(self):
        """fig10, scorecard and sensitivity in one uncached run, counting
        Fig 10 consolidations by (platform, parameters)."""
        from repro.bench import memory
        calls = {}
        real = memory.run_fig10_platform

        def counting(platform, params=None, **kwargs):
            key = (platform,
                   params_fingerprint(params or default_parameters()))
            calls[key] = calls.get(key, 0) + 1
            return real(platform, params, **kwargs)

        events = []
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(memory, "run_fig10_platform", counting)
            run = run_experiments(["fig10", "scorecard", "sensitivity"],
                                  use_cache=False, progress=events.append)
        return run, calls, events

    def test_each_distinct_shard_runs_once(self, counted_run):
        run, calls, _events = counted_run
        default = params_fingerprint(default_parameters())
        assert calls[("fireworks", default)] == 1
        assert len(calls) == 6   # 2 platforms x 3 dirty fractions
        assert set(calls.values()) == {1}
        assert run.stats.shards_total == run.stats.executed == 19

    def test_progress_follows_the_plan(self, counted_run):
        _run, _calls, events = counted_run
        plan = plan_run(["fig10", "scorecard", "sensitivity"])
        started = [event for event in events if event.kind == "started"]
        assert [(event.experiment, event.shard) for event in started] == \
            [one.label for one in plan.shards]
        assert [event.index for event in started] == list(range(19))

    def test_derived_sweep_equals_the_standalone_sweep(self, counted_run):
        from repro.bench.sensitivity import run_sensitivity
        run, _calls, _events = counted_run
        sweep = run.results["sensitivity"][
            "nodejs.steady_state_dirty_fraction"]
        assert sweep == run_sensitivity(
            "nodejs.steady_state_dirty_fraction", (0.2, 0.33, 0.5),
            "consolidation_ratio")

    def test_scorecard_reads_the_cached_shards(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        run_experiments(["fig6", "fig7", "fig10", "fig12",
                         "snapshot-creation"], cache_dir=cache_dir)
        again = run_experiments(["scorecard"], cache_dir=cache_dir)
        assert again.stats.executed == 0
        assert again.stats.cache_hits == again.stats.shards_total == 10

    def test_reads_follow_the_run_seed(self, tmp_path):
        """A derived experiment reads shards at the run's seed: a seed-7
        scorecard reads the seed-7 fig10 entries."""
        cache_dir = str(tmp_path / "cache")
        run_experiments(["fig10"], seed=7, cache_dir=cache_dir)
        again = run_experiments(["scorecard"], seed=7, cache_dir=cache_dir)
        assert (again.stats.cache_hits, again.stats.executed) == (2, 8)

    def test_an_undeclared_read_raises(self):
        strict = Cells(shards={})
        with pytest.raises(ReproError, match="fig6/faas-fact .* not a "
                                             "declared read"):
            strict("fig6", "faas-fact")


class TestShardDrain:
    """Once a shard's blob is encoded, every simulation it built that is
    still alive runs its pending work out; work that never ends fails
    the shard, and a failed shard is not cached."""

    @staticmethod
    def _register(monkeypatch, experiment_id, run):
        from repro.bench.experiment import Experiment, render_lines
        monkeypatch.setitem(experiment_registry(), experiment_id,
                            Experiment(id=experiment_id, title="drain test",
                                       render=render_lines, run=run))
        return Shard(experiment_id, "all")

    def test_pending_work_runs_after_the_result_is_encoded(
            self, monkeypatch):
        from repro.bench.engine import _execute_shard
        from repro.sim import Simulation
        fired, sims = [], []

        def run(params, seed):
            sim = Simulation(seed=seed)
            sims.append(sim)   # alive for the drain whenever the GC runs

            def teardown():
                yield sim.timeout(3_600_000.0)
                fired.append(sim.now)

            sim.process(teardown())
            sim.run(until=10.0)
            return {"now": sim.now, "fired": len(fired)}

        shard = self._register(monkeypatch, "drain-test", run)
        blob = _execute_shard(shard, default_parameters(), 2022)
        assert loads_result(blob) == {"now": 10.0, "fired": 0}
        assert fired == [3_600_000.0]
        assert sims[0].peek() == float("inf")

    def test_a_process_that_never_goes_quiet_raises_and_is_not_cached(
            self, monkeypatch, tmp_path):
        from repro.errors import UndrainedSimulationError
        from repro.sim import Simulation
        sims = []

        def run(params, seed):
            sim = Simulation(seed=seed)

            def ticker():
                while True:
                    yield sim.timeout(60_000.0)

            sim.process(ticker())
            sim.run(until=1.0)
            sims.append(sim)
            return 1.0

        self._register(monkeypatch, "never-quiet", run)
        with pytest.raises(UndrainedSimulationError,
                           match="'never-quiet' shard 'all'") as raised:
            run_experiments(["never-quiet"], cache_dir=str(tmp_path))
        assert (raised.value.experiment, raised.value.shard) == \
            ("never-quiet", "all")
        assert not list(tmp_path.rglob("*.bin"))

    def test_two_threads_each_drain_only_their_own_simulations(
            self, monkeypatch):
        from repro.bench.engine import _execute_shard
        from repro.sim import Simulation
        both_built = threading.Barrier(2)
        drained_on, sims = {}, []

        def run(params, seed):
            sim = Simulation(seed=seed)
            sims.append(sim)
            owner = threading.current_thread().name

            def teardown():
                yield sim.timeout(1_000.0)
                drained_on[owner] = threading.current_thread().name

            sim.process(teardown())
            # Both shards are inside their scopes, each with a pending
            # simulation, before either returns.
            both_built.wait(timeout=30)
            return 0

        shards = [self._register(monkeypatch, f"drain-{i}", run)
                  for i in range(2)]
        errors = []

        def execute(shard):
            try:
                _execute_shard(shard, default_parameters(), 2022)
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        threads = [threading.Thread(target=execute, args=(shard,),
                                    name=f"engine-{i}")
                   for i, shard in enumerate(shards)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert errors == []
        assert drained_on == {"engine-0": "engine-0",
                              "engine-1": "engine-1"}
