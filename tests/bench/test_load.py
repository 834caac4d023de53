"""The open-loop load experiment: determinism, chaos, and accounting.

The serving layer's value depends on its runs being *replayable*: two
identically-seeded load runs must be byte-identical — including
under a mid-trace host crash — and every submitted request must be
accounted for exactly once (completed, shed, or failed), with no leaked
admission-queue slots or warm workers afterwards.
"""

import cProfile
import json
import os
import pstats
import subprocess
import sys
from collections import Counter
from collections.abc import Iterator
from pathlib import Path

import pytest

import repro
from repro.bench.harness import fleet
from repro.bench.load import (DEFAULT_MODULATION_DEPTH,
                              DEFAULT_MODULATION_PERIOD_MS,
                              DEFAULT_RARE_INTERARRIVAL_MS, LOAD_MODES,
                              LOAD_PLATFORMS, build_load_trace,
                              run_load_platform)
from repro.bench.serialization import encode_result
from repro.chaos.plan import KIND_HOST_CRASH, ChaosEvent, ChaosPlan
from repro.errors import ValidationError
from repro.sim.rng import RngStreams
from repro.trace.tracer import Tracer
from repro.workloads.generator import assign_popularity
from tests.helpers import invoke_roots, outcome_of, sorted_modulated_trace

# Small but non-trivial: a few hundred events, queueing visible.
SMALL = dict(n_hosts=3, n_functions=8, duration_ms=20_000.0,
             popular_interarrival_ms=100.0, seed=7)


def _canonical(outcome) -> bytes:
    """One outcome's canonical JSON bytes."""
    return json.dumps(encode_result(outcome), sort_keys=True,
                      separators=(",", ":")).encode()


class TestSeededDeterminism:
    def test_two_identical_seeds_are_byte_identical(self):
        first = run_load_platform("fireworks", "predictive", **SMALL)
        second = run_load_platform("fireworks", "predictive", **SMALL)
        assert _canonical(first) == _canonical(second)

    def test_different_seeds_differ(self):
        first = run_load_platform("fireworks", "predictive", **SMALL)
        changed = dict(SMALL, seed=8)
        second = run_load_platform("fireworks", "predictive", **changed)
        assert _canonical(first) != _canonical(second)


class TestSimulatedWorkIsPinned:
    """A host-side speed-up must not change one simulated event.  A 3 s
    seed-2022 replay fires the events, opens the spans, ends with the
    outcomes and leaves the host pages it did when these numbers were
    measured; a change that moves any of them changes what is simulated,
    not how fast."""

    def test_events_spans_and_outcomes(self, monkeypatch):
        calls = Counter()

        def counting(method):
            def counted(self, *args, **kwargs):
                calls[method.__name__] += 1
                return method(self, *args, **kwargs)
            return counted

        # Every span is created through one of these two.
        monkeypatch.setattr(Tracer, "span", counting(Tracer.span))
        monkeypatch.setattr(Tracer, "add_span", counting(Tracer.add_span))
        _outcome, platform = run_load_platform(
            "fireworks", "predictive", duration_ms=3_000.0, seed=2022,
            return_platform=True)
        ledger = platform.ledger
        assert platform.sim.events_processed == 20_068
        assert (calls["span"], calls["add_span"]) == (16_412, 0)
        assert (ledger.completed, ledger.shed, ledger.failed) == \
            (1_346, 11, 0)
        # Host pages: each host's peak, and what is still resident once
        # the replay has drained (image page caches, pooled clones).
        # Integers, so no float summation order can move them.
        assert [(host.memory.peak_pages, host.memory.used_pages)
                for host in platform.cluster.hosts] == [
            (270_895, 221_696), (227_375, 178_176), (227_375, 176_128),
            (278_216, 221_696)]


def _repro_calls(profile):
    """``({layer: calls}, comprehension frames)`` of a cProfile run,
    counting only functions defined in the ``repro`` package.  A layer is
    the package's first path component (``repro/sim/kernel.py`` ->
    ``sim``, ``repro/errors.py`` -> ``errors``)."""
    package = os.path.join(os.path.dirname(repro.__file__), "")
    calls, comprehensions = Counter(), 0
    for (filename, _line, name), (_primitive, ncalls, *_times) in \
            pstats.Stats(profile).stats.items():
        if not filename.startswith(package):
            continue
        if name in ("<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"):
            comprehensions += ncalls
            continue
        head = filename[len(package):].split(os.sep, 1)[0]
        calls[head[:-3] if head.endswith(".py") else head] += ncalls
    return calls, comprehensions


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="call counts are pinned on CPython 3.11")
class TestHostWorkIsPinned:
    """Host work per invocation is deterministic, so it is gated by
    counts, not timings: the 3 s seed-2022 replay of
    :class:`TestSimulatedWorkIsPinned` may make at most as many calls
    into each ``repro`` layer, per completed invocation, as when these
    ceilings were set.  A change that removes host work lowers its
    ceiling; one that adds host work raises it and says why.

    List, dict and set comprehensions and generator expressions count
    apart, because Python 3.12 inlines comprehensions (PEP 709)."""

    # Measured over the replay's 1 346 completions, rounded up to 0.1.
    CEILINGS = {
        "mem": 141.2, "sim": 90.6, "trace": 64.9, "platforms": 36.8,
        "core": 29.3, "sandbox": 16.7, "runtime": 15.4, "net": 15.2,
        "cluster": 11.9, "autoscale": 9.8, "bench": 9.0, "snapshot": 8.2,
        "storage": 5.3, "workloads": 4.1, "policy": 3.1, "config": 1.2,
        "errors": 0.1, "db": 0.1,
    }
    COMPREHENSIONS = 10.9

    def test_repro_calls_per_completed_invocation(self):
        def replay():
            return run_load_platform(
                "fireworks", "predictive", duration_ms=3_000.0, seed=2022,
                return_platform=True)[1]

        # A first run imports lazily loaded modules and fills memoised
        # helpers, so the profiled run does not depend on earlier tests.
        replay()
        profile = cProfile.Profile()
        profile.enable()
        try:
            platform = replay()
        finally:
            profile.disable()
        calls, comprehensions = _repro_calls(profile)
        completed = platform.ledger.completed
        assert completed == 1_346
        over = {}
        for layer, count in calls.items():
            ceiling = self.CEILINGS.get(layer, 0.0)
            if count / completed > ceiling:
                over[layer] = (round(count / completed, 2), ceiling)
        assert not over, f"calls per invocation over the ceiling: {over}"
        assert comprehensions / completed <= self.COMPREHENSIONS


class TestChaosCrashMidTrace:
    """One host dies mid-trace; the run stays deterministic and clean."""

    # Host 2 is the hash home of every function in the SMALL config —
    # crashing it mid-trace displaces queued and in-flight work.
    HOST_ID = 2

    def _run(self):
        plan = ChaosPlan([ChaosEvent(8_000.0, KIND_HOST_CRASH,
                                     host_id=self.HOST_ID)])
        return run_load_platform("fireworks", "predictive",
                                 chaos_plan=plan, return_platform=True,
                                 **SMALL)

    def test_chaos_run_is_byte_identical_across_runs(self):
        first, _ = self._run()
        second, _ = self._run()
        assert _canonical(first) == _canonical(second)

    def test_every_submission_is_accounted_exactly_once(self):
        outcome, platform = self._run()
        assert outcome.requests > 0
        assert outcome.completed + outcome.shed + outcome.failed \
            == outcome.requests
        # The run stays below KEPT_ROOTS, so every invocation kept its
        # tree, and each root tells how its invocation ended.
        ends = [outcome_of(root) for root in invoke_roots(platform)]
        assert len(ends) == outcome.requests
        assert outcome.completed == ends.count("completed")
        assert outcome.failed == ends.count("failed")
        assert outcome.shed == ends.count("shed")

    def test_no_leaked_queue_slots_or_warm_workers(self):
        _, platform = self._run()
        crashed = platform.cluster.host(self.HOST_ID)
        assert crashed.down
        # The drained run left no queued waiter anywhere, no busy slot,
        # and the dead host's warm pool is empty.
        now = platform.sim.now
        for host in platform.cluster.hosts:
            if host.admission is not None:
                assert host.admission.depth == 0
            assert host.active == 0
        assert crashed.pool.live_entries(now) == []
        assert crashed.pool.drain_all() == []
        # The clones pooled there at the crash gave back their network.
        assert len(crashed.bridge.namespaces) == 0
        assert crashed.bridge.endpoint_count() == 0
        # Queued work displaced by the crash failed over or failed
        # loudly; silent loss would show up as an accounting gap above.

    def test_crash_actually_disrupted_the_run(self):
        plain = run_load_platform("fireworks", "predictive", **SMALL)
        disrupted, _ = self._run()
        assert _canonical(plain) != _canonical(disrupted)


class TestOutcomeShape:
    def test_registry_covers_all_platforms_and_modes(self):
        assert set(LOAD_PLATFORMS) == {"fireworks", "openwhisk",
                                       "firecracker", "gvisor", "catalyzer"}
        assert LOAD_MODES == ("none", "reactive", "predictive")

    def test_trace_is_seed_deterministic(self):
        names = [spec.name for spec in fleet(8)]
        first = list(build_load_trace(names, 20_000.0, 7))
        assert first == list(build_load_trace(names, 20_000.0, 7))
        assert {event.function for event in first} <= set(names)

    def test_trace_is_an_iterator(self):
        trace = build_load_trace([spec.name for spec in fleet(8)],
                                 20_000.0, 7)
        assert isinstance(trace, Iterator)

    def test_requests_count_every_streamed_event(self):
        """``requests`` is counted while the lazy trace is consumed: it
        equals the accounted outcomes and the length of the sorted list
        the stream replaced."""
        outcome = run_load_platform("fireworks", "predictive", **SMALL)
        rng = RngStreams(SMALL["seed"])
        popularity = assign_popularity(
            [f"fn-{i:02d}" for i in range(SMALL["n_functions"])], rng,
            popular_interarrival_ms=SMALL["popular_interarrival_ms"],
            rare_interarrival_ms=DEFAULT_RARE_INTERARRIVAL_MS)
        oracle = sorted_modulated_trace(
            popularity, SMALL["duration_ms"], rng,
            period_ms=DEFAULT_MODULATION_PERIOD_MS,
            depth=DEFAULT_MODULATION_DEPTH)
        assert outcome.requests == len(oracle) > 0
        assert outcome.completed + outcome.shed + outcome.failed \
            == outcome.requests

    def test_unknown_platform_or_mode_raises(self):
        with pytest.raises(KeyError):
            run_load_platform("nope", "none", **SMALL)
        with pytest.raises(ValidationError, match="registered"):
            run_load_platform("fireworks", "sometimes", **SMALL)

    def test_rates_and_shares_are_bounded(self):
        outcome = run_load_platform("fireworks", "none", **SMALL)
        assert 0.0 <= outcome.shed_rate <= 1.0
        assert 0.0 <= outcome.goodput <= 1.0
        assert 0.0 <= outcome.cold_start_share <= 1.0
        assert outcome.as_line()


def _run_script(script: str, timeout_s: float):
    """Run *script* in a fresh interpreter on this checkout's sources."""
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=timeout_s)


class TestUndrainedReplay:
    """A platform with a process that re-arms every 60 s forever never
    goes quiet, so the replay's drain raises the typed error naming that
    process.  The replay runs in a fresh interpreter with a timeout: an
    unbounded drain hangs there, and fails this test by the timeout
    instead of hanging the suite."""

    SCRIPT = (
        "from repro.bench.harness import fresh_cluster_platform, "
        "install_all\n"
        "from repro.bench.load import open_loop_replay\n"
        "from repro.core.fireworks import FireworksPlatform\n"
        "from repro.errors import UndrainedSimulationError\n"
        "from repro.workloads.faasdom import faasdom_spec\n"
        "from repro.workloads.generator import TraceEvent\n"
        "spec = faasdom_spec('faas-netlatency', 'nodejs')\n"
        "platform = fresh_cluster_platform(FireworksPlatform, seed=7)\n"
        "install_all(platform, [spec])\n"
        "sim = platform.sim\n"
        "def heartbeat():\n"
        "    while True:\n"
        "        yield sim.timeout(60_000.0)\n"
        "sim.process(heartbeat(), name='heartbeat')\n"
        "try:\n"
        "    open_loop_replay(platform, [TraceEvent(0.0, spec.name)],\n"
        "                     1_000.0)\n"
        "except UndrainedSimulationError as error:\n"
        "    print(error.pending)\n"
        "    print(platform.ledger.completed)\n")

    def test_a_process_that_never_goes_quiet_raises(self):
        completed = _run_script(self.SCRIPT, timeout_s=120)
        assert completed.returncode == 0, completed.stderr[-2000:]
        assert completed.stdout.split("\n")[:2] == ["process 'heartbeat'",
                                                     "1"]


class TestNoRuntimeDependency:
    def test_load_replay_does_not_import_numpy(self):
        # The package promises no third-party runtime dependency; a
        # Fireworks replay (warm-pool PSS sampling included) in a fresh
        # interpreter must not pull numpy in.
        script = (
            "import sys\n"
            "from repro.bench.load import run_load_platform\n"
            "run_load_platform('fireworks', 'predictive', n_hosts=2,\n"
            "                  n_functions=4, duration_ms=5_000.0, seed=7)\n"
            "print('numpy' in sys.modules)\n")
        completed = _run_script(script, timeout_s=120)
        assert completed.returncode == 0, completed.stderr[-2000:]
        assert completed.stdout.strip() == "False"
