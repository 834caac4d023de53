"""The SpeedProbe scales host time by the spin rate it measured."""

import cProfile
import pstats
import time

import pytest

from worker import SpeedProbe


def test_scaled_uses_the_mean_spin_rate_since_the_mark():
    probe = SpeedProbe()
    reference = SpeedProbe.REFERENCE_SPIN_S
    probe.spins = [reference] * 4
    mark = probe.mark()
    probe.spins += [2 * reference, 4 * reference]
    # Mean rate over the window: (1/2 + 1/4) / 2 = 0.375 reference spins.
    assert probe.scaled(10.0, mark) == pytest.approx(3.75)
    assert probe.scaled(10.0, 0) == pytest.approx(10.0 * (4 + 0.75) / 6)


def test_scaled_without_samples_is_the_host_time():
    probe = SpeedProbe()
    assert probe.scaled(1.5, probe.mark()) == 1.5


def test_probe_samples_while_running_and_stops():
    probe = SpeedProbe()
    probe.start()
    try:
        deadline = time.perf_counter() + 0.1
        while time.perf_counter() < deadline:
            pass
    finally:
        probe.stop()
    taken = len(probe.spins)
    assert taken >= 5
    time.sleep(0.02)
    assert len(probe.spins) == taken


def test_spin_makes_no_calls_a_profiler_would_slow():
    probe = SpeedProbe()
    profile = cProfile.Profile()
    profile.runcall(probe._tick, None, None)
    called = {name for _file, _line, name in pstats.Stats(profile).stats}
    assert called <= {"_tick", "<built-in method time.perf_counter>",
                      "<method 'append' of 'list' objects>",
                      "<method 'disable' of '_lsprof.Profiler' objects>"}
