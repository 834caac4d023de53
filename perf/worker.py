"""One benchmark unit in a fresh interpreter: set up, run one workload body,
check it, and print one JSON object as the last line of standard output.

``perf/run.py`` starts it as::

    python perf/worker.py WORKLOAD SEED TRACED SPAWNED_AT WORKDIR [PSTATS]

``SPAWNED_AT`` is the parent's ``time.time()`` just before the spawn, so
``setup_s`` runs from a fresh interpreter until ``repro.bench.engine`` is
imported and ``default_parameters()`` and ``experiment_registry()`` have
returned.  With ``TRACED`` = 1 the body runs under cProfile and the result
carries the per-layer ledger; ``PSTATS`` names a file for the raw profile.
"""

import contextlib
import signal
import sys
import threading
import time


class SpeedProbe:
    """Measures how fast this vCPU runs Python, all through the unit.

    On a shared host a vCPU can run 1.2-1.8x slower for seconds to minutes
    (a busy SMT sibling, say), independently of the other vCPUs and with
    neither steal time nor performance counters to show it.  That moved
    the raw host times of identical runs by 7-16% (quartile spread over
    ten runs).  Every ``INTERVAL_S`` of wall time, SIGALRM runs a fixed
    spin of dictionary updates -- bytecode only, so a profiler does not
    slow it -- and records how long it took.  :meth:`scaled` turns host
    seconds into seconds on a vCPU that runs the spin in
    ``REFERENCE_SPIN_S``.
    """

    INTERVAL_S = 0.005
    #: A fixed scale for every scaled time: about the spin's median
    #: duration on the 2-vCPU Xeon VM the first ledger was measured on.
    REFERENCE_SPIN_S = 12e-6
    _STEPS = tuple(range(128))

    def __init__(self):
        self.spins = []
        self._table = dict.fromkeys(range(8), 0)

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S,
                         self.INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def _tick(self, _signum, _frame):
        table = self._table
        started = time.perf_counter()
        for step in self._STEPS:
            table[step & 7] += step
        self.spins.append(time.perf_counter() - started)

    def mark(self):
        """Position to pass to :meth:`scaled` for the time from now."""
        return len(self.spins)

    def scaled(self, seconds, since):
        """*seconds* of host time that started at mark *since*, times the
        mean spin rate over them, in ``REFERENCE_SPIN_S`` units."""
        window = self.spins[since:]
        if not window:
            return seconds
        rate = sum(1.0 / spin for spin in window) / len(window)
        return seconds * rate * self.REFERENCE_SPIN_S


def _setup(root):
    sys.path.insert(0, root + "/src")
    import repro.bench.engine as engine
    from repro.config import default_parameters
    default_parameters()
    engine.experiment_registry()


class Probe:
    """Times the workload body, counts the simulated invocations it
    completes and, in a traced unit, profiles it and samples memory."""

    #: Seconds between ``/proc/self/statm`` samples in a traced unit.
    SAMPLE_EVERY_S = 0.25

    def __init__(self, traced, speed):
        import cProfile
        self.traced = traced
        self.speed = speed
        self.profile = cProfile.Profile() if traced else None
        self.wall_s = None          # host seconds of the body
        self.scaled_wall_s = None   # ... scaled by the SpeedProbe
        self.completed = 0          # invocations completed, whole unit
        self.completed_timed = 0    # ... inside the timed body
        self.events = 0             # DES events fired, traced units only
        self.roots = 0              # most tracer roots one simulation held
        self.restores = 0           # Restorer.restore calls
        self.rss_samples = []       # (completed, VmRSS KiB)

    def install(self):
        """Wrap the public entry points whose calls the probe counts."""
        from repro.platforms.base import ServerlessPlatform
        invoke = ServerlessPlatform.invoke
        probe = self

        def counted_invoke(platform, *args, **kwargs):
            record = yield from invoke(platform, *args, **kwargs)
            probe.completed += 1
            return record

        ServerlessPlatform.invoke = counted_invoke
        if not self.traced:
            return
        from repro.sim.kernel import Simulation
        from repro.snapshot.restorer import Restorer
        run, restore = Simulation.run, Restorer.restore

        def counted_run(sim, until=None):
            before = sim.events_processed
            try:
                return run(sim, until)
            finally:
                probe.events += sim.events_processed - before
                # A numeric deadline returns mid-run; count roots only
                # where a run ends on an event or drains.
                if not isinstance(until, (int, float)):
                    probe.roots = max(probe.roots,
                                      len(sim.tracer.traces()))

        def counted_restore(restorer, *args, **kwargs):
            probe.restores += 1
            return restore(restorer, *args, **kwargs)

        Simulation.run = counted_run
        Restorer.restore = counted_restore

    @contextlib.contextmanager
    def profiled(self):
        """Profile the block in a traced unit."""
        if self.profile is not None:
            self.profile.enable()
        try:
            yield
        finally:
            if self.profile is not None:
                self.profile.disable()

    @contextlib.contextmanager
    def timed(self):
        """The workload body: its host time is ``wall_s``; a traced unit
        also profiles it and samples memory."""
        stop = threading.Event()
        sampler = None
        if self.traced:
            sampler = threading.Thread(target=self._sample, args=(stop,),
                                       daemon=True)
            sampler.start()
        completed, mark = self.completed, self.speed.mark()
        started = time.perf_counter()
        try:
            with self.profiled():
                yield
        finally:
            self.wall_s = time.perf_counter() - started
            self.scaled_wall_s = self.speed.scaled(self.wall_s, mark)
            self.completed_timed = self.completed - completed
            if sampler is not None:
                stop.set()
                sampler.join()

    def _sample(self, stop):
        import resource
        page_kib = resource.getpagesize() // 1024
        while not stop.wait(self.SAMPLE_EVERY_S):
            try:
                with open("/proc/self/statm") as statm:
                    rss_pages = int(statm.read().split()[1])
            except OSError:
                return
            self.rss_samples.append((self.completed, rss_pages * page_kib))

    def rss_kib_per_inv(self):
        """Least-squares slope of VmRSS against completed invocations."""
        points = [(x, y) for x, y in self.rss_samples if x > 0]
        if len({x for x, _ in points}) < 2:
            return 0.0
        mean_x = sum(x for x, _ in points) / len(points)
        mean_y = sum(y for _, y in points) / len(points)
        return (sum((x - mean_x) * (y - mean_y) for x, y in points)
                / sum((x - mean_x) ** 2 for x, _ in points))


def main(argv):
    workload, seed, traced = argv[1], int(argv[2]), argv[3] == "1"
    spawned_at, workdir = float(argv[4]), argv[5]
    pstats_path = argv[6] if len(argv) > 6 else None
    speed = SpeedProbe()
    speed.start()
    import os
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    _setup(root)
    setup_s = time.time() - spawned_at
    scaled_setup_s = speed.scaled(setup_s, 0)

    import json
    import pstats
    import resource

    import ledger
    from workloads import WORKLOADS
    probe = Probe(traced, speed)
    probe.install()
    outcome = WORKLOADS[workload](seed, probe, workdir)
    speed.stop()
    problems = list(outcome.problems)
    if outcome.completed is not None \
            and outcome.completed != probe.completed_timed:
        problems.append(f"{workload}: output reports {outcome.completed} "
                        f"completed invocations, ServerlessPlatform.invoke "
                        f"returned {probe.completed_timed}")
    result = {
        "setup_s": scaled_setup_s,
        "wall_s": probe.scaled_wall_s,
        "raw_setup_s": setup_s,
        "raw_wall_s": probe.wall_s,
        "completed": probe.completed_timed,
        "peak_rss_mib": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        "digest": outcome.digest,
        "ops": outcome.ops,
        "problems": problems,
        "extras": outcome.extras,
        "median_spin_s": sorted(speed.spins)[len(speed.spins) // 2],
    }
    if traced:
        if pstats_path:
            probe.profile.dump_stats(pstats_path)
        layers = ledger.layer_metrics(pstats.Stats(probe.profile))
        layers["sim.events"] = probe.events
        layers["trace.roots_retained"] = probe.roots
        layers["snapshot.restores"] = probe.restores
        layers["process.rss_kib_per_inv"] = probe.rss_kib_per_inv()
        result["layers"] = layers
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv)
