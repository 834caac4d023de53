"""Warm-pool autoscaler: the engine behind pluggable target policies.

A per-platform control loop that tops up each host's warm pool ahead of
demand, so open-loop traffic hits warm (or pre-restored) workers instead
of paying cold starts inside the latency-critical path.  Since the
policy-engine refactor the scaler is split in two:

* the **engine** (this class): TTL expiry, provisioning processes, the
  pending/targets ledgers, consumption-driven top-ups via
  :meth:`on_warm_taken`, chaos-awareness (never park or provision on a
  down host);
* the **policy** (:class:`~repro.policy.autoscale.AutoscalePolicy`): the
  per-tick decision mapping an :class:`~repro.policy.autoscale.AutoscaleView`
  of the cluster to ``(function, host, want)`` warm targets.

The built-in modes live in :mod:`repro.policy.autoscale` and keep their
registered names: ``reactive`` scales on observed queue pressure (late,
with hysteresis), ``predictive`` pre-provisions on arrival-histogram
predictions, ``none`` never arms the loop.  ``policy=`` also accepts a
DSL document or a ready policy instance; the scaler reports the resolved
policy's ``name`` and ``source`` through ``scaler.policy``.  Under a
policy that reads arrivals (``reads_arrivals``: the ``predictive``
built-in and ``home-hosts`` documents), every arrival feeds one
:class:`~repro.policy.keepalive.ArrivalHistory`; under any other it
stays empty.

Both active modes park workers with a finite TTL (``warm_expiry_ms``) so
scale-*down* is lazy expiry.

The scaler refers to its platform weakly: the platform owns it as
``platform.autoscaler``, and a strong link back would make a reference
cycle that keeps a finished platform alive until the cyclic GC runs.
"""

from __future__ import annotations

import weakref
from typing import Dict, Tuple

from repro.errors import InjectedFault, PlatformError
from repro.policy.autoscale import AutoscaleView
from repro.policy.keepalive import ArrivalHistory
from repro.policy.registry import resolve


class WarmPoolAutoscaler:
    """Per-platform warm-pool engine driving one target policy."""

    def __init__(self, platform, mode: str = "reactive",
                 until_ms: float = None, cfg=None, policy=None) -> None:
        if policy is None:
            policy = mode
        self.policy = resolve("autoscale", policy)
        self._platform = weakref.ref(platform)
        self.sim = platform.sim
        self.cfg = cfg if cfg is not None else platform.params.autoscale
        self.until_ms = until_ms
        #: Every function's arrivals, if the policy reads them.
        self.history = ArrivalHistory()
        #: (host_id, function) -> in-flight provisioning count.
        self._pending: Dict[Tuple[int, str], int] = {}
        #: (host_id, function) -> current policy target, refreshed every
        #: tick; consumption-driven top-ups read it between ticks.
        self.targets: Dict[Tuple[int, str], int] = {}
        self.provisioned = 0       # provisioning processes launched
        platform.autoscaler = self
        if self.policy.active:
            if until_ms is None:
                raise PlatformError(
                    "an active autoscaler needs until_ms: its control loop "
                    "must stop ticking for the simulation to quiesce")
            self._arm_tick()

    @property
    def platform(self):
        """The platform this scaler serves (held weakly: it owns the
        scaler)."""
        return self._platform()

    # -- arrival feed (called by the platform on every invoke) ---------------
    def observe_arrival(self, function: str, now_ms: float) -> None:
        """Feed one arrival into the arrival history, if the policy reads
        it."""
        if self.policy.reads_arrivals:
            self.history.observe(function, now_ms)

    def on_warm_taken(self, function: str, host) -> None:
        """A pooled worker was consumed on the invoke path.

        Platforms whose warm workers are single-use (Fireworks parks
        pre-restored clones, and a clone serves exactly one request)
        call this so the pool is topped back up to the policy's current
        target immediately — waiting for the next tick would cap the
        warm-hit rate at ``target / scale_interval``.
        """
        if not self.policy.active:
            return
        if self.until_ms is not None and self.sim.now >= self.until_ms:
            return   # the run is draining: stop replenishing
        target = self.targets.get((host.host_id, function), 0)
        if target > 0 and not host.down:
            self._ensure_warm(function, host, target, self.sim.now)

    # -- control loop --------------------------------------------------------
    # The loop rides the kernel's pooled fast-path timers rather than a
    # generator process: nothing ever waits on the control loop, so the
    # Event/Process machinery was pure per-tick overhead.
    def _arm_tick(self) -> None:
        if self.sim.now + self.cfg.scale_interval_ms <= self.until_ms:
            self.sim.schedule_timeout(
                self.cfg.scale_interval_ms, self._on_tick)

    def _on_tick(self, _value) -> None:
        self._tick()
        self._arm_tick()

    def _view(self, now: float) -> AutoscaleView:
        """This tick's read-only cluster view for the policy."""
        cluster = self.platform.cluster
        return AutoscaleView(
            now=now, cfg=self.cfg, history=self.history,
            hosts=cluster.hosts, host=cluster.host,
            home_host=cluster.home_host,
            functions=self.platform.installed_functions())

    def _tick(self) -> None:
        now = self.sim.now
        # Targets are a per-tick policy decision: recompute from scratch
        # so a function that stopped qualifying stops being replenished.
        self.targets.clear()
        # Scale-down: reap TTL-expired warm workers on every host.
        self.platform.reap_idle()
        for function, host, want in self.policy.decide(self._view(now)):
            self._ensure_warm(function, host, want, now)

    def _ensure_warm(self, function: str, host, target: int,
                     now: float) -> None:
        if host.down:
            # Chaos-aware backstop: a policy decision (or a stale target
            # read by on_warm_taken) must never provision onto a host the
            # chaos controller marked down — its pool was drained at
            # crash time and anything parked there would leak.
            return
        key = (host.host_id, function)
        self.targets[key] = min(target, self.cfg.max_warm_per_function)
        have = host.pool.size(function, now) + self._pending.get(key, 0)
        for _ in range(max(0, min(target, self.cfg.max_warm_per_function)
                           - have)):
            self._pending[key] = self._pending.get(key, 0) + 1
            self.provisioned += 1
            self.sim.process(
                self._provision(function, host, key),
                name=f"autoscale:{function}@host{host.host_id}")

    def _provision(self, function: str, host, key):
        """Off-critical-path provisioning of one warm worker.

        A chaos plan fault (a corrupted restore) costs this worker only:
        nothing is parked and a later tick provisions again.  Repairing
        the snapshot is left to the invoke path, whose ``retry`` span
        records it inside an invocation.
        """
        try:
            spec = self.platform.spec(function)
            entry = yield from self.platform.provision_warm_on(spec, host)
        except InjectedFault:
            return
        finally:
            self._pending[key] -= 1
        if entry is None:
            return
        if host.down:
            # The host crashed while we were booting: never park a warm
            # worker on a dead host (its pool was drained at crash time).
            self.platform.discard_worker(entry.worker, host,
                                         label="discard-down")
            return
        entry.expires_at_ms = self.sim.now + self.cfg.warm_expiry_ms
        host.pool.add(function, entry)

    # -- bench helpers -------------------------------------------------------
    def pending_total(self) -> int:
        """In-flight provisioning count across all hosts/functions."""
        return sum(self._pending.values())
