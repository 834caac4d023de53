"""The autoscale seam: cluster signals → warm-worker targets.

:class:`AutoscalePolicy` is the narrow interface the
:class:`~repro.autoscale.scaler.WarmPoolAutoscaler` tick calls: given an
:class:`AutoscaleView` of the cluster (hosts, admission queues, arrival
histograms, config), return the ordered list of ``(function, host,
want)`` warm targets for this tick.  The scaler stays the *engine*
(expiry, provisioning processes, pending ledgers, ``on_warm_taken``
top-ups); the policy is only the per-tick *decision*.

:class:`ReactiveTargets` and :class:`PredictiveTargets` are verbatim
extractions of the pre-refactor tick loops (same iteration order, same
state machine), so default figures stay byte-identical.
:class:`DslAutoscalePolicy` runs a compiled ``autoscale`` document under
one of two candidate enumerations (declared by the document):

* ``queue-state`` — the reactive shape: candidates are the
  ``(host, function)`` pairs with queue pressure now or a carried level,
  with the same pressure/hold hysteresis bookkeeping as the built-in;
* ``home-hosts`` — the predictive shape: candidates are each installed
  function on its hash-home host, with arrival-histogram signals.

Emitted targets are clamped to ``[0, cfg.max_warm_per_function]`` (the
engine clamps again when provisioning, so a document never
over-provisions); a NaN target raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (Callable, Dict, Iterator, List, Mapping, Optional,
                    Sequence, Tuple)

from repro.errors import ValidationError
from repro.policy.dsl import (
    SOURCE_BUILTIN,
    SOURCE_DSL,
    CompiledPolicy,
    bind_policy,
)
from repro.policy.keepalive import ArrivalHistory
from repro.policy.signals import AUTOSCALE_SIGNALS, CANDIDATES_QUEUE_STATE

#: Observed inter-arrival gaps a function needs before the predictive
#: policies predict its next arrival.
PREDICTION_WARMUP_GAPS = 3

#: One per-tick warm target: (function, host, want).
Decision = Tuple[str, object, int]


@dataclass
class AutoscaleView:
    """Everything a target-setting decision may read, one tick's worth.

    Built fresh by the scaler each tick (and easy to fake in tests):
    decisions read admission queues, arrival history, and host liveness —
    never the warm pools or provisioning ledgers the engine owns.
    """

    now: float
    cfg: object
    #: Every function's arrivals and inter-arrival gaps.
    history: ArrivalHistory
    #: Every cluster host, in host-id order.
    hosts: Sequence[object]
    #: ``host(host_id) -> Host``.
    host: Callable[[int], object]
    #: ``home_host(function) -> Host`` (the hash-home host).
    home_host: Callable[[str], object]
    #: Installed function names, platform order.
    functions: Sequence[str]


class AutoscalePolicy:
    """Interface every autoscale policy — built-in or DSL — satisfies."""

    #: Registered policy name (the scaler's ``mode``).
    name: str = ""
    #: Where the decision logic comes from: ``builtin`` or ``dsl``.
    source: str = SOURCE_BUILTIN
    #: Inactive policies never tick (no control loop at all).
    active: bool = True
    #: Whether decisions read ``view.history``; the scaler records
    #: arrivals only for a policy that does.
    reads_arrivals: bool = False

    def decide(self, view: AutoscaleView) -> List[Decision]:
        """The ordered warm targets for this tick."""
        raise NotImplementedError


def _pressured_pairs(view: AutoscaleView) -> Iterator[Tuple[int, str]]:
    """The ``(host_id, function)`` pairs under queue pressure this tick:
    every function waiting on a live host whose admission queue is at
    least ``reactive_queue_threshold`` deep, in host order."""
    threshold = view.cfg.reactive_queue_threshold
    for host in view.hosts:
        if host.down or host.admission is None:
            continue
        if host.admission.depth < threshold:
            continue
        for function in set(host.admission.waiting_functions()):
            yield host.host_id, function


def _prediction(view: AutoscaleView,
                function: str) -> Optional[Tuple[float, float]]:
    """``(last arrival, predicted gap)`` of *function*, or ``None``
    until it has :data:`PREDICTION_WARMUP_GAPS` observed gaps."""
    history = view.history
    if history.gap_count(function) < PREDICTION_WARMUP_GAPS:
        return None
    return (history.last_arrival_ms(function),
            history.gap_percentile_ms(function,
                                      view.cfg.predictive_gap_quantile))


class NoTargets(AutoscalePolicy):
    """The ``none`` mode: no control loop, no targets."""

    name = "none"
    active = False

    def decide(self, view: AutoscaleView) -> List[Decision]:
        """Never called (inactive), but well-defined: no targets."""
        del view
        return []


class ReactiveTargets(AutoscalePolicy):
    """Queue-pressure policy: a pressured host gets warm workers for
    every function waiting in its admission queue, ramping by
    ``reactive_step`` per tick, and holds each target for
    ``reactive_hold_ticks`` pressure-free ticks before dropping it.
    The hysteresis is what makes it *reactive*: it scales where the
    queue was, late, and keeps paying for it after the burst passed —
    the memory/timeliness trade the predictive policy avoids."""

    name = "reactive"

    def __init__(self) -> None:
        #: (host_id, function) -> (level, hold ticks left).
        self._reactive: Dict[Tuple[int, str], Tuple[int, int]] = {}

    def decide(self, view: AutoscaleView) -> List[Decision]:
        """The pre-refactor reactive tick, collecting targets."""
        cfg = view.cfg
        decisions: List[Decision] = []
        pressured = set()
        for key in _pressured_pairs(view):
            pressured.add(key)
            level = self._reactive.get(key, (0, 0))[0]
            self._reactive[key] = (
                min(level + cfg.reactive_step, cfg.max_warm_per_function),
                cfg.reactive_hold_ticks)
        for key in list(self._reactive):
            level, hold = self._reactive[key]
            if key not in pressured:
                hold -= 1
                if hold <= 0:
                    del self._reactive[key]
                    continue
                self._reactive[key] = (level, hold)
            host = view.host(key[0])
            if host.down:
                del self._reactive[key]   # chaos-aware: down host, no target
                continue
            decisions.append((key[1], host, level))
        return decisions


class PredictiveTargets(AutoscalePolicy):
    """Arrival-prediction policy: pre-provision on a function's home
    host when its histogram predicts arrivals within the horizon."""

    name = "predictive"
    reads_arrivals = True

    def decide(self, view: AutoscaleView) -> List[Decision]:
        """The pre-refactor predictive tick, collecting targets."""
        cfg = view.cfg
        decisions: List[Decision] = []
        for function in view.functions:
            prediction = _prediction(view, function)
            if prediction is None:
                continue
            last, gap = prediction
            if gap <= cfg.predictive_horizon_ms:
                # Arrives at least once per horizon: keep enough warm
                # workers to absorb the expected arrivals.
                want = min(cfg.max_warm_per_function,
                           max(1, int(cfg.predictive_horizon_ms / gap)))
            else:
                predicted = last + gap
                if not view.now <= predicted <= \
                        view.now + cfg.predictive_horizon_ms:
                    continue
                want = 1
            host = view.home_host(function)
            if host.down:
                continue   # chaos-aware: down hosts drop their targets
            decisions.append((function, host, want))
        return decisions


def _candidate_value(name: str) -> Callable[[AutoscaleView,
                                             Mapping[str, float]], float]:
    return lambda view, values: values[name]


#: Autoscale's accessor table: ``read(view, values)``, where *values* are
#: one candidate's signal values (its enumeration mode fills them in).
AUTOSCALE_ACCESSORS = {name: _candidate_value(name)
                       for name in AUTOSCALE_SIGNALS.names()}


class DslAutoscalePolicy(AutoscalePolicy):
    """A compiled autoscale document run over one candidate enumeration."""

    source = SOURCE_DSL

    def __init__(self, compiled: CompiledPolicy) -> None:
        self.compiled = compiled
        self.name = compiled.name
        # Only the home-hosts enumeration has arrival-history signals.
        self.reads_arrivals = compiled.candidates != CANDIDATES_QUEUE_STATE
        #: queue-state bookkeeping: (host_id, function) -> (level, hold).
        self._state: Dict[Tuple[int, str], Tuple[int, int]] = {}
        self._target = bind_policy(compiled, AUTOSCALE_ACCESSORS)

    def _want(self, view: AutoscaleView, values: Mapping[str, float]) -> int:
        """The tree's target under one candidate's signal *values*,
        clamped to ``[0, warm cap]``, so ``+inf`` is the cap and ``-inf``
        no warm worker.  A signal without a value, or a NaN target,
        raises."""
        want = self._target(view, values)
        if math.isnan(want):
            raise ValidationError(
                f"autoscale policy {self.name!r}: the warm target is NaN")
        return int(min(max(want, 0.0), view.cfg.max_warm_per_function))

    def decide(self, view: AutoscaleView) -> List[Decision]:
        """Dispatch on the document's candidate enumeration mode."""
        cfg = view.cfg
        # The configuration signals every candidate mode provides.
        config = {"reactive_step": float(cfg.reactive_step),
                  "max_warm": float(cfg.max_warm_per_function),
                  "horizon_ms": float(cfg.predictive_horizon_ms)}
        if self.compiled.candidates == CANDIDATES_QUEUE_STATE:
            return self._decide_queue_state(view, config)
        return self._decide_home_hosts(view, config)

    def _decide_queue_state(self, view: AutoscaleView,
                            config: Mapping[str, float]) -> List[Decision]:
        """Reactive-shaped enumeration: pressured pairs plus carried
        levels, with the built-in's pressure/hold bookkeeping."""
        cfg = view.cfg
        decisions: List[Decision] = []
        pressured = set()
        for key in _pressured_pairs(view):
            pressured.add(key)
            self._state.setdefault(key, (0, 0))
        for key in list(self._state):
            level, hold = self._state[key]
            is_pressured = key in pressured
            if not is_pressured:
                hold -= 1
                if hold <= 0:
                    del self._state[key]
                    continue
            host = view.host(key[0])
            if host.down:
                del self._state[key]
                continue
            want = self._want(view, {
                **config,
                "pressured": 1.0 if is_pressured else 0.0,
                "prev_level": float(level),
                "hold_left": float(hold),
                "queue_depth": float(host.admission.depth
                                     if host.admission is not None else 0)})
            if want <= 0:
                del self._state[key]
                continue
            self._state[key] = (
                want, cfg.reactive_hold_ticks if is_pressured else hold)
            decisions.append((key[1], host, want))
        return decisions

    def _decide_home_hosts(self, view: AutoscaleView,
                           config: Mapping[str, float]) -> List[Decision]:
        """Predictive-shaped enumeration: each installed function on its
        hash-home host, with arrival-histogram signals."""
        horizon = view.cfg.predictive_horizon_ms
        decisions: List[Decision] = []
        for function in view.functions:
            host = view.home_host(function)
            if host.down:
                continue
            prediction = _prediction(view, function)
            has_history = prediction is not None
            last, gap_ms = prediction if has_history else (None, math.inf)
            if gap_ms <= horizon and gap_ms > 0:
                expected = max(1, int(horizon / gap_ms))
            else:
                expected = 0
            within = (has_history
                      and view.now <= last + gap_ms <= view.now + horizon)
            want = self._want(view, {
                **config,
                "has_history": 1.0 if has_history else 0.0,
                "predicted_gap_ms": gap_ms,
                "expected_arrivals_in_horizon": float(expected),
                "predicted_within_horizon": 1.0 if within else 0.0,
                "queue_depth": float(host.admission.depth
                                     if host.admission is not None else 0)})
            if want >= 1:
                decisions.append((function, host, want))
        return decisions

    def __repr__(self) -> str:
        return (f"DslAutoscalePolicy({self.name!r}, "
                f"candidates={self.compiled.candidates!r})")
