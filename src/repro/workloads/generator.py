"""Azure-like invocation trace generator (§1, §2.2).

Shahrad et al. [48] report that only 18.6% of functions are called more than
once a minute — the observation behind the paper's argument that warm pools
waste memory on the other 81.4%.  This generator produces a deterministic
synthetic trace with exactly that popularity split, used by the
warm-pool-vs-snapshot policy bench (an extension beyond the paper's own
figures).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Iterator, List, Sequence

from repro.errors import PlatformError
from repro.sim.rng import RngStreams

POPULAR_FRACTION = 0.186   # functions invoked more than once per minute [48]


@dataclass(frozen=True)
class TraceEvent:
    """One scheduled invocation."""

    at_ms: float
    function: str


@dataclass(frozen=True)
class FunctionPopularity:
    """Arrival process of one function."""

    function: str
    mean_interarrival_ms: float
    popular: bool


def assign_popularity(functions: Sequence[str], rng: RngStreams,
                      popular_interarrival_ms: float = 12000.0,
                      rare_interarrival_ms: float = 1800000.0
                      ) -> List[FunctionPopularity]:
    """Split *functions* into popular (18.6%) and rare (81.4%) classes.

    Popular functions arrive every ~12 s (more than once a minute); rare
    functions every ~30 min — beyond any realistic keep-alive window, the
    regime where [48] finds warm pools ineffective.
    """
    if not functions:
        raise PlatformError("cannot assign popularity to zero functions")
    n_popular = max(1, int(round(len(functions) * POPULAR_FRACTION)))
    if len(functions) == 1:
        n_popular = 1
    stream = rng.stream("popularity")
    shuffled = list(functions)
    stream.shuffle(shuffled)
    result = []
    for index, function in enumerate(shuffled):
        popular = index < n_popular
        result.append(FunctionPopularity(
            function=function,
            mean_interarrival_ms=(popular_interarrival_ms if popular
                                  else rare_interarrival_ms),
            popular=popular))
    return result


def poisson_trace(popularities: Sequence[FunctionPopularity],
                  duration_ms: float, rng: RngStreams) -> List[TraceEvent]:
    """A merged Poisson arrival trace over *duration_ms*, sorted by time."""
    if duration_ms <= 0:
        raise PlatformError(f"duration must be positive, got {duration_ms}")
    events: List[TraceEvent] = []
    for pop in popularities:
        stream = rng.stream(f"arrivals:{pop.function}")
        t = 0.0
        while True:
            # Exponential inter-arrival via inverse transform.
            u = stream.random()
            t += -pop.mean_interarrival_ms * math.log(1.0 - u)
            if t >= duration_ms:
                break
            events.append(TraceEvent(at_ms=t, function=pop.function))
    events.sort(key=lambda e: (e.at_ms, e.function))
    return events


def modulated_poisson_trace(popularities: Sequence[FunctionPopularity],
                            duration_ms: float, rng: RngStreams,
                            period_ms: float = 60000.0,
                            depth: float = 0.6) -> Iterator[TraceEvent]:
    """A *non-homogeneous* Poisson trace: the arrival rate swings
    sinusoidally around each function's mean (diurnal-pattern analogue,
    compressed to *period_ms*), via Lewis–Shedler thinning.

    ``rate(t) = base_rate * (1 + depth * sin(2π t / period))`` — candidate
    arrivals are drawn at the peak rate and accepted with probability
    ``rate(t)/peak``, so bursts at the crests stress admission queues
    while troughs let warm pools drain.  ``depth=0`` degenerates to
    :func:`poisson_trace`'s homogeneous process (different draws, same
    law).  Deterministic per seed: one RNG stream per function.

    The trace is a lazy iterator, ordered by ``(at_ms, function)``: the
    arguments are checked at call time, and events are drawn as they are
    consumed, from a merge of the per-function arrival streams.  Each
    function draws from its own stream, so the sequence equals the sorted
    list of every function's arrivals, while a long replay holds one
    pending event per function instead of its whole input.
    """
    if duration_ms <= 0:
        raise PlatformError(f"duration must be positive, got {duration_ms}")
    if not 0.0 <= depth < 1.0:
        raise PlatformError(f"modulation depth must be in [0, 1), "
                            f"got {depth}")
    if period_ms <= 0:
        raise PlatformError(f"modulation period must be positive, "
                            f"got {period_ms}")
    omega = 2.0 * math.pi / period_ms
    per_function = [
        _thinned_arrivals(pop.function,
                          rng.stream(f"arrivals:{pop.function}"),
                          pop.mean_interarrival_ms / (1.0 + depth),
                          duration_ms, omega, depth)
        for pop in popularities]
    return heapq.merge(*per_function,
                       key=lambda event: (event.at_ms, event.function))


def _thinned_arrivals(function: str, stream, peak_mean_ms: float,
                      duration_ms: float, omega: float,
                      depth: float) -> Iterator[TraceEvent]:
    """One function's modulated arrivals, in time order."""
    t = 0.0
    while True:
        u = stream.random()
        t += -peak_mean_ms * math.log(1.0 - u)
        if t >= duration_ms:
            return
        accept = (1.0 + depth * math.sin(omega * t)) / (1.0 + depth)
        if stream.random() < accept:
            yield TraceEvent(at_ms=t, function=function)


# ---------------------------------------------------------------------------
# Multi-tenant chain arrivals (the `figure chains` workload)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ChainTraceEvent:
    """One scheduled DAG submission by one tenant."""

    at_ms: float
    tenant: str
    dag: str


def zipf_weights(n: int, exponent: float = 1.1) -> List[float]:
    """Normalized Zipf weights over ranks ``1..n`` (rank 1 hottest).

    Tenant popularity in production serverless traces is heavy-tailed
    [48]: a few tenants dominate invocations while the long tail stays
    nearly idle — which is exactly the regime where per-tenant warm
    pools waste memory and snapshot restores win.
    """
    if n < 1:
        raise PlatformError(f"need at least one rank, got {n}")
    if exponent <= 0:
        raise PlatformError(f"zipf exponent must be > 0, got {exponent}")
    raw = [1.0 / ((rank + 1) ** exponent) for rank in range(n)]
    total = sum(raw)
    return [weight / total for weight in raw]


def multi_tenant_chain_trace(tenants: Sequence[str], dags: Sequence[str],
                             duration_ms: float, rng: RngStreams,
                             mean_interarrival_ms: float = 20000.0,
                             zipf_exponent: float = 1.1,
                             period_ms: float = 120000.0,
                             depth: float = 0.5
                             ) -> List[ChainTraceEvent]:
    """Chain submissions for many tenants: Zipf popularity over tenants
    (declaration order = rank order) with a *per-tenant diurnal phase*.

    Each (tenant, dag) pair is an independent non-homogeneous Poisson
    process (Lewis–Shedler thinning, one RNG stream per pair, so the
    trace is a pure function of the seed and insensitive to tenant-set
    changes elsewhere).  The hottest tenant submits each DAG with mean
    interarrival *mean_interarrival_ms*; tenant at rank *r* runs
    ``r**exponent`` times slower.  Every tenant's sinusoidal load swing
    is phase-shifted by its rank (evenly over one period), so tenant
    peaks do *not* align — the cluster sees rolling, overlapping waves
    rather than one synchronized burst, which is what makes chain-aware
    placement and autoscaling earn their keep.
    """
    if duration_ms <= 0:
        raise PlatformError(f"duration must be positive, got {duration_ms}")
    if mean_interarrival_ms <= 0:
        raise PlatformError(f"mean interarrival must be positive, "
                            f"got {mean_interarrival_ms}")
    if not 0.0 <= depth < 1.0:
        raise PlatformError(f"modulation depth must be in [0, 1), "
                            f"got {depth}")
    if period_ms <= 0:
        raise PlatformError(f"modulation period must be positive, "
                            f"got {period_ms}")
    if not tenants:
        raise PlatformError("need at least one tenant")
    if not dags:
        raise PlatformError("need at least one dag")
    if len(set(tenants)) != len(tenants):
        raise PlatformError("tenant names must be unique")
    weights = zipf_weights(len(tenants), zipf_exponent)
    hottest = weights[0]
    omega = 2.0 * math.pi / period_ms
    events: List[ChainTraceEvent] = []
    for index, tenant in enumerate(tenants):
        tenant_mean_ms = mean_interarrival_ms * hottest / weights[index]
        phase = omega * period_ms * index / len(tenants)
        for dag in dags:
            stream = rng.stream(f"chain-arrivals:{tenant}:{dag}")
            peak_mean_ms = tenant_mean_ms / (1.0 + depth)
            t = 0.0
            while True:
                u = stream.random()
                t += -peak_mean_ms * math.log(1.0 - u)
                if t >= duration_ms:
                    break
                accept = ((1.0 + depth * math.sin(omega * t + phase))
                          / (1.0 + depth))
                if stream.random() < accept:
                    events.append(ChainTraceEvent(
                        at_ms=t, tenant=tenant, dag=dag))
    events.sort(key=lambda e: (e.at_ms, e.tenant, e.dag))
    return events

