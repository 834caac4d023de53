"""Offline Pareto policy search (extension): ``repro figure search``.

Sweeps *declarative policy documents* — the :mod:`repro.policy` DSL —
across the three decision layers the policy engine unified (placement,
keep-alive, warm-pool autoscaling) and evaluates every candidate on the
open-loop load trace.  The output is a seeded, deterministic Pareto
frontier over three objectives, all minimized:

* **p99 end-to-end latency** (ms) — the tail a user sees;
* **mean warm memory** (MiB) — what the operator pays to keep workers
  resident;
* **shed rate** — admission-control drops / submissions.

Candidate generation is pure function of ``(seed, count)``: candidate 0
is always the ``round-robin`` + ``none`` built-in baseline, a fixed
block of *anchor* DSL documents mirrors (and perturbs) the built-in
policies, and the remainder are RNG-mutated weighted-score placement
documents paired with mutated autoscale documents and a swept keep-alive
window.  Because each candidate is regenerated from the seed, the
parallel engine can shard the search by candidate index and the result
cache stays content-correct.

The evaluation point deliberately sits past the saturation knee of a
small OpenWhisk cluster (popular arrivals ~150 ms against 9 concurrent
slots) with the keep-alive window *above* round-robin's per-host revisit
period: spraying placements then keeps one warm container per host per
popular function resident, so concentrating policies genuinely dominate
the baseline on all three axes rather than merely trading them.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.bench.experiment import Experiment
from repro.bench.serialization import register_result_type
from repro.sim.rng import RngStreams

#: The search evaluates on OpenWhisk: cold starts are expensive enough
#: that placement decides the warm-hit rate, and keep-alive memory is
#: visible under every autoscale mode.
SEARCH_PLATFORM = "openwhisk"

#: Default candidate count (>= 20 per the search acceptance bar).
DEFAULT_CANDIDATES = 24
#: Candidate count of the CI smoke run.
SMOKE_CANDIDATES = 6
DEFAULT_SEED = 2022

#: Keep-alive windows the mutated candidates sweep.  600 ms sits just
#: above round-robin's per-host revisit period at the evaluation scale
#: (3 hosts x 150 ms popular gap), which is what makes the frontier
#: interesting — see the module docstring.
KEEPALIVE_CHOICES = (400.0, 600.0, 800.0)
BASELINE_KEEPALIVE_MS = 600.0

#: Full evaluation point: a 3-host / 9-slot OpenWhisk cluster pushed past
#: its saturation knee for one simulated minute (~0.15 s wall per
#: candidate).
SEARCH_EVAL: Dict[str, float] = dict(
    n_hosts=3, n_functions=10, duration_ms=60_000.0, capacity_per_host=3,
    popular_interarrival_ms=150.0, rare_interarrival_ms=120_000.0)

#: CI smoke evaluation point: same shape, a few seconds of trace.
SMOKE_EVAL: Dict[str, float] = dict(
    n_hosts=2, n_functions=6, duration_ms=8_000.0, capacity_per_host=2,
    popular_interarrival_ms=200.0, rare_interarrival_ms=60_000.0)

#: A policy knob: a registered name or a DSL document.
PolicyLike = Union[str, Dict[str, Any]]


# ---------------------------------------------------------------------------
# Candidate documents
# ---------------------------------------------------------------------------
def placement_score_doc(name: str, w_active: float, w_home: float,
                        w_local: float) -> Dict[str, Any]:
    """A weighted-argmin placement document over the node signals.

    ``argmin w_active*active + w_home*home_distance + w_local*local_state``
    over nodes with room — the mutation space of the search.  (0, 1, 0)
    is exactly the built-in ``hash`` policy; (1, 0, 0) is
    ``least-loaded``; a negative ``w_local`` rewards warm/snapshot
    locality.
    """
    return {
        "name": name,
        "domain": "placement",
        "description": (f"searched weighted argmin: {w_active}*active + "
                        f"{w_home}*home_distance + {w_local}*local_state"),
        "tree": {
            "choose": "argmin",
            "score": [
                {"signal": "active", "weight": w_active},
                {"signal": "home_distance", "weight": w_home},
                {"signal": "local_state", "weight": w_local},
            ],
            "where": [{"signal": "has_room", "op": ">=", "value": 1}],
        },
    }


def placement_locality_doc(name: str) -> Dict[str, Any]:
    """A snapshot-locality placement document (built-in mirror)."""
    return {
        "name": name,
        "domain": "placement",
        "description": "searched snapshot-locality mirror",
        "tree": {
            "if": {"signal": "any_local_with_room", "op": ">=", "value": 1},
            "then": {
                "choose": "argmin",
                "score": [{"signal": "active"}],
                "where": [{"signal": "has_room", "op": ">=", "value": 1},
                          {"signal": "local_state", "op": ">=", "value": 1}],
            },
            "else": {
                "choose": "argmin",
                "score": [{"signal": "home_distance"}],
                "where": [{"signal": "has_room", "op": ">=", "value": 1}],
            },
        },
    }


def autoscale_none_doc(name: str) -> Dict[str, Any]:
    """An autoscale document that never asks for warm workers."""
    return {
        "name": name,
        "domain": "autoscale",
        "description": "searched no-op autoscale",
        "candidates": "queue-state",
        "tree": {"value": 0},
    }


def autoscale_reactive_doc(name: str, step: float) -> Dict[str, Any]:
    """A reactive autoscale document with a mutated scale-up *step*."""
    return {
        "name": name,
        "domain": "autoscale",
        "description": f"searched reactive autoscale, step={step}",
        "candidates": "queue-state",
        "tree": {
            "if": {"signal": "pressured", "op": ">=", "value": 1},
            "then": {"value": {"sum": [{"signal": "prev_level"},
                                       {"const": step}]}},
            "else": {"value": {"signal": "prev_level"}},
        },
    }


def autoscale_predictive_doc(name: str, weight: float) -> Dict[str, Any]:
    """A predictive autoscale document with a mutated arrival *weight*."""
    return {
        "name": name,
        "domain": "autoscale",
        "description": f"searched predictive autoscale, weight={weight}",
        "candidates": "home-hosts",
        "tree": {
            "if": {"signal": "has_history", "op": "<", "value": 1},
            "then": {"value": 0},
            "else": {
                "if": {"signal": "predicted_gap_ms", "op": "<=",
                       "value": {"signal": "horizon_ms"}},
                "then": {"value": {
                    "sum": [{"signal": "expected_arrivals_in_horizon",
                             "weight": weight}],
                    "clamp": [1.0, 4.0]}},
                "else": {
                    "if": {"signal": "predicted_within_horizon",
                           "op": ">=", "value": 1},
                    "then": {"value": 1},
                    "else": {"value": 0},
                },
            },
        },
    }


# ---------------------------------------------------------------------------
# Candidates
# ---------------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class SearchCandidate:
    """One point of the search space (regenerated from the seed, never
    serialized — only its outcome crosses the cache boundary)."""

    index: int
    name: str
    placement: PolicyLike
    autoscale: PolicyLike
    keepalive_ms: float


def _anchor_candidates() -> List[Tuple[str, PolicyLike, PolicyLike, float]]:
    """The fixed candidates every search contains, baseline first."""
    return [
        # Candidate 0 is the acceptance baseline: both knobs stay on the
        # built-in (non-DSL) path.
        ("baseline-rr-none", "round-robin", "none", BASELINE_KEEPALIVE_MS),
        ("searched-hash-none",
         placement_score_doc("searched-hash", 0.0, 1.0, 0.0),
         autoscale_none_doc("searched-none"), BASELINE_KEEPALIVE_MS),
        ("searched-least-loaded-none",
         placement_score_doc("searched-least-loaded", 1.0, 0.0, 0.0),
         autoscale_none_doc("searched-none"), BASELINE_KEEPALIVE_MS),
        ("searched-locality-none",
         placement_locality_doc("searched-locality"),
         autoscale_none_doc("searched-none"), BASELINE_KEEPALIVE_MS),
        ("searched-hash-reactive",
         placement_score_doc("searched-hash", 0.0, 1.0, 0.0),
         autoscale_reactive_doc("searched-reactive", 1.0),
         BASELINE_KEEPALIVE_MS),
        ("searched-hash-predictive",
         placement_score_doc("searched-hash", 0.0, 1.0, 0.0),
         autoscale_predictive_doc("searched-predictive", 1.0),
         BASELINE_KEEPALIVE_MS),
        ("searched-hash-none-ka800",
         placement_score_doc("searched-hash", 0.0, 1.0, 0.0),
         autoscale_none_doc("searched-none"), 800.0),
    ]


def generate_candidates(seed: int,
                        count: int = DEFAULT_CANDIDATES
                        ) -> Tuple[SearchCandidate, ...]:
    """The deterministic candidate set for *(seed, count)*.

    Prefix-stable: growing *count* only appends candidates, and the
    parallel engine's per-index shards regenerate exactly this list.
    """
    rng = RngStreams(seed).stream("policy-search")
    rows = _anchor_candidates()[:count]
    while len(rows) < count:
        index = len(rows)
        w_active = round(rng.uniform(0.0, 2.0), 3)
        w_home = round(rng.uniform(0.0, 1.5), 3)
        w_local = round(-rng.uniform(0.0, 3.0), 3)
        placement = placement_score_doc(
            f"searched-{index:02d}", w_active, w_home, w_local)
        kind = rng.randrange(3)
        if kind == 0:
            autoscale: PolicyLike = autoscale_none_doc(
                f"searched-{index:02d}-none")
        elif kind == 1:
            autoscale = autoscale_reactive_doc(
                f"searched-{index:02d}-reactive",
                float(rng.choice((1, 2, 3))))
        else:
            autoscale = autoscale_predictive_doc(
                f"searched-{index:02d}-predictive",
                round(rng.uniform(0.5, 1.5), 3))
        keepalive_ms = rng.choice(KEEPALIVE_CHOICES)
        rows.append((f"searched-{index:02d}", placement, autoscale,
                     keepalive_ms))
    return tuple(
        SearchCandidate(index=index, name=name, placement=placement,
                        autoscale=autoscale, keepalive_ms=keepalive_ms)
        for index, (name, placement, autoscale, keepalive_ms)
        in enumerate(rows))


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------
@register_result_type
@dataclasses.dataclass(frozen=True)
class SearchCandidateOutcome:
    """One evaluated candidate: resolved policy identity + objectives."""

    index: int
    name: str
    placement: str          # resolved placement policy name
    placement_source: str   # "builtin" | "dsl"
    autoscale: str          # resolved autoscale policy name
    autoscale_source: str   # "builtin" | "dsl"
    keepalive_ms: float
    requests: int
    completed: int
    p50_ms: float
    p99_ms: float
    shed_rate: float
    mean_warm_mb: float

    def objectives(self) -> Tuple[float, float, float]:
        """The minimized objective vector (p99, warm memory, shed)."""
        return (self.p99_ms, self.mean_warm_mb, self.shed_rate)

    def as_line(self) -> str:
        """One-line summary for the search figure."""
        return (f"{self.name:<26} [{self.placement_source[0]}] "
                f"place={self.placement:<21} scale={self.autoscale:<22} "
                f"ka={self.keepalive_ms:5.0f}ms "
                f"p99={self.p99_ms:8.1f}ms "
                f"warm={self.mean_warm_mb:7.1f}MiB "
                f"shed={self.shed_rate:7.3%}")


@register_result_type
@dataclasses.dataclass(frozen=True)
class SearchResult:
    """The merged search: every outcome plus the derived frontier."""

    platform: str
    baseline: str                                   # candidate 0's name
    outcomes: Tuple[SearchCandidateOutcome, ...]    # by candidate index
    frontier: Tuple[str, ...]       # Pareto-optimal candidate names
    dominators: Tuple[str, ...]     # candidates dominating the baseline


def dominates(a: SearchCandidateOutcome, b: SearchCandidateOutcome) -> bool:
    """Pareto dominance: *a* is no worse on every objective and strictly
    better on at least one (all objectives minimized)."""
    ours, theirs = a.objectives(), b.objectives()
    return (all(x <= y for x, y in zip(ours, theirs))
            and any(x < y for x, y in zip(ours, theirs)))


def pareto_frontier(outcomes: Tuple[SearchCandidateOutcome, ...]
                    ) -> Tuple[SearchCandidateOutcome, ...]:
    """The outcomes no other outcome dominates, in candidate order."""
    return tuple(one for one in outcomes
                 if not any(dominates(other, one) for other in outcomes
                            if other is not one))


def build_search_result(outcomes: Tuple[SearchCandidateOutcome, ...]
                        ) -> SearchResult:
    """Derive the frontier and baseline dominators from raw outcomes."""
    ordered = tuple(sorted(outcomes, key=lambda one: one.index))
    baseline = ordered[0]
    frontier = pareto_frontier(ordered)
    return SearchResult(
        platform=SEARCH_PLATFORM,
        baseline=baseline.name,
        outcomes=ordered,
        frontier=tuple(one.name for one in frontier),
        dominators=tuple(one.name for one in ordered
                         if one is not baseline
                         and dominates(one, baseline)))


def evaluate_candidate(candidate: SearchCandidate,
                       params=None, seed: int = DEFAULT_SEED,
                       eval_kw: Optional[Dict[str, float]] = None
                       ) -> SearchCandidateOutcome:
    """Run one candidate on the open-loop trace and score it."""
    from repro.bench.load import run_load_platform
    from repro.policy import resolve_autoscale, resolve_placement
    placement = resolve_placement(candidate.placement)
    autoscale = resolve_autoscale(candidate.autoscale)
    outcome = run_load_platform(
        SEARCH_PLATFORM, "none", params=params, seed=seed,
        keepalive_ms=candidate.keepalive_ms,
        placement_policy=candidate.placement,
        autoscale_policy=candidate.autoscale,
        **dict(SEARCH_EVAL if eval_kw is None else eval_kw))
    return SearchCandidateOutcome(
        index=candidate.index,
        name=candidate.name,
        placement=placement.name,
        placement_source=placement.source,
        autoscale=autoscale.name,
        autoscale_source=autoscale.source,
        keepalive_ms=candidate.keepalive_ms,
        requests=outcome.requests,
        completed=outcome.completed,
        p50_ms=outcome.latency.p50_ms,
        p99_ms=outcome.latency.p99_ms,
        shed_rate=outcome.shed_rate,
        mean_warm_mb=outcome.mean_warm_mb)


def evaluate_index(params, seed: int, index: int,
                   count: int = DEFAULT_CANDIDATES) -> SearchCandidateOutcome:
    """Engine shard entry: regenerate candidate *index* from the seed and
    evaluate it (keeps the content-addressed cache key honest)."""
    candidates = generate_candidates(seed, count)
    return evaluate_candidate(candidates[index], params=params, seed=seed)


def run_search(params=None, seed: int = DEFAULT_SEED,
               smoke: bool = False) -> SearchResult:
    """The whole search, serially (the engine path shards by index).

    *smoke* shrinks both the candidate set and the evaluation trace to a
    couple of wall-clock seconds: the ``search-smoke`` experiment, which
    CI runs twice and diffs.
    """
    count = SMOKE_CANDIDATES if smoke else DEFAULT_CANDIDATES
    eval_kw = SMOKE_EVAL if smoke else SEARCH_EVAL
    outcomes = tuple(
        evaluate_candidate(candidate, params=params, seed=seed,
                           eval_kw=eval_kw)
        for candidate in generate_candidates(seed, count))
    return build_search_result(outcomes)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------
_PLOT_WIDTH = 56
_PLOT_HEIGHT = 12


def _scatter(result: SearchResult) -> List[str]:
    """ASCII scatter of p99 (x) vs mean warm memory (y); ``#`` marks the
    frontier, ``B`` the baseline, ``o`` everything else."""
    outcomes = result.outcomes
    xs = [one.p99_ms for one in outcomes]
    ys = [one.mean_warm_mb for one in outcomes]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    grid = [[" "] * _PLOT_WIDTH for _ in range(_PLOT_HEIGHT)]
    frontier = set(result.frontier)

    def plot(one: SearchCandidateOutcome, mark: str) -> None:
        col = round((one.p99_ms - x_lo) / x_span * (_PLOT_WIDTH - 1))
        row = round((one.mean_warm_mb - y_lo) / y_span * (_PLOT_HEIGHT - 1))
        grid[_PLOT_HEIGHT - 1 - row][col] = mark

    # Paint in increasing precedence so the interesting marks win cells.
    for one in outcomes:
        if one.name not in frontier and one.name != result.baseline:
            plot(one, "o")
    for one in outcomes:
        if one.name in frontier:
            plot(one, "#")
    for one in outcomes:
        if one.name == result.baseline:
            plot(one, "B")

    lines = [f"warm memory (MiB)  {y_hi:8.1f} " + "." * _PLOT_WIDTH]
    for row in grid:
        lines.append(" " * 28 + "".join(row))
    lines.append(f"{'':19}{y_lo:8.1f} " + "." * _PLOT_WIDTH)
    lines.append(f"{'':28}p99 {x_lo:.0f}ms "
                 + " " * max(0, _PLOT_WIDTH - 24)
                 + f"{x_hi:.0f}ms")
    return lines


def render_search_figure(result: SearchResult) -> List[str]:
    """The ``search`` experiment's text figure: per-candidate lines,
    markers for the frontier (``*``) and baseline-dominators (``+``),
    then the scatter and a frontier summary."""
    lines = [f"policy search on {result.platform}: "
             f"{len(result.outcomes)} candidates, "
             f"objectives (p99 ms, mean warm MiB, shed rate), "
             f"baseline {result.baseline}"]
    frontier = set(result.frontier)
    dominators = set(result.dominators)
    for one in result.outcomes:
        star = "*" if one.name in frontier else " "
        plus = "+" if one.name in dominators else " "
        lines.append(f"{star}{plus} {one.as_line()}")
    lines.append("")
    lines.extend(_scatter(result))
    lines.append("")
    lines.append(f"frontier ({len(result.frontier)}): "
                 + ", ".join(result.frontier))
    if result.dominators:
        lines.append(f"dominate {result.baseline} on all three objectives: "
                     + ", ".join(result.dominators))
    else:
        lines.append(f"no candidate dominates {result.baseline} "
                     "on all three objectives")
    return lines


def _render_search(result, out, chart=False) -> None:
    print("\n".join(render_search_figure(result)), file=out)


SEARCH = Experiment(
    "search", "offline Pareto policy search (extension)",
    run=lambda params, seed, index: evaluate_index(params, seed, index),
    grid={f"cand-{index:02d}": {"index": index}
          for index in range(DEFAULT_CANDIDATES)},
    merge=lambda shards: build_search_result(tuple(shards.values())),
    render=_render_search)

SEARCH_SMOKE = Experiment(
    "search-smoke", "Pareto policy search, CI-sized smoke run (extension)",
    run=lambda params, seed: run_search(params=params, seed=seed,
                                        smoke=True),
    render=_render_search)
