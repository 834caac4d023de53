"""The per-layer ledger: fold a cProfile of one workload body into the
repository's layers, and read per-layer counts and times from it.

A layer is a subpackage of ``repro`` (``repro/sim/...`` -> ``sim``), or one
of its top-level modules named in :data:`LAYERS` (``repro/metrics.py`` ->
``metrics``).  The rest of the package folds into ``repro``, the
benchmark's own probes into ``perf`` and everything else (stdlib, numpy,
built-ins) into ``other``, so the layers' self times add up to the
profile's total.
"""

from __future__ import annotations

import os
import pstats
from typing import Callable, Dict, Iterable, Tuple

LAYERS = ("sim", "trace", "mem", "platforms", "snapshot", "core", "runtime",
          "sandbox", "net", "cluster", "autoscale", "policy", "storage",
          "workloads", "bench", "metrics", "chaos", "db", "host", "config",
          "repro", "perf", "other")

#: pstats key: (file, first line, function name).
FunctionKey = Tuple[str, int, str]


def layer_of(filename: str, package_dir: str, perf_dir: str) -> str:
    """The layer a function defined in *filename* belongs to."""
    for root, layer in ((package_dir, None), (perf_dir, "perf")):
        prefix = os.path.join(root, "")
        if filename.startswith(prefix):
            if layer is not None:
                return layer
            head = filename[len(prefix):].split(os.sep, 1)[0]
            name = head[:-3] if head.endswith(".py") else head
            return name if name in LAYERS else "repro"
    return "other"


def fold(stats: Dict, package_dir: str, perf_dir: str) -> Dict[str, float]:
    """Self time (``tottime``) per layer, in seconds, from a pstats dict."""
    totals = dict.fromkeys(LAYERS, 0.0)
    for (filename, _line, _name), (_cc, _nc, tottime, _ct, _callers) \
            in stats.items():
        totals[layer_of(filename, package_dir, perf_dir)] += tottime
    return totals


def function_key(function: Callable) -> FunctionKey:
    """The pstats key of a plain Python function."""
    code = function.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def _calls(stats: Dict, functions: Iterable[Callable]) -> int:
    return sum(stats.get(function_key(one), (0, 0))[1] for one in functions)


def _cumulative(stats: Dict, functions: Iterable[Callable]) -> float:
    return sum(stats.get(function_key(one), (0, 0, 0.0, 0.0))[3]
               for one in functions)


def _overrides(base: type, method: str):
    """*method* as defined on *base* and on every subclass overriding it."""
    seen, pending = [], [base]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if method in cls.__dict__:
            seen.append(cls.__dict__[method])
    return seen


def layer_metrics(profile_stats: pstats.Stats) -> Dict[str, float]:
    """Every per-layer value a profile gives, keyed by metric name."""
    import repro
    from repro.bench.engine import ResultCache
    from repro.bench.serialization import (decode_result, dumps_result,
                                           encode_result, loads_result)
    from repro.policy import dsl
    from repro.policy.autoscale import AutoscalePolicy
    from repro.policy.placement import PlacementPolicy
    from repro.trace.tracer import Tracer
    from repro.trace.verify import verify_invocation, verify_records

    stats = profile_stats.stats
    package_dir = os.path.dirname(repro.__file__)
    perf_dir = os.path.dirname(os.path.abspath(__file__))
    metrics = {f"{layer}.self_s": seconds for layer, seconds
               in fold(stats, package_dir, perf_dir).items()}
    metrics["profile.total_s"] = sum(entry[2] for entry in stats.values())
    metrics["trace.spans"] = _calls(stats, (Tracer.span, Tracer.add_span))
    # verify_invocation's cumulative time already covers the calls
    # verify_records makes; add only verify_records' own time.
    verify_records_key = function_key(verify_records)
    metrics["trace.verify_s"] = (
        _cumulative(stats, (verify_invocation,))
        + stats.get(verify_records_key, (0, 0, 0.0))[2])
    metrics["policy.decisions"] = _calls(
        stats, _overrides(PlacementPolicy, "select")
        + _overrides(AutoscalePolicy, "decide"))
    metrics["policy.dsl_s"] = sum(
        entry[2] for key, entry in stats.items()
        if key[0] == dsl.__file__)
    metrics["bench.encode_s"] = _cumulative(stats,
                                            (encode_result, dumps_result))
    metrics["bench.decode_s"] = _cumulative(stats,
                                            (decode_result, loads_result))
    metrics["bench.cache_store_s"] = _cumulative(stats, (ResultCache.store,))
    metrics["bench.cache_load_s"] = _cumulative(stats, (ResultCache.load,))
    return metrics
