"""Restore-path experiment (extension): lazy loading + streaming transfer.

Two questions, one figure (``repro figure restore``):

1. **Restore latency and bytes-moved per backend per policy.**  Each
   (backend, policy, language) cell installs one FaaSdom function and
   invokes it repeatedly; the first restore is the *cold* row (no recorded
   working set yet), the later restores are the *warm* row (profile
   recorded by the first invocation).  Backends: ``fireworks`` (post-JIT
   snapshot, working-set recorder wired) and ``fc-snapshot`` (Firecracker
   OS-stage snapshot, no recorder — the honest recorder-less contrast:
   ``lazy`` there demand-faults everything, every time).  The headline is
   the warm ``lazy`` cell: it must move fewer bytes than whole-image
   prefetch (``reap`` with no profile) at equal-or-better latency.

2. **Streaming vs full cross-host transfer, 4 hosts.**  The same
   round-robin trace replayed with ``cluster.stream_transfers`` off and
   on: with streaming, an off-home placement becomes runnable as soon as
   the recorded working-set chunks land; the residual streams in the
   background.  The headline is time-to-runnable (end-to-end latency of
   requests that paid a transfer) dropping while total bytes moved stay
   equal — they just move off the critical path.

All latencies and byte counts come from the invocation span trees
(``restore`` / ``snapshot-transfer`` spans and their children), so the
figure measures exactly what the traces tell.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from repro.bench.experiment import Experiment
from repro.bench.harness import (fresh_cluster_platform, fresh_platform,
                                 install_all, invoke_once)
from repro.bench.serialization import register_result_type
from repro.config import CalibratedParameters, default_parameters
from repro.core.fireworks import FireworksPlatform
from repro.errors import ValidationError
from repro.platforms.firecracker import FirecrackerSnapshotPlatform
from repro.policy.placement import POLICY_ROUND_ROBIN
from repro.snapshot.restorer import (POLICY_DEMAND, POLICY_DEMAND_COLD,
                                     POLICY_LAZY, POLICY_REAP)
from repro.workloads.faasdom import faasdom_spec

#: (backend, policy, language) cells of the per-policy half of the figure.
#: fireworks runs every policy on both paper languages; fc-snapshot (no
#: working-set recorder) contributes the recorder-less demand/lazy rows.
RESTORE_CELLS: Tuple[Tuple[str, str, str], ...] = tuple(
    [("fireworks", policy, language)
     for language in ("nodejs", "python")
     for policy in (POLICY_DEMAND, POLICY_DEMAND_COLD,
                    POLICY_REAP, POLICY_LAZY)]
    + [("fc-snapshot", POLICY_DEMAND, "nodejs"),
       ("fc-snapshot", POLICY_LAZY, "nodejs")])

#: Transfer modes of the streaming half.
STREAM_MODES: Tuple[str, ...] = ("full", "streaming")

#: Restores measured per cell: 1 cold + the rest warm (profile recorded).
WARM_RESTORES = 4

#: Round-robin invocations of the 4-host streaming trace.
STREAM_REQUESTS = 12
STREAM_HOSTS = 4


@register_result_type
@dataclasses.dataclass(frozen=True)
class RestorePolicyOutcome:
    """One (backend, policy, language) cell of the restore figure."""

    backend: str
    policy: str
    language: str
    image_mb: float
    cold_restore_ms: float       # first restore: no working set recorded
    warm_restore_ms: float       # mean of the profile-guided restores
    cold_bytes_mb: float         # bytes read from the store file, cold
    warm_bytes_mb: float         # bytes read from the store file, warm
    warm_prefetched_mb: float    # lazy only: sequential chunk prefetch
    warm_demand_faulted_mb: float  # lazy only: demand-faulted residual

    def as_line(self) -> str:
        """One-line summary for the bench output."""
        return (f"{self.backend:<12} {self.policy:<12} {self.language:<7} "
                f"image={self.image_mb:6.1f}MiB "
                f"cold={self.cold_restore_ms:7.2f}ms/"
                f"{self.cold_bytes_mb:6.1f}MiB "
                f"warm={self.warm_restore_ms:7.2f}ms/"
                f"{self.warm_bytes_mb:6.1f}MiB "
                f"(prefetch={self.warm_prefetched_mb:5.1f} "
                f"fault={self.warm_demand_faulted_mb:5.1f})")


@register_result_type
@dataclasses.dataclass(frozen=True)
class StreamingOutcome:
    """One transfer mode of the 4-host streaming comparison."""

    mode: str
    n_hosts: int
    requests: int
    transfers: int               # cross-host transfers paid
    streamed_transfers: int      # of which streamed the working set first
    mean_transfer_ms: float      # mean snapshot-transfer span duration
    mean_off_home_total_ms: float  # end-to-end latency of transfer-paying
    #                                requests: the time-to-runnable headline
    max_off_home_total_ms: float
    foreground_mb: float         # bytes moved on the critical path
    background_mb: float         # bytes streamed behind it
    stores_complete: bool        # every replica fully resident after drain

    def as_line(self) -> str:
        """One-line summary for the bench output."""
        return (f"{self.mode:<10} hosts={self.n_hosts} "
                f"req={self.requests:3d} transfers={self.transfers} "
                f"(streamed={self.streamed_transfers}) "
                f"xfer={self.mean_transfer_ms:7.2f}ms "
                f"off-home={self.mean_off_home_total_ms:7.2f}ms "
                f"(max={self.max_off_home_total_ms:7.2f}) "
                f"fg={self.foreground_mb:6.1f}MiB "
                f"bg={self.background_mb:6.1f}MiB "
                f"complete={self.stores_complete}")


def _restore_span_of(record):
    span = record.span.find("restore")
    if span is None:
        raise ValidationError(
            f"invocation {record.trace_id} has no restore span")
    return span


def run_restore_policy(backend: str, policy: str, language: str,
                       params: Optional[CalibratedParameters] = None,
                       seed: int = 2022) -> RestorePolicyOutcome:
    """Measure one (backend, policy, language) cell from its span trees."""
    resolved = params or default_parameters()
    if backend == "fireworks":
        platform = fresh_platform(FireworksPlatform, resolved, seed=seed,
                                  restore_policy=policy)
    elif backend == "fc-snapshot":
        platform = fresh_platform(FirecrackerSnapshotPlatform, resolved,
                                  seed=seed, restore_policy=policy)
    else:
        raise ValidationError(f"unknown restore backend {backend!r}")
    spec = faasdom_spec("faas-fact", language)
    install_all(platform, [spec])

    spans = []
    for _ in range(1 + WARM_RESTORES):
        record = invoke_once(platform, spec.name)
        spans.append(_restore_span_of(record))

    cold, warm = spans[0], spans[1:]
    warm_lazy = [s for s in warm if s.attrs.get("prefetched_mb") is not None]
    return RestorePolicyOutcome(
        backend=backend,
        policy=policy,
        language=language,
        image_mb=cold.attrs["image_mb"],
        cold_restore_ms=cold.duration_ms,
        warm_restore_ms=sum(s.duration_ms for s in warm) / len(warm),
        cold_bytes_mb=cold.attrs["bytes_moved_mb"],
        warm_bytes_mb=(sum(s.attrs["bytes_moved_mb"] for s in warm)
                       / len(warm)),
        warm_prefetched_mb=(sum(s.attrs["prefetched_mb"] for s in warm_lazy)
                            / len(warm_lazy) if warm_lazy else 0.0),
        warm_demand_faulted_mb=(
            sum(s.attrs["demand_faulted_mb"] for s in warm_lazy)
            / len(warm_lazy) if warm_lazy else 0.0),
    )


def run_streaming_transfer(mode: str,
                           params: Optional[CalibratedParameters] = None,
                           seed: int = 2022) -> StreamingOutcome:
    """Replay a round-robin 4-host trace under one transfer *mode*."""
    if mode not in STREAM_MODES:
        raise ValidationError(f"unknown transfer mode {mode!r}")
    resolved = params or default_parameters()
    tuned = dataclasses.replace(
        resolved, cluster=dataclasses.replace(
            resolved.cluster, stream_transfers=(mode == "streaming")))
    platform = fresh_cluster_platform(
        FireworksPlatform, tuned, seed=seed, n_hosts=STREAM_HOSTS,
        policy=POLICY_ROUND_ROBIN, restore_policy=POLICY_LAZY)
    spec = faasdom_spec("faas-fact", "nodejs")
    install_all(platform, [spec])

    transfer_ms: List[float] = []
    off_home_totals: List[float] = []
    for _ in range(STREAM_REQUESTS):
        record = invoke_once(platform, spec.name)
        transfers = record.span.find_all("snapshot-transfer")
        if transfers:
            transfer_ms.extend(s.duration_ms for s in transfers)
            off_home_totals.append(record.total_ms)
    # Let background residual streams finish, then audit residency.
    platform.sim.run()
    stores_complete = all(
        host.store.is_complete(spec.name)
        for host in platform.cluster.hosts
        if host.store.contains(spec.name))

    return StreamingOutcome(
        mode=mode,
        n_hosts=STREAM_HOSTS,
        requests=STREAM_REQUESTS,
        transfers=platform.cross_host_transfers,
        streamed_transfers=platform.streamed_transfers,
        mean_transfer_ms=(sum(transfer_ms) / len(transfer_ms)
                          if transfer_ms else 0.0),
        mean_off_home_total_ms=(sum(off_home_totals) / len(off_home_totals)
                                if off_home_totals else 0.0),
        max_off_home_total_ms=max(off_home_totals) if off_home_totals
        else 0.0,
        foreground_mb=platform.transfer_foreground_mb,
        background_mb=platform.transfer_background_mb,
        stores_complete=stores_complete,
    )


def render_restore_figure(results: Dict[str, object]) -> List[str]:
    """The figure as printable lines (CLI + smoke-diff friendly)."""
    lines = ["restore latency / bytes moved per backend per policy "
             f"({WARM_RESTORES} warm restores per cell):"]
    for backend, policy, language in RESTORE_CELLS:
        lines.append("  " + results[f"{backend}@{policy}@{language}"]
                     .as_line())
    lines.append("")
    lines.append(f"cross-host transfer, {STREAM_HOSTS} hosts, round-robin, "
                 "lazy restore:")
    for mode in STREAM_MODES:
        lines.append("  " + results[f"stream@{mode}"].as_line())
    return lines


def _run_restore_shard(params, seed, backend=None, policy=None,
                       language=None, mode=None):
    """One cell of the figure: a stream mode, or a restore-policy cell."""
    if mode is not None:
        return run_streaming_transfer(mode, params=params, seed=seed)
    return run_restore_policy(backend, policy, language, params=params,
                              seed=seed)


RESTORE = Experiment(
    "restore", "lazy restore + streaming transfer (extension)",
    run=_run_restore_shard,
    grid={**{f"{backend}@{policy}@{language}":
             {"backend": backend, "policy": policy, "language": language}
             for backend, policy, language in RESTORE_CELLS},
          **{f"stream@{mode}": {"mode": mode} for mode in STREAM_MODES}},
    render=lambda result, out, chart=False: print(
        "\n".join(render_restore_figure(result)), file=out))
