"""Restoring microVMs from snapshot images.

§3.4: "invoking the serverless function is nothing but loading the snapshot
as a file into memory".  The restored microVM maps every image region
MAP_PRIVATE from the image's page-cache segments, so clones share all clean
pages (Figure 4) and CoW-break only what they write.

Every clone of one materialised image is built from that image's
:class:`CloneTemplate`: the microVM shell, the clone map (one call maps the
VMM block and attaches every segment), the runtime image and the
precomputed first-execution page writes.

Four restore policies are modeled:

* ``demand``      — demand paging with a warm page cache (the common case on
                    a busy host; the paper's steady-state numbers).
* ``demand-cold`` — demand paging with a cold page cache: every working-set
                    page is a random 4 KiB disk read (REAP's observed
                    bottleneck [54]).
* ``reap``        — REAP-style working-set prefetch: one sequential read of
                    the image before resuming (§7: Fireworks "can also
                    employ REAP's prefetching").
* ``lazy``        — chunk-granular lazy loading: sequentially prefetch only
                    the *recorded* working-set chunks, demand-fault the rest
                    with per-fault cost.  Without a profile (first restore)
                    everything the invocation touches is demand-faulted —
                    the honest fastpull cold case.  Emits ``prefetch`` /
                    ``demand-fault`` child spans, and the ``restore`` span
                    carries the restore's exact byte ledger
                    (``bytes_moved_mb``, ``prefetched_mb``,
                    ``demand_faulted_mb``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict

from repro.chaos.plan import KIND_RESTORE_CORRUPTION
from repro.config import CalibratedParameters
from repro.errors import SnapshotNotFoundError, ValidationError
from repro.mem.address_space import CloneMap
from repro.mem.host_memory import HostMemory
from repro.mem.segments import SharedSegment
from repro.runtime import runtime_class
from repro.runtime.interpreter import LanguageRuntime, RuntimeImage
from repro.sandbox.base import STATE_RUNNING, first_execution_writes
from repro.sandbox.microvm import MicroVM
from repro.sandbox.worker import Worker
from repro.snapshot.image import STAGE_OS, SnapshotImage

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Simulation

POLICY_DEMAND = "demand"
POLICY_DEMAND_COLD = "demand-cold"
POLICY_REAP = "reap"
POLICY_LAZY = "lazy"

_POLICIES = (POLICY_DEMAND, POLICY_DEMAND_COLD, POLICY_REAP, POLICY_LAZY)


@dataclass(frozen=True)
class LazyRestorePlan:
    """Exact byte/latency ledger of one lazy restore.

    ``touched_mb == covered_mb + faulted_mb`` holds *exactly* (it is
    defined as that sum): every byte the invocation touches is served by
    the prefetched chunk set or by a demand fault, never both, never
    neither.  ``prefetch_mb >= covered_mb`` — chunk-granular prefetch can
    over-read by at most the rounding of the recorded set to whole chunks.
    """

    touched_mb: float     # bytes the invocation faults in, total
    prefetch_mb: float    # bytes read by the sequential chunk prefetch
    covered_mb: float     # touched bytes the prefetch satisfied
    faulted_mb: float     # touched bytes served by demand faults
    n_faults: int         # chunk-granular fault count
    prefetch_ms: float
    fault_ms: float

    @property
    def bytes_moved_mb(self) -> float:
        """Bytes actually read from the store file."""
        return self.prefetch_mb + self.faulted_mb


class CloneTemplate:
    """What every clone of one materialised image is built from.

    Only pure functions of the image and the parameters: the microVM
    shell (layout, latency table, I/O model), the clone map (the VMM MiB
    and the image's segments in ``regions_mb`` order), the runtime image
    and the plan of the first execution's page writes.  It holds no
    simulation, tracer, worker or host.  ``runtime`` is ``None`` for a
    loaded-stage image with no app, which cannot be restored.
    """

    __slots__ = ("params", "shell", "clone_map", "plan", "runtime")

    def __init__(self, image: SnapshotImage, params: CalibratedParameters,
                 segments: Dict[str, SharedSegment]) -> None:
        self.params = params
        self.shell = MicroVM.shell(params, image.language)
        layout = self.shell.layout
        self.clone_map = CloneMap(layout.vmm_overhead_mb, segments.items())
        self.plan = self.clone_map.plan(*first_execution_writes(layout))
        runtime_cls = runtime_class(image.language)
        config = params.runtime(image.language)
        if image.stage == STAGE_OS:
            # The OS-stage image has the runtime agent up, nothing loaded.
            self.runtime = RuntimeImage(runtime_cls, config, layout,
                                        LanguageRuntime.STATE_LAUNCHED)
        elif image.app is None:
            self.runtime = None
        else:
            self.runtime = RuntimeImage(runtime_cls, config, layout,
                                        LanguageRuntime.STATE_LOADED,
                                        image.app, image.jit_state)


class Restorer:
    """Builds ready-to-run workers from snapshot images."""

    def __init__(self, sim: "Simulation", params: CalibratedParameters,
                 host_memory: HostMemory, recorder=None) -> None:
        self.sim = sim
        self.params = params
        self.host_memory = host_memory
        self.recorder = recorder  # optional ReapRecorder (reap/lazy)
        # Optional chaos controller: slow-restore windows and
        # restore-corruption budgets.
        self.chaos = None
        self._clone_counter = 0

    def _working_mb(self, image: SnapshotImage) -> float:
        layout = self.params.memory_layout(image.language)
        return image.size_mb * layout.snapshot_working_set_mb_fraction

    def _profile(self, image: SnapshotImage):
        if self.recorder is None:
            return None
        return self.recorder.profile_for(image)

    def lazy_plan(self, image: SnapshotImage) -> LazyRestorePlan:
        """The byte/latency ledger a lazy restore of *image* would incur
        right now (depends on whether a working-set profile is recorded)."""
        cfg = self.params.snapshot
        touched_raw = self._working_mb(image)
        profile = self._profile(image)
        prefetch_mb = (profile.chunk_bytes_mb(image)
                       if profile is not None else 0.0)
        covered_mb = min(touched_raw, prefetch_mb)
        faulted_mb = touched_raw - covered_mb
        if faulted_mb > 0.0:
            n_faults = max(1, int(math.ceil(faulted_mb / cfg.chunk_mb
                                            - 1e-12)))
        else:
            n_faults = 0
        return LazyRestorePlan(
            touched_mb=covered_mb + faulted_mb,
            prefetch_mb=prefetch_mb,
            covered_mb=covered_mb,
            faulted_mb=faulted_mb,
            n_faults=n_faults,
            prefetch_ms=prefetch_mb * cfg.prefetch_per_mb_ms,
            fault_ms=(faulted_mb * cfg.restore_per_working_mb_cold_ms
                      + n_faults * cfg.demand_fault_chunk_ms),
        )

    def restore_ms(self, image: SnapshotImage,
                   policy: str = POLICY_DEMAND) -> float:
        """The restore latency for *image* under *policy*."""
        if policy not in _POLICIES:
            raise ValidationError(f"unknown restore policy {policy!r}")
        cfg = self.params.snapshot
        working_mb = self._working_mb(image)
        if policy == POLICY_DEMAND:
            return cfg.restore_base_ms + working_mb * cfg.restore_per_working_mb_ms
        if policy == POLICY_DEMAND_COLD:
            return (cfg.restore_base_ms
                    + working_mb * cfg.restore_per_working_mb_cold_ms)
        if policy == POLICY_LAZY:
            plan = self.lazy_plan(image)
            return cfg.restore_base_ms + plan.prefetch_ms + plan.fault_ms
        # REAP: one sequential prefetch, then cheap faults.  With a recorded
        # working-set profile only those pages are read; without one the
        # whole image is (the conservative first-invocation behaviour).
        profile = self._profile(image)
        prefetch_mb = (profile.working_set_mb if profile is not None
                       else image.size_mb)
        return (cfg.restore_base_ms
                + prefetch_mb * cfg.prefetch_per_mb_ms
                + working_mb * cfg.restore_per_working_mb_ms * 0.1)

    def bytes_moved_mb(self, image: SnapshotImage,
                       policy: str = POLICY_DEMAND) -> float:
        """Bytes a restore under *policy* reads from the store file now.

        ``demand`` reads nothing (warm page cache); ``demand-cold`` random-
        reads the working set; ``reap`` sequentially reads the recorded set
        or the whole image; ``lazy`` reads the recorded chunks plus demand-
        faulted residual.
        """
        if policy not in _POLICIES:
            raise ValidationError(f"unknown restore policy {policy!r}")
        if policy == POLICY_DEMAND:
            return 0.0
        if policy == POLICY_DEMAND_COLD:
            return self._working_mb(image)
        if policy == POLICY_LAZY:
            return self.lazy_plan(image).bytes_moved_mb
        profile = self._profile(image)
        return (profile.working_set_mb if profile is not None
                else image.size_mb)

    def restore(self, image: SnapshotImage, policy: str = POLICY_DEMAND,
                name: str = "", mmds=None):
        """Restore a clone of *image* (a simulation generator) -> Worker.

        With a chaos controller attached, the device-state load
        (``restore_base_ms``) is waited out on its own, then an armed
        ``restore-corruption`` fault surfaces (where Firecracker's
        integrity check runs), leaving no clone behind.  ``mmds`` is an
        optional pre-populated host-side metadata store wired into the
        clone, so identity written before the restore is readable at
        resume time (§3.4).
        """
        restore_span = self.sim.tracer.span(
            "restore", policy=policy, image=image.key, stage=image.stage,
            image_mb=image.size_mb, generation=image.generation)
        with restore_span:
            duration = self.restore_ms(image, policy)  # validates policy
            slowdown = 1.0
            base_elapsed = self.chaos is not None
            if base_elapsed:
                slowdown = self.chaos.restore_slowdown(self.sim.now)
                if slowdown != 1.0:
                    duration *= slowdown
                    restore_span.attrs["slowdown"] = slowdown
                cfg = self.params.snapshot
                yield self.sim.timeout(cfg.restore_base_ms)
                duration = max(0.0, duration - cfg.restore_base_ms)
                self.chaos.check(KIND_RESTORE_CORRUPTION, image.key)
            template = self._template_for(image)
            self._clone_counter += 1
            vm_name = name or f"{image.key}-clone-{self._clone_counter}"

            microvm = MicroVM(self.sim, self.params, self.host_memory,
                              image.language, name=vm_name, mmds=mmds,
                              shell=template.shell)
            # Snapshot clones inherit the snapshotted network identity
            # verbatim (§3.5) — the namespace/NAT layer makes that safe.
            microvm.assign_guest_addresses(image.guest_ip, image.guest_mac)
            microvm.restored_from_snapshot = True

            if policy == POLICY_LAZY:
                yield from self._lazy_load(image, restore_span, slowdown,
                                           base_elapsed)
            else:
                restore_span.attrs["bytes_moved_mb"] = self.bytes_moved_mb(
                    image, policy)
                yield self.sim.timeout(duration)

            # Map guest memory from the shared image segments, VMM state
            # fresh.
            microvm.space.map_clone(template.clone_map)
            microvm.first_execution_plan = template.plan
            microvm.state = STATE_RUNNING

            if template.runtime is None:
                raise SnapshotNotFoundError(
                    f"{image.stage} image {image.key!r} has no app recorded")
            runtime = template.runtime.restore(self.sim)
        return Worker(self.sim, microvm, runtime, app=image.app)

    def _lazy_load(self, image: SnapshotImage, restore_span,
                   slowdown: float, base_elapsed: bool):
        """The lazy-restore timeline: base (device state + mmap), then a
        sequential ``prefetch`` of the recorded chunks, then the
        ``demand-fault`` tail for the touched bytes the prefetch missed."""
        cfg = self.params.snapshot
        plan = self.lazy_plan(image)
        if not base_elapsed:
            yield self.sim.timeout(cfg.restore_base_ms * slowdown)
        if plan.prefetch_mb > 0.0:
            with self.sim.tracer.span(
                    "prefetch", kind="prefetch", mb=plan.prefetch_mb,
                    chunks=len(self._profile(image).chunks)):
                yield self.sim.timeout(plan.prefetch_ms * slowdown)
        if plan.faulted_mb > 0.0:
            with self.sim.tracer.span(
                    "demand-fault", kind="demand-fault", mb=plan.faulted_mb,
                    faults=plan.n_faults):
                yield self.sim.timeout(plan.fault_ms * slowdown)
        restore_span.attrs["bytes_moved_mb"] = plan.bytes_moved_mb
        restore_span.attrs["prefetched_mb"] = plan.prefetch_mb
        restore_span.attrs["demand_faulted_mb"] = plan.faulted_mb

    # -- internal -----------------------------------------------------------------
    def _template_for(self, image: SnapshotImage) -> CloneTemplate:
        """*image*'s clone template, built (materialising the image) the
        first time this restorer's parameters restore it."""
        template = image.template
        if template is None or template.params is not self.params:
            template = image.template = CloneTemplate(
                image, self.params, image.materialize(self.host_memory))
        return template
