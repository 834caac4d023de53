"""Calibrated parameters for the Fireworks reproduction.

Every latency and memory constant used by the simulated substrate lives here,
as a named dataclass field with a comment tying it to the paper observation it
serves.  The defaults are calibrated so the *shape* of every figure in §5 of
the paper holds: who wins, by roughly what factor, and where crossovers fall.
Absolute values are in milliseconds (time) and mebibytes (memory).

Calibration targets (paper §5) and the arithmetic behind the defaults:

* Fig 6(a): Fireworks cold start up to 133x faster than Firecracker (Node).
  Firecracker cold = create 300 + guest boot 1400 + node launch 250 +
  app load 250 = 2200 ms; Fireworks = snapshot restore ~14 + netns 1.6 +
  MMDS 0.3 + Kafka param fetch 2.8 ~= 19 ms -> ~115x.
* Fig 6(a): execution 38% faster cold — V8 tiers up after ~8000 units, so
  faas-fact (27000 units) runs ~30% of its work interpreted plus the
  TurboFan compile, while Fireworks runs fully optimized.
* Fig 7(a)/(b): Python execution 20x/80x faster — stock CPython never JITs;
  the per-workload Numba speedup is 20 (fact) / 80 (matmul, vectorizable).
* Fig 10: 565 vs 337 microVMs before swapping on a 128 GB host at
  swappiness 60 (threshold 76.8 GB).  Firecracker VM under sustained load:
  170 guest + 8 VMM + 55 anon growth ~= 233 MiB -> 337 VMs.  Fireworks VM:
  8 VMM + 45% of the guest CoW-broken (~77) + 55 anon ~= 139 MiB -> ~565.
* Fig 11: +OS snapshot helps compute ~2-3x and netlatency ~6-8x; +post-JIT
  dominates for Python (CPython never JITs on its own).
* Fig 12: OS snapshot shares kernel+runtime; Node post-JIT also shares
  app/heap/JIT code (V8 allocates lazily); Python post-JIT gains ~nothing
  because Numba's MCJIT-duplicated code pages get relocated (dirtied).
* §5.1: post-JIT snapshot creation 0.36-0.47 s — 120 ms base + 1.6 ms/MiB
  over a ~170 MiB image ~= 0.39 s.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import Dict

PAGE_KB = 4
"""Guest/host page size in KiB, as on the paper's x86-64 testbed."""


# ---------------------------------------------------------------------------
# Host
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class HostConfig:
    """The evaluation server (paper §5.1): Xeon 8180, 128 GB RAM, 2 TB SSD."""

    cores: int = 64
    dram_mb: int = 131072              # 128 GB
    disk_gb: int = 2048                # 2 TB SSD
    swappiness_threshold: float = 0.60  # paper: vm.swappiness=60; swapping
    #                                     observed once ~60% of DRAM is used


# ---------------------------------------------------------------------------
# MicroVM / sandbox shapes
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class MicroVMConfig:
    """Per-sandbox shape (paper §5.1: 1 vCPU, 512 MB memory, 2 GB disk);
    only the memory size is modeled."""

    mem_mb: int = 512


@dataclass(frozen=True)
class SandboxLatency:
    """Lifecycle and I/O path costs for one sandbox mechanism (ms)."""

    create_ms: float          # allocate the sandbox shell (VMM/containerd)
    os_boot_ms: float         # guest kernel boot (0 for containers)
    init_ms: float            # platform-side init (auth, cgroups, ...)
    pause_ms: float           # pause a running sandbox (warm pool)
    resume_paused_ms: float   # resume a paused sandbox (warm start)
    teardown_ms: float
    disk_io_base_ms: float    # per-I/O fixed cost through this sandbox's path
    disk_io_per_kb_ms: float  # per-KiB transfer cost
    net_rtt_ms: float         # in-host request/response network cost
    syscall_overhead_ms: float = 0.0  # per-I/O interception (gVisor Sentry/Gofer)


# Calibration notes per mechanism:
#  * microVM (Firecracker): slowest cold boot (paper Fig 6: "Firecracker shows
#    the slowest cold start-up"), virtio-blk I/O slower than host-fs
#    containers but much faster than gVisor.
#  * container (OpenWhisk/Docker): fast create, heavy platform init on cold
#    start (paper: authentication and message-queue initialization), fastest
#    disk I/O (OverlayFS straight to the host filesystem).
#  * gvisor: container create plus Sentry/Gofer costs; slowest I/O path
#    (paper Fig 6(c): gVisor shows the slowest I/O performance).
MICROVM_LATENCY = SandboxLatency(
    create_ms=300.0,
    os_boot_ms=1400.0,
    init_ms=0.0,
    pause_ms=8.0,
    resume_paused_ms=68.0,
    teardown_ms=30.0,
    disk_io_base_ms=0.45,
    disk_io_per_kb_ms=0.010,
    net_rtt_ms=1.2,
)

CONTAINER_LATENCY = SandboxLatency(
    create_ms=380.0,
    os_boot_ms=0.0,
    init_ms=520.0,      # OpenWhisk cold: authentication + queue init (§5.2.1)
    pause_ms=4.0,
    resume_paused_ms=12.0,
    teardown_ms=20.0,
    disk_io_base_ms=0.18,
    disk_io_per_kb_ms=0.004,
    net_rtt_ms=0.8,
)

GVISOR_LATENCY = SandboxLatency(
    create_ms=600.0,
    os_boot_ms=0.0,
    init_ms=700.0,
    pause_ms=6.0,
    resume_paused_ms=55.0,
    teardown_ms=25.0,
    disk_io_base_ms=0.45,
    disk_io_per_kb_ms=0.012,
    net_rtt_ms=1.6,
    syscall_overhead_ms=4.2,   # Sentry seccomp trap + Gofer 9p round trip
)

ISOLATE_LATENCY = SandboxLatency(
    # Cloudflare-Workers-style V8 isolate: no sandbox boot at all.  Used only
    # for the Table 1 design-comparison bench.
    create_ms=5.0,
    os_boot_ms=0.0,
    init_ms=1.0,
    pause_ms=0.1,
    resume_paused_ms=0.5,
    teardown_ms=0.5,
    disk_io_base_ms=0.18,
    disk_io_per_kb_ms=0.004,
    net_rtt_ms=0.5,
)


# ---------------------------------------------------------------------------
# Language runtimes
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class RuntimeConfig:
    """Latency/JIT model for one language runtime."""

    name: str
    launch_ms: float            # start the runtime process inside the sandbox
    app_load_base_ms: float     # import/require the function + dependencies
    interp_units_per_ms: float  # interpreter throughput, abstract units/ms
    jit_compile_ms_per_kunit: float  # JIT compile cost per 1000 units of code
    hotness_threshold_units: float   # units executed before tier-up fires
    deopt_penalty_ms: float     # cost of one de-optimization (re-enter interp)
    has_runtime_jit: bool       # does the runtime tier up by itself (V8: yes,
    #                             stock CPython: no — paper §5.5.1)
    annotation_jit: bool        # can Fireworks force JIT via annotation
    #                             (Numba @jit / V8 prepare hooks)


NODEJS_RUNTIME = RuntimeConfig(
    name="nodejs",
    launch_ms=250.0,            # node binary + V8 init (Node v12.18.3)
    app_load_base_ms=250.0,     # require() of handler + npm deps (§5.1: npm
    #                             packages dominate Node install time)
    interp_units_per_ms=18.0,   # Ignition bytecode interpreter
    jit_compile_ms_per_kunit=9.0,   # TurboFan optimizing compile
    hotness_threshold_units=8000.0,  # I/O-light functions tier up mid-run;
    #                                  I/O-heavy ones never reach it (§5.5.1)
    deopt_penalty_ms=1.2,
    has_runtime_jit=True,
    annotation_jit=True,
)

DOTNET_RUNTIME = RuntimeConfig(
    # C#/.NET with Ahead-Of-Time compilation (§3.1 compares post-JIT to
    # AOT; §7: AWS supports JIT only for pre-provisioned C#).  AOT code is
    # machine code from the start: no interpreter tier, no runtime JIT —
    # but the CLR launch and assembly load are heavier than node/python.
    name="dotnet",
    launch_ms=320.0,            # CLR + trimmed runtime start
    app_load_base_ms=110.0,     # AOT-compiled assembly load
    interp_units_per_ms=54.0,   # machine code throughput (= V8's top tier)
    jit_compile_ms_per_kunit=0.0,    # compilation happened at build time
    hotness_threshold_units=0.0,     # everything is already compiled
    deopt_penalty_ms=0.0,
    has_runtime_jit=False,
    annotation_jit=False,       # nothing to annotate: AOT shares no code
)

PYTHON_RUNTIME = RuntimeConfig(
    name="python",
    launch_ms=120.0,            # CPython 3.8.5 startup
    app_load_base_ms=80.0,      # import of handler + site-packages
    interp_units_per_ms=3.2,    # CPython bytecode loop (no JIT, ever)
    jit_compile_ms_per_kunit=45.0,  # Numba/LLVM MCJIT compile (install time)
    hotness_threshold_units=float("inf"),  # stock CPython never tiers up
    deopt_penalty_ms=2.0,
    has_runtime_jit=False,
    annotation_jit=True,        # Numba @jit(cache=True)
)


# ---------------------------------------------------------------------------
# Guest memory layout (MiB per region), per language
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class GuestMemoryLayout:
    """Resident region sizes after each boot stage, in MiB.

    The paper reports an average serverless sandbox of ~170 MB (§5.1 fn 1);
    the post-boot totals below land there.  ``jit_code_mb`` captures the
    paper's Fig 12 asymmetry: V8 allocates JIT state lazily and compactly
    (the "lighter V8" work [55]), while Numba duplicates JITted functions per
    module (an LLVM MCJIT restriction [35]), inflating the Python JIT region.
    """

    kernel_mb: int              # guest kernel + OS services
    runtime_mb: int             # language runtime binary + shared libs
    app_mb: int                 # function code + dependency packages
    heap_after_load_mb: int     # runtime heap right after app load
    jit_code_mb: int            # JITted machine code + compiler metadata
    # Fractions of each region that one invocation dirties (CoW-breaks).
    exec_dirty_heap_fraction: float
    exec_dirty_jit_fraction: float
    exec_dirty_text_fraction: float  # kernel/runtime/app writable-data churn
    exec_extra_anon_mb: int     # fresh anonymous allocations per invocation
    # Sustained load (Fig 10): GC churn keeps touching pages; these are the
    # steady-state dirty fraction of the whole guest image and the
    # steady-state anonymous growth beyond it.
    steady_state_dirty_fraction: float
    steady_state_extra_anon_mb: int
    vmm_overhead_mb: int        # host-side VMM/shim per-sandbox overhead
    snapshot_working_set_mb_fraction: float  # pages demand-faulted before
    #                                          first useful work on restore

    @property
    def guest_total_mb(self) -> int:
        """Resident guest size after load+JIT (the snapshot image size)."""
        return (self.kernel_mb + self.runtime_mb + self.app_mb
                + self.heap_after_load_mb + self.jit_code_mb)


NODEJS_MEMORY = GuestMemoryLayout(
    kernel_mb=60,
    runtime_mb=55,
    app_mb=25,
    heap_after_load_mb=20,
    jit_code_mb=10,             # V8-lite style lazy JIT state (paper [55])
    exec_dirty_heap_fraction=0.40,
    exec_dirty_jit_fraction=0.10,
    exec_dirty_text_fraction=0.04,
    exec_extra_anon_mb=6,
    steady_state_dirty_fraction=0.33,
    steady_state_extra_anon_mb=55,
    vmm_overhead_mb=8,          # Firecracker VMM is a few MiB per microVM
    snapshot_working_set_mb_fraction=0.15,
)

DOTNET_MEMORY = GuestMemoryLayout(
    kernel_mb=60,
    runtime_mb=70,              # CLR + trimmed base class libraries
    app_mb=18,                  # AOT binary: machine code is larger than IL
    heap_after_load_mb=22,
    jit_code_mb=0,              # no JIT at run time — code is in `app`
    exec_dirty_heap_fraction=0.45,
    exec_dirty_jit_fraction=0.0,
    exec_dirty_text_fraction=0.04,
    exec_extra_anon_mb=6,
    steady_state_dirty_fraction=0.33,
    steady_state_extra_anon_mb=55,
    vmm_overhead_mb=8,
    snapshot_working_set_mb_fraction=0.20,
)

PYTHON_MEMORY = GuestMemoryLayout(
    kernel_mb=60,
    runtime_mb=35,
    app_mb=10,
    heap_after_load_mb=25,
    jit_code_mb=42,             # Numba duplicates JITted code per module [35]
    exec_dirty_heap_fraction=0.60,
    exec_dirty_jit_fraction=0.60,  # MCJIT relocations touch the code pages
    exec_dirty_text_fraction=0.05,
    exec_extra_anon_mb=6,
    steady_state_dirty_fraction=0.33,
    steady_state_extra_anon_mb=55,
    vmm_overhead_mb=8,
    snapshot_working_set_mb_fraction=0.45,
)


# ---------------------------------------------------------------------------
# Snapshot machinery
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SnapshotConfig:
    """Costs of creating/restoring VM-level snapshots (Firecracker API)."""

    create_base_ms: float = 120.0      # serialize device state, open file
    create_per_mb_ms: float = 1.6      # write guest memory to the image file
    #                                    (~170 MiB image -> ~0.39 s, §5.1)
    restore_base_ms: float = 6.0       # mmap image, restore device state
    restore_per_working_mb_ms: float = 0.30  # demand-page the working set
    #                                    (warm page cache)
    restore_per_working_mb_cold_ms: float = 2.2  # cold cache: random 4 KiB
    #                                    reads from disk (REAP's bottleneck)
    prefetch_per_mb_ms: float = 0.09   # REAP-style sequential prefetch rate
    store_capacity_images: int = 1024  # snapshot store LRU capacity (§6)
    # Lazy restore (POLICY_LAZY, repro.snapshot.chunks).  Only the lazy
    # policy reads these, so defaults leave every other figure untouched.
    chunk_mb: float = 2.0              # lazy-loading chunk granularity
    demand_fault_chunk_ms: float = 0.12  # per-chunk fault trap + request


# ---------------------------------------------------------------------------
# Fireworks control-plane costs
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class FireworksConfig:
    """Per-invocation control-plane costs specific to Fireworks (§3.4-3.6)."""

    netns_setup_ms: float = 1.6     # create netns + tap + NAT rules (§3.5)
    mmds_write_ms: float = 0.3      # push microVM ID metadata (§3.5)
    param_publish_ms: float = 0.4   # produce arguments to the Kafka topic
    param_fetch_ms: float = 2.8     # kafkacat consume inside the guest (§3.6)
    annotate_ms_per_function: float = 35.0  # source transform at install time


# ---------------------------------------------------------------------------
# Cluster of hosts (Figure 1's backend servers)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ClusterConfig:
    """Cross-host control-plane costs for multi-host placement.

    The controller relays each request "to one of the backend servers"
    (Figure 1); when the chosen host does not hold the function's snapshot
    image, the image is copied from a host that does before the restore —
    the cost the ``snapshot-locality`` placement policy exists to avoid.

    The ``retry_*`` knobs bound the control plane's failover loop
    (:mod:`repro.chaos`): a retryable infrastructure failure (host crash,
    bus partition) is retried up to ``retry_max_attempts`` times with
    exponential backoff ``min(cap, base * factor**(attempt-1))``, jittered
    by up to ``retry_jitter_frac`` from a dedicated seeded RNG stream so
    the delays are deterministic per root seed.
    """

    snapshot_transfer_base_ms: float = 4.0   # connection setup + image metadata
    snapshot_transfer_per_mb_ms: float = 0.8  # ~10 GbE effective goodput
    #                                           (~170 MiB image -> ~140 ms)
    stream_transfers: bool = False           # stream the recorded working set
    #                                          first, residual chunks in the
    #                                          background (off by default so
    #                                          existing figures stay
    #                                          byte-identical)
    retry_max_attempts: int = 3              # total tries per invocation
    retry_base_ms: float = 2.0               # first backoff delay
    retry_backoff_factor: float = 2.0        # exponential growth per retry
    retry_cap_ms: float = 250.0              # backoff ceiling
    retry_jitter_frac: float = 0.1           # +/- fraction of the delay


# ---------------------------------------------------------------------------
# Platform control planes (baselines)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ControlPlaneConfig:
    """Shared frontend/controller costs for all platforms (Figure 1)."""

    gateway_route_ms: float = 1.0       # API gateway relays the request
    controller_dispatch_ms: float = 1.5  # controller -> message bus -> invoker
    bus_publish_ms: float = 0.4
    warm_keepalive_ms: float = 600000.0  # keep idle sandboxes 10 min (AWS-like)
    openwhisk_warm_route_ms: float = 55.0  # OpenWhisk warm path: controller
    #                                        -> Kafka -> invoker -> container
    #                                        bookkeeping (activation records)


# ---------------------------------------------------------------------------
# Serving layer: admission control + warm-pool autoscaling
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class AutoscaleConfig:
    """Heavy-traffic serving layer (:mod:`repro.autoscale`).

    ``enabled=False`` (the default) keeps the invoke path byte-identical to
    the pre-serving-layer behaviour: no admission spans, no queue events,
    no extra RNG draws.  When enabled, each :class:`~repro.cluster.Host`
    gets a bounded FIFO admission queue ahead of its capacity gate, and a
    :class:`~repro.autoscale.WarmPoolAutoscaler` may pre-provision warm
    workers per host.

    The shed policy rejects a request with
    :class:`~repro.errors.InvocationSheddedError` when the queue is full
    on arrival (``queue-full``) or when it has waited longer than
    ``max_queue_wait_ms`` (``wait-budget``) — a 429, not a failure.
    """

    enabled: bool = False
    queue_capacity: int = 16           # per-host admission queue depth
    max_queue_wait_ms: float = 2000.0  # wait budget before shedding (0 = none)
    scale_interval_ms: float = 2000.0  # autoscaler control-loop period
    reactive_queue_threshold: int = 1  # queue depth that triggers scale-up
    reactive_step: int = 1             # target increment per pressured tick
    #                                    (reactive policy ramp rate)
    reactive_hold_ticks: int = 6       # scale-down hysteresis: pressure-free
    #                                    ticks before a reactive target drops
    #                                    (HPA-style stabilization window —
    #                                    12 s here vs HPA's 5 min default)
    predictive_horizon_ms: float = 4000.0  # pre-provision when the next
    #                                        arrival is predicted this soon
    predictive_gap_quantile: float = 0.5   # gap percentile used as the
    #                                        next-arrival estimate
    max_warm_per_function: int = 2     # per-host cap on pooled warm workers
    warm_expiry_ms: float = 30000.0    # TTL of autoscaler-provisioned workers


# ---------------------------------------------------------------------------
# Bundle
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class CalibratedParameters:
    """Everything the simulated substrate needs, in one immutable bundle."""

    host: HostConfig = field(default_factory=HostConfig)
    microvm: MicroVMConfig = field(default_factory=MicroVMConfig)
    sandbox_latency: Dict[str, SandboxLatency] = field(default_factory=lambda: {
        "microvm": MICROVM_LATENCY,
        "container": CONTAINER_LATENCY,
        "gvisor": GVISOR_LATENCY,
        "isolate": ISOLATE_LATENCY,
    })
    runtimes: Dict[str, RuntimeConfig] = field(default_factory=lambda: {
        "nodejs": NODEJS_RUNTIME,
        "python": PYTHON_RUNTIME,
        "dotnet": DOTNET_RUNTIME,
    })
    memory_layouts: Dict[str, GuestMemoryLayout] = field(default_factory=lambda: {
        "nodejs": NODEJS_MEMORY,
        "python": PYTHON_MEMORY,
        "dotnet": DOTNET_MEMORY,
    })
    snapshot: SnapshotConfig = field(default_factory=SnapshotConfig)
    fireworks: FireworksConfig = field(default_factory=FireworksConfig)
    control_plane: ControlPlaneConfig = field(default_factory=ControlPlaneConfig)
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    autoscale: AutoscaleConfig = field(default_factory=AutoscaleConfig)

    def runtime(self, language: str) -> RuntimeConfig:
        """Runtime config for *language*; raises KeyError for unknown ones."""
        return self.runtimes[language]

    def memory_layout(self, language: str) -> GuestMemoryLayout:
        """Guest memory layout for *language*."""
        return self.memory_layouts[language]

    def latency(self, mechanism: str) -> SandboxLatency:
        """Sandbox latency table for *mechanism*."""
        return self.sandbox_latency[mechanism]

    def with_overrides(self, **kwargs: object) -> "CalibratedParameters":
        """A copy with top-level fields replaced (for ablation benches)."""
        return replace(self, **kwargs)


def default_parameters() -> CalibratedParameters:
    """The calibrated defaults used by all experiments."""
    return CalibratedParameters()


# ---------------------------------------------------------------------------
# Canonical hashing (content-addressed result caching)
# ---------------------------------------------------------------------------
def canonical_jsonable(obj: object) -> object:
    """A JSON-ready form of *obj* with a canonical field/key order.

    Dataclasses become ``{"__dataclass__": <class name>, <field>: ...}`` in
    declaration order; dict keys are emitted sorted.  Two parameter bundles
    canonicalize identically iff every calibrated constant matches, so the
    result is a stable cache-key ingredient across processes and sessions
    (``PYTHONHASHSEED`` does not leak in).
    """
    if is_dataclass(obj) and not isinstance(obj, type):
        out: Dict[str, object] = {"__dataclass__": type(obj).__name__}
        for f in fields(obj):
            out[f.name] = canonical_jsonable(getattr(obj, f.name))
        return out
    if isinstance(obj, dict):
        return {str(key): canonical_jsonable(obj[key])
                for key in sorted(obj, key=str)}
    if isinstance(obj, (list, tuple)):
        return [canonical_jsonable(item) for item in obj]
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        # repr() is the shortest round-trip form; json.dumps uses it too,
        # but going through it here keeps inf/nan printable.
        return repr(obj)
    raise TypeError(f"cannot canonicalize {type(obj).__name__}: {obj!r}")


def params_fingerprint(params: CalibratedParameters) -> str:
    """A short content hash of every calibrated constant in *params*.

    Experiment results are memoizable exactly when the calibration they ran
    under is identical; this fingerprint is the cache-key component that
    enforces it.
    """
    canonical = json.dumps(canonical_jsonable(params), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
