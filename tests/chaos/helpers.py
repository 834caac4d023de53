"""Shared scenario builders for the chaos suite.

Every scenario is fully seeded, so a test can run it twice and assert the
two runs are byte-identical (the chaos engine's headline guarantee).  The
crash-mid-flight scenarios use a *calibration run* — the same seeded
platform with no chaos attached — to read off exactly when the target
stage happens, then schedule the crash strictly inside that window.
"""

from repro.bench import fresh_cluster_platform, install_all, invoke_once
from repro.chaos import (KIND_HOST_CRASH, ChaosEvent, ChaosPlan,
                         HostFailureController)
from repro.core import FireworksPlatform
from repro.errors import InvocationFailedError
from repro.policy.placement import POLICY_SNAPSHOT_LOCALITY
from repro.trace import render_tree
from repro.workloads import faasdom_spec
from tests.helpers import failed_tree

#: The one spec every scenario installs (its name carries the language).
SPEC = faasdom_spec("faas-netlatency", "nodejs")
FN = SPEC.name
SEED = 7


def build_fireworks(seed=SEED, n_hosts=2, policy=POLICY_SNAPSHOT_LOCALITY,
                    params=None, **kwargs):
    """A 2-host Fireworks cluster with one installed function."""
    platform = fresh_cluster_platform(FireworksPlatform, params, seed=seed,
                                      n_hosts=n_hosts, policy=policy,
                                      **kwargs)
    install_all(platform, [SPEC])
    return platform


def calibrate_stage_window(stage, seed=SEED, n_hosts=2,
                           policy=POLICY_SNAPSHOT_LOCALITY):
    """(submit_ms, stage_start_ms, stage_end_ms, host_id) for one clean
    invocation — the no-chaos timeline a crash can then be aimed into."""
    platform = build_fireworks(seed=seed, n_hosts=n_hosts, policy=policy)
    submit_ms = platform.sim.now
    record = invoke_once(platform, FN)
    span = record.span.find(stage)
    assert span is not None, f"calibration found no {stage!r} span"
    return submit_ms, span.start_ms, span.end_ms, record.host_id


def run_crash_during(stage, failover=True, seed=SEED,
                     policy=POLICY_SNAPSHOT_LOCALITY):
    """Crash the serving host midway through *stage* of one invocation.

    Returns ``(platform, controller, result)`` where *result* is the
    InvocationRecord on success or the InvocationFailedError raised.  The
    pre-crash timeline is identical to the calibration run (attaching a
    controller draws no randomness and adds no simulated time), so the
    crash lands exactly where the calibration says the stage is.
    """
    _, start_ms, end_ms, host_id = calibrate_stage_window(
        stage, seed=seed, policy=policy)
    crash_at = (start_ms + end_ms) / 2.0
    platform = build_fireworks(seed=seed, policy=policy)
    plan = ChaosPlan([ChaosEvent(crash_at, KIND_HOST_CRASH, host_id=host_id)])
    controller = HostFailureController(platform, plan, failover=failover)
    sim = platform.sim
    process = sim.process(platform.invoke(FN))
    try:
        result = sim.run(process)
    except Exception as error:  # InvocationFailedError, for callers to assert
        result = error
    sim.run()  # drain clone teardowns and chaos reclamation
    return platform, controller, result


def crash_all_hosts(platform):
    """Attach a controller whose plan kills every host right now."""
    now = platform.sim.now
    plan = ChaosPlan([ChaosEvent(now, KIND_HOST_CRASH, host_id=host.host_id)
                      for host in platform.cluster.hosts])
    controller = HostFailureController(platform, plan)
    platform.sim.run(until=now)  # zero-width step applies the crashes
    return controller


def scenario_fingerprint(platform, controller, result):
    """A byte-exact transcript of a chaos scenario, for two-run diffing."""
    lines = [f"retries={platform.retries} failovers={platform.failovers} "
             f"failed={platform.ledger.failed}"]
    if hasattr(platform, "regenerations"):
        lines.append(f"regenerations={platform.regenerations}")
    for entry in controller.log:
        lines.append(f"{entry.at_ms!r} {entry.kind} host={entry.host_id} "
                     f"{entry.detail}")
    if isinstance(result, InvocationFailedError):
        span = failed_tree(platform, result)
    else:
        span = getattr(result, "span", None)
    if span is not None:
        lines.append(render_tree(span))
    return "\n".join(lines)
