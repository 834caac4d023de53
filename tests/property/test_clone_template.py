"""Differential property tests: clones built from a template vs per clone.

Every clone of a materialised snapshot image is built from the image's
``CloneTemplate``: the microVM shell, one ``map_clone`` call, a copy of
the ``RuntimeImage`` and a precomputed first-execution ``WritePlan``.  The
oracle is the path that built each clone from scratch
(``tests/helpers.py``: ``oracle_restore``).  Two worlds, one restoring
through the template and one through the oracle, run the same random
script: Node.js and Python images at the OS, post-load and post-JIT
stages, restored under every policy, several clones per image with
interleaved first executions and steady-state writes, clones written
before their first execution, regeneration, transfer, eviction and
re-materialisation, chaos restore corruption, and hosts small enough to
run out of memory part-way.  After every step both worlds must agree on
the step's outcome (an error included), each clone's regions with their
RSS, PSS and USS pages, its runtime and JIT state, the host's used and
peak pages, every segment's mappers and dirty pages, and the span trees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import HostConfig, default_parameters
from repro.errors import SnapshotCorruptedError
from repro.mem.host_memory import HostMemory
from repro.net.address import IpAddress, MacAddress
from repro.runtime.interpreter import AppCode, GuestFunction
from repro.runtime.jit import INTERPRETED, OPTIMIZED, FunctionJitState
from repro.runtime.ops import Compute
from repro.sim.kernel import Simulation
from repro.snapshot.image import (STAGE_OS, STAGE_POST_JIT, STAGE_POST_LOAD,
                                  SnapshotImage)
from repro.snapshot.prefetch import ReapRecorder
from repro.snapshot.restorer import (POLICY_DEMAND, POLICY_DEMAND_COLD,
                                     POLICY_LAZY, POLICY_REAP, Restorer)
from tests.helpers import oracle_restore, run

POLICIES = (POLICY_DEMAND, POLICY_DEMAND_COLD, POLICY_REAP, POLICY_LAZY)
STAGE_REGIONS = {
    STAGE_OS: ("kernel", "runtime"),
    STAGE_POST_LOAD: ("kernel", "runtime", "app", "heap"),
    STAGE_POST_JIT: ("kernel", "runtime", "app", "heap", "jit_code"),
}
SHAPES = ((), ("int",), ("str",))


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ImageSpec:
    """Everything needed to build the same image in either world."""

    language: str
    stage: str
    region_mb: Tuple[float, ...]   # one per region of the stage
    functions: Tuple[Tuple[float, float, float], ...]  # units, speedup, hot


def _image_specs():
    def build(language, stage, sizes, functions):
        regions = STAGE_REGIONS[stage]
        return ImageSpec(language, stage, tuple(sizes[:len(regions)]),
                         tuple(functions))

    return st.builds(
        build,
        st.sampled_from(("nodejs", "python")),
        st.sampled_from(tuple(STAGE_REGIONS)),
        # Sizes whose page counts times a fraction land on and off .5.
        st.lists(st.floats(min_value=0.01, max_value=160.0,
                           allow_nan=False), min_size=5, max_size=5),
        st.lists(st.tuples(st.floats(min_value=50.0, max_value=4000.0),
                           st.floats(min_value=1.0, max_value=6.0),
                           st.floats(min_value=0.0, max_value=3000.0)),
                 min_size=1, max_size=2))


def _build_image(index: int, spec: ImageSpec) -> SnapshotImage:
    names = tuple(f"f{i}" for i in range(len(spec.functions)))
    app = AppCode(
        name=f"app{index}", language=spec.language,
        guest_functions=tuple(
            GuestFunction(name, code_units=units, jit_speedup=speedup)
            for name, (units, speedup, _hot) in zip(names, spec.functions)))
    jit_state: Dict[str, FunctionJitState] = {}
    if spec.stage != STAGE_OS:
        for name, (units, speedup, hot) in zip(names, spec.functions):
            jitted = spec.stage == STAGE_POST_JIT
            jit_state[name] = FunctionJitState(
                name=name, tier=OPTIMIZED if jitted else INTERPRETED,
                hotness_units=hot, code_units=units, jit_speedup=speedup,
                trained_shapes={()} if jitted else set(),
                compile_count=1 if jitted else 0)
    return SnapshotImage(
        key=f"fn{index}", language=spec.language, stage=spec.stage,
        regions_mb=dict(zip(STAGE_REGIONS[spec.stage], spec.region_mb)),
        guest_ip=IpAddress.parse(f"172.16.0.{index + 2}"),
        guest_mac=MacAddress(0x02FC00000000 + index + 2),
        app=None if spec.stage == STAGE_OS else app,
        jit_state=jit_state)


PROGRAMS = st.lists(
    st.tuples(st.floats(min_value=0.0, max_value=6000.0),
              st.integers(0, 1), st.sampled_from(SHAPES)),
    min_size=1, max_size=3)

STEPS = st.one_of(
    st.tuples(st.just("restore"), st.integers(0, 3),
              st.sampled_from(POLICIES)),
    st.tuples(st.just("restore"), st.integers(0, 3),
              st.sampled_from(POLICIES)),
    st.tuples(st.just("invoke"), st.integers(0, 7), PROGRAMS),
    st.tuples(st.just("invoke"), st.integers(0, 7), PROGRAMS),
    st.tuples(st.just("steady"), st.integers(0, 7)),
    st.tuples(st.just("load"), st.integers(0, 7)),
    st.tuples(st.just("retire"), st.integers(0, 7)),
    st.tuples(st.just("regenerate"), st.integers(0, 3)),
    st.tuples(st.just("transfer"), st.integers(0, 3)),
    st.tuples(st.just("evict"), st.integers(0, 3)),
    st.tuples(st.just("corrupt"), st.integers(0, 3)),
)


# ---------------------------------------------------------------------------
# One world
# ---------------------------------------------------------------------------
class ChaosStub:
    """What a restorer asks of a chaos controller: a slowdown and armed
    restore corruptions (``HostFailureController`` semantics)."""

    def __init__(self, slowdown: float) -> None:
        self.slowdown = slowdown
        self.armed: Dict[str, int] = {}

    def restore_slowdown(self, now_ms: float) -> float:
        del now_ms
        return self.slowdown

    def check(self, kind: str, key: str) -> None:
        if self.armed.get(key, 0) > 0:
            self.armed[key] -= 1
            raise SnapshotCorruptedError(kind, key)


class World:
    """A simulation, a host and a restorer that builds clones one way."""

    def __init__(self, templated: bool, specs, dram_mb: int,
                 slowdown: Optional[float]) -> None:
        self.templated = templated
        self.sim = Simulation(seed=11)
        self.host = HostMemory(HostConfig(dram_mb=dram_mb))
        self.recorder = ReapRecorder()
        self.restorer = Restorer(self.sim, default_parameters(), self.host,
                                 recorder=self.recorder)
        if slowdown is not None:
            self.restorer.chaos = ChaosStub(slowdown)
        self.images = [_build_image(i, spec) for i, spec in enumerate(specs)]
        self.clones: List[tuple] = []   # (worker, image)

    # -- steps ------------------------------------------------------------
    def step(self, step) -> tuple:
        """Run one step; its outcome, an error as (type, message)."""
        try:
            return ("ok", getattr(self, f"_{step[0]}")(*step[1:]))
        except Exception as error:  # compared across worlds
            return ("error", type(error).__name__, str(error))

    def _clone(self, index: int):
        if not self.clones:
            return None, None
        return self.clones[index % len(self.clones)]

    def _restore(self, index: int, policy: str):
        image = self.images[index % len(self.images)]
        restore = (self.restorer.restore if self.templated
                   else lambda *args: oracle_restore(self.restorer, *args))
        worker = run(self.sim, restore(image, policy))
        self.clones.append((worker, image))
        return worker.sandbox.name

    def _invoke(self, index: int, program):
        worker, image = self._clone(index)
        if worker is None:
            return None
        functions = (worker.runtime.jit.functions()
                     or ("main",))
        ops = [Compute(units, functions[choice % len(functions)], shape)
               for units, choice, shape in program]
        breakdown = run(self.sim, worker.invoke(ops))
        profile = self.recorder.record(image, worker)
        return breakdown, profile.working_set_mb

    def _steady(self, index: int):
        worker, _image = self._clone(index)
        if worker is not None:
            worker.enter_steady_state()

    def _load(self, index: int):
        worker, image = self._clone(index)
        if worker is not None and image.stage == STAGE_OS:
            app = AppCode(f"late{index}", image.language)
            run(self.sim, worker.load_app_only(app))

    def _retire(self, index: int):
        worker, _image = self._clone(index)
        if worker is not None:
            self.clones.remove((worker, _image))
            run(self.sim, worker.stop())

    def _regenerate(self, index: int):
        old = self.images[index % len(self.images)]
        self.images[index % len(self.images)] = old.clone_for_regeneration()
        old.on_evicted()

    def _transfer(self, index: int):
        old = self.images[index % len(self.images)]
        self.images[index % len(self.images)] = old.clone_for_transfer()
        old.on_evicted()

    def _evict(self, index: int):
        self.images[index % len(self.images)].on_evicted()

    def _corrupt(self, index: int):
        if self.restorer.chaos is not None:
            key = self.images[index % len(self.images)].key
            armed = self.restorer.chaos.armed
            armed[key] = armed.get(key, 0) + 1

    # -- what both worlds must agree on -------------------------------------
    def state(self) -> tuple:
        clones = []
        segments = {}   # by identity: a re-materialised image reuses names
        for worker, image in self.clones:
            sandbox, runtime = worker.sandbox, worker.runtime
            regions = []
            for region, mapping in sandbox.space._regions.items():
                regions.append((region, mapping.rss_pages(),
                                mapping.pss_pages(), mapping.uss_pages()))
                segment = getattr(mapping, "segment", None)
                if segment is not None:
                    segments.setdefault(id(segment), segment)
            jit = runtime.jit
            clones.append((
                sandbox.name, sandbox.state, image.key, image.generation,
                tuple(regions), sandbox.layout, sandbox.latency,
                sandbox.io, type(runtime).__name__, runtime.state,
                runtime.app, runtime.config, runtime.layout,
                {name: jit.state(name) for name in jit.functions()},
                worker.invocations))
        for image in self.images:
            for segment in image._segments.values():
                segments.setdefault(id(segment), segment)
        return (tuple(clones),
                tuple((segment.name, segment.mapper_count,
                       segment.total_dirty_pages, segment.resident_pages(),
                       segment._pins) for segment in segments.values()),
                self.host.used_pages, self.host.peak_pages,
                # Each restore span carries its lazy byte ledger.
                self.sim.now,
                tuple(_tree(root) for root in self.sim.tracer.traces()))


def _tree(span) -> tuple:
    return (span.name, span.start_ms, span.end_ms, span.phase, span.kind,
            span.trace_id, tuple(sorted(span.attrs.items())),
            tuple(_tree(child) for child in span.children))


# ---------------------------------------------------------------------------
# The property
# ---------------------------------------------------------------------------
#: 40 MiB is 10 240 pages; at the 0.04 text fraction that is 409.6 pages.
POST_JIT = ImageSpec("nodejs", STAGE_POST_JIT, (30.0, 40.0, 8.0, 20.0, 6.0),
                     ((500.0, 3.0, 0.0),))
POST_LOAD = ImageSpec("python", STAGE_POST_LOAD, (30.1, 40.3, 8.7, 20.2),
                      ((800.0, 2.0, 100.0), (300.0, 4.0, 0.0)))
OS_STAGE = ImageSpec("nodejs", STAGE_OS, (30.0, 40.0), ((500.0, 3.0, 0.0),))
RUN = [(3000.0, 0, ()), (200.0, 1, ("int",))]


@settings(max_examples=200, deadline=None)
@example(specs=[POST_JIT], dram_mb=131072, slowdown=None, steps=[
    # Two fresh clones, then one written before its first execution.
    ("restore", 0, POLICY_DEMAND), ("restore", 0, POLICY_LAZY),
    ("invoke", 0, RUN), ("steady", 1), ("invoke", 1, RUN),
    ("restore", 0, POLICY_REAP), ("invoke", 2, RUN)])
@example(specs=[OS_STAGE, POST_LOAD], dram_mb=131072, slowdown=1.0, steps=[
    # Regions mapped after the restore; JIT state moved by one clone.
    ("restore", 0, POLICY_DEMAND), ("load", 0), ("invoke", 0, RUN),
    ("restore", 1, POLICY_DEMAND_COLD), ("restore", 1, POLICY_DEMAND),
    ("invoke", 1, RUN), ("invoke", 2, RUN), ("restore", 1, POLICY_DEMAND),
    ("invoke", 3, RUN)])
@example(specs=[POST_JIT, POST_LOAD], dram_mb=131072, slowdown=2.5, steps=[
    # Eviction, regeneration and transfer, each followed by a restore;
    # a corrupted restore leaves no clone.
    ("restore", 0, POLICY_DEMAND), ("evict", 0), ("restore", 0,
                                                  POLICY_DEMAND),
    ("regenerate", 1), ("restore", 1, POLICY_LAZY), ("corrupt", 1),
    ("restore", 1, POLICY_DEMAND), ("transfer", 0),
    ("restore", 0, POLICY_DEMAND), ("invoke", 0, RUN), ("invoke", 1, RUN),
    ("invoke", 2, RUN), ("retire", 0), ("invoke", 0, RUN)])
@example(specs=[POST_JIT], dram_mb=96, slowdown=None, steps=[
    # A host that runs out of memory part-way through a first execution
    # (the heap's pages broken, the host not charged), then a steady-
    # state write.
    ("restore", 0, POLICY_DEMAND), ("invoke", 0, RUN),
    ("restore", 0, POLICY_DEMAND), ("invoke", 1, RUN), ("retire", 0),
    ("restore", 0, POLICY_DEMAND), ("invoke", 1, RUN), ("steady", 0)])
@given(specs=st.lists(_image_specs(), min_size=1, max_size=3),
       dram_mb=st.sampled_from((96, 256, 1024, 131072)),
       slowdown=st.sampled_from((None, 1.0, 2.5)),
       steps=st.lists(STEPS, min_size=1, max_size=30))
def test_template_clones_match_per_clone_construction(specs, dram_mb,
                                                      slowdown, steps):
    templated = World(True, specs, dram_mb, slowdown)
    oracle = World(False, specs, dram_mb, slowdown)
    for step in steps:
        outcome = templated.step(step)
        assert outcome == oracle.step(step), step
        assert templated.state() == oracle.state(), step


def test_a_fresh_clone_takes_the_plan_and_a_written_one_does_not():
    """The differential property checks the plan's pages; this pins that
    the fast path is the one a fresh post-JIT clone actually takes."""
    spec = ImageSpec("nodejs", STAGE_POST_JIT, (30.0, 40.0, 8.0, 20.0, 6.0),
                     ((500.0, 3.0, 0.0),))
    world = World(True, [spec], 131072, None)
    image = world.images[0]
    fresh = run(world.sim, world.restorer.restore(image))
    written = run(world.sim, world.restorer.restore(image))
    assert fresh.sandbox.first_execution_plan is image.template.plan
    assert fresh.sandbox.space.fresh and written.sandbox.space.fresh
    written.enter_steady_state()
    assert not written.sandbox.space.fresh
    for worker in (fresh, written):
        run(world.sim, worker.invoke([Compute(10.0, "f0")]))
        assert not worker.sandbox.space.fresh


def test_eviction_drops_the_template_with_the_segments():
    spec = ImageSpec("python", STAGE_POST_LOAD, (30.0, 40.0, 8.0, 20.0),
                     ((500.0, 3.0, 0.0),))
    world = World(True, [spec], 131072, None)
    image = world.images[0]
    run(world.sim, world.restorer.restore(image))
    template = image.template
    assert template is not None
    image.on_evicted()
    assert image.template is None and not image.materialized
    clone = run(world.sim, world.restorer.restore(image))
    assert image.template is not template
    assert [segment for _region, segment
            in image.template.clone_map.segments] == \
        [mapping.segment for region, mapping
         in clone.sandbox.space._regions.items() if region != "vmm"]
