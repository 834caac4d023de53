"""Unit tests for the language runtime lifecycle and program execution."""

import pytest

from repro.config import default_parameters
from repro.errors import RuntimeModelError
from repro.runtime import make_runtime
from repro.runtime.interpreter import AppCode, GuestFunction
from repro.runtime.ops import (Compute, DiskRead, DiskWrite, NetSend,
                               Respond, program)
from repro.sim import Simulation
from repro.storage.filesystem import IoPathModel
from tests.helpers import run


@pytest.fixture
def params():
    return default_parameters()


@pytest.fixture
def sim():
    return Simulation()


@pytest.fixture
def io(params):
    return IoPathModel(params.latency("microvm"))


def _app(language="nodejs", speedup=3.0):
    return AppCode(name="app", language=language,
                   guest_functions=(GuestFunction("main", 500.0, speedup),))


def _ready_runtime(sim, params, language="nodejs"):
    runtime = make_runtime(sim, params, language)
    run(sim, runtime.launch())
    run(sim, runtime.load_app(_app(language)))
    return runtime


class TestLifecycle:
    def test_launch_takes_configured_time(self, sim, params):
        runtime = make_runtime(sim, params, "nodejs")
        run(sim, runtime.launch())
        assert sim.now == params.runtime("nodejs").launch_ms
        assert runtime.state == runtime.STATE_LAUNCHED

    def test_load_before_launch_raises(self, sim, params):
        runtime = make_runtime(sim, params, "nodejs")
        with pytest.raises(RuntimeModelError):
            run(sim, runtime.load_app(_app()))

    def test_double_launch_raises(self, sim, params):
        runtime = make_runtime(sim, params, "nodejs")
        run(sim, runtime.launch())
        with pytest.raises(RuntimeModelError):
            run(sim, runtime.launch())

    def test_wrong_language_app_raises(self, sim, params):
        runtime = make_runtime(sim, params, "nodejs")
        run(sim, runtime.launch())
        with pytest.raises(RuntimeModelError):
            run(sim, runtime.load_app(_app(language="python")))

    def test_load_registers_guest_functions(self, sim, params):
        runtime = _ready_runtime(sim, params)
        assert runtime.jit.functions() == ("main",)

    def test_extra_load_ms_adds_time(self, sim, params):
        runtime = make_runtime(sim, params, "nodejs")
        run(sim, runtime.launch())
        app = AppCode(name="heavy", language="nodejs", extra_load_ms=500.0)
        before = sim.now
        run(sim, runtime.load_app(app))
        cfg = params.runtime("nodejs")
        assert sim.now - before == pytest.approx(
            cfg.app_load_base_ms + 500.0)

    def test_run_before_load_raises(self, sim, params, io):
        runtime = make_runtime(sim, params, "nodejs")
        run(sim, runtime.launch())
        with pytest.raises(RuntimeModelError):
            run(sim, runtime.run_program(program(Compute(1)), io))

    def test_make_runtime_unknown_language(self, sim, params):
        with pytest.raises(KeyError):
            make_runtime(sim, params, "rust")


class TestExecution:
    def test_compute_breakdown(self, sim, params, io):
        runtime = _ready_runtime(sim, params)
        breakdown = run(sim, runtime.run_program(
            program(Compute(1800)), io))
        assert breakdown.compute_ms == pytest.approx(100)
        assert breakdown.exec_ms == pytest.approx(100)

    def test_disk_ops_cost_io_path(self, sim, params, io):
        runtime = _ready_runtime(sim, params)
        breakdown = run(sim, runtime.run_program(
            program(DiskRead(10.0, times=100), DiskWrite(10.0, times=100)),
            io))
        expected = 200 * io.disk_read_ms(10.0)
        assert breakdown.disk_ms == pytest.approx(expected)

    def test_net_and_respond_accounted(self, sim, params, io):
        runtime = _ready_runtime(sim, params)
        breakdown = run(sim, runtime.run_program(
            program(NetSend(1.0), Respond(0.57)), io))
        assert breakdown.net_ms > 0
        assert breakdown.response_kb == pytest.approx(0.57)

    def test_wall_time_matches_breakdown(self, sim, params, io):
        runtime = _ready_runtime(sim, params)
        before = sim.now
        breakdown = run(sim, runtime.run_program(
            program(Compute(1000), DiskRead(10.0, times=10), Respond()),
            io))
        assert sim.now - before == pytest.approx(breakdown.total_ms)

    def test_db_op_without_handler_raises(self, sim, params, io):
        from repro.runtime.ops import DbGet
        runtime = _ready_runtime(sim, params)
        with pytest.raises(RuntimeModelError, match="database handler"):
            run(sim, runtime.run_program(program(DbGet("x")), io))

    def test_chain_op_without_handler_raises(self, sim, params, io):
        from repro.runtime.ops import InvokeNext
        runtime = _ready_runtime(sim, params)
        with pytest.raises(RuntimeModelError, match="chain handler"):
            run(sim, runtime.run_program(program(InvokeNext("f")), io))

    def test_invocation_counter(self, sim, params, io):
        runtime = _ready_runtime(sim, params)
        run(sim, runtime.run_program(program(Compute(1)), io))
        run(sim, runtime.run_program(program(Compute(1)), io))
        assert runtime.invocations == 2


class TestForceJit:
    def test_force_jit_all_compiles_everything(self, sim, params):
        runtime = _ready_runtime(sim, params)
        compile_ms = run(sim, runtime.force_jit_all())
        assert compile_ms > 0
        assert runtime.jit.optimized_functions() == ("main",)

    def test_force_jit_before_load_raises(self, sim, params):
        runtime = make_runtime(sim, params, "nodejs")
        run(sim, runtime.launch())
        with pytest.raises(RuntimeModelError):
            run(sim, runtime.force_jit_all())

    def test_python_without_numba_raises(self, sim, params):
        from repro.runtime.python_rt import PythonRuntime
        runtime = PythonRuntime(sim, params, numba_available=False)
        run(sim, runtime.launch())
        run(sim, runtime.load_app(_app(language="python")))
        with pytest.raises(RuntimeModelError, match="Numba"):
            run(sim, runtime.force_jit_all())


class TestSnapshotRestore:
    def test_from_snapshot_is_loaded_with_jit_state(self, sim, params):
        runtime = _ready_runtime(sim, params)
        run(sim, runtime.force_jit_all())

        from repro.runtime.interpreter import RuntimeImage
        clone = RuntimeImage.capture(runtime).restore(sim)
        assert type(clone) is type(runtime)
        assert clone.state == clone.STATE_LOADED
        assert clone.app is runtime.app
        assert clone.jit.optimized_functions() == ("main",)
        # Copied field for field: the clone's tier state is its own.
        assert clone.jit.state("main") == runtime.jit.state("main")
        assert clone.jit.state("main") is not runtime.jit.state("main")
        assert (clone.jit.state("main").trained_shapes
                is not runtime.jit.state("main").trained_shapes)

    def test_v8_optimization_status_helper(self, sim, params):
        from repro.runtime.nodejs import NodeJsRuntime
        runtime = NodeJsRuntime(sim, params)
        run(sim, runtime.launch())
        run(sim, runtime.load_app(_app()))
        assert runtime.get_optimization_status("main") == "interpreted"
        run(sim, runtime.force_jit_all())
        assert runtime.get_optimization_status("main") == "optimized"
