"""Sanity tests for the calibrated parameters.

These encode the *relationships* the paper depends on, so a future
recalibration cannot silently break a figure's shape.
"""

import pytest

from repro.config import default_parameters


@pytest.fixture(scope="module")
def params():
    return default_parameters()


class TestHostShape:
    def test_paper_testbed(self, params):
        assert params.host.cores == 64
        assert params.host.dram_mb == 131072
        assert params.host.swappiness_threshold == 0.60
        assert params.microvm.mem_mb == 512


class TestLatencyRelationships:
    def test_cold_boot_ordering(self, params):
        """Fig 6: Firecracker cold slowest, then gVisor, then OpenWhisk."""
        def cold(mechanism):
            latency = params.latency(mechanism)
            return latency.create_ms + latency.os_boot_ms + latency.init_ms

        assert cold("microvm") > cold("gvisor") > cold("container")

    def test_io_path_ordering(self, params):
        """§5.2.1(2): container < microVM << gVisor per I/O."""
        def per_io(mechanism):
            latency = params.latency(mechanism)
            return latency.disk_io_base_ms + latency.syscall_overhead_ms

        assert per_io("container") < per_io("microvm") < per_io("gvisor")

    def test_firecracker_cold_near_2200ms_node(self, params):
        latency = params.latency("microvm")
        runtime = params.runtime("nodejs")
        cold = (latency.create_ms + latency.os_boot_ms + runtime.launch_ms
                + runtime.app_load_base_ms)
        assert cold == pytest.approx(2200, abs=100)

    def test_restore_far_below_resume(self, params):
        """Fireworks start-up must beat even warm starts (Fig 6)."""
        layout = params.memory_layout("nodejs")
        snapshot = params.snapshot
        restore = (snapshot.restore_base_ms
                   + layout.guest_total_mb
                   * layout.snapshot_working_set_mb_fraction
                   * snapshot.restore_per_working_mb_ms)
        assert restore < params.latency("microvm").resume_paused_ms / 2


class TestRuntimeRelationships:
    def test_cpython_never_tiers(self, params):
        assert params.runtime("python").hotness_threshold_units == \
            float("inf")
        assert not params.runtime("python").has_runtime_jit

    def test_v8_tiers_between_io_and_compute_workloads(self, params):
        """§5.5.1: compute benchmarks cross the threshold, I/O ones don't."""
        from repro.workloads import faasdom_spec
        threshold = params.runtime("nodejs").hotness_threshold_units
        fact = faasdom_spec("faas-fact",
                            "nodejs").program().total_compute_units()
        netlat = faasdom_spec("faas-netlatency",
                              "nodejs").program().total_compute_units()
        assert netlat < threshold < fact

    def test_numba_compile_costlier_than_turbofan(self, params):
        assert params.runtime("python").jit_compile_ms_per_kunit > \
            params.runtime("nodejs").jit_compile_ms_per_kunit


class TestMemoryRelationships:
    def test_guest_total_near_170mb(self, params):
        """§5.1 footnote: the average sandbox is ~170 MB."""
        for language in ("nodejs", "python"):
            assert params.memory_layout(language).guest_total_mb == \
                pytest.approx(170, abs=10)

    def test_numba_jit_region_dwarfs_v8(self, params):
        """Fig 12's asymmetry lives here."""
        assert params.memory_layout("python").jit_code_mb > \
            3 * params.memory_layout("nodejs").jit_code_mb

    def test_python_jit_pages_dirty_at_exec(self, params):
        assert params.memory_layout("python").exec_dirty_jit_fraction > \
            params.memory_layout("nodejs").exec_dirty_jit_fraction


class TestOverrides:
    def test_with_overrides_replaces_top_level(self, params):
        from repro.config import HostConfig
        modified = params.with_overrides(host=HostConfig(dram_mb=1024))
        assert modified.host.dram_mb == 1024
        assert params.host.dram_mb == 131072  # original untouched

    def test_unknown_language_raises(self, params):
        with pytest.raises(KeyError):
            params.runtime("rust")
        with pytest.raises(KeyError):
            params.memory_layout("rust")
        with pytest.raises(KeyError):
            params.latency("hypervisor-x")


class TestSnapshotCreationBand:
    def test_write_time_in_paper_band(self, params):
        """§5.1: 0.36-0.47 s for a ~170 MiB image."""
        snapshot = params.snapshot
        for language in ("nodejs", "python"):
            size = params.memory_layout(language).guest_total_mb
            write_ms = snapshot.create_base_ms + size * snapshot.create_per_mb_ms
            assert 360 <= write_ms <= 470


class TestParamsFingerprint:
    """Canonical hashing of the calibrated constants (the cache key)."""

    def test_stable_across_calls(self, params):
        from repro.config import params_fingerprint
        assert params_fingerprint(params) == params_fingerprint(params)
        assert params_fingerprint(params) == \
            params_fingerprint(default_parameters())

    def test_short_hex(self, params):
        from repro.config import params_fingerprint
        fingerprint = params_fingerprint(params)
        assert len(fingerprint) == 16
        int(fingerprint, 16)  # hex digest prefix

    def test_any_constant_changes_it(self, params):
        import dataclasses
        from repro.config import params_fingerprint
        base = params_fingerprint(params)
        tweaked = dataclasses.replace(
            params, snapshot=dataclasses.replace(
                params.snapshot, restore_base_ms=7.0))
        assert params_fingerprint(tweaked) != base

    def test_canonical_form_has_no_bare_floats(self, params):
        """Floats canonicalize through repr so the JSON text is unique."""
        from repro.config import canonical_jsonable

        def walk(node):
            assert not isinstance(node, float)
            if isinstance(node, dict):
                for value in node.values():
                    walk(value)
            elif isinstance(node, list):
                for item in node:
                    walk(item)

        walk(canonical_jsonable(params))

    def test_inf_canonicalizes(self, params):
        from repro.config import canonical_jsonable
        assert canonical_jsonable(float("inf")) == "inf"

    def test_unknown_type_rejected(self):
        from repro.config import canonical_jsonable
        with pytest.raises(TypeError):
            canonical_jsonable(object())
