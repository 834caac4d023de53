"""Tests for the extra (appendix) FaaSdom workloads."""

import pytest

from repro.bench import cold_and_warm, fireworks_invocation
from repro.platforms import FirecrackerPlatform
from repro.workloads import (BENCHMARK_NAMES, EXTRA_BENCHMARK_NAMES,
                             all_faasdom_specs, faasdom_spec)


def test_paper_set_unchanged():
    """The paper's four benchmarks stay exactly as Table 2 lists them."""
    assert BENCHMARK_NAMES == ("faas-fact", "faas-matrix-mult",
                               "faas-diskio", "faas-netlatency")
    assert set(EXTRA_BENCHMARK_NAMES).isdisjoint(BENCHMARK_NAMES)


def test_all_specs_excludes_extras_by_default():
    assert len(all_faasdom_specs()) == 8
    assert len(all_faasdom_specs(include_extras=True)) == 12


def test_extra_specs_build_and_annotate():
    from repro.core.annotator import annotate
    for name in EXTRA_BENCHMARK_NAMES:
        for language in ("nodejs", "python"):
            spec = faasdom_spec(name, language)
            assert "extra" in spec.description
            result = annotate(spec.source, spec.language)
            assert "main" in result.functions


def test_gzip_python_handler_actually_compresses():
    source = faasdom_spec("faas-gzip", "python").source
    namespace: dict = {}
    exec(compile(source, "<handler>", "exec"), namespace)  # noqa: S102
    result = namespace["main"]({"text": "aaaa", "level": 9})
    assert result["out"] < result["in"] / 10  # repetitive text compresses


def test_image_resize_python_handler_quarters_pixels():
    source = faasdom_spec("faas-image-resize", "python").source
    namespace: dict = {}
    exec(compile(source, "<handler>", "exec"), namespace)  # noqa: S102
    result = namespace["main"]({"w": 8, "h": 8})
    assert result["pixels"] == 16  # 8x8 -> 4x4


def test_gzip_program_includes_disk_write():
    from repro.runtime.ops import DiskWrite
    prog = faasdom_spec("faas-gzip", "nodejs").program()
    assert any(isinstance(op, DiskWrite) for op in prog)


def test_extras_bracket_the_post_jit_benefit():
    """Fireworks wins end to end on every extra workload; gzip's Python
    exec speedup (native zlib) is far below image-resize's (vectorizable
    pixel loops)."""
    results = {}
    for name in EXTRA_BENCHMARK_NAMES:
        for language in ("nodejs", "python"):
            spec = faasdom_spec(name, language)
            cold, _warm = cold_and_warm(FirecrackerPlatform, spec)
            results[spec.name] = (cold, fireworks_invocation(spec))
    for cold, fireworks in results.values():
        assert fireworks.total_ms < cold.total_ms
    gzip_cold, gzip_fw = results["faas-gzip-python"]
    resize_cold, resize_fw = results["faas-image-resize-python"]
    assert resize_cold.exec_ms / resize_fw.exec_ms > \
        4 * (gzip_cold.exec_ms / gzip_fw.exec_ms)
