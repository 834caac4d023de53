"""The ``figures`` workload's seed-free digests are the golden figure hashes
that ``tests/test_golden_numbers.py`` pins."""

import importlib.util

import pytest

import run
import workloads

#: SEED_FREE_FIGURES key path -> GOLDEN_FIGURE_HASHES key.
GOLDEN_KEYS = {
    ("fig6", "faas-fact"): "fig6:faas-fact",
    ("fig7", "faas-fact"): "fig7:faas-fact",
    ("fig9",): "fig9:all",
    ("fig10", "firecracker"): "fig10:firecracker",
    ("fig10", "fireworks"): "fig10:fireworks",
}


@pytest.fixture(scope="module")
def golden():
    path = run.ROOT / "tests" / "test_golden_numbers.py"
    spec = importlib.util.spec_from_file_location("golden_numbers", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.GOLDEN_FIGURE_HASHES


@pytest.fixture(scope="module")
def results():
    from repro.bench.engine import run_experiments
    return run_experiments(["fig6", "fig7", "fig9", "fig10"],
                           use_cache=False).results


def test_pinned_copies_match_the_golden_hashes(golden):
    assert set(workloads.SEED_FREE_FIGURES) == set(GOLDEN_KEYS)
    for path, pinned in workloads.SEED_FREE_FIGURES.items():
        assert pinned == golden[GOLDEN_KEYS[path]], path


@pytest.mark.parametrize("path", sorted(GOLDEN_KEYS), ids=".".join)
def test_figures_digest_equals_golden_hash(path, golden, results):
    got = workloads.digest(workloads.figure_part(results, path))
    assert got == golden[GOLDEN_KEYS[path]]


def test_seed_free_parts_ignore_the_seed(results):
    from repro.bench.engine import run_experiments
    other = run_experiments(["fig6", "fig7", "fig9", "fig10"], seed=7,
                            use_cache=False).results
    for path in workloads.SEED_FREE_FIGURES:
        assert workloads.digest(workloads.figure_part(other, path)) == \
            workloads.digest(workloads.figure_part(results, path))
