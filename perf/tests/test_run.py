"""perf/run.py's bookkeeping: digest checks, the result line, --compare
verdicts, and refusing to run without the program."""

import json
import shutil
import statistics
import subprocess
import sys

import pytest

import run


@pytest.fixture(scope="module")
def spec():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _unit(digest="d", traced=False, wall_s=2.0, **layers):
    unit = {"setup_s": 0.2, "wall_s": wall_s, "completed": 1000,
            "raw_setup_s": 0.3, "raw_wall_s": wall_s,
            "peak_rss_mib": 50.0, "digest": digest, "ops": 4,
            "problems": [], "extras": {}, "traced": traced}
    if traced:
        unit["layers"] = dict(layers)
    return unit


def test_judge_fails_the_odd_digest_out():
    units = [_unit("a"), _unit("b"), _unit("a")]
    run.judge(units, None)
    assert [unit["failed"] for unit in units] == [0, 4, 0]


def test_judge_checks_the_pinned_digest():
    units = [_unit("a"), _unit("a")]
    run.judge(units, "pinned")
    assert [unit["failed"] for unit in units] == [4, 4]


def test_judge_charges_a_crashed_unit():
    units = [_unit("a"), {"error": "boom", "traced": False}]
    run.judge(units, None)
    assert units[1]["failed"] == units[1]["ops"] == 4


def test_result_line_has_exactly_the_declared_metrics(spec):
    reference = {"seed": 2022, "digests": {"replay": "d"}}
    layers = {metric["name"]: 1.0 for metric in spec["per_layer"]}
    report = run.summarise("replay", 2022, [_unit(), _unit(wall_s=3.0)],
                           [_unit(traced=True, wall_s=6.0, **layers)],
                           spec, reference)
    assert report["correct"] and report["failed"] == 0
    assert report["layers"]["profile.overhead_x"] == pytest.approx(6 / 2.5)
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        line = run.result_line({"replay": report}, spec, trace)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert set(line["metrics"]) == {metric["name"]
                                        for metric in spec[group]}
    line = run.result_line({"replay": report}, spec, 0)
    assert line["metrics"]["wall_s"] == {"value": 2.5, "unit": "s"}
    assert line["metrics"]["inv_per_s"]["value"] == pytest.approx(
        statistics.median([1000 / 2.0, 1000 / 3.0]))


def _ten(start, step=0.01):
    return [start + step * i for i in range(10)]


@pytest.mark.parametrize("base, head, lower, expected", [
    (_ten(10.0), _ten(9.0), True, "improved"),
    (_ten(10.0), _ten(12.0), True, "worse"),
    (_ten(10.0), _ten(10.0)[::-1], True, "unchanged"),
    (_ten(10.0), _ten(10.0), False, "unchanged"),
    (_ten(100.0), _ten(80.0), False, "worse"),
    (_ten(100.0), _ten(110.0), False, "improved"),
    # a small gain inside the base's own spread is no gain
    (_ten(10.0, 0.1), _ten(9.95, 0.1), True, "unchanged"),
    (_ten(5.0, 2.0), _ten(5.5, 2.0), True, "unresolved"),
    (_ten(5.0, 2.0), _ten(1.0, 0.3), True, "improved"),
    # three pairs are too few to claim a gain
    ([10.0, 10.1, 10.2], [9.0, 9.1, 9.2], True, "unchanged"),
    ([5.0, 10.0, 15.0], [1.0, 2.0, 3.0], True, "unresolved"),
])
def test_verdict(base, head, lower, expected):
    assert run.verdict(base, head, 0.1, lower) == expected


def test_spread():
    assert run.spread([1.0]) == 0.0
    assert run.spread([10.0, 10.0, 10.0]) == 0.0
    assert run.spread([8.0, 10.0, 12.0, 14.0]) > 0


def test_compare_reads_reports_and_directories(tmp_path, spec, capsys):
    def write(path, walls, failed=0):
        path.write_text(json.dumps({"workloads": {"replay": {
            "failed": failed, "samples": {"wall_s": walls}}}}))

    (tmp_path / "base").mkdir()
    write(tmp_path / "base" / "1.json", [10.0, 10.1])
    write(tmp_path / "base" / "2.json", [10.2])
    write(tmp_path / "head.json", [10.1, 10.0, 10.2])
    assert run.compare(tmp_path / "base", tmp_path / "head.json", spec) == 0
    assert "unchanged" in capsys.readouterr().out
    write(tmp_path / "worse.json", [13.0, 13.1, 13.2])
    assert run.compare(tmp_path / "base", tmp_path / "worse.json", spec) == 1
    write(tmp_path / "failing.json", [10.1, 10.0, 10.2], failed=1)
    assert run.compare(tmp_path / "base", tmp_path / "failing.json",
                       spec) == 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.PERF_DIR, tmp_path / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "replay", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "{" not in done.stdout
