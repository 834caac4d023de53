"""The repository's benchmark: four workloads, end-to-end host-time metrics,
output digests and a per-layer self-time ledger.

Run from the repository root::

    python3 perf/run.py [--workload NAME ...] [--seed N]
                        [--repeats N | --seconds S] [--trace 0|1 | --no-trace]
                        [--json OUT]
    python3 perf/run.py --compare BASE HEAD

Each unit runs one workload body in a fresh interpreter (``perf/worker.py``).
By default every workload gets ``--repeats`` untraced units, whose medians
are the end-to-end metrics, then one traced (profiled) unit, which gives the
per-layer metrics.  ``--seconds`` measures each workload for that long
instead.  ``--trace 0`` runs only untraced units; ``--trace 1`` runs one
untraced unit (the base of ``profile.overhead_x``) and then traced ones.

Every unit's output digest is checked: against the pinned digest in
``perf/reference.json`` for its seed, and otherwise against the other units
of the run.  A unit that raises, fails a check or mismatches fails all its
operations.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code
is non-zero when anything failed.

``--compare BASE HEAD`` reads two ``--json`` reports (or two directories of
them, pooled) and judges every pair of end-to-end metric and workload
against the bounds in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parent
WORKLOADS = ("replay", "sweep", "figures", "search")
DEFAULT_SEED = 2022

#: A unit that runs longer than this is killed and counted as failed.
UNIT_TIMEOUT_S = 150.0


#: Per-unit sample of each end-to-end metric.  ``setup_s`` is sampled on
#: every unit; the others on untraced units only.  Times are host seconds
#: scaled by the unit's SpeedProbe (``perf/worker.py``).
E2E_SAMPLES = {
    "setup_s": lambda unit: unit["setup_s"],
    "wall_s": lambda unit: unit["wall_s"],
    "inv_per_s": lambda unit: unit["completed"] / unit["wall_s"],
    "peak_rss_mib": lambda unit: unit["peak_rss_mib"],
}


def load_json(path: Path) -> dict:
    with open(path) as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# Units
# ---------------------------------------------------------------------------
def run_unit(workload: str, seed: int, traced: bool, workdir: str,
             pstats_path: Optional[str] = None) -> dict:
    """Run one unit in a fresh interpreter; its result dict, or one with an
    ``error`` key when it crashed or timed out."""
    argv = [sys.executable, str(PERF_DIR / "worker.py"), workload, str(seed),
            "1" if traced else "0", repr(time.time()), workdir]
    if pstats_path:
        argv.append(pstats_path)
    # A process group of its own, so a kill reaches the unit's pool
    # workers too.
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=UNIT_TIMEOUT_S)
    except BaseException as error:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(error, subprocess.TimeoutExpired):
            return {"error": f"timed out after {UNIT_TIMEOUT_S:g}s"}
        raise
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = err.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]
        return {"error": tail[0]}
    return json.loads(lines[-1])


def measure(workload: str, seed: int, traced: bool, workdir: str,
            repeats: Optional[int] = None, deadline: Optional[float] = None,
            pstats_prefix: Optional[str] = None) -> List[dict]:
    """*repeats* units, or units until the next would end past *deadline*
    (a ``time.perf_counter()`` value); always at least one."""
    units: List[dict] = []
    while True:
        started = time.perf_counter()
        pstats_path = (f"{pstats_prefix}.{workload}.{len(units)}.pstats"
                       if traced and pstats_prefix else None)
        unit = run_unit(workload, seed, traced, workdir, pstats_path)
        unit["traced"] = traced
        if pstats_path and "error" not in unit:
            unit["pstats"] = pstats_path
        units.append(unit)
        took = time.perf_counter() - started
        print(f"  {workload} {'traced' if traced else 'untraced'} unit "
              f"{len(units)}: "
              + (unit["error"] if "error" in unit
                 else f"wall {unit['wall_s']:.3f}s"),
              file=sys.stderr, flush=True)
        if "error" in unit:
            break
        if repeats is not None:
            if len(units) >= repeats:
                break
        elif time.perf_counter() + took > deadline:
            break
    return units


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------
def describe(values: List[float]) -> dict:
    """Median, count and range of *values*."""
    return {"median": statistics.median(values), "n": len(values),
            "min": min(values), "max": max(values)}


def judge(units: List[dict], expected: Optional[str]) -> None:
    """Mark each unit's failed operations: all of them when it crashed,
    failed a check, or its digest differs from *expected* (when None, from
    the digest most units of the run agree on)."""
    finished = [unit for unit in units if "error" not in unit]
    if expected is None and finished:
        digests = collections.Counter(unit["digest"] for unit in finished)
        expected = digests.most_common(1)[0][0]
    # A crashed unit reports nothing: charge it a finished unit's count.
    ops = max((unit["ops"] for unit in finished), default=1)
    for unit in units:
        if "error" in unit:
            unit["failed"] = unit["ops"] = ops
            continue
        if unit["digest"] != expected:
            unit["problems"].append(f"digest {unit['digest']} != {expected}")
        unit["failed"] = unit["ops"] if unit["problems"] else 0


def summarise(workload: str, seed: int, untraced: List[dict],
              traced: List[dict], spec: dict, reference: dict) -> dict:
    """One workload's report: correctness, end-to-end samples and
    summaries, and the per-layer ledger."""
    units = untraced + traced
    pinned = (reference["digests"][workload]
              if seed == reference["seed"] else None)
    judge(units, pinned)
    finished = [unit for unit in units if "error" not in unit]
    timed = [unit for unit in untraced if "error" not in unit]
    profiled = [unit for unit in traced if "error" not in unit]
    samples = {name: [sample(unit) for unit in
                      (finished if name == "setup_s" else timed)]
               for name, sample in E2E_SAMPLES.items()}
    raw = {"setup_s": [unit["raw_setup_s"] for unit in finished],
           "wall_s": [unit["raw_wall_s"] for unit in timed]}
    report = {
        "attempted": sum(unit["ops"] for unit in units),
        "failed": sum(unit["failed"] for unit in units),
        "problems": [problem for unit in units
                     for problem in unit.get("problems", [])]
        + [unit["error"] for unit in units if "error" in unit],
        "samples": samples,
        "summary": {name: describe(values)
                    for name, values in samples.items() if values},
        "raw": {name: describe(values)
                for name, values in raw.items() if values},
        "units": units,
    }
    if profiled:
        layers = {name: statistics.fmean(unit["layers"][name]
                                         for unit in profiled)
                  for name in profiled[0]["layers"]}
        for name in {key for unit in timed for key in unit["extras"]}:
            layers[name] = statistics.median(
                unit["extras"][name] for unit in timed
                if name in unit["extras"])
        # The spin runs without the profiler's cost, so a traced unit's
        # scaled time is not comparable: use raw host time on both sides.
        if timed:
            layers["profile.overhead_x"] = statistics.median(
                unit["raw_wall_s"] for unit in profiled
            ) / statistics.median(raw["wall_s"])
        report["layers"] = {metric["name"]: layers.get(metric["name"], 0.0)
                            for metric in spec["per_layer"]}
    report["correct"] = report["failed"] == 0 and all(
        name in report["summary"] for name in E2E_SAMPLES)
    return report


def result_line(reports: Dict[str, dict], spec: dict,
                trace: Optional[int]) -> dict:
    """The final JSON line: end-to-end metrics (``--trace 0``), per-layer
    metrics (``--trace 1``) or both; keys are prefixed with the workload
    when the run covers more than one."""
    units = {metric["name"]: metric["unit"]
             for metric in spec["end_to_end"] + spec["per_layer"]}
    metrics = {}
    for workload, report in reports.items():
        prefix = f"{workload}." if len(reports) > 1 else ""
        values = {}
        if trace != 1:
            values.update((name, got["median"])
                          for name, got in report["summary"].items())
        if trace != 0:
            values.update(report.get("layers", {}))
        metrics.update((prefix + name, {"value": value, "unit": units[name]})
                       for name, value in values.items())
    return {"correct": all(report["correct"] for report in reports.values()),
            "attempted": sum(report["attempted"]
                             for report in reports.values()),
            "failed": sum(report["failed"] for report in reports.values()),
            "metrics": metrics}


def print_report(workload: str, report: dict, spec: dict) -> None:
    runs = collections.Counter(unit["traced"] for unit in report["units"])
    print(f"== {workload}: {runs[False]} untraced + {runs[True]} traced "
          f"units, {report['failed']}/{report['attempted']} operations "
          f"failed")
    for problem in report["problems"]:
        print(f"   ! {problem}")
    rows = [(metric["name"], metric["unit"],
             report["summary"].get(metric["name"]))
            for metric in spec["end_to_end"]]
    rows += [(f"{name} raw", "s", got) for name, got in report["raw"].items()]
    for name, unit, got in rows:
        if got is not None:
            print(f"   {name:<14} {unit:<6} median {got['median']:<12.6g} "
                  f"n={got['n']:<3} min-max {got['min']:.6g}-{got['max']:.6g}")
    layers = report.get("layers")
    if not layers:
        return
    total = layers["profile.total_s"] or 1.0
    print("   per-layer (traced units; times are means, side measurements "
          "medians of untraced units):")
    units = {metric["name"]: metric["unit"] for metric in spec["per_layer"]}
    for name, value in layers.items():
        share = (f"  {value / total:6.1%}" if name.endswith(".self_s")
                 else "")
        print(f"   {name:<26} {units[name]:<8} {value:<14.6g}{share}")


def git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
    except OSError:
        return None
    return done.stdout.strip() or None


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------
def _report_files(path: Path) -> List[Path]:
    return sorted(path.glob("*.json")) if path.is_dir() else [path]


def pooled(path: Path) -> Dict[str, dict]:
    """Per-workload samples and failure counts from one report, or pooled
    from every report in a directory (in file-name order)."""
    pool: Dict[str, dict] = {}
    for file in _report_files(path):
        for workload, report in load_json(file)["workloads"].items():
            into = pool.setdefault(workload, {"samples": {}, "failed": 0})
            into["failed"] += report["failed"]
            for name, values in report["samples"].items():
                into["samples"].setdefault(name, []).extend(values)
    return pool


def spread(values: List[float]) -> float:
    """Distance between the first and third quartile, as a share of the
    median; 0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / abs(statistics.median(values))


#: Paired samples a gain needs before it may be claimed.
MIN_PAIRS = 10


def verdict(base: List[float], head: List[float], bound: float,
            lower_is_better: bool) -> str:
    """improved, unchanged, worse or unresolved, for one metric on one
    workload.

    Samples pair up in order.  A spread wider than the bound is
    unresolved unless every HEAD sample beats every BASE sample.  A gain
    needs at least ``MIN_PAIRS`` pairs, HEAD winning nine tenths of them,
    and medians further apart than BASE's own spread.
    """
    sign = 1.0 if lower_is_better else -1.0
    base_o = [sign * value for value in base]
    head_o = [sign * value for value in head]
    pairs = list(zip(base_o, head_o))
    enough = len(pairs) >= MIN_PAIRS
    if max(spread(base), spread(head)) > bound:
        beats_all = max(head_o) < min(base_o)
        return "improved" if beats_all and enough else "unresolved"
    base_median = statistics.median(base_o)
    change = (statistics.median(head_o) - base_median) / abs(base_median)
    if change > bound:
        return "worse"
    wins = sum(1 for b, h in pairs if h < b)
    if enough and -change > spread(base) and wins >= 0.9 * len(pairs):
        return "improved"
    return "unchanged"


def compare(base_path: Path, head_path: Path, spec: dict) -> int:
    base, head = pooled(base_path), pooled(head_path)
    worse = 0
    print(f"{'workload':<9} {'metric':<13} {'base':>11} {'head':>11} "
          f"{'change':>8} {'bound':>6} {'spread':>7}  verdict")
    for workload in [name for name in WORKLOADS if name in base]:
        if workload not in head:
            print(f"{workload:<9} missing from {head_path}")
            worse += 1
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = base[workload]["samples"].get(name)
            h = head[workload]["samples"].get(name)
            if not b or not h:
                continue
            label = verdict(b, h, metric["bound"],
                            metric["better"] == "lower")
            worse += label == "worse"
            b_med, h_med = statistics.median(b), statistics.median(h)
            print(f"{workload:<9} {name:<13} {b_med:>11.5g} {h_med:>11.5g} "
                  f"{(h_med - b_med) / abs(b_med):>+8.1%} "
                  f"{metric['bound']:>6.0%} "
                  f"{max(spread(b), spread(h)):>7.1%}  {label}")
        failed = (base[workload]["failed"], head[workload]["failed"])
        if failed[1] > failed[0]:
            worse += 1
            print(f"{workload:<9} failed ops {failed[0]} -> {failed[1]}: "
                  "worse")
    return 1 if worse else 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------
def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", nargs="+", choices=WORKLOADS,
                        default=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    budget = parser.add_mutually_exclusive_group()
    budget.add_argument("--repeats", type=int, default=3,
                        help="untraced units per workload (default 3)")
    budget.add_argument("--seconds", type=float,
                        help="measure each workload for this long instead")
    trace = parser.add_mutually_exclusive_group()
    trace.add_argument("--trace", type=int, choices=(0, 1),
                       help="0: untraced units only; 1: traced units "
                       "after one untraced unit; default: both")
    trace.add_argument("--no-trace", dest="trace", action="store_const",
                       const=0, help="same as --trace 0")
    parser.add_argument("--json", metavar="OUT",
                        help="write the full report here, raw profiles "
                        "next to it")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "HEAD"),
                        help="judge HEAD's end-to-end metrics against "
                        "BASE's (reports or directories of reports)")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if args.seconds is not None and args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    spec = load_json(ROOT / "BENCHMARK.json")
    if args.compare:
        return compare(Path(args.compare[0]), Path(args.compare[1]), spec)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perf/run.py: no repro package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    reference = load_json(PERF_DIR / "reference.json")
    pstats_prefix = (str(Path(args.json).with_suffix(""))
                     if args.json else None)
    workdir = tempfile.mkdtemp(prefix=".perf-work-", dir=ROOT)
    reports: Dict[str, dict] = {}
    try:
        for workload in args.workload:
            deadline = (time.perf_counter() + args.seconds
                        if args.seconds else None)
            budget = ({"deadline": deadline} if deadline
                      else {"repeats": args.repeats})
            one = {"repeats": 1}
            untraced = measure(workload, args.seed, False, workdir,
                               **(one if args.trace == 1 else budget))
            traced = [] if args.trace == 0 else measure(
                workload, args.seed, True, workdir, pstats_prefix=pstats_prefix,
                **(budget if args.trace == 1 else one))
            reports[workload] = summarise(workload, args.seed, untraced,
                                          traced, spec, reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for workload, report in reports.items():
        print_report(workload, report, spec)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump({"schema": 1, "commit": git_commit(),
                       "python": platform.python_version(),
                       "cpu_count": os.cpu_count(), "seed": args.seed,
                       "workloads": reports}, handle, indent=1)
    line = result_line(reports, spec, args.trace)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
