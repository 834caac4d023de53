#!/usr/bin/env python3
"""CI check that runs stay in bounded memory, longer or repeated.

Usage: ``python tools/memory_bound.py``

Two checks, each comparing the peak RSS (``ru_maxrss``, KiB on Linux) of
two runs in fresh interpreters:

1. **A longer replay.**  ``run_load_platform("fireworks", "predictive")``
   for 15 s and for 150 s of simulated traffic (the ten-times-longer
   replay completes about ten times as many invocations).  The arrival
   trace is streamed, not held, so what still grows with run length is
   the platform ledger's two columns (``total_ms`` and
   ``queue_wait_ms``, two doubles per completion) and the keep-alive gap
   ledgers (one double per arrival), each an ``array('d')``, plus the
   kept trace trees, which stop at ``KEPT_ROOTS``.  The allowance is the
   measured growth (+4.6 to +5.1 MiB over four runs at the default
   seed, Python 3.11 on Linux x86-64) with about a 2x margin.
2. **Simulations run one after another.**  The serial 24-candidate
   ``run_search()`` against its first candidate alone
   (``evaluate_index(None, 2022, 0)``).  Each candidate builds, runs and
   drops a cluster, so a finished one must be freed by refcounting, not
   left for the cyclic GC: a reference cycle from a helper back to its
   platform grew the serial run by 12.4 MiB, and without such cycles it
   grows by 0.4 MiB.

Exit code 0 when each second run peaks at most its allowance above the
first; 1 otherwise.
"""

from __future__ import annotations

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")

#: Simulated replay lengths, shorter first.
DURATIONS_MS = (15_000.0, 150_000.0)
#: How far the longer replay's peak RSS may exceed the shorter one's.
ALLOWANCE_MIB = 10.0
#: How far the serial search's peak RSS may exceed one candidate's.
SEARCH_ALLOWANCE_MIB = 2.0

REPLAY_CHILD = """\
import resource, sys
from repro.bench.load import run_load_platform
run_load_platform("fireworks", "predictive", duration_ms=float(sys.argv[1]))
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""

SEARCH_CHILD = """\
import resource, sys
from repro.bench.search import evaluate_index, run_search
if sys.argv[1] == "one":
    evaluate_index(None, 2022, 0)
else:
    run_search()
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def peak_rss_mib(child: str, argument: str) -> float:
    """Peak RSS of *child* run with *argument* in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (SRC, env.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-c", child, argument], env=env,
        check=True, stdout=subprocess.PIPE, text=True)
    return int(result.stdout.split()[-1]) / 1024.0


def check(first_label: str, first: float, second_label: str,
          second: float, allowance: float) -> bool:
    """Print one verdict line; True when *second* is within *allowance*
    of *first*."""
    growth = second - first
    ok = growth <= allowance
    print(f"{'ok' if ok else 'FAIL'}: peak RSS {first:.1f} MiB "
          f"{first_label}, {second:.1f} MiB {second_label} "
          f"({growth:+.1f} MiB, allowance {allowance:g} MiB)")
    return ok


def main() -> int:
    short_ms, long_ms = DURATIONS_MS
    replay_ok = check(
        f"at {short_ms / 1000:g} s",
        peak_rss_mib(REPLAY_CHILD, repr(short_ms)),
        f"at {long_ms / 1000:g} s",
        peak_rss_mib(REPLAY_CHILD, repr(long_ms)), ALLOWANCE_MIB)
    search_ok = check(
        "for one search candidate", peak_rss_mib(SEARCH_CHILD, "one"),
        "for all 24 in sequence", peak_rss_mib(SEARCH_CHILD, "all"),
        SEARCH_ALLOWANCE_MIB)
    return 0 if replay_ok and search_ok else 1


if __name__ == "__main__":
    sys.exit(main())
