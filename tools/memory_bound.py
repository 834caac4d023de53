#!/usr/bin/env python3
"""CI check that a long open-loop replay runs in bounded memory.

Usage: ``python tools/memory_bound.py``

Runs ``run_load_platform("fireworks", "predictive")`` for 15 s and for
150 s of simulated traffic (the ten-times-longer replay completes about
ten times as many invocations), each in a fresh interpreter, and compares
the two processes' peak RSS (``ru_maxrss``, KiB on Linux).  The arrival
trace is streamed, not held, so what still grows with run length is a few
doubles per arrival: the keep-alive gap ledgers and the platform ledger's
columns, each an ``array('d')``, plus the kept trace trees, which stop at
``KEPT_ROOTS``.  The allowance is the measured growth (+5.6 MiB at the
default seed, Python 3.11 on Linux x86-64) with about a 2x margin.

Exit code 0 when the longer run peaks at most ``ALLOWANCE_MIB`` above the
shorter one; 1 otherwise.
"""

from __future__ import annotations

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")

#: Simulated replay lengths, shorter first.
DURATIONS_MS = (15_000.0, 150_000.0)
#: How far the longer run's peak RSS may exceed the shorter run's.
ALLOWANCE_MIB = 12.0

CHILD = """\
import resource, sys
from repro.bench.load import run_load_platform
run_load_platform("fireworks", "predictive", duration_ms=float(sys.argv[1]))
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def peak_rss_mib(duration_ms: float) -> float:
    """Peak RSS of one replay of *duration_ms* in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (SRC, env.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-c", CHILD, repr(duration_ms)], env=env,
        check=True, stdout=subprocess.PIPE, text=True)
    return int(result.stdout.split()[-1]) / 1024.0


def main() -> int:
    short_ms, long_ms = DURATIONS_MS
    short, long_ = peak_rss_mib(short_ms), peak_rss_mib(long_ms)
    growth = long_ - short
    verdict = "ok" if growth <= ALLOWANCE_MIB else "FAIL"
    print(f"{verdict}: peak RSS {short:.1f} MiB at {short_ms / 1000:g} s, "
          f"{long_:.1f} MiB at {long_ms / 1000:g} s "
          f"(+{growth:.1f} MiB, allowance {ALLOWANCE_MIB:g} MiB)")
    return 0 if verdict == "ok" else 1


if __name__ == "__main__":
    sys.exit(main())
