#!/usr/bin/env python3
"""Validate the named-scenario library under ``scenarios/``.

Usage: ``python tools/validate_scenarios.py [directory]``

Every scenario document must load through the schema
(``repro.serve.scenarios.load_scenario_library``: known experiment ids,
filename == name, no duplicates), round-trip exactly through
``dump_scenario``, and point its ``docs`` entries at files that exist.
The whole library must also cover every engine experiment id, so no
experiment is unreachable by name.  CI runs this so a broken scenario
fails the build at review time rather than at the first
``repro figure <name>`` or ``POST /experiments``.

Exit code 0 when the library is valid, 1 otherwise (problems on
stderr).
"""

from __future__ import annotations

import os
import sys
from typing import List

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))


def validate_scenario_dir(directory: str) -> List[str]:
    """All problems found across *directory*'s documents; empty = valid."""
    from repro.bench.engine import experiment_ids
    from repro.errors import ValidationError
    from repro.serve.scenarios import (dump_scenario, load_scenario,
                                       load_scenario_library)
    problems: List[str] = []
    try:
        library = load_scenario_library(directory)
    except ValidationError as exc:
        return [str(exc)]
    if not library:
        return [f"{directory}: no scenario documents found"]

    covered = set()
    for scenario in library.values():
        covered.update(scenario.experiments)
        if load_scenario(dump_scenario(scenario)) != scenario:
            problems.append(
                f"{scenario.name}: does not round-trip through "
                "dump_scenario")
        for doc in scenario.docs:
            if not os.path.isfile(os.path.join(REPO_ROOT, doc)):
                problems.append(
                    f"{scenario.name}: docs entry {doc!r} does not exist")

    missing = set(experiment_ids()) - covered
    if missing:
        problems.append(
            "experiments unreachable from any scenario: "
            + ", ".join(sorted(missing)))
    return problems


def main(argv: List[str]) -> int:
    """CLI entry point; returns the exit code."""
    if len(argv) > 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 1
    if len(argv) == 2:
        directory = argv[1]
    else:
        from repro.serve.scenarios import default_library_root
        directory = str(default_library_root())
    if not os.path.isdir(directory):
        print(f"error: {directory} is not a directory", file=sys.stderr)
        return 1
    problems = validate_scenario_dir(directory)
    for problem in problems:
        print(f"INVALID: {problem}", file=sys.stderr)
    if problems:
        return 1
    from repro.serve.scenarios import load_scenario_library
    library = load_scenario_library(directory)
    print(f"{directory}: {len(library)} scenarios valid, "
          "every experiment covered")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
