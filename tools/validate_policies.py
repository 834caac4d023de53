#!/usr/bin/env python3
"""Validate every shipped policy document under ``scenarios/policies/``.

Usage: ``python tools/validate_policies.py [directory]``

Each ``*.json`` file must parse, compile through the ``repro.policy``
DSL compiler, and register without a name collision — exactly what
``load_policy_dir`` enforces at runtime.  CI runs this so a malformed
or duplicate document fails the build at review time rather than the
first ``repro figure search`` run.

Exit code 0 when every document is valid, 1 otherwise (problems on
stderr).
"""

from __future__ import annotations

import json
import os
import sys
from typing import List

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))


def validate_policy_dir(directory: str) -> List[str]:
    """All problems found across *directory*'s documents; empty = valid."""
    from repro.errors import ValidationError
    from repro.policy import compile_policy
    problems: List[str] = []
    names = {}
    files = sorted(name for name in os.listdir(directory)
                   if name.endswith(".json"))
    if not files:
        return [f"{directory}: no policy documents found"]
    for filename in files:
        path = os.path.join(directory, filename)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except (OSError, ValueError) as exc:
            problems.append(f"{filename}: cannot load: {exc}")
            continue
        try:
            compiled = compile_policy(document)
        except ValidationError as exc:
            problems.append(f"{filename}: {exc}")
            continue
        key = (compiled.domain, compiled.name)
        if key in names:
            problems.append(
                f"{filename}: duplicate {compiled.domain} policy "
                f"{compiled.name!r} (also in {names[key]})")
        else:
            names[key] = filename
    return problems


def main(argv: List[str]) -> int:
    """CLI entry point; returns the exit code."""
    if len(argv) > 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 1
    if len(argv) == 2:
        directory = argv[1]
    else:
        from repro.policy import shipped_policy_dir
        directory = shipped_policy_dir()
    if not os.path.isdir(directory):
        print(f"error: {directory} is not a directory", file=sys.stderr)
        return 1
    problems = validate_policy_dir(directory)
    for problem in problems:
        print(f"INVALID: {problem}", file=sys.stderr)
    if problems:
        return 1
    count = sum(1 for name in os.listdir(directory)
                if name.endswith(".json"))
    print(f"{directory}: {count} policy documents valid")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
