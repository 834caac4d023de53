#!/usr/bin/env python3
"""Validate every shipped policy document under ``scenarios/policies/``.

Usage: ``python tools/validate_policies.py [directory]``

Each ``*.json`` file must parse, compile through the ``repro.policy``
DSL compiler, register without a name collision, with a built-in or
with another document, and build its policy: each one goes through
``PolicyRegistry.register_document`` and then ``entry.create()``, which
binds the document to its domain's accessor table.  Every problem is
reported, not just the first.  CI runs this so a malformed, duplicate or
unbindable document fails the build at review time rather than the
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
    """All problems found across *directory*'s documents; empty = valid.

    Each document registers on one fresh built-in registry, so a name
    that clashes with a built-in or with an earlier document is a
    problem too; then its policy is built, so a signal its domain cannot
    read is one.
    """
    from repro.errors import ValidationError
    from repro.policy.registry import builtin_registry
    problems: List[str] = []
    registry = builtin_registry()
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
            registry.register_document(document).create()
        except ValidationError as exc:
            problems.append(f"{filename}: {exc}")
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
