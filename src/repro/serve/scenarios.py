"""The named-scenario library: schema, loader, and round-trip dumper.

A *scenario* is a small declarative document naming a reproducible
experiment run: which engine experiment ids to run, under which seed and
parallelism, and which docs/ page describes it.  The same documents back
both fronts of the harness — ``repro figure <name>`` on the CLI and
``POST /experiments {"scenario": "<name>"}`` on the service — so every
experiment in ``docs/`` is one line either way.

Validation follows the :mod:`repro.policy` registry convention: the only
exception that ever escapes :func:`load_scenario` is
:class:`~repro.errors.ValidationError`, and its message starts with a
JSON path into the offending document (``scenario.experiments[2]: ...``).
Valid documents round-trip exactly: ``load(dump(load(doc))) ==
load(doc)`` (property-tested in ``tests/property``).

Files are JSON by default; YAML is accepted when PyYAML happens to be
installed (it is deliberately *not* a dependency of this package).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from repro.errors import ValidationError

__all__ = [
    "SCENARIO_ENV_VAR",
    "Scenario",
    "default_library_root",
    "dump_scenario",
    "load_named_scenario",
    "load_scenario",
    "load_scenario_file",
    "load_scenario_library",
    "scenario_names",
]

#: Environment variable overriding where the scenario library lives.
SCENARIO_ENV_VAR = "REPRO_SCENARIOS"

_NAME_RE = re.compile(r"^[a-z0-9][a-z0-9-]*$")

#: Document keys, in canonical (dump) order.
_KNOWN_KEYS = ("name", "title", "description", "experiments", "seed",
               "jobs", "tags", "docs")


@dataclass(frozen=True)
class Scenario:
    """One validated scenario document."""

    name: str                      # library key; kebab-case
    title: str                     # one-line human description
    experiments: Tuple[str, ...]   # engine experiment ids, run order
    description: str = ""
    seed: int = 2022               # engine seed (the paper's evaluation year)
    jobs: int = 1                  # default worker processes
    tags: Tuple[str, ...] = field(default_factory=tuple)
    docs: Tuple[str, ...] = field(default_factory=tuple)  # repo-relative


def _fail(path: str, message: str) -> None:
    raise ValidationError(f"{path}: {message}")


_IDENT_RE = re.compile(r"^[A-Za-z0-9_-]+$")


def _child(path: str, key: str) -> str:
    """The JSON path of *key* under *path*: dotted for identifier-like
    keys, bracket-quoted otherwise (a key like ``"a b"`` must not smear
    into the surrounding path syntax)."""
    if _IDENT_RE.match(key):
        return f"{path}.{key}"
    return f"{path}[{key!r}]"


def _require_str(value: Any, path: str, allow_empty: bool = False) -> str:
    if not isinstance(value, str):
        _fail(path, f"must be a string, got {type(value).__name__}")
    if not allow_empty and not value:
        _fail(path, "must not be empty")
    return value


def _require_int(value: Any, path: str, minimum: Optional[int] = None) -> int:
    # bool is an int subclass; a scenario seed of ``true`` is a typo.
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"must be an integer, got {type(value).__name__}")
    if minimum is not None and value < minimum:
        _fail(path, f"must be >= {minimum}, got {value}")
    return value


def _require_str_list(value: Any, path: str) -> Tuple[str, ...]:
    if not isinstance(value, (list, tuple)):
        _fail(path, f"must be a list of strings, got {type(value).__name__}")
    return tuple(_require_str(item, f"{path}[{i}]")
                 for i, item in enumerate(value))


def load_scenario(document: Any, path: str = "scenario") -> Scenario:
    """Validate *document* (a parsed mapping) into a :class:`Scenario`.

    Raises :class:`ValidationError` — and only :class:`ValidationError` —
    with a JSON path into the document on any schema violation.
    """
    from repro.bench.engine import experiment_registry
    if not isinstance(document, dict):
        _fail(path, f"must be a mapping, got {type(document).__name__}")
    for key in document:
        if not isinstance(key, str):
            _fail(path, f"keys must be strings, got {key!r}")
        if key not in _KNOWN_KEYS:
            _fail(_child(path, key),
                  f"unknown key; known keys: {', '.join(_KNOWN_KEYS)}")
    for required in ("name", "title", "experiments"):
        if required not in document:
            _fail(f"{path}.{required}", "required key is missing")

    name = _require_str(document["name"], f"{path}.name")
    if not _NAME_RE.match(name):
        _fail(f"{path}.name",
              f"must match {_NAME_RE.pattern} (kebab-case), got {name!r}")
    title = _require_str(document["title"], f"{path}.title")

    experiments = _require_str_list(document["experiments"],
                                    f"{path}.experiments")
    if not experiments:
        _fail(f"{path}.experiments", "must not be empty")
    known = experiment_registry()
    seen = set()
    for i, experiment in enumerate(experiments):
        if experiment not in known:
            _fail(f"{path}.experiments[{i}]",
                  f"unknown experiment {experiment!r}; known: "
                  f"{', '.join(known)}")
        if experiment in seen:
            _fail(f"{path}.experiments[{i}]",
                  f"duplicate experiment {experiment!r}")
        seen.add(experiment)

    description = _require_str(document.get("description", ""),
                               f"{path}.description", allow_empty=True)
    seed = _require_int(document.get("seed", 2022), f"{path}.seed",
                        minimum=0)
    jobs = _require_int(document.get("jobs", 1), f"{path}.jobs", minimum=1)
    tags = _require_str_list(document.get("tags", ()), f"{path}.tags")
    docs = _require_str_list(document.get("docs", ()), f"{path}.docs")
    return Scenario(name=name, title=title, experiments=experiments,
                    description=description, seed=seed, jobs=jobs,
                    tags=tags, docs=docs)


def dump_scenario(scenario: Scenario) -> Dict[str, Any]:
    """*scenario* as a plain document; ``load(dump(s)) == s`` exactly."""
    document: Dict[str, Any] = {}
    for key in _KNOWN_KEYS:
        value = getattr(scenario, key)
        document[key] = list(value) if isinstance(value, tuple) else value
    return document


def _parse_text(text: str, path: Path) -> Any:
    suffix = path.suffix.lower()
    if suffix in (".yaml", ".yml"):
        try:
            import yaml
        except ImportError:
            _fail(str(path),
                  "is YAML but PyYAML is not installed; use JSON or "
                  "install pyyaml")
        try:
            return yaml.safe_load(text)
        except yaml.YAMLError as exc:
            _fail(str(path), f"invalid YAML: {exc}")
    try:
        return json.loads(text)
    except ValueError as exc:
        _fail(str(path), f"invalid JSON: {exc}")


def load_scenario_file(path) -> Scenario:
    """Load + validate one scenario file (.json, or .yaml with PyYAML)."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        _fail(str(path), f"cannot read scenario file: {exc}")
    return load_scenario(_parse_text(text, path), path=path.stem)


def default_library_root() -> Path:
    """Where the scenario library lives.

    ``$REPRO_SCENARIOS`` wins; otherwise the repo checkout's
    ``scenarios/`` next to ``src/`` (this file is
    ``src/repro/serve/scenarios.py``); otherwise ``./scenarios``.
    """
    import os
    override = os.environ.get(SCENARIO_ENV_VAR)
    if override:
        return Path(override)
    checkout = Path(__file__).resolve().parents[3] / "scenarios"
    if checkout.is_dir():
        return checkout
    return Path("scenarios")


def load_scenario_library(root=None) -> Dict[str, Scenario]:
    """Every scenario under *root*, by name, in sorted-filename order.

    Only top-level ``*.json`` / ``*.yaml`` / ``*.yml`` files are scenarios
    (``scenarios/policies/`` holds policy DSL documents, not scenarios).
    Filenames must match the document's ``name`` so ``repro figure <name>``
    and the file on disk can never disagree.
    """
    root = Path(root) if root is not None else default_library_root()
    if not root.is_dir():
        _fail(str(root), "scenario library directory does not exist")
    library: Dict[str, Scenario] = {}
    for path in sorted(root.iterdir()):
        if not path.is_file() or path.suffix.lower() not in (
                ".json", ".yaml", ".yml"):
            continue
        scenario = load_scenario_file(path)
        if scenario.name != path.stem:
            _fail(f"{path.stem}.name",
                  f"must match its filename, got {scenario.name!r}")
        if scenario.name in library:
            _fail(f"{path.stem}.name",
                  f"duplicate scenario name {scenario.name!r}")
        library[scenario.name] = scenario
    return library


def scenario_names(root=None) -> Tuple[str, ...]:
    """The library's scenario names, sorted."""
    return tuple(load_scenario_library(root))


def load_named_scenario(name: str, root=None) -> Scenario:
    """One scenario by name; unknown names list the valid ones."""
    library = load_scenario_library(root)
    if name not in library:
        _fail("scenario",
              f"unknown scenario {name!r}; known: {', '.join(library)}")
    return library[name]
