"""Workload definitions: what a serverless function *is* in this repo.

A :class:`FunctionSpec` carries everything every platform needs to install
and invoke a function:

* its **source code** (a real string — the Fireworks annotator transforms
  it; Figure 3);
* its **app** (the loadable unit, with per-guest-function JIT properties);
* its **program factory** (payload -> op stream the runtime executes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from repro.errors import PlatformError
from repro.runtime.interpreter import AppCode
from repro.runtime.ops import Program

ProgramFactory = Callable[[Dict[str, Any]], Program]


@dataclass(frozen=True)
class FunctionSpec:
    """One deployable serverless function."""

    name: str
    language: str               # "nodejs" | "python"
    app: AppCode
    make_program: ProgramFactory
    source: str = ""            # the user-provided handler source code
    description: str = ""

    def program(self, payload: Optional[Dict[str, Any]] = None) -> Program:
        """The op stream this function executes for *payload*."""
        return self.make_program(payload or {})

    def __post_init__(self) -> None:
        if self.language not in ("nodejs", "python", "dotnet"):
            raise PlatformError(f"unsupported language {self.language!r}")
        if self.app.language != self.language:
            raise PlatformError(
                f"app language {self.app.language!r} != spec language "
                f"{self.language!r}")


@dataclass(frozen=True)
class ChainSpec:
    """A real-world application: a named chain of functions (Fig 8)."""

    name: str
    entry: str                        # first function invoked by the user
    functions: Tuple[FunctionSpec, ...] = field(default_factory=tuple)
    description: str = ""

    def function(self, name: str) -> FunctionSpec:
        """Look up a chain member by name; errors if absent."""
        for spec in self.functions:
            if spec.name == name:
                return spec
        raise PlatformError(f"chain {self.name!r} has no function {name!r}")
