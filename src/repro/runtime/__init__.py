"""Language runtime models: op streams, tiered JIT, Node.js and Python."""

from repro.runtime.interpreter import (AppCode, ExecBreakdown,
                                       ExternalHandlers, GuestFunction,
                                       LanguageRuntime, RuntimeImage)
from repro.runtime.jit import (INTERPRETED, OPTIMIZED, ComputeCost,
                               FunctionJitState, JitEngine)
from repro.runtime.dotnet import DotnetRuntime
from repro.runtime.nodejs import NodeJsRuntime
from repro.runtime.ops import (Compute, DbGet, DbPut, DiskRead, DiskWrite,
                               InvokeNext, NetRecv, NetSend, Op, Program,
                               Respond, program)
from repro.runtime.python_rt import PythonRuntime

__all__ = [
    "AppCode",
    "Compute",
    "ComputeCost",
    "DbGet",
    "DbPut",
    "DiskRead",
    "DiskWrite",
    "DotnetRuntime",
    "ExecBreakdown",
    "ExternalHandlers",
    "FunctionJitState",
    "GuestFunction",
    "INTERPRETED",
    "InvokeNext",
    "JitEngine",
    "LanguageRuntime",
    "NetRecv",
    "NetSend",
    "NodeJsRuntime",
    "OPTIMIZED",
    "Op",
    "Program",
    "PythonRuntime",
    "Respond",
    "RuntimeImage",
    "program",
    "runtime_class",
]


_RUNTIME_CLASSES = {"nodejs": NodeJsRuntime, "python": PythonRuntime,
                    "dotnet": DotnetRuntime}


def runtime_class(language):
    """The runtime class for *language*."""
    try:
        return _RUNTIME_CLASSES[language]
    except KeyError:
        raise KeyError(f"unknown language {language!r}") from None


def make_runtime(sim, params, language):
    """Factory: the right runtime class for *language*."""
    return runtime_class(language)(sim, params)
