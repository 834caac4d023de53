"""The Python (CPython + Numba) runtime model.

CPython specifics the paper relies on:

* Stock CPython never JITs (``has_runtime_jit=False``): §5.5.1 — "the Python
  interpreter in our experiments did not perform JIT compilation".  Without
  Fireworks, Python functions run interpreted forever.
* Numba's ``@jit(cache=True)`` compiles annotated functions via LLVM MCJIT
  when they are first called (``annotation_jit=True``) — exactly what
  ``__fireworks_jit()`` triggers at install time (Figure 3).
* Numba duplicates JITted functions across modules (an MCJIT restriction
  [35]), so the Python JIT region is large and its pages get relocated
  (dirtied) at run time — the Fig 12 "no memory win for Python" effect.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.config import CalibratedParameters
from repro.errors import RuntimeModelError
from repro.runtime.interpreter import LanguageRuntime

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Simulation


class PythonRuntime(LanguageRuntime):
    """A CPython process, optionally with Numba available."""

    language = "python"
    #: A restored process (``RuntimeImage.restore``) keeps the default.
    numba_available = True

    def __init__(self, sim: "Simulation", params: CalibratedParameters,
                 numba_available: bool = True) -> None:
        super().__init__(sim, params.runtime(self.language),
                         params.memory_layout(self.language))
        self.numba_available = numba_available

    def force_jit_all(self):
        """Numba compilation of all ``@jit``-annotated functions.

        Raises when Numba is not installed in the function's environment —
        Fireworks' installer checks for this and reports it to the user.
        """
        if not self.numba_available:
            raise RuntimeModelError(
                "Numba is not available: cannot JIT-compile Python functions")
        return super().force_jit_all()
