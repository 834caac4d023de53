"""The declaration of one experiment: its shards, merge and renderer.

Each experiment is declared once, next to its driver, as an
:class:`Experiment`; :mod:`repro.bench.engine` lists the declarations in
its catalog, and the engine, the renderer, the CLI and the scenario
validator all read that one catalog.  This module imports no driver, so
every driver can import it.

An experiment either *computes* shards, its ``run`` over its ``grid``, or
*derives* its result from catalog shards it declares, each a
:class:`Read` (the scorecard, the sensitivity sweep).  A derived
experiment has no shards of its own: it reads other experiments' shards,
at the run's parameters or at parameters of its own, through a
:class:`Cells` accessor.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterable, Mapping, Optional, TextIO,
                    Tuple)

from repro.bench.ascii_chart import render_figure
from repro.config import (CalibratedParameters, default_parameters,
                          params_fingerprint)
from repro.errors import ReproError

#: The shard key of an experiment that declares no grid.
SINGLE = "all"

#: The seed of a run that names none.
DEFAULT_SEED = 2022


@dataclass(frozen=True)
class Shard:
    """One independently executable (and cacheable) unit of an experiment."""

    experiment: str
    key: str                                  # unique within the experiment
    kwargs: Tuple[Tuple[str, Any], ...] = ()  # sorted, JSON-able

    def kwargs_dict(self) -> Dict[str, Any]:
        """The shard kwargs as a plain dict (stored as a hashable tuple)."""
        return dict(self.kwargs)


@dataclass(frozen=True)
class Read:
    """One catalog shard a derived experiment reads, at *params* (None:
    the run's own); *point* names the reader's point that chose them."""

    experiment: str
    key: str = SINGLE
    params: Optional[CalibratedParameters] = None
    point: str = ""


class Cells:
    """Catalog shard results at one parameter set and seed.

    ``cells(experiment_id, shard_key)`` is one shard's result at
    ``cells.params``; ``cells.at(params)`` reads the same shards at other
    parameters.  Given *shards*, keyed ``(experiment id, shard key, params
    fingerprint)`` (the engine passes a derived experiment its declared
    reads), it only reads them, and any other read raises.  Without, it
    runs a shard on its first read, as the engine's ``run`` does, and
    keeps it.
    """

    def __init__(self, params: Optional[CalibratedParameters] = None,
                 seed: int = DEFAULT_SEED,
                 shards: Optional[Dict[Tuple[str, str, str], Any]] = None
                 ) -> None:
        self.params = params if params is not None else default_parameters()
        self.seed = seed
        self.fingerprint = params_fingerprint(self.params)
        self._computes = shards is None
        self._shards: Dict[Tuple[str, str, str], Any] = (
            {} if shards is None else shards)

    def __call__(self, experiment_id: str, shard_key: str = SINGLE) -> Any:
        cell = (experiment_id, shard_key, self.fingerprint)
        if cell not in self._shards:
            if not self._computes:
                raise ReproError(
                    f"{experiment_id}/{shard_key} at parameters "
                    f"{self.fingerprint} is not a declared read")
            # The engine's catalog imports the drivers: import it lazily.
            from repro.bench.engine import experiment_registry
            experiment = experiment_registry()[experiment_id]
            self._shards[cell] = experiment.run(
                self.params, self.seed,
                **experiment.shard(shard_key).kwargs_dict())
        return self._shards[cell]

    def at(self, params: CalibratedParameters) -> "Cells":
        """The same shards, read at *params*."""
        other = copy.copy(self)
        other.params = params
        other.fingerprint = params_fingerprint(params)
        return other


@dataclass(frozen=True, eq=False)
class Experiment:
    """An experiment: a shard grid or declared reads, and a renderer.

    A computing experiment:

    * ``run(params, seed, **kwargs)`` computes one shard; *kwargs* are the
      shard's entry in ``grid``.  It runs in a pool worker under
      ``jobs > 1``, which finds it through the catalog by experiment id.
    * ``grid`` maps shard key -> kwargs, in merge order.  Without a grid
      the experiment is one shard, keyed :data:`SINGLE`, with no kwargs.
    * ``merge({shard key: result})`` builds the experiment result.  It is
      called with every shard present and must not depend on wall clock,
      completion order, or anything outside its inputs.  By default a
      single-shard experiment's result is its shard's result, and a
      gridded one's is ``{shard key: result}`` in grid order.

    A derived experiment has no ``run``, ``grid`` or shards:

    * ``reads(params)`` lists the shards it needs at the run's *params*,
      each a :class:`Read`.  It is called when a run is planned, never
      at import.
    * ``derive(cells)`` builds the result from a :class:`Cells` at the
      run's parameters and seed that holds exactly those reads.

    Either way, ``render(result, out, chart)`` prints the result to
    *out*; *chart* asks for ASCII bars, and renderers without them ignore
    it.
    """

    id: str
    title: str
    render: Callable[[Any, TextIO, bool], None]
    run: Optional[Callable[..., Any]] = None
    grid: Optional[Mapping[str, Mapping[str, Any]]] = None
    merge: Optional[Callable[[Dict[str, Any]], Any]] = None
    reads: Optional[Callable[[CalibratedParameters], Iterable[Read]]] = None
    derive: Optional[Callable[[Cells], Any]] = None
    shards: Tuple[Shard, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.derive is not None:
            object.__setattr__(self, "shards", ())
            return
        grid = self.grid if self.grid is not None else {SINGLE: {}}
        object.__setattr__(self, "shards", tuple(
            Shard(self.id, key, tuple(sorted(kwargs.items())))
            for key, kwargs in grid.items()))
        if self.merge is None:
            object.__setattr__(self, "merge", self._merge_by_key)

    def shard(self, key: str) -> Shard:
        """The shard keyed *key*; raises ``KeyError`` naming the keys."""
        for shard in self.shards:
            if shard.key == key:
                return shard
        raise KeyError(f"{self.id} has no shard {key!r}; shards: "
                       f"{', '.join(one.key for one in self.shards)}")

    def _merge_by_key(self, results: Dict[str, Any]) -> Any:
        if self.grid is None:
            return results[SINGLE]
        return {key: results[key] for key in self.grid}


def render_lines(result: Mapping[Any, Any], out: TextIO,
                 chart: bool = False) -> None:
    """Renderer: one ``as_line()`` per value of a result dict."""
    for value in result.values():
        print(value.as_line(), file=out)


def render_figures(result: Mapping[Any, Any], out: TextIO,
                   chart: bool = False) -> None:
    """Renderer for latency figures: each value's table (or, with
    *chart*, its stacked ASCII bars), then a blank line."""
    for figure in result.values():
        print(render_figure(figure) if chart else figure.as_table(),
              file=out)
        print(file=out)


__all__ = ["DEFAULT_SEED", "Cells", "Experiment", "Read", "SINGLE", "Shard",
           "render_figures", "render_lines"]
