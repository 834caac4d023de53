"""The declaration of one experiment: its shards, merge and renderer.

Each experiment is declared once, next to its driver, as an
:class:`Experiment`; :mod:`repro.bench.engine` lists the declarations in
its catalog, and the engine, the renderer, the CLI and the scenario
validator all read that one catalog.  This module imports no driver, so
every driver can import it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, TextIO, Tuple

from repro.bench.ascii_chart import render_figure

#: The shard key of an experiment that declares no grid.
SINGLE = "all"


@dataclass(frozen=True)
class Shard:
    """One independently executable (and cacheable) unit of an experiment."""

    experiment: str
    key: str                                  # unique within the experiment
    kwargs: Tuple[Tuple[str, Any], ...] = ()  # sorted, JSON-able

    def kwargs_dict(self) -> Dict[str, Any]:
        """The shard kwargs as a plain dict (stored as a hashable tuple)."""
        return dict(self.kwargs)


@dataclass(frozen=True, eq=False)
class Experiment:
    """An experiment: a shard grid, a deterministic merge and a renderer.

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
    * ``render(result, out, chart)`` prints the merged result to *out*;
      *chart* asks for ASCII bars, and renderers without them ignore it.
    """

    id: str
    title: str
    run: Callable[..., Any]
    render: Callable[[Any, TextIO, bool], None]
    grid: Optional[Mapping[str, Mapping[str, Any]]] = None
    merge: Optional[Callable[[Dict[str, Any]], Any]] = None
    shards: Tuple[Shard, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        grid = self.grid if self.grid is not None else {SINGLE: {}}
        object.__setattr__(self, "shards", tuple(
            Shard(self.id, key, tuple(sorted(kwargs.items())))
            for key, kwargs in grid.items()))
        if self.merge is None:
            object.__setattr__(self, "merge", self._merge_by_key)

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


__all__ = ["Experiment", "SINGLE", "Shard", "render_figures", "render_lines"]
