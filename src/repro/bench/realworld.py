"""Figure 9: the real-world ServerlessBench applications.

Both applications run through the DAG chain executor
(:class:`repro.platforms.chains.ChainExecutor`), which installs the
functions, wires the CouchDB trigger edges, and drives the chains —
on chain-capable backends in guest mode (byte-identical to invoking the
entry function directly, which the golden Fig 9 hash pins), and on every
other backend in orchestrated mode.  The paper's figure compares
OpenWhisk and Fireworks; latency is aggregated over the whole chain
(every function's start-up and exec summed, as the stacked bars do).

For the data-analysis app, the insertion chain (da-input -> da-format ->
CouchDB) and the triggered analysis chain (da-analyze -> da-stats) are
reported separately, matching the paper's two sets of ratios; the
executor keeps the records of the trigger's firings.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Type

from repro.bench.experiment import Experiment, render_figures
from repro.bench.harness import fresh_platform
from repro.bench.results import FigureResult, LatencyRow
from repro.config import CalibratedParameters
from repro.core.fireworks import FireworksPlatform
from repro.errors import PlatformError
from repro.platforms.base import InvocationRecord, ServerlessPlatform
from repro.platforms.chains import MODE_GUEST, ChainExecutor, DagRun
from repro.platforms.openwhisk import OpenWhiskPlatform
from repro.workloads.serverlessbench import (ALEXA_SKILLS,
                                             alexa_skills_dag,
                                             data_analysis_dag)

#: The paper's Fig 9 comparison pair.  Any backend in
#: ``repro.bench.load.LOAD_PLATFORMS`` works here — the executor
#: orchestrates chains for backends without guest-chain support.
FIG9_PLATFORMS = (OpenWhiskPlatform, FireworksPlatform)


def _top_records(runs: List[DagRun]) -> List[InvocationRecord]:
    """The top-level records of *runs*: the entry record per guest run
    (its chain children hang off it), every stage record otherwise."""
    records: List[InvocationRecord] = []
    for run in runs:
        if run.mode == MODE_GUEST:
            if run.entry_record is not None:
                records.append(run.entry_record)
        else:
            records.extend(result.record for result in run.executed()
                           if result.record is not None)
    return records


def _chain_row(records: List[InvocationRecord], platform: str,
               mode: str) -> LatencyRow:
    return LatencyRow(
        platform=platform, mode=mode,
        startup_ms=sum(r.chain_startup_ms() for r in records),
        exec_ms=sum(r.chain_exec_ms() for r in records),
        other_ms=sum(r.chain_other_ms() for r in records))


def _run_alexa(platform_cls: Type[ServerlessPlatform],
               params: Optional[CalibratedParameters]) -> LatencyRow:
    """§5.3(1): ask a fact, check the schedule, check the smart home."""
    platform = fresh_platform(platform_cls, params)
    executor = ChainExecutor(platform)
    dag = alexa_skills_dag()
    executor.install(dag)
    runs = [executor.run(dag, payload={"skill": skill})
            for skill in ALEXA_SKILLS]
    platform.sim.run()
    return _chain_row(_top_records(runs), platform.name, "chain")


def _run_data_analysis(platform_cls: Type[ServerlessPlatform],
                       params: Optional[CalibratedParameters]
                       ) -> Dict[str, LatencyRow]:
    """§5.3(2): wage insertion, then the db-triggered analysis chain."""
    platform = fresh_platform(platform_cls, params)
    executor = ChainExecutor(platform)
    dag = data_analysis_dag()
    executor.install(dag)  # functions + the wages-db trigger edge

    insertion = executor.run(dag, payload={"name": "alice", "id": "e1",
                                           "role": "engineer",
                                           "base": 7200})
    platform.sim.run()  # let the triggered analysis chain finish

    analysis_records = (executor.trigger_records
                        + _top_records(executor.trigger_runs))
    if not analysis_records:
        raise PlatformError(
            "the wages-db trigger never fired the analysis chain")
    return {
        "insertion": _chain_row(_top_records([insertion]),
                                platform.name, "insert"),
        "analysis": _chain_row(analysis_records, platform.name, "analysis"),
    }


def run_fig9(params: Optional[CalibratedParameters] = None
             ) -> Dict[str, FigureResult]:
    """Figure 9(a) and 9(b): Alexa Skills and data analysis."""
    alexa = FigureResult(figure_id="fig9a",
                         title="Alexa Skills chain (3 requests)")
    for platform_cls in FIG9_PLATFORMS:
        alexa.rows.append(_run_alexa(platform_cls, params))
    ow = alexa.row("openwhisk", "chain")
    fw = alexa.row("fireworks", "chain")
    alexa.notes.append(
        f"fireworks start-up {ow.startup_ms / fw.startup_ms:.1f}x faster, "
        f"exec {ow.exec_ms / fw.exec_ms:.1f}x faster than openwhisk")

    analysis = FigureResult(figure_id="fig9b",
                            title="Data analysis: insertion + analysis")
    ratios = {}
    for platform_cls in FIG9_PLATFORMS:
        rows = _run_data_analysis(platform_cls, params)
        analysis.rows.append(rows["insertion"])
        analysis.rows.append(rows["analysis"])
        ratios[rows["insertion"].platform] = rows
    for step in ("insertion", "analysis"):
        ow_row = ratios["openwhisk"][step]
        fw_row = ratios["fireworks"][step]
        analysis.notes.append(
            f"{step}: fireworks start-up "
            f"{ow_row.startup_ms / fw_row.startup_ms:.1f}x faster, exec "
            f"{ow_row.exec_ms / fw_row.exec_ms:.1f}x faster")
    return {"alexa": alexa, "data-analysis": analysis}


FIG9 = Experiment(
    "fig9", "real-world ServerlessBench applications",
    run=lambda params, seed: run_fig9(params), render=render_figures)
