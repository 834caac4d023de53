"""The ServerlessBench real-world applications (§5.3, Fig 8), in Node.js.

Two applications, each a chain of serverless functions:

* **Alexa Skills** — a frontend parses the (text) voice command and invokes
  one of three skills: *fact* (answers common sense), *reminder*
  (reads/writes schedules in CouchDB), *smart home* (reports device on/off
  status).  Different skills send differently-shaped arguments into the
  JITted frontend code — the §6 de-optimization scenario.
* **Data analysis** — wage records are validated, format-converted and
  inserted into CouchDB; a database-update trigger runs the analysis chain
  (the dashed box of Fig 8(b)) which computes statistics and writes them
  back.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.runtime.interpreter import AppCode, GuestFunction
from repro.runtime.ops import (Compute, DbGet, DbPut, InvokeNext, Program,
                               Respond, program)
from repro.workloads.base import ChainSpec, FunctionSpec

REMINDER_DB = "alexa-reminders"
DEVICES_DB = "alexa-devices"
WAGES_DB = "wages"
WAGE_STATS_DB = "wage-stats"

ALEXA_SKILLS = ("fact", "reminder", "smarthome")


# ---------------------------------------------------------------------------
# Sources (abridged but real handler code for the annotator)
# ---------------------------------------------------------------------------
_ALEXA_FRONTEND_JS = '''\
function parseIntent(text) {
    if (text.indexOf('remind') >= 0) return 'reminder';
    if (text.indexOf('turn') >= 0 || text.indexOf('status') >= 0)
        return 'smarthome';
    return 'fact';
}

function main(params) {
    const intent = parseIntent(params.text || '');
    return { invoke: 'alexa-' + intent, slots: params };
}
'''

_ALEXA_FACT_JS = '''\
const FACTS = [
    'A year on Mercury is just 88 days long.',
    'Octopuses have three hearts.',
];

function main(params) {
    const i = (params.seed || 0) % FACTS.length;
    return { speech: FACTS[i] };
}
'''

_ALEXA_REMINDER_JS = '''\
function main(params) {
    const entry = { item: params.item, place: params.place,
                    url: params.url };
    // search or insert the schedule in CouchDB
    return { saved: entry };
}
'''

_ALEXA_SMARTHOME_JS = '''\
function main(params) {
    const devices = ['light', 'door', 'tv'];
    const status = {};
    for (const d of devices) status[d] = params[d] || 'off';
    return { status: status };
}
'''

_DA_INPUT_JS = '''\
function main(params) {
    if (!params.name || !params.id) throw new Error('invalid wage record');
    return { invoke: 'da-format', record: params };
}
'''

_DA_FORMAT_JS = '''\
function main(params) {
    const rec = params.record || params;
    const doc = { name: rec.name, id: rec.id, role: rec.role,
                  base: Number(rec.base || 0) };
    // insert into CouchDB; the analysis chain triggers on the update
    return { inserted: doc };
}
'''

_DA_ANALYZE_JS = '''\
function main(params) {
    // read wage docs, compute bonuses and taxes per role
    const bonusRate = { manager: 0.2, engineer: 0.15 };
    return { invoke: 'da-stats', rates: bonusRate };
}
'''

_DA_STATS_JS = '''\
function main(params) {
    // aggregate statistics and write them back to CouchDB
    return { done: true };
}
'''


def _app(name: str, functions, extra_load_ms: float = 140.0) -> AppCode:
    return AppCode(name=name, language="nodejs",
                   guest_functions=tuple(functions),
                   extra_load_ms=extra_load_ms)


# ---------------------------------------------------------------------------
# Alexa Skills
# ---------------------------------------------------------------------------
def _alexa_frontend_program(payload: Dict[str, Any]) -> Program:
    skill = payload.get("skill", "fact")
    # The intent parse sees a different argument shape per skill — the
    # JITted code de-optimizes on unseen shapes (§6).
    return program(
        Compute(5200.0, function="main", arg_shape=(skill,)),
        InvokeNext(f"alexa-{skill}", payload_kb=1.2),
        Respond(1.0),
    )


def _alexa_fact_program(_payload: Dict[str, Any]) -> Program:
    return program(Compute(2600.0), Respond(0.8))


def _alexa_reminder_program(payload: Dict[str, Any]) -> Program:
    # Search or enter a schedule: read then write the reminders database.
    # Documents carry item, place and related-URL fields (§5.3).
    doc_kb = float(payload.get("doc_kb", 1.4))
    return program(
        Compute(2100.0),
        DbGet(REMINDER_DB, doc_kb=doc_kb),
        Compute(900.0),
        DbPut(REMINDER_DB, doc_kb=doc_kb),
        Respond(0.8),
    )


def _alexa_smarthome_program(_payload: Dict[str, Any]) -> Program:
    return program(
        Compute(1700.0),
        DbGet(DEVICES_DB, doc_kb=0.9),
        Compute(600.0),
        Respond(0.8),
    )


def alexa_skills_chain() -> ChainSpec:
    """The Alexa Skills application (Fig 8(a))."""
    functions = (
        FunctionSpec(
            name="alexa-frontend", language="nodejs",
            app=_app("alexa-frontend",
                     [GuestFunction("main", 900.0, 3.0),
                      GuestFunction("parseIntent", 300.0, 3.0)]),
            make_program=_alexa_frontend_program,
            source=_ALEXA_FRONTEND_JS,
            description="Voice-command analysis and skill dispatch"),
        FunctionSpec(
            name="alexa-fact", language="nodejs",
            app=_app("alexa-fact", [GuestFunction("main", 400.0, 3.0)]),
            make_program=_alexa_fact_program,
            source=_ALEXA_FACT_JS,
            description="Answers simple common sense"),
        FunctionSpec(
            name="alexa-reminder", language="nodejs",
            app=_app("alexa-reminder", [GuestFunction("main", 600.0, 3.0)]),
            make_program=_alexa_reminder_program,
            source=_ALEXA_REMINDER_JS,
            description="Searches or enters a schedule in CouchDB"),
        FunctionSpec(
            name="alexa-smarthome", language="nodejs",
            app=_app("alexa-smarthome", [GuestFunction("main", 500.0, 3.0)]),
            make_program=_alexa_smarthome_program,
            source=_ALEXA_SMARTHOME_JS,
            description="Reports on/off status of home devices"),
    )
    return ChainSpec(
        name="alexa-skills", entry="alexa-frontend", functions=functions,
        description="Apps run through the Alexa AI device (ServerlessBench)")


# ---------------------------------------------------------------------------
# Data analysis
# ---------------------------------------------------------------------------
def _da_input_program(_payload: Dict[str, Any]) -> Program:
    return program(
        Compute(2000.0),
        InvokeNext("da-format", payload_kb=1.0),
        Respond(0.6),
    )


def _da_format_program(_payload: Dict[str, Any]) -> Program:
    # Validate + convert, then insert into CouchDB (name, ID, role, base
    # payment — §5.3); the write fires the analysis trigger.
    return program(
        Compute(2600.0),
        DbPut(WAGES_DB, doc_kb=1.1),
        Respond(0.6),
    )


def _da_analyze_program(_payload: Dict[str, Any]) -> Program:
    return program(
        DbGet(WAGES_DB, doc_kb=2.4),
        Compute(6400.0),
        InvokeNext("da-stats", payload_kb=1.6),
        Respond(0.6),
    )


def _da_stats_program(_payload: Dict[str, Any]) -> Program:
    return program(
        Compute(3000.0),
        DbPut(WAGE_STATS_DB, doc_kb=1.3),
        Respond(0.6),
    )


def data_analysis_chain() -> ChainSpec:
    """The data-analysis application (Fig 8(b)).

    ``da-input -> da-format -> CouchDB``; a db trigger on the wages
    database runs ``da-analyze -> da-stats`` (the dashed box).
    """
    functions = (
        FunctionSpec(
            name="da-input", language="nodejs",
            app=_app("da-input", [GuestFunction("main", 500.0, 3.0)]),
            make_program=_da_input_program,
            source=_DA_INPUT_JS,
            description="Receives and validates personal wage data"),
        FunctionSpec(
            name="da-format", language="nodejs",
            app=_app("da-format", [GuestFunction("main", 600.0, 3.0)]),
            make_program=_da_format_program,
            source=_DA_FORMAT_JS,
            description="Converts the record format and inserts to CouchDB"),
        FunctionSpec(
            name="da-analyze", language="nodejs",
            app=_app("da-analyze", [GuestFunction("main", 900.0, 3.0)]),
            make_program=_da_analyze_program,
            source=_DA_ANALYZE_JS,
            description="Calculates bonuses and taxes from roles"),
        FunctionSpec(
            name="da-stats", language="nodejs",
            app=_app("da-stats", [GuestFunction("main", 700.0, 3.0)]),
            make_program=_da_stats_program,
            source=_DA_STATS_JS,
            description="Aggregates statistics and stores them"),
    )
    return ChainSpec(
        name="data-analysis", entry="da-input", functions=functions,
        description="Store and analyze employee wage statistics "
                    "(ServerlessBench)")


# ---------------------------------------------------------------------------
# DAG forms (repro.workloads.dag): the same applications as explicit graphs
# ---------------------------------------------------------------------------
def alexa_skills_dag() -> "DagSpec":
    """Fig 8(a) as a DAG: the frontend fans out to exactly one skill.

    The conditional edges mirror the frontend program's
    ``InvokeNext(f"alexa-{skill}")`` dispatch, so on chain-capable
    backends the guest hop and the DAG agree stage-for-stage.
    """
    from repro.workloads.dag import DagEdge, DagStage, make_dag
    chain = alexa_skills_chain()
    stages = [DagStage(name="frontend", function="alexa-frontend")]
    edges = []
    for skill in ALEXA_SKILLS:
        stages.append(DagStage(name=skill, function=f"alexa-{skill}"))
        edges.append(DagEdge(src="frontend", dst=skill, payload_kb=1.2,
                             when_key="skill", when_value=skill))
    return make_dag("alexa-skills", "frontend", stages, edges,
                    functions=chain.functions, guest_hops=True,
                    description=chain.description)


def data_analysis_dag() -> "DagSpec":
    """Fig 8(b) as a DAG: the insertion chain plus the trigger edge.

    ``format -> analyze`` is a *trigger* edge: the wages write fires the
    analysis chain through the platform's database trigger, exactly
    the dashed box of the paper's figure.
    """
    from repro.workloads.dag import (EDGE_TRIGGER, DagEdge, DagStage,
                                     make_dag)
    chain = data_analysis_chain()
    stages = [DagStage(name="input", function="da-input"),
              DagStage(name="format", function="da-format"),
              DagStage(name="analyze", function="da-analyze"),
              DagStage(name="stats", function="da-stats")]
    edges = [DagEdge(src="input", dst="format", payload_kb=1.0),
             DagEdge(src="format", dst="analyze", kind=EDGE_TRIGGER,
                     database=WAGES_DB),
             DagEdge(src="analyze", dst="stats", payload_kb=1.6)]
    return make_dag("data-analysis", "input", stages, edges,
                    functions=chain.functions, guest_hops=True,
                    description=chain.description)
