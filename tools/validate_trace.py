#!/usr/bin/env python3
"""Validate a Chrome ``trace_event`` JSON file (stdlib only).

Usage: ``python tools/validate_trace.py <trace.json>``

Checks the shape ``chrome://tracing``/Perfetto expects from
``repro trace --format chrome``:

* top level is an object with a ``traceEvents`` list;
* every event is an object carrying ``name``, ``ph``, ``ts``, ``pid`` and
  ``tid``;
* complete events (``ph == "X"``) carry a non-negative ``dur``;
* timestamps are non-negative and finite;
* placement events (``cat == "placement"``) carry the chosen ``host``,
  the ``policy`` name that chose it, and the policy ``source``
  (``"builtin"`` or ``"dsl"``) in ``args``;
* retry events (``cat == "retry"``) carry an integer ``args.attempt >= 1``;
* failover events (``cat == "failover"``) carry an integer
  ``args.from_host`` naming the host the request is fleeing;
* every retry/failover event nests inside some ``invoke`` complete event
  on its thread (a retry outside an invocation is a structural bug);
* lazy-restore events (``cat == "prefetch"`` / ``"demand-fault"``) carry a
  non-negative ``args.mb`` and nest inside some ``restore`` complete event
  on their thread (a page-load phase outside a restore is a structural
  bug);
* streamed snapshot transfers (``cat == "transfer"`` with
  ``args.streamed``) contain a nested ``transfer-working-set`` event, and
  every ``transfer-residual`` event for the same key+destination starts at
  or after that working-set portion ends — the working set moves *first*;
* chain events (``cat == "chain"``) carry the DAG name, execution mode,
  an integer stage count, and an ``args.end_to_end_ms`` equal to the
  event's own duration — the chain root *is* the end-to-end latency;
* stage events (``cat == "stage"``) carry their stage/function/chain ids
  and nest inside the chain event they name on the same thread;
* db-trigger events (``cat == "db-trigger"``) carry the database and
  function, and start at or after the first ``db-put`` to that database
  ends — a trigger cannot fire before any write happened.

Exit code 0 when the file is valid, 1 otherwise (problems on stderr).
"""

from __future__ import annotations

import json
import math
import sys
from typing import Any, List

REQUIRED_EVENT_KEYS = ("name", "ph", "ts", "pid", "tid")

#: Nesting tolerance in microseconds: float noise from the ms->us scaling.
_NEST_EPS_US = 1e-3


def _invoke_windows(events: List[Any]) -> dict:
    """``tid -> [(ts, ts+dur), ...]`` of every well-formed invoke event."""
    windows: dict = {}
    for event in events:
        if not isinstance(event, dict) or event.get("cat") != "invoke":
            continue
        ts, dur = event.get("ts"), event.get("dur")
        if isinstance(ts, (int, float)) and isinstance(dur, (int, float)):
            windows.setdefault(event.get("tid"), []).append((ts, ts + dur))
    return windows


def _nested_in_invoke(event: dict, windows: dict) -> bool:
    ts = event.get("ts")
    dur = event.get("dur") if isinstance(event.get("dur"),
                                         (int, float)) else 0.0
    if not isinstance(ts, (int, float)):
        return False
    return any(start - _NEST_EPS_US <= ts
               and ts + dur <= end + _NEST_EPS_US
               for start, end in windows.get(event.get("tid"), ()))


def _restore_windows(events: List[Any]) -> dict:
    """``tid -> [(ts, ts+dur), ...]`` of every complete restore event."""
    windows: dict = {}
    for event in events:
        if not isinstance(event, dict) or event.get("name") != "restore" \
                or event.get("ph") != "X":
            continue
        ts, dur = event.get("ts"), event.get("dur")
        if isinstance(ts, (int, float)) and isinstance(dur, (int, float)):
            windows.setdefault(event.get("tid"), []).append((ts, ts + dur))
    return windows


def _working_set_ends(events: List[Any]) -> dict:
    """``(key, dst) -> latest working-set portion end`` per streamed
    transfer, pairing each ``transfer-working-set`` child with the
    ``cat == "transfer"`` event whose window contains it on the same tid."""
    ends: dict = {}
    transfers = [e for e in events if isinstance(e, dict)
                 and e.get("cat") == "transfer"
                 and isinstance(e.get("ts"), (int, float))
                 and isinstance(e.get("dur"), (int, float))
                 and isinstance(e.get("args"), dict)
                 and e["args"].get("streamed")]
    for event in events:
        if not isinstance(event, dict) \
                or event.get("cat") != "transfer-working-set":
            continue
        ts, dur = event.get("ts"), event.get("dur")
        if not (isinstance(ts, (int, float))
                and isinstance(dur, (int, float))):
            continue
        for transfer in transfers:
            if transfer.get("tid") != event.get("tid"):
                continue
            start, end = transfer["ts"], transfer["ts"] + transfer["dur"]
            if start - _NEST_EPS_US <= ts and ts + dur <= end + _NEST_EPS_US:
                pair = (transfer["args"].get("key"),
                        transfer["args"].get("dst"))
                ends[pair] = max(ends.get(pair, float("-inf")), ts + dur)
    return ends


def _chain_windows(events: List[Any]) -> dict:
    """``tid -> [(ts, end, trace_id), ...]`` of every chain event."""
    windows: dict = {}
    for event in events:
        if not isinstance(event, dict) or event.get("cat") != "chain":
            continue
        ts, dur = event.get("ts"), event.get("dur")
        args = event.get("args")
        if isinstance(ts, (int, float)) and isinstance(dur, (int, float)):
            trace_id = args.get("trace_id") if isinstance(args, dict) \
                else None
            windows.setdefault(event.get("tid"), []).append(
                (ts, ts + dur, trace_id))
    return windows


def _first_db_put_ends(events: List[Any]) -> dict:
    """``database -> earliest db-put end`` over every db-put event."""
    ends: dict = {}
    for event in events:
        if not isinstance(event, dict) or event.get("name") != "db-put":
            continue
        ts, dur = event.get("ts"), event.get("dur")
        args = event.get("args")
        if not (isinstance(ts, (int, float))
                and isinstance(dur, (int, float))
                and isinstance(args, dict)):
            continue
        database = args.get("database")
        if not isinstance(database, str):
            continue
        end = ts + dur
        if database not in ends or end < ends[database]:
            ends[database] = end
    return ends


def validate_trace(payload: Any) -> List[str]:
    """All shape problems found in *payload*; empty means valid."""
    problems: List[str] = []
    if not isinstance(payload, dict):
        return [f"top level must be an object, got {type(payload).__name__}"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["missing or non-list 'traceEvents'"]
    if not events:
        problems.append("'traceEvents' is empty")
    invoke_windows = _invoke_windows(events)
    restore_windows = _restore_windows(events)
    working_set_ends = _working_set_ends(events)
    chain_windows = _chain_windows(events)
    db_put_ends = _first_db_put_ends(events)
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        for key in REQUIRED_EVENT_KEYS:
            if key not in event:
                problems.append(f"{where}: missing {key!r}")
        ts = event.get("ts")
        if isinstance(ts, (int, float)):
            if not math.isfinite(ts) or ts < 0:
                problems.append(f"{where}: bad ts {ts!r}")
        elif "ts" in event:
            problems.append(f"{where}: ts is not a number")
        if event.get("ph") == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or not math.isfinite(dur) \
                    or dur < 0:
                problems.append(f"{where}: complete event needs dur >= 0, "
                                f"got {dur!r}")
        if event.get("cat") == "placement":
            args = event.get("args")
            if not isinstance(args, dict):
                problems.append(f"{where}: placement event needs args")
                continue
            if not isinstance(args.get("host"), int):
                problems.append(f"{where}: placement event needs an integer "
                                f"args.host, got {args.get('host')!r}")
            if not isinstance(args.get("policy"), str):
                problems.append(f"{where}: placement event needs a string "
                                f"args.policy, got {args.get('policy')!r}")
            if args.get("source") not in ("builtin", "dsl"):
                problems.append(
                    f"{where}: placement event needs args.source of "
                    f"'builtin' or 'dsl', got {args.get('source')!r}")
        if event.get("cat") in ("retry", "failover"):
            args = event.get("args")
            if not isinstance(args, dict):
                problems.append(f"{where}: {event['cat']} event needs args")
                continue
            if event["cat"] == "retry":
                attempt = args.get("attempt")
                if not isinstance(attempt, int) or attempt < 1:
                    problems.append(
                        f"{where}: retry event needs an integer "
                        f"args.attempt >= 1, got {attempt!r}")
            else:
                from_host = args.get("from_host")
                if not isinstance(from_host, int):
                    problems.append(
                        f"{where}: failover event needs an integer "
                        f"args.from_host, got {from_host!r}")
            if not _nested_in_invoke(event, invoke_windows):
                problems.append(
                    f"{where}: {event['cat']} event is not nested inside "
                    "any invoke event on its tid")
        if event.get("cat") in ("prefetch", "demand-fault"):
            args = event.get("args")
            mb = args.get("mb") if isinstance(args, dict) else None
            if not isinstance(mb, (int, float)) or not math.isfinite(mb) \
                    or mb < 0:
                problems.append(
                    f"{where}: {event['cat']} event needs a finite "
                    f"args.mb >= 0, got {mb!r}")
            if not _nested_in_invoke(event, restore_windows):
                problems.append(
                    f"{where}: {event['cat']} event is not nested inside "
                    "any restore event on its tid")
        if event.get("cat") == "transfer" and isinstance(event.get("args"),
                                                         dict) \
                and event["args"].get("streamed"):
            pair = (event["args"].get("key"), event["args"].get("dst"))
            if pair not in working_set_ends:
                problems.append(
                    f"{where}: streamed transfer event has no nested "
                    "transfer-working-set event")
        if event.get("cat") == "chain":
            args = event.get("args")
            if not isinstance(args, dict):
                problems.append(f"{where}: chain event needs args")
                continue
            if not isinstance(args.get("dag"), str):
                problems.append(f"{where}: chain event needs a string "
                                f"args.dag, got {args.get('dag')!r}")
            if args.get("mode") not in ("guest", "orchestrated"):
                problems.append(
                    f"{where}: chain event needs args.mode of 'guest' or "
                    f"'orchestrated', got {args.get('mode')!r}")
            stages = args.get("stages")
            if not isinstance(stages, int) or stages < 0:
                problems.append(f"{where}: chain event needs an integer "
                                f"args.stages >= 0, got {stages!r}")
            e2e = args.get("end_to_end_ms")
            dur = event.get("dur")
            if not isinstance(e2e, (int, float)) or not math.isfinite(e2e) \
                    or e2e < 0:
                problems.append(
                    f"{where}: chain event needs a finite "
                    f"args.end_to_end_ms >= 0, got {e2e!r}")
            elif isinstance(dur, (int, float)) \
                    and abs(e2e * 1000.0 - dur) > _NEST_EPS_US:
                problems.append(
                    f"{where}: chain end_to_end_ms {e2e} does not match "
                    f"the event duration {dur}us — the chain root span "
                    "must be exactly the end-to-end latency")
        if event.get("cat") == "stage":
            args = event.get("args")
            if not isinstance(args, dict):
                problems.append(f"{where}: stage event needs args")
                continue
            for key in ("stage", "function", "chain"):
                if not isinstance(args.get(key), str) or not args.get(key):
                    problems.append(
                        f"{where}: stage event needs a non-empty string "
                        f"args.{key}, got {args.get(key)!r}")
            ts = event.get("ts")
            dur = event.get("dur") if isinstance(event.get("dur"),
                                                 (int, float)) else 0.0
            chain_id = args.get("chain")
            nested = isinstance(ts, (int, float)) and any(
                start - _NEST_EPS_US <= ts
                and ts + dur <= end + _NEST_EPS_US
                and trace_id == chain_id
                for start, end, trace_id in
                chain_windows.get(event.get("tid"), ()))
            if not nested:
                problems.append(
                    f"{where}: stage event is not nested inside chain "
                    f"{chain_id!r} on its tid")
        if event.get("cat") == "db-trigger":
            args = event.get("args")
            if not isinstance(args, dict):
                problems.append(f"{where}: db-trigger event needs args")
                continue
            for key in ("database", "function"):
                if not isinstance(args.get(key), str) or not args.get(key):
                    problems.append(
                        f"{where}: db-trigger event needs a non-empty "
                        f"string args.{key}, got {args.get(key)!r}")
            database = args.get("database")
            ts = event.get("ts")
            first_put = db_put_ends.get(database) \
                if isinstance(database, str) else None
            if first_put is None:
                problems.append(
                    f"{where}: db-trigger for {database!r} has no db-put "
                    "event to that database anywhere in the trace")
            elif isinstance(ts, (int, float)) \
                    and ts + _NEST_EPS_US < first_put:
                problems.append(
                    f"{where}: db-trigger for {database!r} starts at {ts} "
                    f"before the first db-put to it ends at {first_put} — "
                    "a trigger cannot fire before any write")
        if event.get("cat") == "transfer-residual":
            args = event.get("args")
            if not isinstance(args, dict):
                problems.append(f"{where}: transfer-residual event needs "
                                "args")
                continue
            pair = (args.get("key"), args.get("dst"))
            ws_end = working_set_ends.get(pair)
            ts = event.get("ts")
            if ws_end is not None and isinstance(ts, (int, float)) \
                    and ts + _NEST_EPS_US < ws_end:
                problems.append(
                    f"{where}: transfer-residual for {pair!r} starts at "
                    f"{ts} before its working-set portion ends at {ws_end} "
                    "(the working set must move first)")
    return problems


def main(argv: List[str]) -> int:
    """CLI entry point; returns the exit code."""
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 1
    try:
        with open(argv[1], "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as exc:
        print(f"error: cannot load {argv[1]}: {exc}", file=sys.stderr)
        return 1
    problems = validate_trace(payload)
    for problem in problems:
        print(f"INVALID: {problem}", file=sys.stderr)
    if problems:
        return 1
    print(f"{argv[1]}: valid trace_event JSON "
          f"({len(payload['traceEvents'])} events)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
