"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``figures``                 — list every experiment id ``figure``
                                accepts, with its title;
* ``figure <name...> [--jobs N]`` — run experiments through the parallel
                                engine and the result cache: experiment
                                ids (``figure fig6 fig7``), ``all``, or
                                one named scenario (``figure paper-repro``,
                                ``figure 4-host-chaos``);
* ``scenarios``               — list the named scenarios under
                                ``scenarios/``;
* ``serve [--host H] [--port P]`` — the experiment REST service: submit
                                scenarios over HTTP, stream progress,
                                fetch results/figures/traces
                                (see ``docs/service.md``);
* ``annotate <file>``         — run the §3.2 code annotator on a handler;
* ``trace <target>``          — re-run one figure's invocations and export
                                one invocation's span tree (Chrome
                                ``trace_event`` JSON or a text tree);
* ``profile <experiment>``    — cProfile one experiment shard and print
                                the top-N hot frames (the workflow behind
                                ``docs/performance.md``);
* ``export <dir>``            — write the plotted figures as CSVs, read
                                through the result cache like ``figure``;
* ``validate``                — check the calibrated default parameters.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.bench.render import render_run_text


def _scenario_library():
    """The shipped scenario library, or None if it is missing or broken:
    the problem is reported on stderr, not as a traceback, and the caller
    exits 2."""
    from repro.errors import ValidationError
    from repro.serve.scenarios import load_scenario_library
    try:
        return load_scenario_library()
    except ValidationError as exc:
        print(f"error: scenario library is broken: {exc}", file=sys.stderr)
        return None


def _run_engine(ids: List[str], **options) -> Dict[str, Any]:
    """Merged results of ``run_experiments(ids, **options)``, through the
    result cache unless ``use_cache=False``; the stats line goes to
    stderr."""
    from repro.bench.engine import run_experiments
    outcome = run_experiments(ids, **options)
    print(outcome.stats.summary(), file=sys.stderr)
    return outcome.results


def _cmd_figure(names: List[str], jobs: Optional[int], no_cache: bool,
                cache_dir: Optional[str], chart: bool) -> int:
    """``figure``: experiment ids, ``all``, or one named scenario.

    Experiment ids win over scenario names, and the scenario library is
    read only for a name that is neither an id nor ``all``, so ids keep
    working with a broken library.  A scenario brings its seed and its
    default ``--jobs``.  The rendered output is byte-identical to what
    the experiment service returns from ``GET /experiments/{id}/figures``
    for the same run — CLI and API are two fronts over one engine path.
    """
    from repro.bench.engine import DEFAULT_SEED, experiment_ids
    known = experiment_ids()
    others = [name for name in names if name not in known + ("all",)]
    seed, default_jobs = DEFAULT_SEED, 1
    if others:
        library = _scenario_library()
        if library is None:
            return 2
        for name in others:
            if name not in library:
                print(f"error: unknown experiment or scenario {name!r}\n"
                      f"experiments: {', '.join(known)} (or 'all')\n"
                      f"scenarios: {', '.join(library)}", file=sys.stderr)
                return 2
        if len(names) > 1:
            print(f"error: scenario {others[0]!r} must be the only name "
                  "given", file=sys.stderr)
            return 2
        scenario = library[others[0]]
        names = list(scenario.experiments)
        seed, default_jobs = scenario.seed, scenario.jobs
    results = _run_engine(names, seed=seed,
                          jobs=default_jobs if jobs is None else jobs,
                          use_cache=not no_cache, cache_dir=cache_dir)
    print(render_run_text(results, chart), end="")
    return 0


def _cmd_annotate(path: str) -> None:
    from repro.core import annotate
    source_path = Path(path)
    language = "nodejs" if source_path.suffix == ".js" else "python"
    result = annotate(source_path.read_text(), language,
                      service_name=source_path.stem)
    print(result.annotated)


#: ``trace`` targets: which invocation set to re-run.
TRACE_TARGETS = ("fig6", "fig7", "chain")
_TRACE_LANGUAGE = {"fig6": "nodejs", "fig7": "python"}


def _trace_records(target: str, benchmark: str) -> list:
    """Re-run one target's invocations; returns their records in order.

    For ``fig6``/``fig7`` the order is: fireworks, then cold+warm for
    openwhisk, gvisor and firecracker — index it with ``--invocation``.
    ``chain`` runs the Alexa-skills chain, one record per skill.  Every
    record is a top-level invocation, so its span is its whole trace.
    """
    from repro.bench.harness import (cold_and_warm, fireworks_invocation,
                                     fresh_platform, install_chain,
                                     invoke_once)
    if target == "chain":
        from repro.core import FireworksPlatform
        from repro.workloads import ALEXA_SKILLS, alexa_skills_chain
        platform = fresh_platform(FireworksPlatform)
        chain = alexa_skills_chain()
        install_chain(platform, chain)
        return [invoke_once(platform, chain.entry, payload={"skill": skill})
                for skill in ALEXA_SKILLS]

    from repro.platforms.firecracker import FirecrackerPlatform
    from repro.platforms.gvisor_platform import GVisorPlatform
    from repro.platforms.openwhisk import OpenWhiskPlatform
    from repro.workloads.faasdom import faasdom_spec
    spec = faasdom_spec(benchmark, _TRACE_LANGUAGE[target])
    records = [fireworks_invocation(spec)]
    for platform_cls in (OpenWhiskPlatform, GVisorPlatform,
                         FirecrackerPlatform):
        records.extend(cold_and_warm(platform_cls, spec))
    return records


def _cmd_trace(target: str, benchmark: str, invocation: int,
               output_format: str, out_path: Optional[str]) -> int:
    from repro.trace import render_tree, verify_invocation, write_trace_json

    records = _trace_records(target, benchmark)
    if not 0 <= invocation < len(records):
        print(f"error: --invocation must be in 0..{len(records) - 1} "
              f"for {target}", file=sys.stderr)
        return 1
    record = records[invocation]
    verify_invocation(record)
    root = record.span

    if output_format == "tree":
        rendered = render_tree(root)
        if out_path:
            Path(out_path).write_text(rendered + "\n", encoding="utf-8")
            print(f"wrote {out_path}")
        else:
            print(rendered)
        return 0

    destination = out_path or f"{target}-inv{invocation}.trace.json"
    events = write_trace_json(root, destination)
    print(f"wrote {events} span events for {record.platform}/"
          f"{record.function} ({record.mode}) to {destination} "
          "(open in chrome://tracing)")
    return 0


def _cmd_profile(experiment: str, shard_key: Optional[str], top: int,
                 sort: str) -> int:
    """``profile``: cProfile one shard, print the hot frames.

    Shards are the natural profiling unit: each one builds its own
    simulation from a fixed seed, so the profile is deterministic work —
    no cache, no pool, no other shards mixed into the numbers.
    """
    import cProfile
    import pstats
    from repro.bench.engine import DEFAULT_SEED, experiment_registry
    from repro.config import default_parameters
    registry = experiment_registry()
    if experiment not in registry:
        print(f"error: unknown experiment {experiment!r}; known: "
              f"{', '.join(registry)}", file=sys.stderr)
        return 1
    definition = registry[experiment]
    if not definition.shards:
        print(f"error: {experiment} derives its result from other "
              "experiments' shards; profile one of those", file=sys.stderr)
        return 1
    try:
        shard = definition.shard(shard_key or definition.shards[0].key)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 1

    params = default_parameters()
    profiler = cProfile.Profile()
    profiler.runcall(definition.run, params, DEFAULT_SEED,
                     **shard.kwargs_dict())
    print(f"== profile: {experiment}/{shard.key} "
          f"(top {top} by {sort}) ==")
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats(sort).print_stats(top)
    return 0


def _positive_int(text: str) -> int:
    """argparse type for ``--jobs``: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse parser for `python -m repro`."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fireworks (EuroSys '22) reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("figures",
                   help="list the experiment ids 'figure' accepts")

    sub.add_parser("scenarios",
                   help="list the named scenarios under scenarios/")

    serve_parser = sub.add_parser(
        "serve",
        help="serve the experiment REST API (scenarios, runs, artifacts)")
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=8177)
    serve_parser.add_argument(
        "-j", "--jobs", type=_positive_int, default=None,
        help="worker processes per run (default: each scenario's own)")
    serve_parser.add_argument("--no-cache", action="store_true",
                              help="run without the result cache")
    serve_parser.add_argument("--cache-dir", default=None,
                              help="result cache directory "
                                   "(default .repro-cache)")

    figure_parser = sub.add_parser(
        "figure",
        help="run experiments or a named scenario through the parallel "
             "engine + cache")
    figure_parser.add_argument(
        "names", nargs="+", metavar="name",
        help="experiment ids ('repro figures'), 'all' for every one, or "
             "one scenario name ('repro scenarios')")
    figure_parser.add_argument(
        "-j", "--jobs", type=_positive_int, default=None,
        help="worker processes for uncached shards (default 1, or the "
             "scenario's)")
    figure_parser.add_argument(
        "--no-cache", action="store_true",
        help="skip the result cache (neither read nor write)")
    figure_parser.add_argument(
        "--cache-dir", default=None,
        help="result cache directory (default .repro-cache)")
    figure_parser.add_argument("--chart", action="store_true",
                               help="render stacked ASCII bars (fig6/7/9)")

    annotate_parser = sub.add_parser(
        "annotate", help="annotate a handler file (Figure 3)")
    annotate_parser.add_argument("file")

    trace_parser = sub.add_parser(
        "trace", help="export one invocation's span tree")
    trace_parser.add_argument("target", choices=TRACE_TARGETS,
                              help="which invocation set to re-run")
    from repro.workloads.faasdom import BENCHMARK_NAMES
    trace_parser.add_argument(
        "--benchmark", default="faas-fact", choices=BENCHMARK_NAMES,
        help="FaaSdom benchmark for fig6/fig7 (default faas-fact)")
    trace_parser.add_argument(
        "--invocation", type=int, default=0, metavar="N",
        help="which record to export (0 = fireworks for fig6/fig7)")
    trace_parser.add_argument("--format", dest="output_format",
                              choices=("chrome", "tree"), default="chrome")
    trace_parser.add_argument("-o", "--output", default=None,
                              help="output path (default "
                                   "<target>-inv<N>.trace.json)")

    profile_parser = sub.add_parser(
        "profile", help="cProfile one experiment shard (hot-frame report)")
    profile_parser.add_argument(
        "experiment", help="experiment id (same ids as 'figure')")
    profile_parser.add_argument(
        "--shard", default=None,
        help="shard key within the experiment (default: its first shard)")
    profile_parser.add_argument("--top", type=_positive_int, default=25,
                                help="how many frames to print (default 25)")
    profile_parser.add_argument(
        "--sort", choices=("tottime", "cumtime", "calls"),
        default="tottime", help="pstats sort key (default tottime)")

    export_parser = sub.add_parser(
        "export", help="write figures as CSVs (through the result cache)")
    export_parser.add_argument("directory")
    from repro.bench.export import EXPORTED
    export_parser.add_argument("--only", nargs="*", default=None,
                               choices=EXPORTED)

    sub.add_parser("validate",
                   help="validate the calibrated default parameters")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "figures":
        from repro.bench.engine import experiment_registry
        for experiment in experiment_registry().values():
            print(f"{experiment.id:<18} {experiment.title}")
    elif args.command == "scenarios":
        library = _scenario_library()
        if library is None:
            return 2
        for scenario in library.values():
            print(f"{scenario.name:<22} {scenario.title}")
    elif args.command == "serve":
        from repro.serve import serve_forever
        return serve_forever(host=args.host, port=args.port, jobs=args.jobs,
                             use_cache=not args.no_cache,
                             cache_dir=args.cache_dir)
    elif args.command == "figure":
        return _cmd_figure(args.names, jobs=args.jobs,
                           no_cache=args.no_cache, cache_dir=args.cache_dir,
                           chart=args.chart)
    elif args.command == "annotate":
        _cmd_annotate(args.file)
    elif args.command == "trace":
        return _cmd_trace(args.target, args.benchmark, args.invocation,
                          args.output_format, args.output)
    elif args.command == "profile":
        return _cmd_profile(args.experiment, args.shard, args.top,
                            args.sort)
    elif args.command == "export":
        from repro.bench.export import EXPORTED, export_all
        wanted = args.only or EXPORTED
        results = _run_engine([one for one in EXPORTED if one in wanted])
        for name in export_all(args.directory, results):
            print(f"wrote {args.directory}/{name}")
    elif args.command == "validate":
        from repro.config import default_parameters
        from repro.validation import validate
        problems = validate(default_parameters())
        if problems:
            for problem in problems:
                print(f"PROBLEM: {problem}")
            return 1
        print("calibrated parameters: OK")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
