"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``figures``                 — list every regenerable table/figure;
* ``run <figure|scenario>``   — regenerate one figure (e.g. ``run fig6``)
                                or run a named scenario from the library
                                (e.g. ``run paper-repro``);
* ``scenarios``               — list the named scenarios under
                                ``scenarios/``;
* ``serve [--host H] [--port P]`` — the experiment REST service: submit
                                scenarios over HTTP, stream progress,
                                fetch results/figures/traces
                                (see ``docs/service.md``);
* ``figure <id...> [--jobs N]`` — regenerate many (or ``all``) through the
                                parallel engine and the result cache; the
                                extension experiments (``cluster``,
                                ``chaos``, ``load``, ``search``, ...) run
                                here or as named scenarios, like the paper
                                figures;
* ``annotate <file>``         — run the §3.2 code annotator on a handler;
* ``trace <target>``          — re-run one figure's invocations and export
                                one invocation's span tree (Chrome
                                ``trace_event`` JSON or a text tree);
* ``profile <experiment>``    — cProfile one experiment shard and print
                                the top-N hot frames (the workflow behind
                                ``docs/performance.md``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.bench.experiment import FIGURES
from repro.bench.render import render_experiment_text, render_run_text


def _run_figure(name: str, chart: bool = False) -> None:
    """``run``: regenerate one figure in-process (engine, no cache)."""
    from repro.bench.engine import run_experiments
    outcome = run_experiments([name], use_cache=False)
    print(render_experiment_text(name, outcome.results[name], chart),
          end="")


def _run_scenario(scenario, jobs: Optional[int], no_cache: bool,
                  cache_dir: Optional[str], chart: bool) -> None:
    """``run <scenario>``: a named scenario through the engine + cache.

    The rendered output is byte-identical to what the experiment service
    returns from ``GET /experiments/{id}/figures`` for the same scenario —
    CLI and API are two fronts over one engine path.
    """
    from repro.bench.engine import run_experiments
    outcome = run_experiments(
        list(scenario.experiments), seed=scenario.seed,
        jobs=jobs if jobs is not None else scenario.jobs,
        use_cache=not no_cache, cache_dir=cache_dir)
    print(render_run_text(outcome.results, chart), end="")
    print(outcome.stats.summary(), file=sys.stderr)


def _cmd_run(target: str, jobs: Optional[int], no_cache: bool,
             cache_dir: Optional[str], chart: bool) -> int:
    """``run``: one figure id or one named scenario from the library."""
    from repro.errors import ValidationError
    from repro.serve.scenarios import load_scenario_library
    if target in FIGURES:
        _run_figure(target, chart=chart)
        return 0
    try:
        library = load_scenario_library()
    except ValidationError as exc:
        # A missing/broken library must not turn 'run <typo>' into a
        # traceback: report the library problem itself, exit 2.
        print(f"error: scenario library is broken: {exc}", file=sys.stderr)
        return 2
    if target in library:
        _run_scenario(library[target], jobs, no_cache, cache_dir, chart)
        return 0
    print(f"error: unknown figure or scenario {target!r}\n"
          f"figures: {', '.join(FIGURES)}\n"
          f"scenarios: {', '.join(library)}", file=sys.stderr)
    return 2


def _cmd_figure(figures: List[str], jobs: int, no_cache: bool,
                cache_dir: str, chart: bool) -> None:
    """``figure``: many experiments through the parallel engine + cache."""
    from repro.bench.engine import run_experiments
    outcome = run_experiments(figures, jobs=jobs, use_cache=not no_cache,
                              cache_dir=cache_dir)
    print(render_run_text(outcome.results, chart), end="")
    print(outcome.stats.summary(), file=sys.stderr)


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
    if shard_key is None:
        shard = definition.shards[0]
    else:
        matching = [one for one in definition.shards if one.key == shard_key]
        if not matching:
            keys = ", ".join(one.key for one in definition.shards)
            print(f"error: {experiment} has no shard {shard_key!r}; "
                  f"shards: {keys}", file=sys.stderr)
            return 1
        shard = matching[0]

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

    sub.add_parser("figures", help="list regenerable tables/figures")

    run_parser = sub.add_parser(
        "run", help="regenerate one table/figure, or run a named scenario")
    run_parser.add_argument(
        "figure", metavar="figure|scenario",
        help="a figure id ('repro figures') or a scenario name "
             "('repro scenarios')")
    run_parser.add_argument("--chart", action="store_true",
                            help="render stacked ASCII bars (fig6/7/9)")
    run_parser.add_argument(
        "-j", "--jobs", type=_positive_int, default=None,
        help="worker processes (scenario runs; default: the scenario's)")
    run_parser.add_argument("--no-cache", action="store_true",
                            help="skip the result cache (scenario runs)")
    run_parser.add_argument("--cache-dir", default=None,
                            help="result cache directory (scenario runs)")

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

    from repro.bench.engine import experiment_ids
    figure_parser = sub.add_parser(
        "figure",
        help="regenerate figures through the parallel engine + cache")
    figure_parser.add_argument(
        "figures", nargs="+", metavar="figure",
        choices=experiment_ids() + ("all",),
        help="experiment ids, or 'all' for the full suite")
    figure_parser.add_argument(
        "-j", "--jobs", type=_positive_int, default=1,
        help="worker processes for uncached shards (default 1)")
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
        "export", help="regenerate figures and write CSVs")
    export_parser.add_argument("directory")
    from repro.bench.export import EXPORTED
    export_parser.add_argument("--only", nargs="*", default=None,
                               choices=EXPORTED)

    report_parser = sub.add_parser(
        "report", help="the full evaluation as one document")
    report_parser.add_argument("--no-extensions", action="store_true")

    sub.add_parser("validate",
                   help="validate the calibrated default parameters")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "figures":
        for name in FIGURES:
            print(name)
    elif args.command == "run":
        return _cmd_run(args.figure, jobs=args.jobs, no_cache=args.no_cache,
                        cache_dir=args.cache_dir, chart=args.chart)
    elif args.command == "scenarios":
        from repro.errors import ValidationError
        from repro.serve.scenarios import load_scenario_library
        try:
            library = load_scenario_library()
        except ValidationError as exc:
            print(f"error: scenario library is broken: {exc}",
                  file=sys.stderr)
            return 2
        for scenario in library.values():
            print(f"{scenario.name:<22} {scenario.title}")
    elif args.command == "serve":
        from repro.serve import serve_forever
        return serve_forever(host=args.host, port=args.port, jobs=args.jobs,
                             use_cache=not args.no_cache,
                             cache_dir=args.cache_dir)
    elif args.command == "figure":
        from repro.bench.engine import DEFAULT_CACHE_DIR
        _cmd_figure(args.figures, jobs=args.jobs, no_cache=args.no_cache,
                    cache_dir=args.cache_dir or DEFAULT_CACHE_DIR,
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
        from repro.bench.export import export_all
        written = export_all(args.directory, figures=args.only)
        for name in written:
            print(f"wrote {args.directory}/{name}")
    elif args.command == "report":
        from repro.bench.report import full_report
        print(full_report(include_extensions=not args.no_extensions),
              end="")
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
