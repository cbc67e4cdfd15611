"""Command-line interface to the CHOP reproduction.

Usage::

    python -m repro.cli inputs
    python -m repro.cli demo --experiment 1 --partitions 2
    python -m repro.cli check project.json --heuristic iterative
    python -m repro.cli auto project.json --chips 4 --replicate
    python -m repro.cli auto --generate layered --ops 1000 --chips 6 -o out.json
    python -m repro.cli explore --generate layered --ops 200 --k-max 4
    python -m repro.cli explore project.json --scales 0.75,1.0 --save-front front/
    python -m repro.cli check project.json --trace out.jsonl --profile
    python -m repro.cli search project.json --workers 4 --disk-cache .chop-cache
    python -m repro.cli search project.json --dry-run
    python -m repro.cli predict project.json --partition P1
    python -m repro.cli explain project.json
    python -m repro.cli trace show out.jsonl
    python -m repro.cli export-demo project.json
    python -m repro.cli serve --port 8080 --workers 4 --search-workers 4

``check`` loads a project document (see :mod:`repro.io.project`), runs
the chosen heuristic, and prints the paper-style result rows plus the
synthesis guidelines for the best design.  ``search`` is ``check``
defaulting to the enumeration heuristic; both take ``--workers`` (shard
the combination walk across a process pool), ``--disk-cache`` (persist
BAD predictions across runs), ``--dry-run`` (print the combination
count and shard plan without searching), ``--trace`` (write the span
tree of the whole run as JSONL — see :mod:`repro.obs`) and
``--profile`` (print a sampling wall-clock profile of the run) and
``--soft-deadline`` (stop gracefully after a wall-clock budget and
report the partial, explicitly *degraded*, verdict).
``auto`` runs the multilevel auto-partitioner (:mod:`repro.auto`) on a
project's graph — or on a generated workload via ``--generate`` — and
prints the feasibility verdict of the resulting k-chip partitioning;
``-o`` saves it as a project document for the other subcommands.
``explore`` sweeps chip counts and package scalings over a project's
graph (or a generated one), prices every feasible candidate with the
yield-based cost model (:mod:`repro.chips.cost`) and prints the Pareto
front over (cost, performance, delay, chips); ``--save-front`` writes
each front point as a project file that feeds straight back into
``check``.
``trace show`` renders a trace file as an indented span tree with
per-span wall time and combination counts; ``explain`` prints the
per-constraint feasibility breakdown of a project (what killed which
combinations, at what probability margin).  ``serve`` runs the
HTTP/JSON partitioning server (:mod:`repro.service`); there
``--workers`` means job-queue *threads* and ``--search-workers`` means
engine *processes*, while ``--max-queued``, ``--max-session-jobs`` and
``--max-body-kb`` bound admissions (429/413) and ``--drain-timeout``
sets how long a SIGTERM-triggered graceful drain waits for running
jobs (see ``docs/resilience.md``).

Exit statuses: 0 success, 1 no feasible implementation, 2 library error
(infeasible model request, unknown partition, ...), 3 malformed or
unreadable input (bad project JSON, missing file, bad spec).
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
from typing import List, Optional

import json as _json

from repro.chips.presets import mosis_packages
from repro.dfg.parser import MAX_UNROLLED, parse_spec
from repro.errors import ChopError, SpecificationError
from repro.io.graphs import graph_to_dict
from repro.experiments import experiment1_session, experiment2_session
from repro.io.project import (
    load_project_file,
    project_fingerprint,
    save_project_file,
    session_to_dict,
)
from repro.library.presets import table1_library
from repro.reporting.guidelines import design_guidelines
from repro.reporting.markdown import markdown_report
from repro.reporting.tables import (
    library_table,
    package_table,
    results_table,
)


def _cmd_inputs(_args: argparse.Namespace) -> int:
    print("Table 1 library:")
    print(library_table(table1_library()))
    print()
    print("Table 2 packages:")
    print(package_table(mosis_packages()))
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    if args.experiment == 1:
        session = experiment1_session(
            package_number=args.package, partition_count=args.partitions
        )
    else:
        session = experiment2_session(
            partition_count=args.partitions, package_number=args.package
        )
    return _check_session(session, args.heuristic, args.partitions,
                          args.package)


def _cmd_check(args: argparse.Namespace) -> int:
    session = load_project_file(args.project)
    count = len(session.partitioning().partitions)
    if args.dry_run:
        return _dry_run(session, args)
    return _check_session(session, args.heuristic, count, 0, args=args)


def _build_engine(args):
    """An :class:`EvaluationEngine` when ``--workers`` asks for one."""
    if args is None or args.workers <= 1:
        return None
    from repro.engine import EvaluationEngine

    return EvaluationEngine(workers=args.workers)


def _checked(session, heuristic: str, args):
    """One check, optionally engine-sharded and disk-cache warmed."""
    from repro.cache import DiskPredictionCache, check_with_cache

    cache_dir = getattr(args, "disk_cache", None) if args else None
    cache = DiskPredictionCache(cache_dir) if cache_dir else None
    checked = check_with_cache(
        session, cache,
        heuristic=heuristic,
        engine=_build_engine(args),
        soft_deadline_s=getattr(args, "soft_deadline", None),
    )
    if cache is None:
        return checked.result
    if checked.stored is None:
        print(
            f"disk cache: hit — {checked.seeded} partition prediction "
            f"lists seeded from {cache.directory}"
        )
    elif checked.stored:
        print(f"disk cache: miss — predictions stored in {cache.directory}")
    else:
        print(
            f"disk cache: write failed after retries — continuing "
            f"without persistence ({cache.directory})",
            file=sys.stderr,
        )
    return checked.result


def _dry_run(session, args) -> int:
    """Print the combination count and the engine's plan, search nothing."""
    from repro.engine import EvaluationEngine, EvaluationProblem
    from repro.search.enumeration import MAX_COMBINATIONS

    problem = EvaluationProblem.build(
        session.partitioning(),
        session.pruned_predictions(),
        session.clocks,
        session.library,
        session.criteria,
    )
    total = problem.combination_count()
    print("combination space (level-1 pruned prediction lists):")
    for name, size in sorted(problem.list_sizes().items()):
        print(f"  {name}: {size} predictions")
    print(f"total combinations: {total} (enumeration cap {MAX_COMBINATIONS})")
    if total > MAX_COMBINATIONS:
        print(
            "the product exceeds the enumeration cap; tighten the "
            "constraints or repartition before searching"
        )
        return 1
    plan = EvaluationEngine(workers=args.workers).plan(total)
    detail = plan.reason or (
        f"{args.workers} workers, {len(plan.shards)} shards"
    )
    print(f"mode: {plan.mode} ({detail})")
    for shard in plan.shards:
        print(
            f"  shard {shard.index:>3}: [{shard.start}, {shard.stop})"
            f"  {shard.size} combinations"
        )
    return 0


@contextlib.contextmanager
def _traced(args, stream=None):
    """Trace the block to ``--trace PATH`` as JSONL, if given.

    Once the block has finished and the file is closed, prints the
    ``trace: N spans -> PATH`` line to ``stream`` (stdout by default).
    """
    path = getattr(args, "trace", None)
    if not path:
        yield
        return
    from repro.obs import JsonlSink, Tracer, activate

    tracer = Tracer(sink=JsonlSink(path))
    try:
        with activate(tracer):
            yield
    finally:
        tracer.close()
    print(
        f"trace: {tracer.stats()['spans']} spans -> {path} "
        f"(trace id {tracer.trace_id})",
        file=stream,
    )


def _graph_source(args, factory_from):
    """The graph to partition and its session factory.

    From ``--generate KIND`` (factory ``None``: the command's default)
    or from the project file, whose designer inputs
    ``factory_from(session)`` turns into a factory.
    """
    if args.generate:
        from repro.dfg.builders import generate_dfg

        return generate_dfg(args.generate, args.ops, seed=args.seed), None
    if not args.project:
        raise SpecificationError("give a project file or --generate KIND")
    base = load_project_file(args.project)
    return base.graph, factory_from(base)


def _check_session(session, heuristic: str, count: int,
                   package: int, args=None) -> int:
    profiler = None
    if getattr(args, "profile", False):
        from repro.obs import SamplingProfiler

        profiler = SamplingProfiler()
    with _traced(args), profiler or contextlib.nullcontext():
        result = _checked(session, heuristic, args)
    if profiler is not None:
        print(profiler.render())
    letter = "E" if heuristic == "enumeration" else "I"
    if result.degraded:
        print(
            f"note: soft deadline expired after {result.trials} trials "
            f"— this is a partial (degraded) verdict; feasible designs "
            f"below are real, but absence of designs is inconclusive"
        )
    print(results_table([(count, package, letter, result)]))
    best = result.best()
    if best is None:
        print()
        print("No feasible implementation under the given constraints.")
        return 1
    print()
    print(design_guidelines(best))
    return 0


def _cmd_auto(args: argparse.Namespace) -> int:
    from repro.auto import AutoPartitionConfig, auto_partition
    from repro.auto.partitioner import session_like_factory

    graph, factory = _graph_source(args, session_like_factory)
    config = AutoPartitionConfig(
        chips=args.chips,
        balance_tolerance=args.balance,
        replicate=args.replicate,
        max_clones=args.max_clones,
        feasibility_moves=args.feasibility_moves,
        heuristic=args.heuristic,
    )
    with _traced(args):
        result = auto_partition(
            graph, config, session_factory=factory,
            engine=_build_engine(args),
        )

    summary = result.to_dict()
    print(
        f"auto: {summary['graph']} — {summary['operations']} operations "
        f"over {summary['chips']} chips "
        f"(hierarchy {summary['levels']} levels)"
    )
    print(
        f"  cut {summary['cut_bits']} bits, transfers "
        f"{summary['transfer_bits']} bits, part sizes "
        f"{summary['part_sizes']}"
    )
    if args.replicate:
        print(
            f"  replication: {summary['clones']} clones, "
            f"{summary['replication_saved_bits']} transfer bits saved"
        )
    if summary["repair_moves"]:
        print(f"  feasibility repair: {summary['repair_moves']} migrations")
    if args.output:
        save_project_file(result.session, args.output)
        print(f"  project written to {args.output}")
    if result.search is not None:
        print()
        print(results_table(
            [(summary["chips"], 0, "I", result.search)]
        ))
    best = result.search.best() if result.search else None
    if best is None:
        print()
        if summary["infeasible_partitions"]:
            print(
                f"No feasible implementation: partitions "
                f"{summary['infeasible_partitions']} have no surviving "
                f"predictions (die too small for the operations)."
            )
        else:
            print("No feasible implementation under the given constraints.")
        return 1
    print()
    print(design_guidelines(best))
    return 0


def _cmd_explore(args: argparse.Namespace) -> int:
    import pathlib

    from repro.auto.partitioner import session_like_factory
    from repro.explore import ExploreConfig, explore

    graph, factory = _graph_source(args, session_like_factory)
    config = ExploreConfig(
        chip_counts=tuple(range(args.k_min, args.k_max + 1)),
        package_scales=tuple(args.scales),
        objectives=tuple(args.objectives),
        seeding=args.seeding,
        heuristic=args.heuristic,
    )

    disk_cache = None
    if args.disk_cache:
        from repro.cache import DiskPredictionCache

        disk_cache = DiskPredictionCache(args.disk_cache)

    # The trace line goes to stderr so --json output stays parseable.
    with _traced(args, stream=sys.stderr):
        result = explore(
            graph, config,
            session_factory=factory,
            engine=_build_engine(args),
            disk_cache=disk_cache,
        )

    if args.json:
        print(_json.dumps(
            result.to_dict(include_projects=args.include_projects),
            indent=2,
        ))
    else:
        print(
            f"explore: {graph.name} — {graph.op_count()} operations, "
            f"{result.evaluated} candidates "
            f"({result.feasible} feasible, {result.infeasible} "
            f"infeasible, {result.skipped} skipped)"
        )
        if disk_cache is not None:
            print(
                f"  disk cache: {result.cache_seeded} partition "
                f"prediction lists seeded from {disk_cache.directory}"
            )
        print()
        if result.front:
            print(
                f"Pareto front over "
                f"({', '.join(config.objectives)}) — "
                f"{len(result.front)} points:"
            )
            header = (
                f"  {'chips':>5}  {'scale':>5}  {'cost $':>10}  "
                f"{'perf ns':>9}  {'delay ns':>9}  {'II':>4}  "
                f"{'cut bits':>8}"
            )
            print(header)
            for point in result.front:
                print(
                    f"  {point.chips:>5}  {point.package_scale:>5g}  "
                    f"{point.cost:>10.2f}  "
                    f"{point.performance_ns:>9.0f}  "
                    f"{point.delay_ns:>9.0f}  {point.ii_main:>4}  "
                    f"{point.cost_report.cut_bits:>8}"
                )
    if args.save_front:
        directory = pathlib.Path(args.save_front)
        directory.mkdir(parents=True, exist_ok=True)
        for point in result.front:
            path = directory / (
                f"front_k{point.chips}_s{point.package_scale:g}.json"
            )
            path.write_text(
                _json.dumps(point.project, indent=2) + "\n"
            )
        print(
            f"\n{len(result.front)} front projects written to "
            f"{directory} (feed them back into 'repro check')"
        )
    if not result.front:
        print()
        print(
            "No feasible candidate in the swept space; widen the k "
            "range or the package scales."
        )
        return 1
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    session = load_project_file(args.project)
    predictions = session.predict(args.partition)
    print(
        f"{len(predictions)} predicted implementations for "
        f"{args.partition}:"
    )
    limit = args.limit if args.limit > 0 else len(predictions)
    for prediction in predictions[:limit]:
        print(
            f"  II {prediction.ii_main:>4}  delay "
            f"{prediction.latency_main:>4}  area "
            f"{prediction.area_total.ml:>9.0f}  power "
            f"{prediction.power_mw.ml:>7.1f} mW  "
            f"{prediction.style_label}, {prediction.module_set.label}, "
            f"{prediction.operator_summary()}"
        )
    if limit < len(predictions):
        print(f"  ... {len(predictions) - limit} more")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    session = load_project_file(args.project)
    report = session.explain(prune=not args.no_prune)
    if args.json:
        print(_json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render())
    return 0


def _cmd_trace_show(args: argparse.Namespace) -> int:
    from repro.obs import load_trace_file, render_trace, validate_trace

    try:
        spans = load_trace_file(args.trace_file)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if not spans:
        print(
            f"error: {args.trace_file} contains no spans",
            file=sys.stderr,
        )
        return 3
    problems = validate_trace(spans)
    for problem in problems:
        print(f"warning: {problem}", file=sys.stderr)
    print(render_trace(spans))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    import pathlib

    session = load_project_file(args.project)
    results = {
        heuristic: session.check(heuristic=heuristic)
        for heuristic in ("iterative", "enumeration")
    }
    text = markdown_report(session, results)
    if args.output:
        pathlib.Path(args.output).write_text(text)
        print(f"Wrote report to {args.output}")
    else:
        print(text)
    return 0


def _cmd_compile(args: argparse.Namespace) -> int:
    import pathlib

    raw = pathlib.Path(args.spec).read_bytes()
    try:
        source = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SpecificationError(
            f"specification is not UTF-8 text: {exc}"
        ) from None
    graph = parse_spec(source)
    document = graph_to_dict(graph)
    if args.output:
        pathlib.Path(args.output).write_text(
            _json.dumps(document, indent=2) + "\n"
        )
        print(
            f"Compiled {graph.name!r}: {graph.op_count()} operations, "
            f"depth {graph.depth()} -> {args.output}"
        )
    else:
        print(_json.dumps(document, indent=2))
    return 0


def _cmd_export_demo(args: argparse.Namespace) -> int:
    session = experiment1_session(package_number=2, partition_count=2)
    save_project_file(session, args.output)
    fingerprint = project_fingerprint(session_to_dict(session))
    print(f"Wrote the experiment-1 two-partition project to {args.output}")
    print(f"fingerprint sha256:{fingerprint}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.obs.logging import configure_logging
    from repro.service import ChopService, serve

    # $CHOP_LOG / $CHOP_LOG_FILE select level and sink; unset stays off.
    configure_logging()

    service = ChopService(
        cache_size=args.cache_size,
        max_sessions=args.max_sessions,
        workers=args.workers,
        job_timeout_s=args.job_timeout,
        search_workers=args.search_workers,
        disk_cache_dir=args.disk_cache,
        max_queued=args.max_queued,
        max_jobs_per_session=args.max_session_jobs,
        max_body_bytes=args.max_body_kb * 1024,
        drain_timeout_s=args.drain_timeout,
        slo_latency_ms=args.slo_latency_ms,
        slo_error_rate=args.slo_error_rate,
        flight_capacity=args.flight_capacity,
        flight_dir=args.flight_dir,
    )

    def _announce(line: str) -> None:
        print(line, flush=True)

    serve(service, host=args.host, port=args.port, announce=_announce)
    return 0


def _scale_list(text: str) -> List[float]:
    """``"0.75,1.0"`` -> ``[0.75, 1.0]`` (argparse type for --scales)."""
    try:
        scales = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}"
        )
    if not scales:
        raise argparse.ArgumentTypeError("at least one scale is required")
    return scales


def _bounded(kind, low, high=None, low_open=False):
    """An argparse type for a finite ``kind`` (int or float) of at least
    ``low`` (above it when ``low_open``) and at most ``high``, so a bad
    option ends in a usage error before anything starts or binds."""
    if high is not None:
        bounds = f"in {'(' if low_open else '['}{low}, {high}]"
    else:
        bounds = f"{'>' if low_open else '>='} {low}"
    noun = "an integer" if kind is int else "a number"

    def convert(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = math.nan  # fails every comparison below
        above = low < value if low_open else low <= value
        too_high = high is not None and value > high
        if not above or value == math.inf or too_high:
            raise argparse.ArgumentTypeError(
                f"expected {noun} {bounds}, got {text!r}"
            )
        return value

    return convert


def _objective_list(text: str) -> List[str]:
    """``"cost,delay"`` -> ``["cost", "delay"]`` (validated lazily)."""
    names = [part.strip() for part in text.split(",") if part.strip()]
    if not names:
        raise argparse.ArgumentTypeError(
            "at least one objective is required"
        )
    return names


def _add_engine_arguments(command: argparse.ArgumentParser) -> None:
    """The engine/cache flags shared by ``check`` and ``search``."""
    command.add_argument(
        "--workers", type=_bounded(int, 1), default=1,
        help="worker processes for the enumeration walk; 1 runs "
        "serially, and so does a space too small to repay the pool "
        "(--dry-run shows which; default 1)",
    )
    command.add_argument(
        "--disk-cache", default=None, metavar="DIR",
        help="persist BAD prediction lists under DIR and reuse them on "
        "identical reruns",
    )
    command.add_argument(
        "--dry-run", action="store_true",
        help="print the combination count and shard plan, then exit "
        "without searching",
    )
    command.add_argument(
        "--trace", default=None, metavar="PATH",
        help="write the run's span tree (session -> search -> engine "
        "shards) as JSONL to PATH; render it with 'repro trace show'",
    )
    command.add_argument(
        "--profile", action="store_true",
        help="sample the run's wall-clock profile and print the "
        "hottest frames",
    )
    command.add_argument(
        "--soft-deadline", type=_bounded(float, 0, low_open=True),
        default=None, metavar="SECONDS",
        help="stop the search gracefully after SECONDS and report the "
        "partial (degraded) verdict instead of failing; forces the "
        "serial path",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CHOP constraint-driven system-level partitioner "
        "(DAC 1991 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "inputs", help="print the paper's Table 1 and Table 2"
    ).set_defaults(func=_cmd_inputs)

    demo = sub.add_parser(
        "demo", help="run one cell of the paper's experiments"
    )
    demo.add_argument("--experiment", type=int, choices=(1, 2), default=1)
    demo.add_argument("--partitions", type=int, default=2)
    demo.add_argument("--package", type=int, choices=(1, 2), default=2)
    demo.add_argument(
        "--heuristic", choices=("iterative", "enumeration"),
        default="iterative",
    )
    demo.set_defaults(func=_cmd_demo)

    check = sub.add_parser(
        "check", help="check a project document for feasibility"
    )
    check.add_argument("project", help="path to a project JSON file")
    check.add_argument(
        "--heuristic", choices=("iterative", "enumeration"),
        default="iterative",
    )
    _add_engine_arguments(check)
    check.set_defaults(func=_cmd_check)

    search = sub.add_parser(
        "search",
        help="enumerate the combination space of a project document "
        "(check with --heuristic enumeration, engine-ready)",
    )
    search.add_argument("project", help="path to a project JSON file")
    search.add_argument(
        "--heuristic", choices=("iterative", "enumeration"),
        default="enumeration",
    )
    _add_engine_arguments(search)
    search.set_defaults(func=_cmd_check)

    auto = sub.add_parser(
        "auto",
        help="auto-partition a graph onto k chips (multilevel "
        "coarsen/partition/refine with optional logic replication)",
    )
    auto.add_argument(
        "project", nargs="?", default=None,
        help="project JSON whose graph and designer inputs to use",
    )
    auto.add_argument(
        "--generate", choices=("layered", "chain", "butterfly"),
        default=None, metavar="KIND",
        help="partition a generated workload instead of a project "
        "(layered | chain | butterfly)",
    )
    auto.add_argument(
        "--ops", type=_bounded(int, 1, MAX_UNROLLED), default=1000,
        help="target operation count for --generate (default 1000)",
    )
    auto.add_argument(
        "--seed", type=int, default=0,
        help="generator seed for --generate layered (default 0)",
    )
    auto.add_argument(
        "--chips", type=_bounded(int, 1), default=4,
        help="number of chips / partitions (default 4)",
    )
    auto.add_argument(
        "--replicate", action="store_true",
        help="run the logic-replication pass on cut operations",
    )
    auto.add_argument(
        "--max-clones", type=_bounded(int, 0), default=0,
        help="cap on applied replications (default 0: unbounded)",
    )
    auto.add_argument(
        "--balance", type=_bounded(float, 0), default=0.3,
        help="per-chip size tolerance for refinement (default 0.3)",
    )
    auto.add_argument(
        "--feasibility-moves", type=_bounded(int, 0), default=32,
        help="bound on repair migrations in the feasibility stage "
        "(default 32)",
    )
    auto.add_argument(
        "--heuristic", choices=("iterative", "enumeration"),
        default="iterative",
    )
    auto.add_argument(
        "-o", "--output", default=None,
        help="write the partitioned session as a project JSON file",
    )
    auto.add_argument(
        "--workers", type=_bounded(int, 1), default=1,
        help="worker processes for the feasibility search (enumeration "
        "heuristic only; default 1)",
    )
    auto.add_argument(
        "--trace", default=None, metavar="PATH",
        help="write the auto.* span tree as JSONL to PATH",
    )
    auto.set_defaults(func=_cmd_auto)

    explore_ = sub.add_parser(
        "explore",
        help="sweep chip counts and package scalings, price each "
        "feasible design, and print the Pareto front over "
        "(cost, performance, delay, chips)",
    )
    explore_.add_argument(
        "project", nargs="?", default=None,
        help="project JSON whose graph and designer inputs to sweep",
    )
    explore_.add_argument(
        "--generate", choices=("layered", "chain", "butterfly"),
        default=None, metavar="KIND",
        help="sweep a generated workload instead of a project",
    )
    explore_.add_argument(
        "--ops", type=_bounded(int, 1, MAX_UNROLLED), default=200,
        help="target operation count for --generate (default 200)",
    )
    explore_.add_argument(
        "--seed", type=int, default=0,
        help="generator seed for --generate layered (default 0)",
    )
    explore_.add_argument(
        "--k-min", type=_bounded(int, 1), default=1,
        help="smallest chip count to try (default 1)",
    )
    explore_.add_argument(
        "--k-max", type=_bounded(int, 1), default=4,
        help="largest chip count to try (default 4)",
    )
    explore_.add_argument(
        "--scales", type=_scale_list, default=[1.0], metavar="S1,S2,...",
        help="comma-separated die-area multipliers applied to every "
        "candidate package (default 1.0)",
    )
    explore_.add_argument(
        "--objectives", type=_objective_list,
        default=["cost", "performance", "delay", "chips"],
        metavar="O1,O2,...",
        help="comma-separated minimization objectives: cost, "
        "performance, delay, chips (default: all four)",
    )
    explore_.add_argument(
        "--seeding", choices=("heuristic", "auto"), default="heuristic",
        help="candidate partitioning source: the paper's horizontal "
        "cut, or the multilevel auto-partitioner (default heuristic)",
    )
    explore_.add_argument(
        "--heuristic", choices=("iterative", "enumeration"),
        default="iterative",
        help="search heuristic for each candidate's check",
    )
    explore_.add_argument(
        "--workers", type=_bounded(int, 1), default=1,
        help="worker processes for each candidate's enumeration walk "
        "(default 1)",
    )
    explore_.add_argument(
        "--disk-cache", default=None, metavar="DIR",
        help="persist every candidate's prediction lists under DIR so "
        "repeated sweeps are warm",
    )
    explore_.add_argument(
        "--trace", default=None, metavar="PATH",
        help="write the explore.* span tree as JSONL to PATH",
    )
    explore_.add_argument(
        "--json", action="store_true",
        help="print the full sweep result as JSON",
    )
    explore_.add_argument(
        "--include-projects", action="store_true",
        help="with --json: embed each front point's full project "
        "document (round-trips into 'repro check')",
    )
    explore_.add_argument(
        "--save-front", default=None, metavar="DIR",
        help="write each front point's project JSON under DIR",
    )
    explore_.set_defaults(func=_cmd_explore)

    predict = sub.add_parser(
        "predict", help="list BAD's predictions for one partition"
    )
    predict.add_argument("project")
    predict.add_argument("--partition", required=True)
    predict.add_argument(
        "--limit", type=_bounded(int, 0), default=20,
        help="predictions to list (default 20; 0 lists all)",
    )
    predict.set_defaults(func=_cmd_predict)

    explain = sub.add_parser(
        "explain",
        help="break down feasibility per constraint: what killed which "
        "combinations, at what probability margin",
    )
    explain.add_argument("project", help="path to a project JSON file")
    explain.add_argument(
        "--no-prune", action="store_true",
        help="skip level-1 pruning before enumerating",
    )
    explain.add_argument(
        "--json", action="store_true",
        help="print the structured report as JSON",
    )
    explain.set_defaults(func=_cmd_explain)

    trace_ = sub.add_parser(
        "trace", help="inspect JSONL trace files written by --trace"
    )
    trace_sub = trace_.add_subparsers(dest="trace_command", required=True)
    show = trace_sub.add_parser(
        "show",
        help="render a trace as a span tree with per-span wall time "
        "and counters",
    )
    show.add_argument("trace_file", help="path to a JSONL trace file")
    show.set_defaults(func=_cmd_trace_show)

    report = sub.add_parser(
        "report", help="write a markdown feasibility report"
    )
    report.add_argument("project")
    report.add_argument("-o", "--output", default=None)
    report.set_defaults(func=_cmd_report)

    compile_ = sub.add_parser(
        "compile",
        help="compile a behavioral .chop spec into a graph JSON document",
    )
    compile_.add_argument("spec", help="path to the specification file")
    compile_.add_argument("-o", "--output", default=None)
    compile_.set_defaults(func=_cmd_compile)

    export = sub.add_parser(
        "export-demo",
        help="write the experiment-1 session as a project file",
    )
    export.add_argument("output")
    export.set_defaults(func=_cmd_export_demo)

    serve_ = sub.add_parser(
        "serve", help="run the HTTP/JSON partitioning server"
    )
    serve_.add_argument("--host", default="127.0.0.1")
    serve_.add_argument("--port", type=_bounded(int, 0, 65535), default=8080)
    serve_.add_argument(
        "--workers", type=_bounded(int, 1), default=4,
        help="background job worker threads (default 4)",
    )
    serve_.add_argument(
        "--cache-size", type=_bounded(int, 1), default=256,
        help="check-verdict cache entries (default 256)",
    )
    serve_.add_argument(
        "--max-sessions", type=_bounded(int, 1), default=32,
        help="resident designer sessions before LRU eviction",
    )
    serve_.add_argument(
        "--job-timeout", type=_bounded(float, 0), default=300.0,
        help="default wall-clock budget per background job in seconds; "
        "0 disables (default 300)",
    )
    serve_.add_argument(
        "--search-workers", type=_bounded(int, 0), default=0,
        help="worker processes sharding each enumeration's combination "
        "walk; 0 or 1 keeps searches in-process (default 0)",
    )
    serve_.add_argument(
        "--disk-cache", default=None, metavar="DIR",
        help="persist BAD prediction lists under DIR so identical "
        "projects skip prediction across restarts",
    )
    serve_.add_argument(
        "--max-queued", type=_bounded(int, 1), default=64,
        help="queued background jobs before new submissions get 429 "
        "with Retry-After (default 64)",
    )
    serve_.add_argument(
        "--max-session-jobs", type=_bounded(int, 1), default=4,
        help="concurrent (queued+running) jobs per project before 429 "
        "(default 4)",
    )
    serve_.add_argument(
        "--max-body-kb", type=_bounded(int, 1), default=1024,
        help="request body size cap in KiB; larger bodies get 413 "
        "(default 1024)",
    )
    serve_.add_argument(
        "--drain-timeout", type=_bounded(float, 0), default=10.0,
        help="seconds SIGTERM waits for running jobs before cancelling "
        "them cooperatively (default 10)",
    )
    serve_.add_argument(
        "--slo-latency-ms", type=_bounded(float, 0, low_open=True),
        default=500.0,
        help="p95 request-latency objective in milliseconds, exposed "
        "as slo_burn_ratio gauges and GET /slo (default 500)",
    )
    serve_.add_argument(
        "--slo-error-rate", type=_bounded(float, 0, 1, low_open=True),
        default=0.01,
        help="maximum 5xx share of responses before the error-rate "
        "SLO burns (default 0.01)",
    )
    serve_.add_argument(
        "--flight-capacity", type=_bounded(int, 1), default=256,
        help="flight-recorder ring-buffer size: recent request/job "
        "summaries kept for GET /debug/recent (default 256)",
    )
    serve_.add_argument(
        "--flight-dir", default=None, metavar="DIR",
        help="write flight-recorder dumps under DIR on any 5xx and on "
        "SIGUSR2 (default: no automatic dumps)",
    )
    serve_.set_defaults(func=_cmd_serve)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "explore" and args.k_min > args.k_max:
        parser.error(
            f"argument --k-min: {args.k_min} exceeds --k-max {args.k_max}"
        )
    try:
        return args.func(args)
    except SpecificationError as exc:
        # Malformed input (project JSON, spec text) gets its own status
        # so scripts can tell "fix your file" from model infeasibility.
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ChopError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output was piped into a pager/head that closed early.
        return 0
    except OSError as exc:
        # Unreadable/missing input files: clean one-liner, no traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
