"""``python -m repro``: run, list, inspect and diff campaigns and artifacts.

Subcommands
-----------
``run CAMPAIGN``
    Expand a built-in matrix and execute it (optionally against a persistent
    ``--store``, serially or over ``--workers`` supervised worker processes
    with ``--executor process``); prints the cross-scenario summary table,
    any per-spec failure provenance, and optionally writes the full report
    JSON with ``--output``; ``--warm-start`` ships the store's reduced bases
    to the workers, and every transient solve a basis matches replays in
    the reduced space (the others run the full-space path).
``seed-rom CAMPAIGN``
    Build the reduced transient bases of a campaign (one exact solve each)
    and persist them into ``--store``; ``run CAMPAIGN --warm-start`` then
    replays them.
``list``
    Built-in campaigns, the full generative scenario population and — with
    ``--store`` — the artifacts currently on disk.
``show NAME``
    A campaign definition, a scenario spec (as authoring-ready JSON) or a
    stored artifact (by key or unique key prefix).
``diff A B``
    Two artifacts — artifact/report JSON files on disk or stored keys — with
    the golden per-quantity tolerance bands; exits non-zero on drift.
``trace CAMPAIGN``
    Run a campaign with telemetry enabled (or re-read a report JSON that
    already carries a trace) and render the span profile tree; ``--output``
    writes the Chrome trace-event JSON for ``chrome://tracing`` / Perfetto.
    ``all`` traces the full generative scenario population.
``stats [REPORT]``
    Deterministically sorted engine counters and telemetry metrics of a
    report JSON, or — without an argument — the live in-process telemetry
    snapshot plus the factorisation cache's counters and bytes held.
``serve``
    Resident evaluation service: keeps the store and hot caches open across
    requests, coalesces concurrent requests for the same spec hash into one
    solve, and streams progress as line-delimited JSON.  Binds TCP
    (``--host``/``--port``) and/or a unix socket (``--socket``); exposes
    ``/health``, ``/stats``, ``/scenarios``, ``POST /evaluate`` and
    ``POST /campaign/<name>``.

Global ``-v/--verbose`` (repeatable) and ``-q/--quiet`` flags, placed before
the subcommand, configure the ``repro`` logger hierarchy.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from .. import telemetry as telemetry_mod
from ..errors import ReproError
from ..log import configure_logging
from ..scenarios import ALL_PATHS, collect_bases, compare_artifact_dicts
from ..telemetry import chrome_json, profile_tree
from ..thermal import factorization_cache_stats
from .executors import EXECUTOR_NAMES
from .matrix import builtin_matrices, campaign_registry, get_matrix
from .runner import CampaignRunner
from .store import ArtifactStore


def _fmt(value: Any, precision: int = 2) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)


def _open_store(path: Optional[str]) -> Optional[ArtifactStore]:
    return None if path is None else ArtifactStore(Path(path))


def _parse_paths(raw: Optional[str]) -> Sequence[str]:
    if raw is None:
        return ALL_PATHS
    return tuple(part.strip() for part in raw.split(",") if part.strip())


def _print_engine_counters(engine: Dict[str, Any]) -> None:
    """Non-zero engine counters, one line, in deterministic sorted order."""
    nonzero = {name: value for name, value in sorted(engine.items()) if value}
    if nonzero:
        print(
            "engine: "
            + ", ".join(f"{name}={value}" for name, value in nonzero.items())
        )


def _load_json_object(token: str) -> Dict[str, Any]:
    try:
        data = json.loads(Path(token).read_text(encoding="utf-8"))
    except (OSError, ValueError) as error:
        raise ReproError(f"cannot read {token!r}: {error}") from None
    if not isinstance(data, dict):
        raise ReproError(f"{token!r} does not hold a JSON object")
    return data


def _cmd_run(args: argparse.Namespace) -> int:
    matrix = get_matrix(args.campaign)
    store = _open_store(args.store)
    warm_start: Sequence[str] = ()
    if args.warm_start:
        if store is None:
            raise ReproError("--warm-start needs a --store to load bases from")
        warm_start = store.rom_basis_payloads()
        print(f"warm start: {len(warm_start)} reduced bases from the store")
    runner = CampaignRunner(
        matrix,
        store=store,
        paths=_parse_paths(args.paths),
        warm_start=warm_start,
        workers=args.workers,
        executor=args.executor,
        on_error=args.on_error,
        max_retries=args.max_retries,
        timeout_s=args.timeout,
        telemetry=True if args.telemetry else None,
    )
    report = runner.run()
    summary = report.summary
    print(
        f"campaign {report.campaign}: {summary['scenario_count']} scenarios "
        f"({summary['store_hits']} from store, {summary['store_misses']} computed)"
    )
    header = f"{'scenario':<44} {'axes':<28} {'worst SNR':>10} {'peak T':>8} {'settle':>7}"
    print(header)
    print("-" * len(header))
    for row in report.summary_rows():
        axes = ",".join(f"{k}={v}" for k, v in row["axes"].items())
        print(
            f"{row['name']:<44} {axes:<28} "
            f"{_fmt(row['worst_snr_db']):>10} "
            f"{_fmt(row['peak_temperature_c'], 1):>8} "
            f"{_fmt(row['settling_s'], 1):>7}"
        )
    for metric, unit in (
        ("worst_snr_db", "dB"),
        ("peak_temperature_c", "degC"),
        ("max_settling_s", "s"),
    ):
        extreme = summary[metric]
        if extreme is not None:
            print(
                f"{metric}: {_fmt(extreme['value'])} {unit} "
                f"({extreme['scenario']})"
            )
    if report.failures:
        print(f"failures ({summary['failed']} unresolved):")
        for name, provenance in sorted(report.failures.items()):
            state = "recovered" if provenance["resolved"] else "quarantined"
            last = provenance["incidents"][-1]
            print(
                f"  {name} [{provenance['design_hash'][:12]}] {state} "
                f"after {provenance['attempts']} attempt(s): "
                f"{last['type']}: {last['message']}"
            )
    _print_engine_counters(report.engine)
    if report.telemetry:
        wall_s = report.telemetry.get("wall_s")
        print(
            f"telemetry: {len(report.telemetry['trace'])} spans over "
            f"{_fmt(wall_s)} s (render with `repro trace --output ...`)"
        )
    if store is not None:
        stats = store.stats
        print(
            f"store: {stats.hits} hits / {stats.misses} misses "
            f"(hit rate {stats.hit_rate:.0%}), {stats.writes} writes"
        )
    if args.output:
        Path(args.output).write_text(report.to_json(), encoding="utf-8")
        print(f"report written to {args.output}")
    return 0


def _cmd_seed_rom(args: argparse.Namespace) -> int:
    """Build the reduced transient bases of a campaign and persist them.

    Runs the transient path of every campaign point serially in-process
    (:func:`~repro.scenarios.collect_bases`: each solve without a basis is
    exact LU plus a POD of its trajectory) and stores every basis as a
    first-class artifact.  A later ``run --warm-start`` ships them to the
    workers, so matching transient solves replay in the reduced space.
    """
    matrix = get_matrix(args.campaign)
    store = _open_store(args.store)
    if store is None:
        raise ReproError("seed-rom needs a --store to persist bases into")
    points = matrix.points()
    scope = collect_bases(point.spec for point in points)
    for payload in scope.payloads():
        store.store_rom_basis(payload)
    print(
        f"campaign {matrix.name}: {len(scope.bases)} reduced bases persisted "
        f"from {len(points)} scenarios"
    )
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    matrices = builtin_matrices()
    print("campaigns:")
    for name, matrix in sorted(matrices.items()):
        points = matrix.points()
        axes = " x ".join(
            f"{axis.name}[{len(axis.values)}]" for axis in matrix.axes
        )
        print(f"  {name:<18} {len(points):>3} scenarios  ({axes})")
    registry = campaign_registry()
    print(f"scenarios: {len(registry)} registered")
    if args.list_verbose:
        for spec in registry:
            print(f"  {spec.name:<44} {spec.short_hash()}")
    if args.store is not None:
        store = ArtifactStore(Path(args.store))
        entries = store.entries()
        print(
            f"store {args.store}: {len(entries)} artifacts, "
            f"{store.total_size_bytes() / 1024:.0f} KiB"
        )
        for entry in entries:
            print(
                f"  {entry.key[:12]} {entry.scenario:<44} "
                f"{entry.size_bytes / 1024:.0f} KiB"
            )
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    matrices = builtin_matrices()
    if args.name in matrices:
        matrix = matrices[args.name]
        points = matrix.points()
        print(f"campaign {matrix.name}: {matrix.description}")
        for axis in matrix.axes:
            print(f"  axis {axis.name} ({axis.path}): {list(axis.labels)}")
        print(f"  {len(points)} concrete scenarios:")
        for point in points:
            print(f"    {point.spec.name}")
        return 0
    registry = campaign_registry()
    if args.name in registry:
        print(registry.get(args.name).to_json(), end="")
        return 0
    if args.store is not None:
        store = ArtifactStore(Path(args.store))
        key = store.resolve_key(args.name)
        record = store.get_record(key)
        if record is not None:
            print(json.dumps(record["payload"], sort_keys=True, indent=2))
            return 0
    raise ReproError(
        f"{args.name!r} is neither a campaign, a scenario nor a stored "
        "artifact key" + ("" if args.store else " (pass --store to search one)")
    )


def _load_diff_operand(token: str, store: Optional[ArtifactStore]) -> Dict[str, Any]:
    """Document behind one diff operand: an artifact, a campaign report or a
    store object (unwrapped to its payload); files are tried first, then
    store keys/prefixes."""
    path = Path(token)
    if path.exists():
        data = _load_json_object(token)
        # A store object file: unwrap to the artifact payload.
        if "payload" in data and isinstance(data["payload"], dict):
            return data["payload"]
        return data
    if store is not None:
        record = store.get_record(store.resolve_key(token))
        if record is not None:
            return record["payload"]
    raise ReproError(
        f"{token!r} is neither an artifact JSON file nor a stored key"
        + ("" if store else " (pass --store to search one)")
    )


def _is_report(document: Dict[str, Any]) -> bool:
    return isinstance(document.get("artifacts"), dict) and "campaign" in document


def _pair_for_diff(
    a: Dict[str, Any], b: Dict[str, Any]
) -> tuple:
    """Comparable (reference, fresh) dicts from two diff operands.

    Two artifacts or two campaign reports compare directly (a report diff
    walks every scenario's artifact); mixing an artifact with a report picks
    the report's artifact of the same scenario.
    """
    if _is_report(a) == _is_report(b):
        if _is_report(a):
            return a["artifacts"], b["artifacts"]
        return a, b
    report, artifact = (a, b) if _is_report(a) else (b, a)
    scenario = artifact.get("scenario")
    selected = report["artifacts"].get(scenario)
    if selected is None:
        raise ReproError(
            f"campaign report {report.get('campaign')!r} has no artifact for "
            f"scenario {scenario!r} (available: {sorted(report['artifacts'])})"
        )
    return (selected, artifact) if _is_report(a) else (artifact, selected)


def _cmd_diff(args: argparse.Namespace) -> int:
    store = _open_store(args.store)
    reference, fresh = _pair_for_diff(
        _load_diff_operand(args.a, store), _load_diff_operand(args.b, store)
    )
    mismatches = compare_artifact_dicts(reference, fresh)
    if not mismatches:
        print("artifacts agree within the per-quantity tolerance bands")
        return 0
    for line in mismatches:
        print(line)
    print(f"{len(mismatches)} mismatches")
    return 1


def _trace_section(args: argparse.Namespace) -> tuple:
    """(campaign name, telemetry section) behind one ``trace`` operand.

    A report JSON file written by ``run --telemetry --output`` renders
    without re-running anything; a built-in campaign name (or ``all``, the
    full generative population) executes with telemetry enabled.
    """
    if Path(args.campaign).exists():
        document = _load_json_object(args.campaign)
        section = document.get("telemetry")
        if not isinstance(section, dict) or not section.get("trace"):
            raise ReproError(
                f"{args.campaign!r} carries no telemetry trace; produce one "
                "with `run --telemetry --output ...` or pass a campaign name"
            )
        return document.get("campaign", Path(args.campaign).stem), section
    if args.campaign == "all":
        campaign: Any = list(campaign_registry())
        name: Optional[str] = "all"
    else:
        campaign = get_matrix(args.campaign)
        name = None
    runner = CampaignRunner(
        campaign,
        store=_open_store(args.store),
        paths=_parse_paths(args.paths),
        name=name,
        workers=args.workers,
        executor=args.executor,
        telemetry=True,
    )
    report = runner.run()
    return report.campaign, report.telemetry


def _cmd_trace(args: argparse.Namespace) -> int:
    campaign_name, section = _trace_section(args)
    spans = section["trace"]
    aggregates = section.get("spans", {})
    print(f"campaign {campaign_name}: {len(spans)} spans")
    print(profile_tree(spans))
    wall_s = section.get("wall_s")
    spec_s = sum(
        entry["total_s"]
        for name, entry in aggregates.items()
        if name.startswith("spec:")
    )
    if wall_s:
        print(
            f"scenario spans cover {spec_s / wall_s:.0%} of the "
            f"{wall_s:.2f} s campaign wall time"
        )
    if args.output:
        Path(args.output).write_text(chrome_json(spans), encoding="utf-8")
        print(
            f"chrome trace written to {args.output} "
            "(load in chrome://tracing or Perfetto)"
        )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    if args.report is None:
        document = telemetry_mod.snapshot()
        document["factorization"] = factorization_cache_stats()
        print(json.dumps(document, indent=2, sort_keys=True))
        return 0
    document = _load_json_object(args.report)
    _print_engine_counters(document.get("engine") or {})
    section = document.get("telemetry")
    if not isinstance(section, dict):
        print("telemetry: disabled for this report")
        return 0
    metrics = section.get("metrics") or {}
    for name, value in sorted((metrics.get("counters") or {}).items()):
        print(f"counter {name} = {value}")
    for name, value in sorted((metrics.get("gauges") or {}).items()):
        print(f"gauge {name} = {_fmt(value, 6)}")
    for name, entry in sorted((section.get("spans") or {}).items()):
        print(
            f"span {name}: {entry['count']}x total {_fmt(entry['total_s'], 4)} s "
            f"(min {_fmt(entry['min_s'], 4)}, max {_fmt(entry['max_s'], 4)})"
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the resident evaluation service until interrupted."""
    import asyncio

    from .service import EvaluationService, serve

    if not args.no_telemetry:
        telemetry_mod.enable()
    store = _open_store(args.store)
    warm_start: Sequence[str] = ()
    if args.warm_start:
        if store is None:
            raise ReproError("--warm-start needs a --store to load bases from")
        warm_start = store.rom_basis_payloads()
    service = EvaluationService(
        store=store,
        paths=_parse_paths(args.paths),
        warm_start=warm_start,
        concurrency=args.concurrency,
    )

    def ready(server: Any) -> None:
        for endpoint in server.endpoints:
            print(f"repro serve: listening on {endpoint}", flush=True)

    if args.no_tcp and not args.socket:
        raise ReproError("--no-tcp needs a --socket to serve on")
    host = None if args.no_tcp else args.host
    try:
        asyncio.run(
            serve(
                service,
                host=host,
                port=args.port,
                socket_path=args.socket,
                ready=ready,
            )
        )
    except KeyboardInterrupt:
        print("repro serve: shutting down", flush=True)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Campaign runner over the declarative scenario subsystem.",
        epilog="Reduced-order transients: `seed-rom CAMPAIGN --store DIR` builds "
        "and stores the campaign's bases, then `run CAMPAIGN --store DIR "
        "--warm-start` replays every transient solve a stored basis matches.",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="log more (-v: INFO, -vv: DEBUG); place before the subcommand",
    )
    parser.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        help="log errors only; place before the subcommand",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="expand and execute a campaign")
    run.add_argument("campaign", help="built-in campaign (matrix) name")
    run.add_argument(
        "--store", default=None, help="artifact store directory (persistent)"
    )
    run.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker-process count of the process executor",
    )
    run.add_argument(
        "--executor",
        default=None,
        choices=list(EXECUTOR_NAMES),
        help="execution strategy (default: process when --workers > 1, else serial)",
    )
    run.add_argument(
        "--on-error",
        default="raise",
        choices=["raise", "quarantine"],
        help="re-raise the first failing spec, or quarantine failures into the report",
    )
    run.add_argument(
        "--max-retries",
        type=int,
        default=2,
        help="bounded per-spec retries of the process executor (default: 2)",
    )
    run.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-spec deadline [s] of the process executor (hung workers are killed)",
    )
    run.add_argument(
        "--paths",
        default=None,
        help=f"comma-separated analysis paths (default: {','.join(ALL_PATHS)})",
    )
    run.add_argument(
        "--warm-start",
        action="store_true",
        help="ship every reduced basis held by --store (see seed-rom) to the "
        "workers so matching transient solves replay in the reduced space",
    )
    run.add_argument(
        "--telemetry",
        action="store_true",
        help="collect spans and metrics across every worker and fold the "
        "timing breakdown into the report",
    )
    run.add_argument(
        "--output", default=None, help="write the full report JSON here"
    )
    run.set_defaults(handler=_cmd_run)

    seed = commands.add_parser(
        "seed-rom",
        help="build and persist the reduced transient bases of a campaign "
        "(replay them with `run CAMPAIGN --warm-start --store ...`)",
    )
    seed.add_argument("campaign", help="built-in campaign (matrix) name")
    seed.add_argument(
        "--store", required=True, help="artifact store directory to persist into"
    )
    seed.set_defaults(handler=_cmd_seed_rom)

    lister = commands.add_parser(
        "list", help="list campaigns, scenarios and stored artifacts"
    )
    lister.add_argument("--store", default=None, help="also list this store")
    lister.add_argument(
        "-v",
        "--verbose",
        dest="list_verbose",
        action="store_true",
        help="list every scenario",
    )
    lister.set_defaults(handler=_cmd_list)

    show = commands.add_parser(
        "show", help="show a campaign, scenario spec or stored artifact"
    )
    show.add_argument("name", help="campaign, scenario or store key (prefix)")
    show.add_argument("--store", default=None, help="store to resolve keys in")
    show.set_defaults(handler=_cmd_show)

    diff = commands.add_parser(
        "diff", help="compare two artifacts with the golden tolerance bands"
    )
    diff.add_argument("a", help="artifact JSON file or store key (reference)")
    diff.add_argument("b", help="artifact JSON file or store key (fresh)")
    diff.add_argument("--store", default=None, help="store to resolve keys in")
    diff.set_defaults(handler=_cmd_diff)

    trace = commands.add_parser(
        "trace",
        help="run a campaign with telemetry and render the span profile",
    )
    trace.add_argument(
        "campaign",
        help="built-in campaign name, 'all' (the full generative scenario "
        "population) or a report JSON written by `run --telemetry --output`",
    )
    trace.add_argument(
        "--store", default=None, help="artifact store directory (persistent)"
    )
    trace.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker-process count of the process executor",
    )
    trace.add_argument(
        "--executor",
        default=None,
        choices=list(EXECUTOR_NAMES),
        help="execution strategy (default: process when --workers > 1, else serial)",
    )
    trace.add_argument(
        "--paths",
        default=None,
        help=f"comma-separated analysis paths (default: {','.join(ALL_PATHS)})",
    )
    trace.add_argument(
        "--output",
        default=None,
        help="write the Chrome trace-event JSON here (chrome://tracing)",
    )
    trace.set_defaults(handler=_cmd_trace)

    stats = commands.add_parser(
        "stats",
        help="sorted engine counters and telemetry metrics of a report, or "
        "the live telemetry snapshot",
    )
    stats.add_argument(
        "report",
        nargs="?",
        default=None,
        help="report JSON file (omit for the in-process telemetry snapshot)",
    )
    stats.set_defaults(handler=_cmd_stats)

    serve_cmd = commands.add_parser(
        "serve",
        help="resident evaluation service with spec-hash request coalescing",
    )
    serve_cmd.add_argument(
        "--host",
        default="127.0.0.1",
        help="TCP bind address (default: 127.0.0.1)",
    )
    serve_cmd.add_argument(
        "--port",
        type=int,
        default=8732,
        help="TCP port (default: 8732; 0 picks an ephemeral port)",
    )
    serve_cmd.add_argument(
        "--socket",
        default=None,
        help="also serve on this unix domain socket path",
    )
    serve_cmd.add_argument(
        "--no-tcp",
        action="store_true",
        help="serve on the --socket only (no TCP listener)",
    )
    serve_cmd.add_argument(
        "--store",
        default=None,
        help="artifact store directory; warm specs are answered from here",
    )
    serve_cmd.add_argument(
        "--paths",
        default=None,
        help=f"comma-separated analysis paths (default: {','.join(ALL_PATHS)})",
    )
    serve_cmd.add_argument(
        "--warm-start",
        action="store_true",
        help="ship every reduced basis held by --store to the kernel",
    )
    serve_cmd.add_argument(
        "--concurrency",
        type=int,
        default=4,
        help="kernel calls in flight at once (default: 4)",
    )
    serve_cmd.add_argument(
        "--no-telemetry",
        action="store_true",
        help="leave telemetry disabled (/stats shows counters only)",
    )
    serve_cmd.set_defaults(handler=_cmd_serve)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``python -m repro`` (returns the exit code)."""
    args = build_parser().parse_args(argv)
    configure_logging(verbose=args.verbose, quiet=args.quiet)
    try:
        return int(args.handler(args))
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
