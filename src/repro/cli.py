"""Command-line interface: ``python -m repro <command>``.

Five commands cover the common workflows without writing any code:

* ``run``      — one experiment on one protocol, with metrics and audit;
* ``compare``  — the same workload across several protocols, side by side;
* ``sweep``    — vary any experiment parameter on one protocol;
* ``grid``     — multi-parameter × multi-seed grids with per-cell
  aggregation;
* ``chaos``    — seeded fault storms (message loss, duplication, node
  crashes) across protocols, with convergence and agreement checks;
* ``paper``    — replay the paper's Table 1 / Figure 2 example.

``compare``, ``sweep``, and ``grid`` run their independent simulations
through a :class:`repro.exp.Fleet`: ``--jobs N`` fans tasks out over N
worker processes (output stays bit-identical to a serial run), ``--reps``
replicates every configuration over consecutive seeds, and a
content-addressed cache under ``.repro-cache/`` makes repeated
invocations near-free (``--no-cache`` / ``--refresh`` to opt out).

Every command prints plain-text tables (see
:class:`repro.analysis.report.Table`) and exits non-zero if a consistency
audit fails, so the CLI doubles as a smoke-test harness.
"""

from __future__ import annotations

import argparse
import sys
import typing

from repro import __version__
from repro.analysis import Table, audit_verdict
from repro.errors import SpecError
from repro.exp import (
    DEFAULT_CACHE_DIR,
    CellAggregate,
    ExperimentSpec,
    Fleet,
    FleetTaskError,
    GridAxis,
    PARAMETERS,
    PARAMETERS_BY_FLAG,
    ResultCache,
    audit_result,
    chaos_spec,
    expand_grid,
    flatten_specs,
    parse_parameter_value,
    run_chaos_spec,
    summarize,
)
from repro.exp.chaos import CHAOS_DEFAULTS
from repro.parameters import AMOUNT_MODES
from repro.workloads import PROTOCOLS, run_recording_experiment

#: Protocols whose audits must be clean for the CLI to exit 0
#: (derived from the registry's ``strict_audit`` flags).
_STRICT_PROTOCOLS = PROTOCOLS.strict()

_METRIC_COLUMNS = [
    "upd/s", "upd p95", "read p95", "fractured", "aborted",
    "max remote wait",
]


#: The parameters ``chaos`` takes (defaults: :data:`CHAOS_DEFAULTS`).
_CHAOS_FLAGS = ("nodes", "duration", "seed", "drop-rate", "dup-rate",
                "crash-count", "fault-seed", "partition-count",
                "coordinator-crashes", "stall-budget", "replication-factor",
                "refresh-delay")


def _experiment_arguments(
        parser: argparse.ArgumentParser,
        flags: typing.Optional[typing.Sequence[str]] = None,
        defaults: typing.Optional[typing.Mapping[str, typing.Any]] = None,
) -> None:
    """Experiment parameters, generated from the shared registry: all of
    them, or those ``flags`` names, with ``defaults`` (by field) first."""
    for parameter in PARAMETERS:
        if flags is not None and parameter.flag not in flags:
            continue
        default = (defaults or {}).get(parameter.field, parameter.default)
        parser.add_argument(
            f"--{parameter.flag}", type=parameter.type, default=default,
            help=f"{parameter.help} (default {default!r}; "
                 f"must be {parameter.domain})",
        )


def _fleet_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (default 1 = serial)")
    parser.add_argument("--reps", type=int, default=1,
                        help="replicates per configuration, on "
                             "consecutive seeds (default 1)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the result cache entirely")
    parser.add_argument("--refresh", action="store_true",
                        help="ignore cached results (but store fresh ones)")
    parser.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                        help=f"result cache directory "
                             f"(default {DEFAULT_CACHE_DIR})")
    parser.add_argument("--task-timeout", type=float, default=None,
                        help="per-task wall-clock budget in seconds "
                             "(parallel backend only)")


def _make_fleet(args) -> Fleet:
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    return Fleet(jobs=args.jobs, cache=cache, refresh=args.refresh,
                 timeout=args.task_timeout)


def _fleet_note(fleet: Fleet) -> str:
    stats = fleet.stats
    return (f"fleet: {stats.executed} run, {stats.cached} cached "
            f"({fleet.backend}, jobs={fleet.jobs})")


def _aggregate_cells(fleet: Fleet, cells) -> typing.List[CellAggregate]:
    """Run every cell's specs and aggregate per cell, order preserved."""
    summaries = fleet.run(flatten_specs(cells))
    aggregates = []
    offset = 0
    for cell in cells:
        chunk = summaries[offset:offset + len(cell.specs)]
        offset += len(cell.specs)
        aggregates.append(CellAggregate.of(chunk))
    return aggregates


def _metric_cells(aggregate: CellAggregate) -> list:
    return [
        aggregate.update_throughput,
        aggregate.update_p95,
        aggregate.read_p95,
        aggregate.fractured_reads,
        aggregate.aborted,
        aggregate.max_remote_wait,
    ]


def _check_protocols(protocols: typing.Sequence[str]) -> None:
    unknown = [p for p in protocols if p not in PROTOCOLS]
    if unknown:
        raise SpecError(f"unknown protocol(s): {', '.join(unknown)}; "
                        f"choose from {', '.join(PROTOCOLS)}")


def cmd_run(args) -> int:
    spec = ExperimentSpec.from_args(args)
    result = run_recording_experiment(
        spec.protocol, trace_path=args.trace, **spec.run_kwargs()
    )
    report = audit_result(result)
    summary = summarize(spec, result, report)
    mode = "" if result.history.retain else " [streaming]"
    table = Table(f"{spec.protocol}: {spec.duration:g}s on "
                  f"{spec.nodes} nodes{mode}",
                  ["system"] + _METRIC_COLUMNS)
    table.add(spec.protocol, *_metric_cells(CellAggregate.of([summary])))
    table.print()
    print(f"read staleness: mean={summary.staleness_mean:.2f} "
          f"max={summary.staleness_max:.2f}")
    if args.trace:
        print(f"trace written to {args.trace}")
    print(audit_verdict(report))
    return 0 if report.clean else 1


def cmd_compare(args) -> int:
    _check_protocols(args.protocols)
    base = ExperimentSpec.from_args(args, protocol=args.protocols[0])
    cells = expand_grid(
        base, [GridAxis("system", "protocol", tuple(args.protocols))],
        reps=args.reps,
    )
    reps_note = f", {args.reps} reps" if args.reps > 1 else ""
    table = Table(
        f"Protocol comparison: {base.duration:g}s on {base.nodes} nodes "
        f"(seed {base.seed}{reps_note})",
        ["system"] + _METRIC_COLUMNS,
    )
    fleet = _make_fleet(args)
    aggregates = _aggregate_cells(fleet, cells)
    failed = False
    for cell, aggregate in zip(cells, aggregates):
        protocol = cell.values[0]
        table.add(protocol, *_metric_cells(aggregate))
        if protocol in _STRICT_PROTOCOLS and not aggregate.audit_clean:
            failed = True
    table.print()
    print(_fleet_note(fleet), file=sys.stderr)
    return 1 if failed else 0


def _axis(flag: str, texts: typing.Sequence[str]) -> GridAxis:
    """A typed :class:`GridAxis` over one parameter's values."""
    values = tuple(parse_parameter_value(flag, text) for text in texts)
    return GridAxis(flag, PARAMETERS_BY_FLAG[flag].field, values)


def cmd_sweep(args) -> int:
    base = ExperimentSpec.from_args(args)
    cells = expand_grid(base, [_axis(args.parameter, args.values)],
                        reps=args.reps)
    reps_note = f" ({args.reps} reps)" if args.reps > 1 else ""
    table = Table(
        f"Sweep of {args.parameter} on {args.protocol}{reps_note}",
        [args.parameter] + _METRIC_COLUMNS,
    )
    fleet = _make_fleet(args)
    aggregates = _aggregate_cells(fleet, cells)
    for cell, aggregate in zip(cells, aggregates):
        table.add(cell.values[0], *_metric_cells(aggregate))
    table.print()
    print(_fleet_note(fleet), file=sys.stderr)
    return 0


def _parse_vary(text: str) -> GridAxis:
    """``"nodes=2,4,8"`` -> a typed :class:`GridAxis`."""
    flag, _, csv = text.partition("=")
    if not csv:
        raise SpecError(f"--vary takes param=v1,v2,... (got {text!r})")
    return _axis(flag, csv.split(","))


def cmd_grid(args) -> int:
    _check_protocols(args.protocols)
    axes = [GridAxis("system", "protocol", tuple(args.protocols))]
    axes.extend(_parse_vary(text) for text in args.vary or [])
    base = ExperimentSpec.from_args(args, protocol=args.protocols[0])
    cells = expand_grid(base, axes, reps=args.reps)
    table = Table(
        f"Grid: {len(cells)} cells x {args.reps} reps "
        f"({base.duration:g}s, base seed {base.seed})",
        [axis.flag for axis in axes] + ["reps"] + _METRIC_COLUMNS,
    )
    fleet = _make_fleet(args)
    aggregates = _aggregate_cells(fleet, cells)
    failed = False
    for cell, aggregate in zip(cells, aggregates):
        table.add(*cell.values, aggregate.reps, *_metric_cells(aggregate))
        if cell.values[0] in _STRICT_PROTOCOLS and not aggregate.audit_clean:
            failed = True
    table.print()
    print(_fleet_note(fleet), file=sys.stderr)
    return 1 if failed else 0


def cmd_chaos(args) -> int:
    _check_protocols(args.protocols)
    protocols = args.protocols or list(PROTOCOLS)
    replicated = args.replication_factor > 1
    control_plane = args.partition_count > 0 or args.coordinator_crashes > 0
    title = (
        f"Chaos: {args.duration:g}s on {args.nodes} nodes, "
        f"drop={args.drop_rate:g} dup={args.dup_rate:g} "
        f"crashes={args.crash_count}/node (fault seed {args.fault_seed})"
    )
    if replicated:
        title += (f", rf={args.replication_factor} "
                  f"refresh={args.refresh_delay:g}s")
    if control_plane:
        title += (f", partitions={args.partition_count} "
                  f"coord-crashes={args.coordinator_crashes}")
    columns = ["system", "dropped", "dup'd", "retx", "dedup", "crash/rec"]
    if control_plane:
        columns += ["cut", "coord c/r", "fenced", "stalls"]
    if replicated:
        # "records" replaces "entities": the agreement unit is the
        # (entity, slot) record compared across its replica set.
        columns += ["records", "agree", "skipped", "refresh", "ungated"]
    else:
        columns += ["entities", "agree"]
    columns += ["oracle", "repeat", "verdict"]
    table = Table(title, columns)
    failed = []
    fields = {p.field: getattr(args, p.dest) for p in PARAMETERS
              if hasattr(args, p.dest)}
    for protocol in protocols:
        spec = chaos_spec(protocol, **fields)
        report = run_chaos_spec(spec, verify_repeat=not args.no_repeat,
                                drain_limit=args.drain_limit)
        s = report.summary
        if report.repeat_identical is None:
            repeat = "-"
        else:
            repeat = "yes" if report.repeat_identical else "NO"
        cells = [
            protocol,
            s.messages_dropped if s else "-",
            s.messages_duplicated if s else "-",
            s.retransmits if s else "-",
            s.dup_suppressed if s else "-",
            f"{s.crashes}/{s.recoveries}" if s else "-",
        ]
        if control_plane:
            cells += [
                s.partitions_cut if s else "-",
                (f"{s.coordinator_crashes}/{s.coordinator_recoveries}"
                 if s else "-"),
                s.stale_epochs_fenced if s else "-",
                s.stall_count if s else "-",
            ]
        cells += [
            report.entities_checked,
            report.entities_checked - report.disagreements,
        ]
        if replicated:
            cells += [
                s.writes_skipped if s else "-",
                (f"{s.refreshes_completed}+{s.self_refreshes}"
                 if s else "-"),
                s.unreadable_reads_served if s else "-",
            ]
        cells += [
            "ok" if report.oracle_mismatches == 0 else
            f"{report.oracle_mismatches} BAD",
            repeat,
            "ok" if report.ok else "FAILED",
        ]
        table.add(*cells)
        if not report.ok:
            failed.append(report)
    table.print()
    for report in failed:
        for failure in report.failures:
            print(f"{report.protocol}: {failure}")
    if failed:
        return 1
    print("chaos: all protocols converged, stores agree, audits clean")
    return 0


def cmd_paper(args) -> int:
    from repro.workloads.paper_example import expected_final_state, run_example

    run = run_example()
    system = run.system
    print("Replaying the paper's Table 1 example (sites p, q, s) ...")
    for event in system.history.write_events:
        dual = " [dual write]" if event.versions_written > 1 else ""
        print(f"  t={event.time:6.2f}  {event.subtxn:4s} @ {event.node}: "
              f"{event.key} version {event.version}{dual}")
    final = {}
    for node in system.nodes.values():
        final.update(node.store.snapshot())
    ok = final == expected_final_state()
    print(f"final state matches Figure 2: {'yes' if ok else 'NO'}")
    print(f"vr={system.read_version} vu={system.update_version}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Scalable Versioning in Distributed Databases "
            "with Commuting Updates' (ICDE 1997)"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run_parser = commands.add_parser(
        "run", help="run one experiment on one protocol"
    )
    run_parser.add_argument("protocol", choices=PROTOCOLS)
    _experiment_arguments(run_parser)
    run_parser.add_argument(
        "--trace", metavar="PATH", default=None,
        help="write the per-transaction trace to PATH as JSON lines "
             "(with --stream 1 it spills incrementally at retirement)",
    )
    run_parser.add_argument(
        "--amount-mode", choices=AMOUNT_MODES, default="bitmask",
        help="update payloads: 'bitmask' enables the exact snapshot "
             "oracle but grows hot-key values one bit per update, so "
             "million-transaction volume runs should use 'money' "
             "(default bitmask)",
    )
    run_parser.set_defaults(handler=cmd_run)

    compare_parser = commands.add_parser(
        "compare", help="run the same workload on several protocols"
    )
    compare_parser.add_argument(
        "protocols", nargs="*",
        default=["3v", "nocoord", "manual", "2pc"],
        metavar="protocol",
        help=f"protocols to compare (default: 3v nocoord manual 2pc; "
             f"choices: {', '.join(PROTOCOLS)})",
    )
    _experiment_arguments(compare_parser)
    _fleet_arguments(compare_parser)
    compare_parser.set_defaults(handler=cmd_compare)

    sweep_parser = commands.add_parser(
        "sweep", help="sweep any experiment parameter on one protocol"
    )
    sweep_parser.add_argument("protocol", choices=PROTOCOLS)
    sweep_parser.add_argument(
        "parameter", choices=[p.flag for p in PARAMETERS],
        help="which parameter to sweep",
    )
    sweep_parser.add_argument(
        "values", nargs="+",
        help="values to sweep (typed per parameter: ints stay ints)",
    )
    _experiment_arguments(sweep_parser)
    _fleet_arguments(sweep_parser)
    sweep_parser.set_defaults(handler=cmd_sweep)

    grid_parser = commands.add_parser(
        "grid", help="multi-parameter x multi-seed grid with per-cell "
                     "aggregation",
    )
    grid_parser.add_argument(
        "protocols", nargs="*", default=["3v"], metavar="protocol",
        help=f"protocols forming the first grid axis (default: 3v; "
             f"choices: {', '.join(PROTOCOLS)})",
    )
    grid_parser.add_argument(
        "--vary", action="append", metavar="PARAM=V1,V2,...",
        help="add a grid axis, e.g. --vary nodes=2,4,8 "
             "(repeatable; any sweep parameter)",
    )
    _experiment_arguments(grid_parser)
    _fleet_arguments(grid_parser)
    grid_parser.set_defaults(handler=cmd_grid)

    chaos_parser = commands.add_parser(
        "chaos", help="run seeded fault storms across protocols and check "
                      "convergence, store agreement, and repeatability",
    )
    chaos_parser.add_argument(
        "protocols", nargs="*", default=[], metavar="protocol",
        help=f"protocols to storm (default: all; "
             f"choices: {', '.join(PROTOCOLS)})",
    )
    _experiment_arguments(chaos_parser, _CHAOS_FLAGS, CHAOS_DEFAULTS)
    chaos_parser.add_argument("--no-repeat", action="store_true",
                              help="skip the repeatability double-run")
    chaos_parser.add_argument("--drain-limit", type=float, default=100000.0,
                              help="simulated-time budget for post-storm "
                                   "convergence (default 100000)")
    chaos_parser.set_defaults(handler=cmd_chaos)

    paper_parser = commands.add_parser(
        "paper", help="replay the paper's Table 1 / Figure 2 example"
    )
    paper_parser.set_defaults(handler=cmd_paper)
    return parser


def main(argv: typing.Optional[typing.Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except SpecError as error:
        print(error)
        return 2
    except FleetTaskError as error:
        print(f"fleet task #{error.index} failed; worker traceback:")
        print(error.traceback_text)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
