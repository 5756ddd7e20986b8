"""Control-plane robustness table — what coordinator faults actually cost.

Runs the recording workload on 3V through four escalating control-plane
scenarios — clean, a coordinator crash mid-wave, a partition/heal cycle,
and both at once — and tabulates the robustness counters next to the
user-visible cost: advancement runs completed, epochs burned, stale
messages fenced, partition drops, watchdog stalls, and read staleness.

The point of the table is the *last two columns*: the disruption shows up
as bounded extra staleness and (possibly) a stall span, never as lost
work — committed counts stay level and the audit stays clean.

Standalone by design: control-plane cells run fault storms, so they do
not belong in the zero-fault sweep tables of ``GOLDEN.json`` (whose
``cli`` table gates the ``repro chaos`` storms instead).

Run directly::

    PYTHONPATH=src python benchmarks/bench_control_plane.py [--smoke]
"""

from __future__ import annotations

import typing

from repro.exp import chaos_spec
from repro.exp.summary import ExperimentSummary, run_spec

DURATIONS = {"full": 40.0, "smoke": 15.0}

#: scenario name -> extra chaos_spec axes.
SCENARIOS: typing.Tuple[typing.Tuple[str, typing.Dict[str, int]], ...] = (
    ("clean", {}),
    ("coord crash", {"coordinator_crashes": 1}),
    ("partition", {"partition_count": 1}),
    ("crash+partition", {"coordinator_crashes": 1, "partition_count": 1}),
)


def scenario_spec(mode: str, **axes):
    """The chaos workload with only the control-plane axes varying."""
    return chaos_spec("3v", duration=DURATIONS[mode], **axes)


def run_table(mode: str = "full"
              ) -> typing.List[typing.Tuple[str, ExperimentSummary]]:
    return [(name, run_spec(scenario_spec(mode, **axes)))
            for name, axes in SCENARIOS]


def render_table(rows) -> str:
    header = (f"{'scenario':<16}  {'adv':>4}  {'coord c/r':>9}  "
              f"{'epoch':>5}  {'cut':>5}  {'fenced':>6}  {'stalls':>6}  "
              f"{'committed':>9}  {'stale max':>9}")
    lines = [header, "-" * len(header)]
    for name, s in rows:
        committed = s.committed_updates + s.committed_reads
        cycles = f"{s.coordinator_crashes}/{s.coordinator_recoveries}"
        lines.append(
            f"{name:<16}  {s.advancement_runs:>4}  {cycles:>9}  "
            f"{s.coordinator_epoch:>5}  {s.partitions_cut:>5}  "
            f"{s.stale_epochs_fenced:>6}  {s.stall_count:>6}  "
            f"{committed:>9}  {s.staleness_max:>9.2f}"
        )
    return "\n".join(lines)


def check_rows(rows) -> None:
    """The graceful-degradation claims the table is supposed to show."""
    by_name = dict(rows)
    clean = by_name["clean"]
    for name, summary in rows:
        if not summary.audit_clean:
            raise AssertionError(f"{name}: audit not clean under disruption")
        # Disruptions delay work; they must not lose it wholesale.  The
        # drain runs to quiescence, so committed counts stay level.
        committed = summary.committed_updates + summary.committed_reads
        baseline = clean.committed_updates + clean.committed_reads
        if committed < 0.9 * baseline:
            raise AssertionError(
                f"{name}: committed work collapsed ({committed} vs "
                f"{baseline} clean)"
            )
    if by_name["coord crash"].coordinator_crashes != 1:
        raise AssertionError("coordinator crash scenario injected nothing")
    if by_name["partition"].partitions_cut == 0:
        raise AssertionError("partition scenario cut nothing")
    if by_name["crash+partition"].coordinator_epoch < 2:
        raise AssertionError("combined scenario never bumped the epoch")


if __name__ == "__main__":
    import sys

    chosen = "smoke" if "--smoke" in sys.argv else "full"
    table = run_table(chosen)
    print(render_table(table))
    check_rows(table)
    print(f"control-plane table ({chosen}): all degradation bounds hold")
