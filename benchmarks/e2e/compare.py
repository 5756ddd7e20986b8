#!/usr/bin/env python3
"""Compare two sides of e2e benchmark results, metric by metric.

    python3 benchmarks/e2e/compare.py A B

``A`` and ``B`` are each a file written by ``run.py --out`` or a
directory of such files (one per invocation).  For every workload and
end-to-end metric this prints both medians, the relative difference,
the metric's bound, each side's inter-quartile range, and a verdict:

``ok``          B is no worse than A by more than the bound
``worse``       B is worse than A by more than the bound
``unresolved``  a side's IQR is wider than the bound and the two sides'
                ranges overlap, so the data cannot tell

With one file on a side the median is that invocation's value and the
IQR and range are those of its timed children; with several files they
are taken over the invocations' values.  Exit status 1 if any row reads
``worse`` or if two sides run with the same seed disagree on an outcome
digest.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys
import typing


class Side(typing.NamedTuple):
    seeds: typing.FrozenSet[int]
    contract: dict
    #: workload -> one ``run.py`` record per invocation
    workloads: typing.Dict[str, typing.List[dict]]


def load_side(path: str) -> Side:
    target = pathlib.Path(path)
    files = sorted(target.glob("*.json")) if target.is_dir() else [target]
    if not files:
        raise SystemExit(f"{path}: no result files")
    documents = []
    for file in files:
        with open(file, encoding="utf-8") as handle:
            documents.append(json.load(handle))
    workloads: typing.Dict[str, typing.List[dict]] = {}
    for document in documents:
        for name, record in document["workloads"].items():
            workloads.setdefault(name, []).append(record)
    return Side(frozenset(d["seed"] for d in documents),
                documents[0]["contract"], workloads)


def sample(records: typing.Sequence[dict], metric: str
           ) -> typing.Tuple[float, float, float, float]:
    """``(median, iqr, low, high)`` of one metric on one side."""
    values = [r["end_to_end"][metric] for r in records]
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
        return statistics.median(values), q3 - q1, min(values), max(values)
    record = records[0]
    reps = record["reps"].get(metric, values)
    return values[0], record["iqr"].get(metric, 0.0), min(reps), max(reps)


def verdict(a, b, better: str, bound: float) -> typing.Tuple[float, str]:
    """Relative worsening of B against A (positive = worse) and its label."""
    (a_med, a_iqr, a_low, a_high), (b_med, b_iqr, b_low, b_high) = a, b
    worsening = (b_med - a_med) / a_med
    if better == "higher":
        worsening = -worsening
    noisy = a_iqr / a_med > bound or b_iqr / b_med > bound
    overlap = a_low <= b_high and b_low <= a_high
    if noisy and overlap:
        return worsening, "unresolved"
    return worsening, "worse" if worsening > bound else "ok"


def main(argv: typing.Sequence[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    side_a, side_b = load_side(argv[0]), load_side(argv[1])
    same_seed = len(side_a.seeds | side_b.seeds) == 1
    bad = False
    print(f"{'workload':<11} {'metric':<19} {'A median':>13} {'B median':>13}"
          f" {'B worse by':>10} {'bound':>6} {'A iqr':>10} {'B iqr':>10}"
          f"  verdict")
    for name in side_a.workloads:
        if name not in side_b.workloads:
            continue
        records_a, records_b = side_a.workloads[name], side_b.workloads[name]
        for metric in side_a.contract["end_to_end"]:
            a = sample(records_a, metric["name"])
            b = sample(records_b, metric["name"])
            worsening, label = verdict(a, b, metric["better"], metric["bound"])
            bad |= label == "worse"
            print(f"{name:<11} {metric['name']:<19} {a[0]:>13.5f} {b[0]:>13.5f}"
                  f" {worsening:>+10.4f} {metric['bound']:>6.2f}"
                  f" {a[1]:>10.5f} {b[1]:>10.5f}  {label}")
        digests_a = {str(r["digest"]) for r in records_a}
        digests_b = {str(r["digest"]) for r in records_b}
        if same_seed:
            same = digests_a == digests_b and len(digests_a) == 1
            bad |= not same
            print(f"{name:<11} outcome digest "
                  f"{'identical' if same else 'DIFFERENT'}: "
                  f"{sorted(digests_a)} vs {sorted(digests_b)}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
