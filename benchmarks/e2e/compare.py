"""Compare two sets of benchmark runs, one row per (metric, workload).

    python3 benchmarks/e2e/compare.py A.json B.json
    python3 benchmarks/e2e/compare.py A.json            # spreads of one set
    python3 benchmarks/e2e/compare.py A.json --summary trajectory/BENCH_N.json

A set is either the file ``run.py --out`` appends to (one JSON record
per run and line) or a summary this program wrote with ``--summary``
(which keeps every run's value, so nothing is lost by comparing
summaries).  ``A`` is the base: every relative difference is
``(B - A) / A`` of the medians, signed so that positive is worse.

Verdicts, by the rule of the choosing-metrics guide:

* ``unresolved`` — the run-to-run spread (the wider interquartile range
  of the two sets, as a share of A's median) exceeds the metric's bound
  and the runs overlap: the benchmark cannot tell, which is not the
  same as unchanged;
* ``within``     — otherwise, the medians differ by no more than the bound;
* ``better`` / ``worse`` — they differ by more, or the spread exceeds
  the bound but every run of one set lies beyond every run of the other.

Statements that failed are compared as counts: any increase is ``worse``.
Exits 1 when any row is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import sys

from common import load_benchmark_json, quartiles


def load_set(path: str) -> dict:
    """``{"configs": [...], "seeds": [...], "failed": {workload: n},
    "attempted": {...}, "metrics": {workload: {metric: {"unit": u,
    "values": [...]}}}}`` from a ``--out`` file or a ``--summary`` file
    (``configs``: every distinct config block, the seed taken out)."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    try:
        document = json.loads(text)
    except json.JSONDecodeError:
        document = None             # several lines: a --out file
    if isinstance(document, dict) and "metrics" in document \
            and "configs" in document:
        return document
    runs = {"configs": [], "seeds": [], "failed": {}, "attempted": {},
            "metrics": {}}
    for line in text.splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        seed = record["config"].pop("seed")
        if seed not in runs["seeds"]:
            runs["seeds"].append(seed)
        if record["config"] not in runs["configs"]:
            runs["configs"].append(record["config"])
        name = record["workload"]
        runs["failed"][name] = runs["failed"].get(name, 0) + record["failed"]
        runs["attempted"][name] = (
            runs["attempted"].get(name, 0) + record["attempted"]
        )
        metrics = runs["metrics"].setdefault(name, {})
        for metric, reading in record["metrics"].items():
            entry = metrics.setdefault(
                metric, {"unit": reading["unit"], "values": []}
            )
            entry["values"].append(reading["value"])
    return runs


def with_statistics(runs: dict) -> dict:
    """The set with ``n``, ``q1``, ``median``, ``q3`` and ``spread``
    (interquartile range as a share of the median) beside the values."""
    for metrics in runs["metrics"].values():
        for entry in metrics.values():
            q1, q2, q3 = quartiles(entry["values"])
            entry.update(n=len(entry["values"]), q1=q1, median=q2, q3=q3,
                         spread=(q3 - q1) / q2 if q2 else 0.0)
    return runs


def verdict(a: list, b: list, higher_is_better: bool, bound: float):
    """``(relative difference signed so positive is worse, spread,
    verdict)`` of set ``b`` against base ``a``."""
    sign = -1.0 if higher_is_better else 1.0
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    worse_by = sign * (b_med - a_med) / a_med
    spread = max(a_q3 - a_q1, b_q3 - b_q1) / a_med
    if spread > bound:      # too noisy to call, unless the sets are disjoint
        if min(sign * v for v in b) > max(sign * v for v in a):
            return worse_by, spread, "worse"
        if max(sign * v for v in b) < min(sign * v for v in a):
            return worse_by, spread, "better"
        return worse_by, spread, "unresolved"
    if abs(worse_by) <= bound:
        return worse_by, spread, "within"
    return worse_by, spread, "worse" if worse_by > 0 else "better"


def _declared() -> list:
    """``[(metric, higher_is_better, bound or None)]`` in file order."""
    declared = load_benchmark_json()
    return [
        (m["name"], m["better"] == "higher", m.get("bound"))
        for m in declared["end_to_end"] + declared["per_layer"]
    ]


def print_spreads(a: dict) -> None:
    print(f"{'metric':34} {'workload':17} {'n':>3} {'q1':>11} {'median':>11} "
          f"{'q3':>11} {'spread':>7} {'bound':>6}  unit")
    for metric, _, bound in _declared():
        for workload, metrics in a["metrics"].items():
            if metric not in metrics:
                continue
            e = metrics[metric]
            shown = "" if bound is None else f"{bound:.2f}"
            print(f"{metric:34} {workload:17} {e['n']:>3} {e['q1']:>11.5g} "
                  f"{e['median']:>11.5g} {e['q3']:>11.5g} {e['spread']:>7.3f} "
                  f"{shown:>6}  {e['unit']}")
    for workload, failed in a["failed"].items():
        print(f"{'failed':34} {workload:17} {failed} of "
              f"{a['attempted'][workload]} statements")


def print_comparison(a: dict, b: dict) -> bool:
    """Print one row per (metric, workload) both sets measured; True
    when some row is ``worse``."""
    any_worse = False
    print(f"{'metric':34} {'workload':17} {'A q1/median/q3':>32} "
          f"{'B q1/median/q3':>32} {'worse by':>9} {'of A':>10} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for metric, higher, bound in _declared():
        for workload, metrics in a["metrics"].items():
            other = b["metrics"].get(workload, {})
            if metric not in metrics or metric not in other:
                continue
            ea, eb = metrics[metric], other[metric]
            worse_by, spread, word = verdict(
                ea["values"], eb["values"], higher,
                float("inf") if bound is None else bound)
            if bound is None:       # per-layer: shown, never judged
                word = "-"
            any_worse |= word == "worse"
            shown = "" if bound is None else f"{bound:.2f}"
            print(f"{metric:34} {workload:17} "
                  f"{ea['q1']:>10.5g}/{ea['median']:>10.5g}/{ea['q3']:>10.5g} "
                  f"{eb['q1']:>10.5g}/{eb['median']:>10.5g}/{eb['q3']:>10.5g} "
                  f"{worse_by:>+9.3f} {ea['median']:>10.5g} {spread:>7.3f} "
                  f"{shown:>6}  {word}")
    for workload, failed in a["failed"].items():
        if workload not in b["failed"]:
            continue
        word = "worse" if b["failed"][workload] > failed else "within"
        any_worse |= word == "worse"
        print(f"{'failed':34} {workload:17} {failed:>32} "
              f"{b['failed'][workload]:>32} {'':>9} {'':>10} {'':>7} "
              f"{'0':>6}  {word}")
    return any_worse


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", metavar="A.json")
    parser.add_argument("b", metavar="B.json", nargs="?")
    parser.add_argument("--summary", metavar="FILE",
                        help="write A, with its statistics, to FILE")
    args = parser.parse_args(argv)
    a = with_statistics(load_set(args.a))
    if args.summary:
        with open(args.summary, "w", encoding="utf-8") as handle:
            json.dump(a, handle, indent=1)
            handle.write("\n")
    if args.b is None:
        print_spreads(a)
        return 0
    b = with_statistics(load_set(args.b))
    return 1 if print_comparison(a, b) else 0


if __name__ == "__main__":
    sys.exit(main())
