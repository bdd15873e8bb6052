#!/usr/bin/env python
"""Compare a BENCH_pr.json against the committed benchmark baseline.

Usage:
    python scripts/check_bench_regression.py CURRENT BASELINE \
        [--tolerance 0.25] [--update-baseline]
    python scripts/check_bench_regression.py --trajectory [BENCH_N.json ...]

``ns_per_element`` kernels fail when the current value exceeds the
baseline by more than the tolerance (default 25%, overridable with
``--tolerance`` or the ``REPRO_BENCH_TOLERANCE`` env var).  The
``speedup_floors`` section of the baseline holds hard lower bounds on
the measured ``speedups`` ratios — ratios are machine-relative, so they
gate reliably even when absolute timings move with the runner.

When ``$GITHUB_STEP_SUMMARY`` is set (always, inside GitHub Actions)
the comparison table is also appended there as Markdown, so perf
deltas are visible on the run page without downloading artifacts.

``--update-baseline`` rewrites the baseline's ``ns_per_element``
section from the current run (floors are left untouched).

``--trajectory`` gates nothing: it prints, per (metric, workload) of
the end-to-end benchmark, the median each committed ``BENCH_<pr>.json``
recorded (``benchmarks/e2e/compare.py --summary`` files; by default
every one in the repository, oldest PR first), so the run page shows
where each number has been going.
"""

import argparse
import glob
import json
import os
import re
import sys

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def compare(current, baseline, tolerance):
    """Returns ``(kernel_rows, speedup_rows, failures)``.

    Kernel rows: ``(name, measured, reference, ratio, limit, status)``;
    speedup rows: ``(name, measured, floor, status)``.  Missing entries
    appear with ``None`` measurements and status ``FAIL``.
    """
    failures = []
    kernel_rows = []
    current_ns = current.get("ns_per_element", {})
    reference_ns = baseline.get("ns_per_element", {})
    for kernel, reference in sorted(reference_ns.items()):
        measured = current_ns.get(kernel)
        if measured is None:
            kernel_rows.append((kernel, None, reference, None, None, "FAIL"))
            failures.append(f"{kernel}: missing from current run")
            continue
        limit = reference * (1.0 + tolerance)
        ratio = measured / reference if reference else float("inf")
        status = "FAIL" if measured > limit else "ok"
        kernel_rows.append((kernel, measured, reference, ratio, limit, status))
        if measured > limit:
            failures.append(
                f"{kernel}: {measured:.1f} ns/el exceeds {limit:.1f} "
                f"(baseline {reference:.1f} +{tolerance:.0%})"
            )

    speedup_rows = []
    current_speedups = current.get("speedups", {})
    for name, floor in sorted(baseline.get("speedup_floors", {}).items()):
        measured = current_speedups.get(name)
        if measured is None:
            speedup_rows.append((name, None, floor, "FAIL"))
            failures.append(f"speedup {name}: missing from current run")
            continue
        status = "FAIL" if measured < floor else "ok"
        speedup_rows.append((name, measured, floor, status))
        if measured < floor:
            failures.append(
                f"speedup {name}: {measured:.2f}x below the {floor}x floor"
            )
    return kernel_rows, speedup_rows, failures


def render_markdown(kernel_rows, speedup_rows, tolerance, failures):
    """The step-summary Markdown report."""
    verdict = "❌ FAILED" if failures else "✅ passed"
    lines = [
        f"## Bench regression gate {verdict}",
        "",
        f"ns/element vs committed baseline (tolerance {tolerance:.0%}):",
        "",
        "| kernel | current ns/el | baseline | ratio | limit | status |",
        "| --- | ---: | ---: | ---: | ---: | :---: |",
    ]
    for name, measured, reference, ratio, limit, status in kernel_rows:
        if measured is None:
            cells = ["_missing_", f"{reference:.1f}", "—", "—"]
        else:
            cells = [
                f"{measured:.1f}",
                f"{reference:.1f}",
                f"{ratio:.2f}x",
                f"{limit:.1f}",
            ]
        joined = " | ".join([f"`{name}`"] + cells + [status])
        lines.append(f"| {joined} |")
    if speedup_rows:
        lines += [
            "",
            "Speedup floors (machine-relative ratios):",
            "",
            "| speedup | measured | floor | status |",
            "| --- | ---: | ---: | :---: |",
        ]
        for name, measured, floor, status in speedup_rows:
            rendered = "_missing_" if measured is None else f"{measured:.2f}x"
            lines.append(f"| `{name}` | {rendered} | {floor}x | {status} |")
    if failures:
        lines += ["", "Failures:", ""]
        lines += [f"- {failure}" for failure in failures]
    return "\n".join(lines) + "\n"


def committed_bench_files(root=_REPO):
    """Every committed ``BENCH_<pr>.json`` summary, oldest PR first."""
    older = os.path.join(root, "benchmarks", "e2e", "trajectory")
    found = [
        path
        for directory in (root, older)
        for path in glob.glob(os.path.join(directory, "BENCH_*.json"))
    ]
    return sorted(found, key=_pr_number)


def _pr_number(path):
    match = re.search(r"BENCH_(\d+)\.json$", path)
    return int(match.group(1)) if match else 0


def trajectory(paths):
    """``(labels, rows)``: one label per file and one row ``(metric,
    workload, unit, [median or None per file])`` per pair any file
    measured — metrics, then workloads, in the order first seen."""
    labels, rows, metric_rank, workload_rank = [], {}, {}, {}
    for column, path in enumerate(paths):
        labels.append(os.path.basename(path)[: -len(".json")])
        for workload, metrics in load(path)["metrics"].items():
            workload_rank.setdefault(workload, len(workload_rank))
            for metric, entry in metrics.items():
                metric_rank.setdefault(metric, len(metric_rank))
                blank = (entry["unit"], [None] * len(paths))
                rows.setdefault((metric, workload), blank)[1][column] = entry["median"]
    ordered = sorted(rows, key=lambda k: (metric_rank[k[0]], workload_rank[k[1]]))
    return labels, [(m, w, *rows[m, w]) for m, w in ordered]


def render_trajectory(labels, rows):
    """The trajectory as a Markdown table (also what stdout gets)."""
    lines = [
        "## End-to-end benchmark trajectory (medians per committed BENCH file)",
        "",
        "| metric | workload | unit | " + " | ".join(labels) + " |",
        "| --- | --- | --- | " + " | ".join("---:" for _ in labels) + " |",
    ]
    for metric, workload, unit, medians in rows:
        cells = ["—" if value is None else f"{value:.4g}" for value in medians]
        head = f"| `{metric}` | {workload} | {unit} | "
        lines.append(head + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def write_step_summary(markdown, path=None):
    """Append the report to ``$GITHUB_STEP_SUMMARY`` when present."""
    target = path if path is not None else os.environ.get("GITHUB_STEP_SUMMARY")
    if not target:
        return False
    with open(target, "a", encoding="utf-8") as handle:
        handle.write(markdown)
        handle.write("\n")
    return True


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current", nargs="?", help="BENCH_pr.json from this run")
    parser.add_argument("baseline", nargs="?", help="committed baseline.json")
    parser.add_argument(
        "--trajectory",
        nargs="*",
        metavar="BENCH_N.json",
        help="print the medians across these compare.py summaries "
        "(default: every committed BENCH_<pr>.json) and exit",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=float(os.environ.get("REPRO_BENCH_TOLERANCE", "0.25")),
        help="allowed fractional ns/element regression (default 0.25)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline ns/element numbers from the current run",
    )
    args = parser.parse_args(argv)

    if args.trajectory is not None:
        paths = args.trajectory or committed_bench_files()
        report = render_trajectory(*trajectory(paths))
        print(report)
        write_step_summary(report)
        return 0
    if args.current is None or args.baseline is None:
        parser.error("CURRENT and BASELINE are required without --trajectory")

    current = load(args.current)
    baseline = load(args.baseline)

    if args.update_baseline:
        baseline["ns_per_element"] = current.get("ns_per_element", {})
        with open(args.baseline, "w", encoding="utf-8") as handle:
            json.dump(baseline, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"baseline ns/element updated from {args.current}")
        return 0

    kernel_rows, speedup_rows, failures = compare(current, baseline, args.tolerance)
    for name, measured, reference, ratio, limit, status in kernel_rows:
        if measured is None:
            print(f"[{status}] {name}: missing from current run")
        else:
            print(
                f"[{status}] {name}: {measured:.1f} ns/el "
                f"(baseline {reference:.1f}, {ratio:.2f}x, limit {limit:.1f})"
            )
    for name, measured, floor, status in speedup_rows:
        if measured is None:
            print(f"[{status}] speedup {name}: missing from current run")
        else:
            print(f"[{status}] speedup {name}: {measured:.2f}x (floor {floor}x)")

    write_step_summary(
        render_markdown(kernel_rows, speedup_rows, args.tolerance, failures)
    )

    if failures:
        print("\nbench regression gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nbench regression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
