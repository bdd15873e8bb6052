"""End-to-end benchmark: SQL text in, result bits out, through
``repro.connect``.

    python3 benchmarks/e2e/run.py --workload q1_lowcard --seed 1 \\
        --seconds 15 --trace 0

runs one workload and prints every metric by name with its unit, then —
as the last line of standard output — one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
is the timed run (end-to-end metrics, tracing off); ``--trace 1`` is the
separate traced run (per-layer metrics).  Without ``--workload`` every
workload runs, without ``--trace`` both runs do, and the last line
nests the metrics by workload.  ``--smoke`` shrinks the inputs so that
everything finishes in well under a minute; ``--out F`` appends one
JSON line per run, with its full config, to ``F``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

from common import (
    FULL, OUT, SMOKE, WORK, config_block, fresh_dir, load_benchmark_json,
    use_checkout_repro,
)


def _parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads, default=None)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measured window (default: BENCHMARK.json's "
                             "run_seconds; 1 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", default=None, metavar="FILE")
    return parser.parse_args(argv)


def run_one(workload_name: str, trace: int, seed: int, seconds: int, sizes,
            declared: dict) -> dict:
    """Run one (workload, mode); print its metrics; return its record."""
    from workloads import BY_NAME

    workload = BY_NAME[workload_name]
    work = fresh_dir(WORK / f"{os.getpid()}-{workload_name}-{trace}")
    start = time.perf_counter()
    try:
        if trace:
            from traced import run_traced

            outcome = run_traced(workload, seed, seconds, sizes, work)
        else:
            from served import run_timed

            outcome = run_timed(workload, seed, seconds, sizes, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    names = [m["name"] for m in declared["per_layer" if trace else "end_to_end"]]
    missing = sorted(set(names) - set(outcome["metrics"]))
    if missing:
        raise RuntimeError(f"{workload_name}: metrics not measured: {missing}")
    tally = outcome["tally"]
    # the whole run as the driver's clock sees it, against the contract's cap
    outcome["info"]["run_wall_s"] = time.perf_counter() - start
    print(f"# {workload_name} --trace {trace} --seed {seed} "
          f"--seconds {seconds}")
    for name in names:
        value, unit = outcome["metrics"][name]
        print(f"{name} {value:.6g} {unit}")
    for key, value in outcome["info"].items():
        print(f"# {key}: {value}")
    for note in tally.notes:
        print(f"# FAILED: {note}")
    return {
        "workload": workload_name,
        "trace": trace,
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": outcome["metrics"][name][0],
                   "unit": outcome["metrics"][name][1]}
            for name in names
        },
        "info": outcome["info"],
    }


def main(argv=None) -> int:
    declared = load_benchmark_json()
    declared_workloads = [w["name"] for w in declared["workloads"]]
    args = _parse_args(argv, declared_workloads)
    use_checkout_repro()
    sizes = SMOKE if args.smoke else FULL
    seconds = args.seconds
    if seconds is None:
        seconds = 1 if args.smoke else declared["run_seconds"]
    workloads = [args.workload] if args.workload else declared_workloads
    modes = [args.trace] if args.trace is not None else [0, 1]
    config = config_block(args.seed, seconds, sizes)
    OUT.mkdir(exist_ok=True)

    records = []
    for name in workloads:
        for trace in modes:
            record = run_one(name, trace, args.seed, seconds, sizes, declared)
            records.append(record)
            if args.out:
                with open(args.out, "a", encoding="utf-8") as handle:
                    handle.write(json.dumps({"config": config, **record}))
                    handle.write("\n")
    try:
        WORK.rmdir()        # only when no other run is using it
    except OSError:
        pass

    last = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
    }
    if len(records) == 1:
        last["metrics"] = records[0]["metrics"]
    else:
        last["metrics"] = {}
        for record in records:
            last["metrics"].setdefault(record["workload"], {}).update(
                record["metrics"]
            )
    print(json.dumps(last))
    return 0


if __name__ == "__main__":
    sys.exit(main())
