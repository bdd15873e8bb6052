"""Shared helpers for the benchmark harness.

Every ``bench_*`` module reproduces one of the paper's tables or
figures.  Each combines:

* **model** — the calibrated cost model's series for the paper's full
  parameter ranges (n = 2**30 etc.), printed next to the paper's
  anchor values;
* **measured** — pytest-benchmark timings of this library's Python
  kernels at laptop scale, demonstrating the *shape* (who wins, where
  cross-overs fall) where Python timings are meaningful.

Reports are printed to stdout (the suite runs with ``-s``) and
mirrored under ``benchmarks/results/``.
"""

from __future__ import annotations

import json
import os

import numpy as np

from paper.analysis.reporting import banner, format_table


def results_dir() -> str:
    """Where reports land: ``REPRO_BENCH_RESULTS_DIR`` if set (CI
    redirects artifacts there), else ``benchmarks/results/``."""
    override = os.environ.get("REPRO_BENCH_RESULTS_DIR")
    if override:
        return override
    return os.path.join(os.path.dirname(__file__), "results")


#: Kept for callers that import the constant; prefer :func:`results_dir`.
RESULTS_DIR = results_dir()

#: Machine-readable per-kernel numbers for the CI bench-regression gate
#: (compared against ``benchmarks/baseline.json``).
BENCH_JSON = "BENCH_pr.json"


def emit(name: str, *sections: str) -> None:
    """Print a report and mirror it to <results_dir>/<name>.txt."""
    text = "\n\n".join([banner(name)] + list(sections)) + "\n"
    print("\n" + text)
    target = results_dir()
    os.makedirs(target, exist_ok=True)
    path = os.path.join(target, f"{name}.txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _load_bench_json(path: str) -> dict:
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    return {"ns_per_element": {}, "speedups": {}}


def record_kernel(name: str, ns: float) -> None:
    """Merge one kernel's ns/element into <results_dir>/BENCH_pr.json."""
    _record("ns_per_element", name, round(float(ns), 4))


def record_speedup(name: str, ratio: float) -> None:
    """Merge one speedup ratio (dimensionless, machine-relative) into
    <results_dir>/BENCH_pr.json."""
    _record("speedups", name, round(float(ratio), 4))


def record_config(name: str, **config) -> None:
    """Record, next to the number ``name``, the configuration it was
    measured at (morsel size, engines, scale) — numbers from different
    benches are only comparable when this says they are."""
    _record("config", name, config)


def _record(section: str, name: str, value) -> None:
    target = results_dir()
    os.makedirs(target, exist_ok=True)
    path = os.path.join(target, BENCH_JSON)
    payload = _load_bench_json(path)
    payload.setdefault(section, {})[name] = value
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def table(headers, rows, title="") -> str:
    return format_table(headers, rows, title)


def ns_per_element(seconds: float, n: int) -> float:
    return seconds / n * 1e9


def standard_pairs(n: int, ngroups: int, seed: int = 0, dtype=np.float64):
    """The paper's standard workload at bench scale."""
    from repro.workloads import make_pairs

    return make_pairs(n, ngroups, "Exp(1)", dtype, seed)
