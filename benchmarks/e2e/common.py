"""Shared plumbing of the end-to-end benchmark: where the checkout is,
the two input scales, the statistics every report uses, and the config
block stored next to every number."""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: scratch for data directories (inside the checkout, git-ignored)
WORK = HERE / "_work"
#: trace files and other run outputs (inside the checkout, git-ignored)
OUT = HERE / "_out"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

#: The session knobs every served connection runs with.  They are the
#: library's defaults — the benchmark passes none of them — and are
#: listed here only so the config block can record what a number was
#: measured under.
SERVED_KNOBS = {
    "workers": 1, "morsel_size": 65536, "fused": True, "vectorized": True,
    "shards": 0, "wal_sync": "commit", "checkpoint_interval_s": 3600,
}
#: Knobs of the in-memory oracle session: deliberately unlike the
#: served ones, because repro bits may not depend on them.
ORACLE_KNOBS = {"morsel_size": 1024, "workers": 2}


def use_checkout_repro() -> None:
    """Put this checkout's ``src/`` first on ``sys.path`` and refuse to
    run without it: the program under test is the checkout's own code,
    never a copy installed elsewhere."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"no repro package under {SRC}: nothing to measure")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one scale.  Everything a count metric depends on
    is fixed here (never derived from elapsed time), so byte and row
    counts repeat exactly from run to run."""

    scale_factor: float      # TPC-H scale of q1_lowcard / q3_join_topk
    pairs_rows: int          # groupby_highcard input rows
    pairs_groups: int        # ... drawn from this many keys
    obs_rows: int            # rows seeded into obs(k, v)
    obs_keys: int            # distinct keys of obs
    batch_rows: int          # rows per INSERT statement
    mixed_cycles_per_s: int  # durable_mixed cycles per --seconds second
    write_cycles: int        # INSERT+REFRESH cycles closing a read workload
    min_pairs: int           # ieee/repro pairs a window must reach
    setups: int              # set-ups per timed run (median reported)
    recoveries: int          # reopen-after-SIGKILL repetitions
    traced_statements: int   # statements per traced loop
    durability_cycles: int   # cycles of the discard-unflushed-bytes check


FULL = Sizes(
    scale_factor=0.05, pairs_rows=2**18, pairs_groups=2**15,
    obs_rows=50_000, obs_keys=256, batch_rows=200, mixed_cycles_per_s=25,
    write_cycles=100, min_pairs=100, setups=5, recoveries=5,
    traced_statements=30, durability_cycles=50,
)
SMOKE = Sizes(
    scale_factor=0.002, pairs_rows=2**12, pairs_groups=2**9,
    obs_rows=5_000, obs_keys=256, batch_rows=200, mixed_cycles_per_s=100,
    write_cycles=20, min_pairs=100, setups=1, recoveries=2,
    traced_statements=30, durability_cycles=20,
)


# -- machine speed -------------------------------------------------------------

class SpeedReference:
    """A fixed piece of work timed next to every measured operation.

    The sandbox's speed drifts by tens of percent from second to second
    and minute to minute (shared host: a fixed NumPy kernel's median
    moves 4.8 -> 6.5 ms between adjacent seconds), on both cores at
    once, which no window a run can afford averages away.  Every time
    this benchmark reports is therefore divided by the reference's time
    measured beside it and multiplied by ``NOMINAL_S``: it reads as
    seconds *on a machine running the reference in NOMINAL_S*.  The
    reference is the engine's own mix — NumPy streaming arithmetic, a
    sort, an interpreter loop building a dict of tuples — over inputs
    that never change (not the run's seed), and it runs in the client,
    so no change to the program can move it.  ``NOMINAL_S`` is this
    box's calm reading; changing it or the kernel rescales every time
    metric, so neither may change while numbers are being compared.
    """

    NOMINAL_S = 0.003

    def __init__(self):
        self._values = np.random.default_rng(20180416).random(300_000)
        self._keys = [((i * 7919) % 5003, i & 7) for i in range(1200)]

    def sample(self) -> float:
        """Seconds one pass of the reference takes right now."""
        # untimed: whatever the caller did last, the pass starts with
        # its inputs in cache, so it reads the machine and not the caller
        mixed = self._values * 1.0001 + self._values
        start = time.perf_counter()
        for _ in range(4):
            mixed = self._values * 1.0001 + self._values
            np.sort(mixed[:20_000])
        counts: dict = {}
        for key in self._keys:
            counts[key] = counts.get(key, 0) + 1
        sorted(counts.items())
        return time.perf_counter() - start

    def scale(self, samples: int = 1) -> float:
        """Factor that turns seconds measured now into seconds at
        reference speed (median of ``samples`` passes)."""
        return self.NOMINAL_S / median(self.sample() for _ in range(samples))

    def timed(self, fn):
        """``fn()`` bracketed by reference samples, for operations long
        enough that the speed may move under them:
        ``(result, seconds at reference speed, raw seconds)``."""
        before = self.scale(3)
        start = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - start
        return result, raw * (before + self.scale(3)) / 2, raw


# -- statistics --------------------------------------------------------------

def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0..100), linear interpolation."""
    return float(np.percentile(values, q))


def tail_supported(n: int) -> int:
    """The highest of p50/p75/p90/p95/p99 that ``n`` samples support:
    at least ten samples must lie beyond the percentile reported."""
    supported = 50
    for q in (75, 90, 95, 99):
        if n * (100 - q) / 100.0 >= 10:
            supported = q
    return supported


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` the way the acceptance rule takes them."""
    if len(values) < 2:
        return (float(values[0]),) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


# -- config block ------------------------------------------------------------

def _commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def config_block(seed: int, seconds: int, sizes: Sizes) -> dict:
    """Everything needed to read a number later: inputs, knobs, box."""
    return {
        "seed": seed,
        "seconds": seconds,
        "sizes": asdict(sizes),
        "served_knobs": SERVED_KNOBS,
        "oracle_knobs": ORACLE_KNOBS,
        "clients": 1,
        "loop": "closed",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "commit": _commit(),
    }


def load_benchmark_json() -> dict:
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        return json.load(handle)


# -- scratch directories -----------------------------------------------------

def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def directory_bytes(path) -> int:
    return sum(
        os.path.getsize(os.path.join(path, name)) for name in os.listdir(path)
    )
