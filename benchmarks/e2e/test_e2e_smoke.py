"""Smoke test of the end-to-end benchmark (not a tier-1 test):

    PYTHONPATH=src python3 -m pytest benchmarks/e2e/test_e2e_smoke.py -q

runs ``run.py --smoke`` once — every workload, timed and traced — and
checks the report's shape; then shows that the correctness oracle and
the durability check each reject what they exist to reject.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402

common.use_checkout_repro()

import durability  # noqa: E402
import served  # noqa: E402
import workloads  # noqa: E402

DECLARED = common.load_benchmark_json()


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """``(stdout lines, records by (workload, trace))`` of one smoke run."""
    out = tmp_path_factory.mktemp("e2e") / "runs.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "7",
         "--out", str(out)],
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    records = {}
    for line in out.read_text().splitlines():
        record = json.loads(line)
        records[record["workload"], record["trace"]] = record
    return done.stdout.splitlines(), records


def test_every_declared_metric_is_printed_with_its_unit(smoke):
    lines, records = smoke
    printed, workload, trace = set(), None, None
    for line in lines:
        if line.startswith("# ") and " --trace " in line:
            workload, trace = line.split()[1], int(line.split()[3])
        elif not line.startswith(("#", "{")):
            name, value, unit = line.split()
            float(value)
            printed.add((workload, trace, name, unit))
    for entry in DECLARED["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            for metric in DECLARED[kind]:
                key = (entry["name"], trace, metric["name"], metric["unit"])
                assert key in printed, key
            record = records[entry["name"], trace]
            assert set(record["metrics"]) == {
                m["name"] for m in DECLARED[kind]
            }
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] == sum(r["attempted"] for r in records.values())


def test_end_to_end_metrics_are_never_zero(smoke):
    _, records = smoke
    for (workload, trace), record in records.items():
        if trace == 0:
            for name, reading in record["metrics"].items():
                assert reading["value"] > 0, (workload, name)


def test_tail_percentile_has_ten_samples_beyond_it(smoke):
    assert [common.tail_supported(n) for n in (19, 40, 99, 100, 200, 1000)] \
        == [50, 75, 75, 90, 95, 99]
    _, records = smoke
    for (workload, trace), record in records.items():
        if trace == 0:      # repro_p90_ms is what the run reports
            assert record["info"]["pairs"] >= 100, workload
            assert record["info"]["tail_supported"] >= 90, workload


def test_spans_nest_under_one_trace_id_per_statement(smoke):
    _, records = smoke
    for entry in DECLARED["workloads"]:
        path = common.OUT / f"trace_{entry['name']}.jsonl"
        spans = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(spans) == records[entry["name"], 1]["info"]["spans"]
        by_id = {span["span_id"]: span for span in spans}
        assert len(by_id) == len(spans)
        roots = [span for span in spans if span["parent_id"] is None]
        assert len({root["trace_id"] for root in roots}) == len(roots)
        for span in spans:
            assert span["start_ns"] <= span["end_ns"]
            if span["parent_id"] is not None:
                parent = by_id[span["parent_id"]]
                assert parent["trace_id"] == span["trace_id"]
                assert parent["start_ns"] <= span["start_ns"]
                assert span["end_ns"] <= parent["end_ns"]
        # self time = duration - children: the SELECT roots' children
        # must account for (nearly) all of them
        selects = {r["span_id"]: r["end_ns"] - r["start_ns"]
                   for r in roots if r["name"] == "select"}
        covered = sum(s["end_ns"] - s["start_ns"] for s in spans
                      if s["parent_id"] in selects)
        assert covered / sum(selects.values()) >= 0.95, entry["name"]
        coverage = records[entry["name"], 1]["metrics"]["trace.coverage_frac"]
        assert coverage["value"] == pytest.approx(
            covered / sum(selects.values()))


def _tiny_mirror():
    sizes = common.SMOKE
    return workloads.Mirror([workloads.ObsStream(3, sizes).initial()], 3)


def test_oracle_rejects_a_corrupted_result():
    mirror = _tiny_mirror()
    try:
        expected = mirror.execute(workloads.FILTERED_SQL)
        served_result = mirror.execute(workloads.FILTERED_SQL)
        tally = served.Tally()
        served.check_read(tally, "repro", served_result, expected)
        served.check_read(tally, "ieee", served_result, expected)
        assert tally.failed == 0
        # one flipped low bit of one sum: wrong for repro, fine for ieee
        sums = served_result.arrays[1]
        sums.view(np.uint64)[0] ^= 1
        served.check_read(tally, "repro", served_result, expected)
        assert tally.failed == 1
        served.check_read(tally, "ieee", served_result, expected)
        assert tally.failed == 1
        sums[0] *= 1 + 1e-6     # beyond the IEEE tolerance too
        served.check_read(tally, "ieee", served_result, expected)
        assert tally.failed == 2
    finally:
        mirror.close()


def test_durability_check_fails_when_flushes_are_lost(tmp_path, monkeypatch):
    tally = served.Tally()
    info = durability.durability_check(tmp_path, 5, common.SMOKE, tally)
    assert tally.failed == 0
    assert tally.attempted == info["durability_acknowledged"] > 0
    assert info["durability_fsyncs"] >= info["durability_acknowledged"]

    def forgetful(self, fd):    # an fsync that flushes nothing
        self.calls += 1
    monkeypatch.setattr(durability.FsyncLedger, "_fsync", forgetful)
    tally = served.Tally()
    info = durability.durability_check(tmp_path, 5, common.SMOKE, tally)
    assert info["durability_unflushed_bytes_cut"] > 0
    assert tally.failed == info["durability_acknowledged"]
