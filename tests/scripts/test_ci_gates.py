"""The CI gate scripts, tested like the production code they gate.

``scripts/check_bench_regression.py`` and ``scripts/repro_digest.py``
fail or pass every PR; a bug in either silently weakens the
reproducibility and performance gates.  These tests cover the
tolerance / floor / missing-kernel paths of the bench gate (including
the ``$GITHUB_STEP_SUMMARY`` emission) and the env parsing + digest
stability of the reproducibility gate.
"""

import importlib.util
import json
import pathlib
import sys

import pytest

_SCRIPTS = pathlib.Path(__file__).resolve().parents[2] / "scripts"
_CACHE = {}


def _load(name):
    if name not in _CACHE:
        spec = importlib.util.spec_from_file_location(
            f"ci_gate_{name}", _SCRIPTS / f"{name}.py"
        )
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
        _CACHE[name] = module
    return _CACHE[name]


@pytest.fixture()
def bench_gate():
    return _load("check_bench_regression")


@pytest.fixture()
def digest():
    return _load("repro_digest")


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


_BASELINE = {
    "ns_per_element": {"kernel_a": 100.0, "kernel_b": 50.0},
    "speedup_floors": {"fast_path": 2.0},
}


# ---------------------------------------------------------------------------
# check_bench_regression
# ---------------------------------------------------------------------------


def test_bench_gate_passes_within_tolerance(bench_gate, tmp_path, capsys):
    current = _write(tmp_path, "cur.json", {
        "ns_per_element": {"kernel_a": 120.0, "kernel_b": 40.0},
        "speedups": {"fast_path": 2.5},
    })
    baseline = _write(tmp_path, "base.json", _BASELINE)
    assert bench_gate.main([current, baseline, "--tolerance", "0.25"]) == 0
    out = capsys.readouterr().out
    assert "[ok] kernel_a" in out and "gate passed" in out


def test_bench_gate_fails_beyond_tolerance(bench_gate, tmp_path, capsys):
    current = _write(tmp_path, "cur.json", {
        "ns_per_element": {"kernel_a": 130.0, "kernel_b": 40.0},
        "speedups": {"fast_path": 2.5},
    })
    baseline = _write(tmp_path, "base.json", _BASELINE)
    assert bench_gate.main([current, baseline, "--tolerance", "0.25"]) == 1
    captured = capsys.readouterr()
    assert "[FAIL] kernel_a" in captured.out
    assert "exceeds" in captured.err
    # A looser tolerance admits the same numbers.
    assert bench_gate.main([current, baseline, "--tolerance", "0.5"]) == 0


def test_bench_gate_missing_kernel_fails(bench_gate, tmp_path, capsys):
    current = _write(tmp_path, "cur.json", {
        "ns_per_element": {"kernel_a": 90.0},
        "speedups": {"fast_path": 2.5},
    })
    baseline = _write(tmp_path, "base.json", _BASELINE)
    assert bench_gate.main([current, baseline]) == 1
    assert "kernel_b: missing" in capsys.readouterr().err


def test_bench_gate_speedup_floor(bench_gate, tmp_path, capsys):
    current = _write(tmp_path, "cur.json", {
        "ns_per_element": {"kernel_a": 90.0, "kernel_b": 40.0},
        "speedups": {"fast_path": 1.5},
    })
    baseline = _write(tmp_path, "base.json", _BASELINE)
    assert bench_gate.main([current, baseline]) == 1
    assert "below the 2.0x floor" in capsys.readouterr().err


def test_bench_gate_missing_speedup_fails(bench_gate, tmp_path, capsys):
    current = _write(tmp_path, "cur.json", {
        "ns_per_element": {"kernel_a": 90.0, "kernel_b": 40.0},
        "speedups": {},
    })
    baseline = _write(tmp_path, "base.json", _BASELINE)
    assert bench_gate.main([current, baseline]) == 1
    assert "speedup fast_path: missing" in capsys.readouterr().err


def test_bench_gate_update_baseline(bench_gate, tmp_path):
    current = _write(tmp_path, "cur.json", {
        "ns_per_element": {"kernel_a": 90.0},
        "speedups": {"fast_path": 2.5},
    })
    baseline = _write(tmp_path, "base.json", _BASELINE)
    assert bench_gate.main([current, baseline, "--update-baseline"]) == 0
    rewritten = json.loads(pathlib.Path(baseline).read_text())
    assert rewritten["ns_per_element"] == {"kernel_a": 90.0}
    # Floors are policy, not measurements: never rewritten.
    assert rewritten["speedup_floors"] == {"fast_path": 2.0}


def test_bench_gate_writes_step_summary(
    bench_gate, tmp_path, monkeypatch, capsys
):
    summary = tmp_path / "summary.md"
    monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
    current = _write(tmp_path, "cur.json", {
        "ns_per_element": {"kernel_a": 130.0, "kernel_b": 40.0},
        "speedups": {"fast_path": 2.5},
    })
    baseline = _write(tmp_path, "base.json", _BASELINE)
    assert bench_gate.main([current, baseline]) == 1
    capsys.readouterr()
    text = summary.read_text()
    assert "## Bench regression gate" in text and "FAILED" in text
    assert "| `kernel_a` | 130.0 | 100.0 |" in text
    assert "| `fast_path` | 2.50x | 2.0x | ok |" in text


def test_bench_gate_no_summary_without_env(bench_gate, monkeypatch):
    monkeypatch.delenv("GITHUB_STEP_SUMMARY", raising=False)
    assert bench_gate.write_step_summary("# nope\n") is False


def _summary(**medians):
    """A ``compare.py --summary`` file, as far as --trajectory reads it."""
    return {"metrics": {
        workload: {
            metric: {"unit": "ms", "median": value}
            for metric, value in metrics.items()
        }
        for workload, metrics in medians.items()
    }}


def test_trajectory_prints_medians_across_bench_files(
    bench_gate, tmp_path, monkeypatch, capsys
):
    summary = tmp_path / "summary.md"
    monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
    older = _write(tmp_path, "BENCH_9.json", _summary(
        q1={"p50_ms": 30.0, "p90_ms": 60.0}, q3={"p50_ms": 15.0},
    ))
    newer = _write(tmp_path, "BENCH_12.json", _summary(
        q1={"p50_ms": 27.5, "p90_ms": 31.25}, q3={"p50_ms": 15.5, "new_ms": 1.0},
    ))
    assert bench_gate.main(["--trajectory", older, newer]) == 0
    out = capsys.readouterr().out
    assert out.strip() == summary.read_text().strip()
    table = [line for line in out.splitlines() if line.startswith("| `")]
    # one row per (metric, workload): metrics first seen first, a file
    # that did not measure the pair shows a dash
    assert table == [
        "| `p50_ms` | q1 | ms | 30 | 27.5 |",
        "| `p50_ms` | q3 | ms | 15 | 15.5 |",
        "| `p90_ms` | q1 | ms | 60 | 31.25 |",
        "| `new_ms` | q3 | ms | — | 1 |",
    ]
    assert "| metric | workload | unit | BENCH_9 | BENCH_12 |" in out


def test_trajectory_defaults_to_the_committed_bench_files(bench_gate, capsys):
    files = bench_gate.committed_bench_files()
    numbers = [bench_gate._pr_number(path) for path in files]
    assert numbers == sorted(numbers) and len(numbers) >= 5
    assert bench_gate.main(["--trajectory"]) == 0
    out = capsys.readouterr().out
    assert "| `repro_p90_ms` | q3_join_topk | ms |" in out


def test_bench_gate_still_requires_both_files(bench_gate, capsys):
    with pytest.raises(SystemExit):
        bench_gate.main([])
    capsys.readouterr()


# ---------------------------------------------------------------------------
# repro_digest
# ---------------------------------------------------------------------------


def test_parse_budgets(digest):
    assert digest.parse_budgets("unbounded") == (None,)
    assert digest.parse_budgets("0") == (None,)
    assert digest.parse_budgets("none") == (None,)
    assert digest.parse_budgets("unbounded,65536, 1") == (None, 65536, 1)
    with pytest.raises(SystemExit):
        digest.parse_budgets("")
    with pytest.raises(SystemExit):
        digest.parse_budgets("lots")
    with pytest.raises(SystemExit):
        digest.parse_budgets("-4")


def test_parse_workers_and_sides(digest):
    assert digest.parse_workers("1, 2,4") == [1, 2, 4]
    with pytest.raises(SystemExit):
        digest.parse_workers(",")
    with pytest.raises(SystemExit):
        digest.parse_workers("0")
    # the planner alone picks a join's build side: no axis sweeps it
    assert not hasattr(digest, "parse_build_sides")


def test_digest_shards_invisible(digest):
    """A leg splitting aggregates over partial tables (``workers`` > 1:
    morsel i feeds table i mod N) must digest byte-identically to the
    one-table legs; the shards axis is gone."""
    queries = _edge_queries(digest)
    one_table = digest.digest_lines([1], (None,), queries)
    split = digest.digest_lines([2], (None,), queries)
    mixed = digest.digest_lines([1, 3], (None,), queries)
    assert one_table == split == mixed
    assert not hasattr(digest, "parse_shards")
    with pytest.raises(TypeError):
        digest.digest_lines([1], (None,), queries, shards_counts=(2,))


def test_tpch_scale_env_override(digest, monkeypatch):
    monkeypatch.delenv("REPRO_DIGEST_TPCH_SCALE", raising=False)
    assert digest.tpch_scale() == digest.DEFAULT_TPCH_SCALE
    monkeypatch.setenv("REPRO_DIGEST_TPCH_SCALE", "0.02")
    assert digest.tpch_scale() == 0.02


def _edge_queries(digest):
    return tuple(
        entry for entry in digest.QUERIES if entry[0] == "edge_keys"
    )


def test_digest_stable_and_budget_invisible(digest):
    """The digest file is the CI gate's currency: identical across
    repeat runs AND across memory-budget sweeps (a leg spilling to
    disk must hash to the same bytes as one that never spills)."""
    queries = _edge_queries(digest)
    unbounded = digest.digest_lines([1, 2], (None,), queries)
    again = digest.digest_lines([1, 2], (None,), queries)
    spilling = digest.digest_lines([1], (1,), queries)
    assert unbounded == again
    assert unbounded == spilling
    assert len(unbounded) == len(digest.MODES)


def test_digest_detects_non_reproducibility(digest, monkeypatch):
    calls = {"n": 0}
    real = digest.canonical_bytes

    def flaky(result):
        calls["n"] += 1
        payload = real(result)
        return payload + b"!" if calls["n"] % 2 else payload

    monkeypatch.setattr(digest, "canonical_bytes", flaky)
    with pytest.raises(SystemExit, match="NON-REPRODUCIBLE"):
        digest.digest_lines([1], (None,), _edge_queries(digest))


def test_digest_asserts_kernel_on_unbudgeted_legs(digest, monkeypatch):
    """The in-memory join legs must stay on the group-id path they are
    pinned to (the name dates from when that path was a kernel): a
    planner that moves one fails the digest instead of silently leaving
    the other path uncovered."""
    from repro.engine import physical

    queries = tuple(
        entry for entry in digest.QUERIES
        if entry[0] in digest.BUILD_ROW_RULE
    )
    assert [entry[0] for entry in queries] == ["tpch_q3", "join_edge_fused"]
    lines = digest.digest_lines([1], (None,), queries)
    assert len(lines) == 2 * len(digest.MODES)
    with monkeypatch.context() as patch:
        patch.setattr(physical, "_build_row_rule", lambda chain, keys: None)
        with pytest.raises(SystemExit, match="tpch_q3.*does not take"):
            digest.digest_lines([1], (None,), queries)
    monkeypatch.setitem(digest.BUILD_ROW_RULE, "join_edge_fused", True)
    with pytest.raises(SystemExit, match="join_edge_fused.*does not take"):
        digest.digest_lines([1], (None,), queries[1:])


def test_digest_asserts_interpreter_on_spill_legs(digest):
    """... and a spill leg (no unbounded budget) must run every grouped
    query external at its smallest budget — a budget too generous to
    force that is a broken leg, not a pass."""
    queries = _edge_queries(digest)
    assert digest.digest_lines([1], (1 << 30, 1), queries)
    with pytest.raises(SystemExit, match="did not run the external"):
        digest.digest_lines([1], (1 << 30,), queries)
    # With an unbounded run in the sweep the leg is an in-memory leg.
    assert digest.digest_lines([1], (None, 1 << 30), queries)


def test_digest_spill_leg_holds_the_budget_to_the_finish(
        digest, monkeypatch, tmp_path, capsys):
    """A spill leg runs a high-cardinality probe at its larger budget:
    ``peak_resident_bytes`` (which covers the finish) must stay below
    the unbudgeted table's size — a finish that folds every partition
    back into one table fails the digest job, not just a unit test."""
    from repro.aggregation import external_agg

    monkeypatch.setattr(digest, "PROBE_ROWS", 16_000)
    monkeypatch.setattr(digest, "PROBE_KEYS", 4_000)
    digest.check_resident_bound(65536)
    with monkeypatch.context() as patch:
        # one partition is the whole state: what the old fold held
        patch.setattr(external_agg, "SPILL_PARTITIONS", 1)
        with pytest.raises(SystemExit, match="folding every spill partition"):
            digest.check_resident_bound(65536)
    with pytest.raises(SystemExit, match="did not run the external"):
        digest.check_resident_bound(1 << 30)

    # main() runs it on spill legs only, at the larger budget.
    calls = []
    monkeypatch.setattr(digest, "QUERIES", _edge_queries(digest))
    monkeypatch.setattr(
        digest, "check_resident_bound", lambda *args: calls.append(args)
    )
    for budgets in ("65536,1", "unbounded,65536", "1"):
        assert digest.main([
            "--workers", "2,1",
            "--memory-budgets", budgets, "--out", str(tmp_path / "d.txt"),
        ]) == 0
    assert calls == [(65536,)]
    capsys.readouterr()


def test_every_set_name_is_documented_and_exercised(digest):
    """Options only go down if someone counts them: every
    ``PARAM_NAMES`` entry is a row of README's knob table and is set by
    a digest leg or a tier-1 test, every knob the table says ``SET``
    takes is accepted, and no retired name is documented as a knob."""
    import re

    from repro.engine import Database
    from repro.engine.pipeline import ExecutionContext

    root = _SCRIPTS.parent
    readme = (root / "README.md").read_text(encoding="utf-8")
    table = readme.split("## Parallel execution knobs", 1)[1]
    table = table.split("\n\n", 2)[1]
    rows = dict(re.findall(r"^\| `(\w+)` \| (.*?) \|", table, re.M))
    assert set(ExecutionContext.PARAM_NAMES) <= set(rows)
    assert ExecutionContext.PARAM_NAMES == (
        "memory_budget", "workers", "morsel_size",
    )
    retired = ("memory_budget_bytes", "spill_partitions", "spill_merge_fanin",
               "shard_workers", "shards", "join_build")
    assert not set(retired) & set(rows)

    sample = {"memory_budget": 4096, "workers": 2, "morsel_size": 128}
    settable = {name for name, where in rows.items() if "`SET " in where}
    assert settable == set(ExecutionContext.PARAM_NAMES)
    db = Database()
    for name in sorted(settable):
        assert db.execute(f"SET {name} = {sample[name]}") == 0
    for name in retired:
        with pytest.raises(ValueError, match="retired"):
            db.execute(f"SET {name} = 2")

    exercised = (root / "scripts" / "repro_digest.py").read_text(
        encoding="utf-8"
    ) + "".join(
        path.read_text(encoding="utf-8")
        for path in sorted((root / "tests").rglob("test_*.py"))
        if path != pathlib.Path(__file__).resolve()
    )
    for name in ExecutionContext.PARAM_NAMES:
        assert re.search(rf"\b{name}\s*=|SET {name}\b", exercised), name


def test_digest_has_no_engine_axis(digest, capsys):
    assert not hasattr(digest, "parse_fused")
    with pytest.raises(SystemExit):
        digest.main(["--fused", "on,off"])
    assert "unrecognized arguments: --fused" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        digest.main(["--build-sides", "auto,left,right"])
    assert "unrecognized arguments: --build-sides" in capsys.readouterr().err


def test_digest_main_writes_file(digest, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(digest, "QUERIES", _edge_queries(digest))
    out = tmp_path / "digest.txt"
    code = digest.main([
        "--workers", "1",
        "--memory-budgets", "unbounded,1", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == len(digest.MODES)
    assert all(line.startswith("edge_keys ") for line in lines)
    capsys.readouterr()


# ---------------------------------------------------------------------------
# one aggregate runtime: the reference stays under tests/
# ---------------------------------------------------------------------------


def test_library_does_not_know_the_reference_table():
    """The row-order reference is test code: nothing under ``src/repro``
    imports it or keeps its name alive."""
    src = _SCRIPTS.parent / "src" / "repro"
    offenders = [
        str(path.relative_to(src))
        for path in sorted(src.rglob("*.py"))
        if any(word in path.read_text(encoding="utf-8")
               for word in ("PartialGroupTable", "reference_table"))
    ]
    assert offenders == []


def test_library_does_not_know_the_reference_lexer():
    """The per-character loop is test code (``tests/reference_lexer.py``):
    nothing under ``src/repro`` imports it, and the SQL front end holds
    no second copy of it to select — no character-class method calls."""
    src = _SCRIPTS.parent / "src" / "repro"
    offenders = [
        str(path.relative_to(src))
        for path in sorted(src.rglob("*.py"))
        if "reference_lexer" in path.read_text(encoding="utf-8")
    ]
    assert offenders == []
    loops = [
        f"{path.name}: {word}"
        for path in sorted((src / "engine" / "sql").glob("*.py"))
        for word in ("isdigit", "isalpha", "isalnum", "isspace")
        if word in path.read_text(encoding="utf-8")
    ]
    assert loops == []
    assert "def tokenize" in (
        _SCRIPTS.parent / "tests" / "reference_lexer.py"
    ).read_text(encoding="utf-8")


def test_library_generates_no_code():
    """One feeder: nothing under ``src/`` compiles source at run time,
    and the switch that once chose between feeders still fails with
    the unknown-name errors it got when it was retired."""
    import ast as python_ast

    from repro.engine import Database
    from repro.errors import ConfigError

    src = _SCRIPTS.parent / "src"
    offenders = [
        f"{path.relative_to(src)}:{node.lineno}"
        for path in sorted(src.rglob("*.py"))
        for node in python_ast.walk(
            python_ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, python_ast.Call)
        and isinstance(node.func, python_ast.Name)
        and node.func.id in ("exec", "compile", "eval")
    ]
    assert offenders == []
    assert not (src / "repro" / "engine" / "fused.py").exists()
    with pytest.raises(ConfigError, match="unknown session parameter 'fused'"
                                          ".*valid parameters: "):
        Database().execute("SET fused = off")
    with pytest.raises(TypeError, match="fused"):
        Database(fused=False)


def test_only_the_fixture_runs_the_reference_update(engine_path):
    """``engine_path("scalar")`` provably feeds SELECTs through the
    reference ``update`` (its call counter moves) — and view build,
    REFRESH and the post-recovery rebuild provably never do, even
    inside the block: they build the query table themselves."""
    from reference_table import PartialGroupTable
    from repro.engine import Database

    query = "SELECT k, SUM(v) AS sv, AVG(v) AS av FROM t GROUP BY k"
    with engine_path("scalar"):
        db = Database(sum_mode="repro", morsel_size=2)
        db.execute("CREATE TABLE t (k INT, v DOUBLE)")
        db.execute("INSERT INTO t VALUES (1, 0.5), (2, 0.25), (1, 1e10)")
        before = PartialGroupTable.updates
        scratch = db.execute(query + " ORDER BY k")
        assert PartialGroupTable.updates == before + 2  # one per morsel

        before = PartialGroupTable.updates
        db.execute(f"CREATE MATERIALIZED VIEW vm AS {query}")
        view = db.view("vm")
        db.execute("INSERT INTO t VALUES (2, -1e10), (3, 3.0)")
        db.execute("DELETE FROM t WHERE v = 0.5")
        db.execute("REFRESH MATERIALIZED VIEW vm")
        view._group_table = None  # what restore_served leaves behind
        db.execute("INSERT INTO t VALUES (3, 0.125)")
        db.execute("REFRESH MATERIALIZED VIEW vm")
        assert view._group_table is not None
        assert PartialGroupTable.updates == before
        assert "ViewScan" in db.explain(query)
        served = db.execute(query + " ORDER BY k")
        db.execute("DROP MATERIALIZED VIEW vm")
        again = db.execute(query + " ORDER BY k")
        assert PartialGroupTable.updates > before
    assert len(scratch) == 2
    assert [a.tobytes() for a in served.arrays] == [
        a.tobytes() for a in again.arrays
    ]
