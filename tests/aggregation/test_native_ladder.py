"""The compiled ladder update: how it is built and loaded, and that it is
safe to run from two threads at once.

``repro.aggregation._native`` compiles ``_ladder.c`` with the system C
compiler into a per-user cache on first import and only loads it after
that.  There is no uncompiled fallback, so a missing compiler must fail
loudly with a typed error that names the requirement.
"""

import datetime
import hashlib
import os
import re
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.aggregation import _native
from repro.aggregation import grouped as grouped_mod
from repro.aggregation.grouped import (
    GroupedSummation,
    LadderCounters,
    add_blocked_multi,
)
from repro.core.params import RsumParams
from repro.engine import Database
from repro.errors import KernelBuildError, ReproError
from repro.fp.formats import BINARY32, BINARY64
from repro.tpch import Q1_SQL, load_lineitem
from repro.tpch.dbgen import generate_lineitem_arrays

SRC = Path(__file__).resolve().parents[2] / "src"
MORSEL = 65536


def _run(script: str, *args: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-c", textwrap.dedent(script), *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)))


class TestLoader:
    def test_missing_compiler_is_a_typed_error(self, tmp_path):
        missing = str(tmp_path / "no-such-cc")
        with pytest.raises(KernelBuildError) as raised:
            _native.load_ladder(compiler=missing, cache_dir=tmp_path / "cache")
        assert isinstance(raised.value, ReproError)
        assert raised.value.code == "kernel_build_error"
        assert "needs a C compiler" in str(raised.value)
        assert missing in str(raised.value)

    def test_failing_compiler_is_a_typed_error(self, tmp_path):
        cache = tmp_path / "cache"
        with pytest.raises(KernelBuildError, match="needs a C compiler"):
            _native.load_ladder(compiler="false", cache_dir=cache)
        assert list(cache.iterdir()) == []  # no half-written build left

    def test_two_processes_first_import_into_one_cache(self, tmp_path):
        # Both build at once into an empty cache, each through its own
        # temporary file: both load, one build is left, the bits agree.
        script = """
            import hashlib, sys
            import numpy as np
            from repro.aggregation import _native, grouped
            from repro.core.params import RsumParams
            from repro.fp.formats import BINARY64
            grouped._KERNEL = _native.load_ladder("cc", sys.argv[1])
            rng = np.random.default_rng(7)
            gids = rng.integers(0, 16, 50_000)
            tables = [grouped.GroupedSummation(RsumParams(BINARY64), 16)
                      for _ in range(3)]
            grouped.add_blocked_multi(
                tables, gids, [rng.normal(size=gids.size) * 10.0 ** e
                               for e in (-3, 0, 9)])
            print(grouped._KERNEL.path.name, hashlib.sha256(b"".join(
                t.finalize().tobytes() for t in tables)).hexdigest())
        """
        cache = tmp_path / "cache"
        children = [_run(script, str(cache)) for _ in range(2)]
        outputs = [child.communicate(timeout=120) for child in children]
        for child, (out, err) in zip(children, outputs):
            assert child.returncode == 0, err
        assert outputs[0][0] == outputs[1][0]
        name = outputs[0][0].split()[0]
        assert sorted(p.name for p in cache.iterdir()) == [name]

    def test_cached_build_starts_no_compiler(self, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        built = _native.load_ladder(cache_dir=cache)

        def no_process(*args, **kwargs):
            raise AssertionError("a cached build must not start a process")

        monkeypatch.setattr(subprocess, "run", no_process)
        again = _native.load_ladder(compiler=str(tmp_path / "no-such-cc"),
                                    cache_dir=cache)
        assert again.path == built.path

    def test_server_child_import_is_only_a_dlopen(self):
        # this process built (or found) the default cache's kernel on
        # import, so a server child starts no process to load it
        script = """
            import subprocess
            def no_process(*args, **kwargs):
                raise AssertionError("import started a process")
            subprocess.run = subprocess.Popen = no_process
            import repro.server
            from repro.aggregation import grouped
            print(grouped._KERNEL.path)
        """
        child = _run(script)
        out, err = child.communicate(timeout=120)
        assert child.returncode == 0, err
        assert out.strip() == str(grouped_mod._KERNEL.path)

    def test_kernel_keeps_no_static_state(self):
        # every file-scope declaration is a function, an enum or a
        # macro: two threads in the kernel share nothing but arguments
        source = _native.SOURCE.read_text(encoding="utf-8")
        top_level = [line for line in source.splitlines()
                     if re.match(r"[A-Za-z_]", line)
                     and not line.startswith("enum ")]
        assert top_level
        assert all("(" in line for line in top_level), top_level


def test_one_table_twice_is_refused():
    # the kernel classifies every table before any declined row is
    # listed, so a table may appear once per call
    table = GroupedSummation(RsumParams(BINARY64), 2)
    with pytest.raises(ValueError, match="distinct"):
        add_blocked_multi([table, table], np.array([0, 1]),
                          [np.ones(2), np.ones(2)])
    assert table.finalize().tolist() == [0.0, 0.0]


def test_propagate_carries_negative_level_sums():
    # W = 50: a row adds up to 2**49 quanta to a level, so a block of
    # negative rows drives the level sums far below zero before the
    # kernel's carry propagation (an arithmetic shift) moves them into
    # the counters; the reference propagates with NumPy
    params = RsumParams(BINARY64, w=50)
    rows = GroupedSummation(params, 0).block_rows - 96
    rng = np.random.default_rng(50)
    gids = rng.integers(0, 3, rows)
    vals = -rng.uniform(1.0, 1.9, rows) * 2.0**46
    vals[gids == 2] *= -1.0 / 3.0  # one group of mixed signs
    vals[::7] = -vals[::7]
    kernel = GroupedSummation(params, 3)
    add_blocked_multi([kernel], gids, [vals])
    reference = GroupedSummation(params, 3)
    reference.add_pairs(gids, vals)
    assert kernel.state_tuples() == reference.state_tuples()
    assert min(min(c) for _, _, c, *_ in kernel.state_tuples()) < 0
    assert kernel.finalize().tobytes() == reference.finalize().tobytes()


class TestWholeBlocks:
    """A block whose ``|max|`` fits under ``E`` while every group sits on
    ``E`` is *whole*: the kernel adds its rows without the row rule.
    Each class of block below runs as one kernel call into a whole table
    and a table that makes the case, and must leave states bit-identical
    to per-table ``add_pairs``, with the counters the row rule gives."""

    NGROUPS, ROWS = 4, 4000

    def _tables(self, params, seeds):
        tables = []
        for seed_gids, seed_vals in seeds:
            table = GroupedSummation(params, self.NGROUPS)
            table.add_pairs(np.asarray(seed_gids),
                            np.asarray(seed_vals, dtype=params.fmt.dtype))
            tables.append(table)
        return tables

    def _run(self, params, seeds, gids, cols):
        """One block through the kernel, the same through
        ``add_blocked_multi``, and per table through ``add_pairs``:
        returns the counters and each table's whole flag."""
        blocked = self._tables(params, seeds)
        blocks = grouped_mod._Blocks(blocked, gids, cols)
        counters = LadderCounters()
        grouped_mod._add_block(blocks, 0, gids.size, counters)
        whole = blocks.slots[:, 3].tolist()
        public = self._tables(params, seeds)
        again = LadderCounters()
        add_blocked_multi(public, gids, cols, again)
        reference = self._tables(params, seeds)
        for table, col in zip(reference, cols):
            table.add_pairs(gids, col)
        for ref, got, via in zip(reference, blocked, public):
            assert got.state_tuples() == ref.state_tuples()
            assert via.state_tuples() == ref.state_tuples()
            assert got.finalize().tobytes() == ref.finalize().tobytes()
        assert ((again.scatter, again.reference, again.first_decline)
                == (counters.scatter, counters.reference,
                    counters.first_decline))
        return counters, whole

    def _block(self, params, rng):
        gids = rng.integers(0, self.NGROUPS, self.ROWS)
        vals = rng.normal(0.0, 100.0, self.ROWS).astype(params.fmt.dtype)
        return gids, vals

    def _on_e(self):
        """Every group on the ladder ``|v| ~ 1`` calls for."""
        return (list(range(self.NGROUPS)), [1.0] * self.NGROUPS)

    @staticmethod
    def _fits(params, table) -> float:
        """The least magnitude that no longer fits under the table's E."""
        m, w = params.fmt.mantissa_bits, params.w
        return float(np.ldexp(1.0, int(table.e0.max()) - m + w - 1))

    @pytest.mark.parametrize("fmt", [BINARY64, BINARY32], ids=["f64", "f32"])
    def test_whole_block(self, fmt, rng):
        params = RsumParams(fmt)
        gids, vals = self._block(params, rng)
        counters, whole = self._run(params, [self._on_e()] * 2, gids,
                                    [vals, -vals])
        assert whole == [1, 1]
        assert (counters.scatter, counters.reference,
                counters.first_decline) == (2 * self.ROWS, 0, None)

    def test_one_group_off_e(self, rng):
        params = RsumParams(BINARY64)
        gids, vals = self._block(params, rng)
        below = (list(range(self.NGROUPS)), [1.0, 1.0, 1.0, 2.0**-30])
        probe = self._tables(params, [below])[0]
        assert probe.e0[3] < probe.e0[0]
        small = np.where(gids == 3, vals * 2.0**-40, vals)
        counters, whole = self._run(params, [self._on_e(), below], gids,
                                    [vals, small])
        assert whole == [1, 0]
        off = int(np.count_nonzero(gids == 3))
        assert (counters.scatter, counters.reference,
                counters.first_decline) == (
                    2 * self.ROWS - off, off, "off_ladder")

    def test_one_row_past_fits(self, rng):
        params = RsumParams(BINARY64)
        gids, vals = self._block(params, rng)
        fits = self._fits(params, self._tables(params, [self._on_e()])[0])
        past = vals.copy()
        past[self.ROWS // 2] = -fits
        counters, whole = self._run(params, [self._on_e()] * 2, gids,
                                    [vals, past])
        assert whole == [1, 0]
        assert (counters.scatter, counters.reference,
                counters.first_decline) == (
                    2 * self.ROWS - 1, 1, "off_ladder")
        # just under the bound is whole
        under = vals.copy()
        under[self.ROWS // 2] = np.nextafter(fits, 0.0)
        assert self._run(params, [self._on_e()], gids, [under])[1] == [1]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row(self, bad, rng):
        params = RsumParams(BINARY64)
        gids, vals = self._block(params, rng)
        spoiled = vals.copy()
        spoiled[7] = bad
        counters, whole = self._run(params, [self._on_e()] * 2, gids,
                                    [spoiled, vals])
        assert whole == [0, 1]
        assert (counters.scatter, counters.reference,
                counters.first_decline) == (
                    2 * self.ROWS - 1, 1, "non_finite")

    @pytest.mark.parametrize("fmt", [BINARY64, BINARY32], ids=["f64", "f32"])
    def test_all_zero_block(self, fmt, rng):
        params = RsumParams(fmt)
        gids = rng.integers(0, self.NGROUPS, self.ROWS)
        zeros = np.where(rng.random(self.ROWS) < 0.5, -0.0, 0.0).astype(
            fmt.dtype)
        counters, whole = self._run(
            params, [self._on_e(), ([], [])], gids, [zeros, zeros])
        assert whole == [0, 0]  # nothing to add: no pass at all
        assert (counters.scatter, counters.reference,
                counters.first_decline) == (2 * self.ROWS, 0, None)

    def test_binary32_group_off_e(self, rng):
        params = RsumParams(BINARY32)
        gids, vals = self._block(params, rng)
        below = (list(range(self.NGROUPS)), [1.0, 1.0, 2.0**-30, 1.0])
        small = np.where(gids == 2, vals * np.float32(2.0**-20), vals)
        counters, whole = self._run(params, [self._on_e(), below], gids,
                                    [vals, small])
        assert whole == [1, 0]
        assert counters.reference == int(np.count_nonzero(gids == 2))


def _q1_inputs(scale_factor: float):
    """Q1's five ladder inputs (SUM / AVG arguments) and its 4 groups."""
    data = generate_lineitem_arrays(scale_factor)
    keep = data["l_shipdate"] <= datetime.date(1998, 9, 2).toordinal()
    _, gids = np.unique(
        data["l_returnflag"][keep] + data["l_linestatus"][keep],
        return_inverse=True)
    price = data["l_extendedprice"][keep].astype(np.float64)
    disc = data["l_discount"][keep].astype(np.float64)
    tax = data["l_tax"][keep].astype(np.float64)
    disc_price = price * (1 - disc)
    return gids.ravel().astype(np.int64), [
        data["l_quantity"][keep].astype(np.float64), price, disc_price,
        disc_price * (1 + tax), disc]


def _feed(gids, cols):
    tables = [GroupedSummation(RsumParams(BINARY64), 4) for _ in cols]
    counters = LadderCounters()
    for pos in range(0, gids.size, MORSEL):
        add_blocked_multi(tables, gids[pos:pos + MORSEL],
                          [col[pos:pos + MORSEL] for col in cols], counters)
    return tables, counters


def _digest(tables) -> str:
    return hashlib.sha256(b"".join(
        t.finalize().tobytes() + repr(t.state_tuples()).encode()
        for t in tables)).hexdigest()


class TestTwoWorkers:
    def test_threads_in_the_kernel_give_the_serial_bits(self):
        # more threads than cores, switching as often as the
        # interpreter allows: the kernel runs without the GIL and shares
        # nothing between calls on different tables
        gids, cols = _q1_inputs(0.01)
        serial, counters = _feed(gids, cols)
        assert counters.reference == 0
        expect = _digest(serial)
        nthreads = 4
        start = threading.Barrier(nthreads)
        got = [[] for _ in range(nthreads)]

        def worker(slot):
            start.wait()
            for _ in range(3):
                got[slot].append(_digest(_feed(gids, cols)[0]))

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(nthreads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == [[expect] * 3] * nthreads

    def test_q1_at_two_workers_equals_serial(self):
        bits = {}
        for workers in (1, 2):
            db = Database(sum_mode="repro", workers=workers)
            try:
                load_lineitem(db, scale_factor=0.01)
                result = db.execute(Q1_SQL)
                bits[workers] = [arr.tobytes() for arr in result.arrays]
            finally:
                db.close()
        assert bits[1] == bits[2]
