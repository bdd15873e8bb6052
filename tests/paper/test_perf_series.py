"""Coverage for the remaining figure-series generators in perf.py."""

import numpy as np
import pytest

from paper.simulator import (
    PAPER_ANCHORS,
    CostModel,
    fig6_series,
    fig7_series,
    fig8_series,
    fig10_series,
    fig11_series,
    fig12_series,
)


@pytest.fixture(scope="module")
def model():
    return CostModel()


class TestFig7Series:
    def test_all_labels_present(self, model):
        out = fig7_series(model, group_exps=[0, 10, 20])
        for label in ("float", "DECIMAL(9)", "DECIMAL(38)", "repro<double,3>"):
            assert label in out["series"]
            assert len(out["series"][label]) == 3

    def test_decimal38_crosses_buffered_repro(self, model):
        """Paper (§VI-D, Figure 10): the DECIMAL types become 'about as
        slow or slower as our reproducible types for 2**16 groups and
        more' — against the *buffered* repro types."""
        out = fig10_series(model, group_exps=[16, 20, 24])
        dec38 = out["ns"]["DECIMAL(38)"]
        repro_f2 = out["ns"]["repro<float,2>"]
        assert all(d >= r * 0.9 for d, r in zip(dec38, repro_f2))

    def test_runtime_increases_with_groups(self, model):
        out = fig7_series(model, group_exps=[2, 12, 22, 28])
        for label, series in out["series"].items():
            assert series[-1] > series[0], label


class TestFig10Shapes:
    def test_buffered_repro_types_close_together(self, model):
        """Paper: 'there is now little difference between different
        configurations of repro<ScalarT,L>' with buffers."""
        out = fig10_series(model, group_exps=[4, 8, 12])
        repro_ns = np.array([
            out["ns"][lbl]
            for lbl in ("repro<float,2>", "repro<float,3>",
                        "repro<double,2>", "repro<double,3>")
        ])
        spread = repro_ns.max(axis=0) / repro_ns.min(axis=0)
        assert (spread < 1.8).all()

    def test_double_slower_than_float_buffered(self, model):
        """Paper: 'the reproducible data types based on double are
        slower than those based on float' (memory-bound partitioning)."""
        out = fig10_series(model, group_exps=[14, 20])
        for i in range(2):
            assert (
                out["ns"]["repro<double,2>"][i]
                >= out["ns"]["repro<float,2>"][i]
            )


class TestFig11Family:
    def test_curves_overlay_on_rpg_axis(self, model):
        """Paper: the drop happens at n/ngroups < 2**6 'independently
        of the input size'."""
        out = fig11_series(model, input_exps=[26, 28])
        by_rpg = {}
        for n_exp in (26, 28):
            for e, v in zip(out["group_exps"][n_exp], out["inputs"][n_exp]):
                by_rpg.setdefault(n_exp - e, {})[n_exp] = v
        shared = [rpg for rpg, d in by_rpg.items() if len(d) == 2]
        assert shared
        for rpg in shared:
            a, b = by_rpg[rpg][26], by_rpg[rpg][28]
            assert a == pytest.approx(b, rel=0.15), rpg


class TestFig6SeriesDetails:
    def test_conv_ns_metadata(self, model):
        _, meta = fig6_series(model, double=True, levels=2)
        assert meta["conv_ns"] == model.conv_sum_ns(True)

    def test_scalar_slowdown_large_at_tiny_chunks(self, model):
        rows, _ = fig6_series(model, double=False, levels=2, chunks=[2])
        assert rows[0]["simd_slowdown"] > 10  # the figure's 10^2 region

    def test_anchor_table_complete(self):
        assert len(PAPER_ANCHORS["fig4_ratios"]) == 11
        assert len(PAPER_ANCHORS["table3"]) == 8
        assert len(PAPER_ANCHORS["table4"]) == 4


class TestFig12SeriesDetails:
    def test_panel_dimensions(self, model):
        out = fig12_series(model)
        assert len(out["buffer_sizes"]) == 7
        for series in out["panel_a"].values():
            assert len(series) == 7
        for series in out["panel_c"].values():
            assert len(series) == len(out["group_exps"])
