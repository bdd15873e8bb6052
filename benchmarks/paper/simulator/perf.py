"""Figure/table series generators over the cost model.

Each function returns the rows of one of the paper's performance plots,
computed from :class:`~paper.simulator.costmodel.CostModel`, alongside
the paper's reported anchor values where the paper states them
(:data:`PAPER_ANCHORS`).  The ``benchmarks/`` harnesses print these
side by side with scaled-down wall-clock measurements of the Python
kernels.
"""

from __future__ import annotations

import math

from .costmodel import DTYPES, CostModel, DtypeModel, dtype_model

__all__ = [
    "PAPER_ANCHORS",
    "fig4_series",
    "fig6_series",
    "fig7_series",
    "fig8_series",
    "fig9_series",
    "fig10_series",
    "fig11_series",
    "fig12_series",
    "table3_geomeans",
    "sort_baseline_series",
]

#: Values the paper states explicitly (figures' annotations and tables).
PAPER_ANCHORS = {
    "fig4_ratios": {
        "uint32": 1.00, "float": 0.99, "double": 1.10,
        "repro<float,1>": 3.73, "repro<float,2>": 6.03,
        "repro<float,3>": 8.37, "repro<float,4>": 11.56,
        "repro<double,1>": 3.91, "repro<double,2>": 6.42,
        "repro<double,3>": 8.85, "repro<double,4>": 12.27,
    },
    "fig6_annotations": {
        ("float", 2): {"crossover": 24, "plateau_pct": +17.6},
        ("float", 3): {"crossover": 12, "plateau_pct": +25.4},
        ("double", 2): {"crossover": 48, "plateau_pct": -24.7},
        ("double", 3): {"crossover": 48, "plateau_pct": -7.4},
    },
    "table3": {
        "repro<double,1>": 2.12, "repro<double,2>": 2.18,
        "repro<double,3>": 2.29, "repro<double,4>": 2.41,
        "repro<float,1>": 1.88, "repro<float,2>": 2.11,
        "repro<float,3>": 2.16, "repro<float,4>": 2.35,
    },
    "table4": {  # % of unmodified-MonetDB total CPU time
        "double": {"aggregations": 34.2, "other": 65.8, "total": 100.0},
        "repro<double,4> w/o buffer": {"aggregations": 51.3, "other": 63.1, "total": 114.4},
        "repro<double,4> with buffer": {"aggregations": 38.7, "other": 64.0, "total": 102.7},
        "double (sorted)": {"aggregations": 45.1, "other": 682.1, "total": 727.2},
    },
    "headline_slowdown_range": (1.9, 2.4),
    "fig9_thresholds": {"d1": 2**10, "d2": 2**18},
    "sort_agg_ns": 60.0,
}

_FIG4_LABELS = [
    "uint32", "float", "double",
    "repro<float,1>", "repro<float,2>", "repro<float,3>", "repro<float,4>",
    "repro<double,1>", "repro<double,2>", "repro<double,3>", "repro<double,4>",
]

_FIG7_LABELS = [
    "DECIMAL(9)", "DECIMAL(18)", "DECIMAL(38)",
    "repro<float,2>", "repro<float,3>",
    "repro<double,2>", "repro<double,3>",
]

_FIG10_REPRO = [
    "repro<float,2>", "repro<float,3>", "repro<double,2>", "repro<double,3>",
]


def fig4_series(model: CostModel | None = None, ngroups: int = 16, n: int = 2**30):
    """Figure 4: HASHAGGREGATION cost per data type at 16 groups."""
    model = model or CostModel()
    base = model.hash_agg_total_ns(dtype_model("uint32"), ngroups, n)
    rows = []
    for label in _FIG4_LABELS:
        ns = model.hash_agg_total_ns(dtype_model(label), ngroups, n)
        rows.append(
            {
                "dtype": label,
                "model_ns": ns,
                "model_ratio": ns / base,
                "paper_ratio": PAPER_ANCHORS["fig4_ratios"][label],
            }
        )
    return rows


def fig6_series(model: CostModel | None = None, double: bool = True,
                levels: int = 2, chunks=None):
    """Figure 6: chunked RSUM SCALAR/SIMD slowdown vs conventional sum."""
    model = model or CostModel()
    chunks = chunks or [2**i for i in range(1, 10)]
    conv = model.conv_sum_ns(double)
    rows = []
    for chunk in chunks:
        scalar = model.rsum_scalar_ns(levels, double, chunk)
        simd = model.rsum_simd_ns(levels, double, chunk)
        rows.append(
            {
                "chunk": chunk,
                "scalar_slowdown": scalar / conv,
                "simd_slowdown": simd / conv,
            }
        )
    inf = model.rsum_simd_ns(levels, double, float("inf"))
    return rows, {"simd_inf_slowdown": inf / conv, "conv_ns": conv}


def fig6_crossover(model: CostModel | None = None, double: bool = True,
                   levels: int = 2) -> int:
    """Smallest power-of-two chunk where SIMD beats SCALAR."""
    model = model or CostModel()
    for exp in range(1, 12):
        chunk = 2**exp
        if model.rsum_simd_ns(levels, double, chunk) <= model.rsum_scalar_ns(
            levels, double, chunk
        ):
            return chunk
    return 2**12


def fig7_series(model: CostModel | None = None, group_exps=None, n: int = 2**30):
    """Figure 7: unbuffered PARTITIONANDAGGREGATE across group counts."""
    model = model or CostModel()
    group_exps = group_exps if group_exps is not None else list(range(0, 31, 2))
    float_base = dtype_model("float")
    out = {"ngroups": [2**e for e in group_exps], "series": {}, "slowdown": {}}
    base_ns = [
        model.partition_and_aggregate_ns(float_base, 2**e, n) for e in group_exps
    ]
    out["series"]["float"] = base_ns
    for label in _FIG7_LABELS:
        dt = dtype_model(label)
        ns = [model.partition_and_aggregate_ns(dt, 2**e, n) for e in group_exps]
        out["series"][label] = ns
        out["slowdown"][label] = [a / b for a, b in zip(ns, base_ns)]
    return out


def fig8_series(model: CostModel | None = None, n: int = 2**30):
    """Figure 8: buffer-size impact on PARTITIONANDAGGREGATE with d = 0."""
    model = model or CostModel()
    buffer_sizes = [2**i for i in range(4, 11)]
    labels = _FIG10_REPRO
    panel_a, panel_b = {}, {}
    for label in labels:
        dt = dtype_model(label).buffered()
        panel_a[label] = [
            model.hash_agg_total_ns(dt, 16, n, buffer_size=bsz)
            for bsz in buffer_sizes
        ]
        panel_b[label] = [
            model.hash_agg_total_ns(dt, 1024, n, buffer_size=bsz)
            for bsz in buffer_sizes
        ]
    group_exps = list(range(4, 15))
    dt_f2 = dtype_model("repro<float,2>").buffered()
    panel_c = {
        bsz: [
            model.hash_agg_total_ns(dt_f2, 2**e, n, buffer_size=bsz)
            for e in group_exps
        ]
        for bsz in (16, 64, 256, 1024)
    }
    return {
        "buffer_sizes": buffer_sizes,
        "panel_a": panel_a,
        "panel_b": panel_b,
        "group_exps": group_exps,
        "panel_c": panel_c,
    }


def fig9_series(model: CostModel | None = None, n: int = 2**30, group_exps=None):
    """Figure 9: partitioning depth d = 0, 1, 2 for repro<float,2>+buf."""
    model = model or CostModel()
    group_exps = group_exps if group_exps is not None else list(range(0, 27, 2))
    dt = dtype_model("repro<float,2>").buffered()
    series = {
        depth: [
            model.partition_and_aggregate_ns(dt, 2**e, n, depth=depth)
            for e in group_exps
        ]
        for depth in (0, 1, 2)
    }
    # Cross-over thresholds the model implies.
    thresholds = {}
    for d_hi, key in ((1, "d1"), (2, "d2")):
        for e in group_exps:
            lo = series[d_hi - 1][group_exps.index(e)]
            hi = series[d_hi][group_exps.index(e)]
            if hi < lo:
                thresholds[key] = 2**e
                break
    return {"group_exps": group_exps, "series": series, "thresholds": thresholds}


def fig10_series(model: CostModel | None = None, group_exps=None, n: int = 2**30):
    """Figure 10: buffered PARTITIONANDAGGREGATE vs DECIMAL / float /
    unbuffered (three panels)."""
    model = model or CostModel()
    group_exps = group_exps if group_exps is not None else list(range(0, 31, 2))
    ngroups_list = [2**e for e in group_exps]
    out = {"ngroups": ngroups_list, "ns": {}, "slowdown": {}, "speedup": {}}
    float_ns = [
        model.partition_and_aggregate_ns(dtype_model("float"), g, n)
        for g in ngroups_list
    ]
    out["ns"]["float"] = float_ns
    for label in ("DECIMAL(9)", "DECIMAL(18)", "DECIMAL(38)"):
        out["ns"][label] = [
            model.partition_and_aggregate_ns(dtype_model(label), g, n)
            for g in ngroups_list
        ]
    for label in _FIG10_REPRO:
        buffered = dtype_model(label).buffered()
        unbuffered = dtype_model(label)
        ns_buf = [
            model.partition_and_aggregate_ns(buffered, g, n) for g in ngroups_list
        ]
        ns_unbuf = [
            model.partition_and_aggregate_ns(unbuffered, g, n)
            for g in ngroups_list
        ]
        out["ns"][label] = ns_buf
        out["slowdown"][label] = [a / b for a, b in zip(ns_buf, float_ns)]
        out["speedup"][label] = [a / b for a, b in zip(ns_unbuf, ns_buf)]
    return out


def table3_geomeans(model: CostModel | None = None, n: int = 2**30,
                    group_exps=None) -> dict:
    """Table III: geometric-mean slowdown of buffered repro vs float."""
    model = model or CostModel()
    group_exps = group_exps if group_exps is not None else list(range(0, 31, 2))
    ngroups_list = [2**e for e in group_exps]
    float_ns = [
        model.partition_and_aggregate_ns(dtype_model("float"), g, n)
        for g in ngroups_list
    ]
    out = {}
    for scalar in ("double", "float"):
        for levels in (1, 2, 3, 4):
            label = f"repro<{scalar},{levels}>"
            buffered = dtype_model(label).buffered()
            ns = [
                model.partition_and_aggregate_ns(buffered, g, n)
                for g in ngroups_list
            ]
            logs = [math.log(a / b) for a, b in zip(ns, float_ns)]
            out[label] = math.exp(sum(logs) / len(logs))
    return out


def fig11_series(model: CostModel | None = None, input_exps=None,
                 bsz: int = 256) -> dict:
    """Figure 11: distinct-data drop for various input sizes."""
    model = model or CostModel()
    input_exps = input_exps if input_exps is not None else list(range(25, 31))
    dt = dtype_model("repro<float,2>").buffered()
    out = {"inputs": {}, "group_exps": {}}
    for n_exp in input_exps:
        n = 2**n_exp
        group_exps = list(range(20, n_exp + 1))
        out["group_exps"][n_exp] = group_exps
        out["inputs"][n_exp] = [
            model.partition_and_aggregate_ns(dt, 2**e, n, buffer_size=bsz)
            for e in group_exps
        ]
    return out


def fig12_series(model: CostModel | None = None, n: int = 2**30) -> dict:
    """Figure 12: buffer-size impact with one partitioning pass (d = 1)."""
    model = model or CostModel()
    buffer_sizes = [2**i for i in range(4, 11)]
    labels = _FIG10_REPRO
    panel_a, panel_b = {}, {}
    for label in labels:
        dt = dtype_model(label).buffered()
        panel_a[label] = [
            model.partition_and_aggregate_ns(dt, 4096, n, depth=1, buffer_size=bsz)
            for bsz in buffer_sizes
        ]
        panel_b[label] = [
            model.partition_and_aggregate_ns(dt, 262144, n, depth=1, buffer_size=bsz)
            for bsz in buffer_sizes
        ]
    group_exps = list(range(12, 23))
    dt_f2 = dtype_model("repro<float,2>").buffered()
    panel_c = {
        bsz: [
            model.partition_and_aggregate_ns(dt_f2, 2**e, n, depth=1, buffer_size=bsz)
            for e in group_exps
        ]
        for bsz in (16, 64, 256, 1024)
    }
    return {
        "buffer_sizes": buffer_sizes,
        "panel_a": panel_a,
        "panel_b": panel_b,
        "group_exps": group_exps,
        "panel_c": panel_c,
    }


def sort_baseline_series(model: CostModel | None = None, n: int = 2**30,
                         group_exps=None) -> dict:
    """Section VI-A: SORTAGGREGATION vs our algorithm."""
    model = model or CostModel()
    group_exps = group_exps if group_exps is not None else list(range(0, 27, 2))
    dt = dtype_model("repro<float,2>").buffered()
    ours = [
        model.partition_and_aggregate_ns(dt, 2**e, n) for e in group_exps
    ]
    sort_ns = model.sort_aggregate_ns(dtype_model("float"), n)
    return {
        "group_exps": group_exps,
        "ours_ns": ours,
        "sort_ns": sort_ns,
        "paper_sort_ns": PAPER_ANCHORS["sort_agg_ns"],
    }
