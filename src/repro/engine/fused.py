"""Fused, plan-specialized morsel kernels.

The group table (:mod:`repro.engine.vectorized`) already batches the
arithmetic, but its own ``update()`` still pays tax per morsel: one
Python dispatch per physical state, one :class:`~repro.engine.expr.
ExprCache` dictionary probe per sub-expression, and one independent
rsum ladder walk per reproducible aggregate.  This module removes that
tax for *qualifying* plans by compiling scan -> filter -> project ->
aggregate into a single generated per-morsel function that drives the
same table:

1. **Codegen, no dependencies.**  The kernel body is composed as plain
   Python source over NumPy calls and compiled with :func:`exec`.
   Every operator mirrors :func:`repro.engine.expr.evaluate` exactly
   (same ufuncs, same operand objects), so each intermediate array is
   bit-identical to the interpreted evaluation.
2. **Plan specialization.**  The generated body is specialized on the
   aggregate set, sum mode, rsum levels, input dtypes, and group-key
   encodings — all dispatch decisions the interpreted path re-takes
   per morsel are taken *once*, at compile time, from a zero-length
   dtype probe of the scan schema.
3. **Kernel cache.**  Kernels are cached on the execution context
   keyed by a plan signature, LRU-bounded to
   :attr:`ExecutionContext.DEFAULT_KERNEL_CACHE_SIZE`; the context
   counts hits, misses and evictions and invalidates the cache when
   knobs that shape execution change.
4. **Batched ladder update.**  All reproducible SUM/AVG/VAR states of
   equal :class:`~repro.core.params.RsumParams` feed one
   :func:`~repro.aggregation.grouped.add_blocked_multi` call per
   morsel, instead of N independent ladder walks.

Reproducibility is preserved by construction: the kernels feed the
table's own state objects through the states' own methods
(:mod:`repro.engine.aggregates`: ``add`` / ``add_sorted`` / one
batched :func:`~repro.engine.aggregates.update_ladders`), so fused
results are byte-identical to the interpreted table and to the
row-order test reference in every sum mode.  Whether a plan fuses is
the planner's decision alone — there is no switch; plans the generator
cannot express run the same table interpreted, with the reason in
EXPLAIN (``unfused:<reason>``).
"""

from __future__ import annotations

import numpy as np

from .aggregates import (
    CountState,
    DistinctState,
    MinMaxState,
    Moment2State,
    SumState,
    sum_value_kind,
    update_ladders,
)
from .expr import SCALAR_FUNCTIONS, evaluate, expression_columns
from .pipeline import ExecutionContext
from .sql import ast
from .types import DecimalSqlType
from .vectorized import ClusteredMorsel, SortedMorsel, VectorizedGroupTable

__all__ = ["FusedKernel", "compile_fused"]


class _NoFuse(Exception):
    """Raised by the emitter when a plan shape is not fuseable; the
    table then runs interpreted.  ``reason``
    is a short machine-readable decline code surfaced in EXPLAIN."""

    def __init__(self, message: str = "", reason: str = "unsupported_expr"):
        super().__init__(message or reason)
        self.reason = reason


class FusedKernel:
    """One compiled per-morsel kernel plus its provenance."""

    def __init__(self, signature, source: str, fn, nfilters: int,
                 njoins: int = 0):
        self.signature = signature
        #: generated Python source (tests and EXPLAIN debugging)
        self.source = source
        #: ``fn(batch, table)`` — consume one morsel into ``table``
        self.fn = fn
        self.nfilters = nfilters
        #: hash-join probes fused into the kernel; the executing
        #: group table must carry one built
        #: :class:`~repro.engine.join.HashJoin` per probe, in chain
        #: order.
        self.njoins = njoins

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FusedKernel(nfilters={self.nfilters}, njoins={self.njoins})"
        )


# ---------------------------------------------------------------------------
# The code generator
# ---------------------------------------------------------------------------

class _Emitter:
    """Builds the kernel body line by line.

    Expressions are emitted in two stages — the filter stage sees
    whole-morsel columns, the aggregation stage sees the filtered
    slices — with the sub-expression memo reset at the boundary so no
    full-length array leaks past the slice.  Dtypes and scalar-ness
    come from evaluating every sub-expression once over *zero-length*
    probe columns of the scan schema (value-independent promotion
    makes the probe exact), which is also how constant folding falls
    out: a scalar probe result means the node references no columns,
    so its value is morsel-independent and becomes a kernel constant.
    """

    def __init__(self, types, scan=None):
        #: combined name -> SqlType schema the kernel sees.  For plain
        #: scan chains this is the scan schema; for join chains it is
        #: the union of the probe-side scan schema and every build-side
        #: schema (collision-checked by :func:`_pipeline_types`).
        self.types = dict(types)
        self.scan = scan
        self.lines: list[str] = []
        self.consts: dict = {}        # (type name, repr) -> const name
        self.const_values: dict = {}  # const name -> value
        self._counter = 0
        self._memo: dict[str, str] = {}
        self._bmemo: dict[str, str] = {}
        self._probe_memo: dict[str, object] = {}
        self._probe_cols = {
            name: np.empty(0, sql_type.numpy_dtype)
            for name, sql_type in self.types.items()
        }
        self._col_vars: dict[str, str] = {}

    # -- infrastructure ----------------------------------------------------
    def emit(self, line: str) -> None:
        self.lines.append(line)

    def fresh(self, prefix: str = "_v") -> str:
        self._counter += 1
        return f"{prefix}{self._counter}"

    def const(self, value) -> str:
        key = (type(value).__name__, repr(value))
        name = self.consts.get(key)
        if name is None:
            name = f"_K{len(self.consts)}"
            self.consts[key] = name
            self.const_values[name] = value
        return name

    def reset_stage(self) -> None:
        """Stage boundary: filter-stage arrays are full-length, nothing
        emitted before the slice may be referenced after it."""
        self._memo.clear()
        self._bmemo.clear()

    def probe(self, expr: ast.Expr):
        """Zero-length dtype/scalar-ness probe (memoized, exact)."""
        key = expr.sql()
        if key not in self._probe_memo:
            self._probe_memo[key] = evaluate(
                expr, self._probe_cols, self.types
            )
        return self._probe_memo[key]

    def is_scalar(self, expr: ast.Expr) -> bool:
        return np.asarray(self.probe(expr)).shape == ()

    def column_var(self, name: str) -> str:
        var = self._col_vars.get(name)
        if var is None:
            raise _NoFuse(f"column {name!r} not bound")
        return var

    def load_columns(self, names) -> None:
        for name in sorted(names):
            if name not in self.types:
                raise _NoFuse(f"column {name!r} not in scan schema")
            var = self.fresh("_c")
            self._col_vars[name] = var
            self.emit(f"{var} = _cols[{name!r}]")

    def slice_columns(self, names) -> None:
        for name in sorted(names):
            var = self._col_vars[name]
            self.emit(f"{var} = {var}[_sel]")

    # -- expression emission ----------------------------------------------
    def tok(self, expr: ast.Expr) -> str:
        """Token (variable or constant name) holding ``expr``'s value."""
        key = expr.sql()
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        if self.is_scalar(expr):
            # No column references: fold to the interpreted value.  The
            # probe computed it with evaluate()'s own ops, so the
            # constant is the exact object ExprCache would produce.
            token = self.const(self.probe(expr))
        else:
            token = self._emit_node(expr)
        self._memo[key] = token
        return token

    def _assign(self, rhs: str) -> str:
        var = self.fresh()
        self.emit(f"{var} = {rhs}")
        return var

    def _emit_node(self, expr: ast.Expr) -> str:
        if isinstance(expr, ast.ColumnRef):
            name = expr.name.lower()
            var = self.column_var(name)
            sql_type = self.types.get(name)
            if isinstance(sql_type, DecimalSqlType):
                scale = self.const(10.0 ** sql_type.scale)
                return self._assign(f"{var}.astype(np.float64) / {scale}")
            return var
        if isinstance(expr, ast.Unary):
            operand = self.tok(expr.operand)
            fn = "np.logical_not" if expr.op.upper() == "NOT" else "np.negative"
            return self._assign(f"{fn}({operand})")
        if isinstance(expr, ast.Between):
            operand = self.tok(expr.operand)
            low = self.tok(expr.low)
            high = self.tok(expr.high)
            return self._assign(
                f"np.logical_and(np.greater_equal({operand}, {low}), "
                f"np.less_equal({operand}, {high}))"
            )
        if isinstance(expr, ast.Binary):
            left = self.tok(expr.left)
            right = self.tok(expr.right)
            op = expr.op.upper()
            if op in ("AND", "OR"):
                fn = "np.logical_and" if op == "AND" else "np.logical_or"
                return self._assign(f"{fn}({left}, {right})")
            if op in ("+", "-", "*"):
                return self._assign(f"({left} {op} {right})")
            if op == "/":
                return self._assign(f"np.divide({left}, {right})")
            comparisons = {
                "=": "np.equal", "<>": "np.not_equal",
                "<": "np.less", "<=": "np.less_equal",
                ">": "np.greater", ">=": "np.greater_equal",
            }
            if op in comparisons:
                return self._assign(f"{comparisons[op]}({left}, {right})")
            raise _NoFuse(f"operator {op!r}")
        if isinstance(expr, ast.FuncCall):
            if expr.is_aggregate or expr.name not in SCALAR_FUNCTIONS:
                raise _NoFuse(f"function {expr.name!r}")
            if expr.name != "ABS":  # only ABS is registered today
                raise _NoFuse(f"function {expr.name!r}")
            return self._assign(f"np.abs({self.tok(expr.args[0])})")
        raise _NoFuse(f"expression {type(expr).__name__}")

    def values_tok(self, expr: ast.Expr) -> str:
        """Token for a per-row array of ``expr`` (broadcast scalars),
        mirroring :meth:`ExprCache.values` including its memoization."""
        key = expr.sql()
        cached = self._bmemo.get(key)
        if cached is not None:
            return cached
        token = self.tok(expr)
        if self.is_scalar(expr):
            token = self._assign(f"np.full(_n, {token})")
        self._bmemo[key] = token
        return token


def _pipeline_types(chain) -> dict:
    """Combined ``name -> SqlType`` schema of one morsel chain: the
    probe-side scan schema plus every build-side schema, recursively.
    A name collision between sides means the generated kernel could
    not tell the two columns apart, so the plan declines."""
    from .physical import PhysProbe

    types = dict(chain.source.types)
    for op in chain.ops:
        if isinstance(op, PhysProbe):
            for name, sql_type in _pipeline_types(op.build).items():
                if name in types:
                    raise _NoFuse(
                        f"column {name!r} bound on both join sides",
                        reason="join_schema_overlap",
                    )
                types[name] = sql_type
    return types


def _probe_fingerprint(op) -> tuple:
    """Identity of one probe's build *content*: ``(table name, row
    version)`` for every scan in the build tree.  DML on any build
    table bumps its version watermark, changing the plan signature and
    forcing a recompile-or-new-cache-slot instead of reusing a kernel
    whose cached decline/accept decision was made against stale
    schema.  Distributed workers plan against replica scans that have
    no catalog table, so a shipped ``op.fingerprint`` wins when set."""
    from .physical import PhysProbe

    shipped = getattr(op, "fingerprint", None)
    if shipped is not None:
        return tuple(shipped)
    parts: list = []

    def walk(chain):
        table = chain.source.table
        parts.append((
            getattr(table, "name", None),
            getattr(table, "version", None),
        ))
        for o in chain.ops:
            if isinstance(o, PhysProbe):
                walk(o.build)

    walk(op.build)
    return tuple(parts)


def _plan_signature(chain, aggregate, types):
    """Everything the generated code is specialized on.  The operator
    descriptor keeps chain order — ``("filter", sql)`` per predicate,
    ``("probe", kind, probe keys, build keys, fingerprint)`` per
    hash-join probe — so filter/probe interleavings compile distinct
    kernels and build-side DML invalidates cached entries."""
    from .physical import PhysProbe

    columns: set[str] = set()
    ops_sig: list[tuple] = []
    for op in chain.ops:
        if isinstance(op, PhysProbe):
            for expr in op.probe_keys:
                columns |= expression_columns(expr)
            ops_sig.append((
                "probe",
                op.kind,
                tuple(k.sql() for k in op.probe_keys),
                tuple(k.sql() for k in op.build_keys),
                _probe_fingerprint(op),
            ))
        else:
            columns |= expression_columns(op.predicate)
            ops_sig.append(("filter", op.predicate.sql()))
    for expr in aggregate.group_exprs:
        columns |= expression_columns(expr)
    for spec in aggregate.specs:
        for arg in spec.call.args:
            if not isinstance(arg, ast.Star):
                columns |= expression_columns(arg)
    schema = []
    for name in sorted(columns):
        sql_type = types.get(name)
        if sql_type is None:
            raise _NoFuse(f"column {name!r} not in scan schema")
        schema.append((name, sql_type.name))
    return (
        tuple(schema),
        tuple(ops_sig),
        tuple(expr.sql() for expr in aggregate.group_exprs),
        tuple(
            (spec.sql, spec.call.name, spec.sum_config.mode, spec.levels)
            for spec in aggregate.specs
        ),
        tuple(chain.source.encode_keys),
    ), columns


def _emit_filters(em: _Emitter, predicates) -> None:
    masks = []
    for predicate in predicates:
        if em.is_scalar(predicate):
            value = bool(em.probe(predicate))
            masks.append(em._assign(f"np.full(_n, {value})"))
            continue
        token = em.tok(predicate)
        if np.asarray(em.probe(predicate)).dtype != np.dtype(bool):
            token = em._assign(f"{token}.astype(bool)")
        masks.append(token)
    em.emit(f"_sel = {masks[0]}")
    for mask in masks[1:]:
        em.emit(f"_sel = np.logical_and(_sel, {mask})")


def _emit_group_ids(em: _Emitter, aggregate, have_filters: bool) -> None:
    scan = em.scan
    if not aggregate.group_exprs:
        em.emit("_gids = np.zeros(_n, dtype=np.int64)")
        return
    encoded_flags = [
        isinstance(expr, ast.ColumnRef)
        and expr.name.lower() in scan.encode_keys
        for expr in aggregate.group_exprs
    ]
    em.emit("_parts = []")
    em.emit(f"_ae = {all(encoded_flags)}")
    for j, expr in enumerate(aggregate.group_exprs):
        sel = "[_sel]" if have_filters else ""
        if encoded_flags[j]:
            name = expr.name.lower()
            em.emit(f"_e{j} = batch.encodings.get({name!r})")
            em.emit(f"if _e{j} is None:")
            em.emit("    _ae = False")
            em.emit(f"    _pc{j}, _pu{j} = _ENC(_cols[{name!r}]{sel})")
            em.emit("else:")
            em.emit(f"    _pc{j}, _pu{j} = _e{j}[0]{sel}, _e{j}[1]")
        else:
            em.emit(f"_pc{j}, _pu{j} = _ENC({em.values_tok(expr)})")
        em.emit(f"_parts.append((_pc{j}, _pu{j}, max(len(_pu{j}), 1)))")
    em.emit("_gids = table._gids_from_parts(_parts, _ae)")


def _rows_group_plan(ops, origins, aggregate, em: _Emitter):
    """Build-row group-id plan: ``(p, specs, dtypes)`` when every group
    key is a function of probe ``p``'s build row, else ``None``.

    Two group-key shapes qualify.  A build-side column of probe ``p``
    is ``build_batch.columns[name][bt]`` by construction.  A probe key
    expression of probe ``p`` over *integer* key space equals the
    matched build key exactly (integer-space matching is exact-value),
    so ``build_key_values[i][bt]`` reproduces it.  Float probe keys
    stay on the generic path: the interpreted pipeline registers the
    *probe* value while the build row holds the *build* value, and
    ``-0.0``/``NaN`` keys make those distinct bit patterns.

    When a plan exists, the kernel skips gathering the group-key
    columns entirely and hands the gathered build-row indices to
    :meth:`VectorizedGroupTable._gids_from_rows`, whose persistent
    code -> gid table registers each key once per query instead of
    re-uniquing every morsel.  Only single-probe plans are attempted:
    one probe's row index always fits int64, while a multi-probe radix
    composite would need an overflow guard for no workload we have.
    """
    if not aggregate.group_exprs:
        return None
    from .physical import PhysProbe

    probes = [op for op in ops if isinstance(op, PhysProbe)]
    for p, op in enumerate(probes):
        specs: list | None = []
        dtypes = []
        try:
            for expr in aggregate.group_exprs:
                dtype = np.asarray(em.probe(expr)).dtype
                name = expr.name.lower() \
                    if isinstance(expr, ast.ColumnRef) else None
                if name is not None and origins.get(name) == p:
                    sql_type = em.types.get(name)
                    scale = (
                        10.0 ** sql_type.scale
                        if isinstance(sql_type, DecimalSqlType) else None
                    )
                    specs.append(("col", p, name, dtype, scale))
                else:
                    for i, key_expr in enumerate(op.probe_keys):
                        if key_expr.sql() == expr.sql():
                            break
                    else:
                        specs = None
                        break
                    build_dtype = np.asarray(
                        em.probe(op.build_keys[i])
                    ).dtype
                    if dtype.kind not in "iub" \
                            or build_dtype.kind not in "iub":
                        specs = None
                        break
                    specs.append(("key", p, i, dtype, None))
                dtypes.append(dtype)
        except Exception:
            # A group expression the probe machinery cannot evaluate:
            # let the generic path surface (or decline) it.
            return None
        if specs is not None:
            return p, tuple(specs), tuple(dtypes)
    return None


def _make_rows_decoder(specs):
    """Bind a build-row key decoder for :func:`_rows_group_plan` specs:
    ``bind(joins)`` -> ``decode(rows)`` -> per-group-expr value columns
    gathered straight from the build batch (or the evaluated build-key
    arrays), with the same decimal rescale / dtype the interpreted
    expression evaluator would have produced."""
    def bind(joins):
        def decode(rows):
            columns = []
            for kind, p, key, dtype, scale in specs:
                join = joins[p]
                if kind == "col":
                    arr = np.asarray(join.build_batch.columns[key])[rows]
                else:
                    arr = np.asarray(join.build_key_values[key])[rows]
                if scale is not None:
                    arr = arr.astype(np.float64) / scale
                elif arr.dtype != dtype:
                    arr = arr.astype(dtype)
                columns.append(arr)
            return columns
        return decode
    return bind


def _emit_group_ids_rows(em: _Emitter, plan, bt_var: str) -> None:
    """Group-id emission for a qualifying build-row plan: the gathered
    build-row indices *are* the composite key codes."""
    p, _specs, _dtypes = plan
    em.emit(
        f"_gids = table._gids_from_rows({bt_var}, "
        f"max(_J{p}.build_rows, 1), _RDT, _RDEC(_joins))"
    )


def _emit_group_ids_joined(em: _Emitter, aggregate) -> None:
    """Group-id emission after one or more fused probes.  The rows no
    longer correspond to input-batch positions, so dictionary
    encodings cannot be consulted (their codes index the pre-probe
    batch).  Skipping the encoding fast path is bit-safe: group-id
    *numbering* within a morsel never reaches the results — rows keep
    their relative order through the stable sorted morsel and finalize
    orders groups by canonical key values, which are identical either
    way."""
    if not aggregate.group_exprs:
        em.emit("_gids = np.zeros(_n, dtype=np.int64)")
        return
    em.emit("_parts = []")
    for j, expr in enumerate(aggregate.group_exprs):
        em.emit(f"_gc{j}, _gu{j} = _ENC({em.values_tok(expr)})")
        em.emit(f"_parts.append((_gc{j}, _gu{j}, max(len(_gu{j}), 1)))")
    em.emit("_gids = table._gids_from_parts(_parts, False)")


def _emit_states(em: _Emitter, aggregate) -> bool:
    """Emit the per-state update lines; returns whether any state's
    bits depend on intra-group morsel order (which forces the stable
    :class:`SortedMorsel` over the cheaper counting permutation)."""
    order_sensitive = False
    # The deterministic shared-state layout, recomputed at compile time.
    probe_states, _ = VectorizedGroupTable._build_plan(aggregate.specs)
    #: (is float32, levels) -> list of (accumulator token, values token)
    ladder_slots: dict = {}

    def ladder(acc_token: str, values_token: str, is_f32: bool,
               levels: int) -> None:
        ladder_slots.setdefault((is_f32, levels), []).append(
            (acc_token, values_token)
        )

    for i, state in enumerate(probe_states):
        svar = f"_S{i}"
        em.emit(f"{svar} = table.states[{i}]")
        if isinstance(state, CountState):
            em.emit(f"{svar}.update(None, None, _gids, _morsel, _ngroups)")
        elif isinstance(state, SumState):
            _emit_sum_state(em, state, svar, ladder)
        elif isinstance(state, MinMaxState):
            values = em.values_tok(state.arg)
            if np.asarray(em.probe(state.arg)).dtype.kind == "f":
                # Float MIN/MAX can return either zero of a ±0.0 tie
                # depending on encounter order within the segment.
                order_sensitive = True
            em.emit(f"{svar}.add({values}, _gids, _morsel, _ngroups)")
        elif isinstance(state, Moment2State):
            _emit_moment_state(em, state, svar, i, ladder)
        elif isinstance(state, DistinctState):
            # Per-group value sets have no segmented kernel.
            raise _NoFuse(reason="count_distinct")
        else:  # pragma: no cover - new state types fall back
            raise _NoFuse(f"state {type(state).__name__}")

    # Batched ladder walks last: reordering whole-state updates is
    # bit-safe (each state object consumes exactly its own sequence).
    for slots in ladder_slots.values():
        accs = ", ".join(acc_token for acc_token, _ in slots)
        values = ", ".join(values_token for _, values_token in slots)
        em.emit(f"_LM(({accs},), ({values},), _gids, _morsel, _ngroups)")
    return order_sensitive


def _emit_sum_state(em: _Emitter, state, svar: str, ladder) -> None:
    """Specialize one :class:`SumState`: the kind/dtype dispatch its
    ``update`` re-takes per morsel, resolved once from the schema."""
    arg = state.arg
    kind, scale = sum_value_kind(arg, em.types, em.probe)
    if kind == "decimal":
        # Exact integer path over the raw unscaled storage column.
        values, dtype = em.column_var(arg.name.lower()), np.dtype(np.int64)
    else:
        values, dtype = em.values_tok(arg), np.asarray(em.probe(arg)).dtype
    em.emit(f"if {svar}.acc is None:")
    em.emit(f"    {svar}.acc = {svar}.new_accumulator("
            f"{kind!r}, {scale!r}, {em.const(dtype)})")
    if kind != "float":
        em.emit(f"{svar}.acc.add_sorted({values}, _morsel, _ngroups)")
    elif state.mode == "repro":
        ladder(f"{svar}.acc", values, dtype == np.dtype(np.float32),
               state.levels)
    else:
        em.emit(f"{svar}.acc.add({values}, _gids, _morsel, _ngroups)")


def _emit_moment_state(em: _Emitter, state, svar: str, i: int,
                       ladder) -> None:
    values = em.values_tok(state.arg)
    em.emit(f"_vf{i} = np.asarray({values}, dtype=np.float64)")
    em.emit(f"_vsq{i} = _vf{i} * _vf{i}")
    if state.mode == "repro":
        ladder(f"{svar}.sum_x", f"_vf{i}", False, state.levels)
        ladder(f"{svar}.sum_xx", f"_vsq{i}", False, state.levels)
    else:
        em.emit(f"{svar}.sum_x.add(_vf{i}, _gids, _morsel, _ngroups)")
        em.emit(f"{svar}.sum_xx.add(_vsq{i}, _gids, _morsel, _ngroups)")


def _stage2_columns(aggregate) -> set:
    """Columns the aggregation stage consumes (group keys + agg args)."""
    stage2 = set()
    for expr in aggregate.group_exprs:
        stage2 |= expression_columns(expr)
    for spec in aggregate.specs:
        for arg in spec.call.args:
            if not isinstance(arg, ast.Star):
                stage2 |= expression_columns(arg)
    return stage2


def _finish_kernel(em: _Emitter, aggregate, signature, nfilters: int,
                   njoins: int, extra_namespace=None) -> FusedKernel:
    """Shared tail of both generators: aggregate-state emission, the
    morsel splice, and source assembly/compilation."""
    em.emit("_ngroups = table.ngroups")
    # The morsel flavor depends on what the states consume, so emit
    # them first and splice the morsel construction in above them.
    morsel_at = len(em.lines)
    order_sensitive = _emit_states(em, aggregate)
    morsel_ctor = ("_SM(_gids, table.ladder)" if order_sensitive
                   else "_CM(_gids, _ngroups, table.ladder)")
    em.lines.insert(morsel_at, f"_morsel = {morsel_ctor}")

    body = "\n".join("    " + line for line in em.lines)
    source = f"def _fused_kernel(batch, table):\n{body}\n"
    namespace = {
        "np": np,
        "_ENC": VectorizedGroupTable._encode_values,
        "_SM": SortedMorsel,
        "_CM": ClusteredMorsel,
        "_LM": update_ladders,
    }
    if extra_namespace:
        namespace.update(extra_namespace)
    namespace.update(em.const_values)
    exec(compile(source, "<fused-kernel>", "exec"), namespace)
    return FusedKernel(signature, source, namespace["_fused_kernel"],
                       nfilters, njoins)


def _generate_simple(scan, predicates, aggregate, signature,
                     columns) -> FusedKernel:
    """Scan -> filter* -> aggregate: the single-table kernel shape."""
    em = _Emitter(scan.types, scan)
    em.emit("_cols = batch.columns")
    em.emit("_n = batch.nrows")

    stage2_columns = _stage2_columns(aggregate)

    em.load_columns(columns)
    have_filters = bool(predicates)
    if have_filters:
        _emit_filters(em, predicates)
        em.slice_columns(stage2_columns)
        em.emit("_n = int(np.count_nonzero(_sel))")
        em.reset_stage()
    else:
        em.emit("_sel = None")

    _emit_group_ids(em, aggregate, have_filters)
    return _finish_kernel(em, aggregate, signature, len(predicates), 0)


def _generate_joined(chain, aggregate, signature, types) -> FusedKernel:
    """Scan -> (filter | probe)* -> aggregate: the join kernel shape.

    Each probe stage encodes the current rows' probe keys with the
    built join's composite-code/value-LUT encoder, expands the inner
    matches to ``(probe_take, build_take)`` gather indices, gathers
    the *live* probe-side arrays through ``probe_take`` and only the
    build columns still needed downstream through ``build_take``, and
    continues — no intermediate joined batch is ever materialized.
    Liveness comes from a reverse ``needed-after`` sweep over the
    chain, so a column dropped by the final aggregate is never
    gathered through any probe."""
    from .physical import PhysFilter, PhysProbe

    scan = chain.source
    ops = list(chain.ops)
    em = _Emitter(types, scan)
    em.emit("_cols = batch.columns")
    em.emit("_n = batch.nrows")
    em.emit("_joins = table._joins")

    stage2_columns = _stage2_columns(aggregate)

    # Which probe introduces each column (-1 = probe-side scan).
    origins = {name: -1 for name in scan.types}
    probe_no = 0
    for op in ops:
        if isinstance(op, PhysProbe):
            for name in _pipeline_types(op.build):
                origins[name] = probe_no
            probe_no += 1

    rows_plan = _rows_group_plan(ops, origins, aggregate, em)
    if rows_plan is not None:
        # The build-row indices stand in for every group key, so the
        # aggregation stage only reads the aggregate arguments — the
        # group-key columns drop out of liveness and are never
        # gathered through any probe.
        stage2_columns = set()
        for spec in aggregate.specs:
            for arg in spec.call.args:
                if not isinstance(arg, ast.Star):
                    stage2_columns |= expression_columns(arg)

    # Reverse liveness sweep: needed_after[k] = columns any op >= k or
    # the aggregation stage still reads.
    needed_after = [set() for _ in range(len(ops) + 1)]
    needed_after[len(ops)] = set(stage2_columns)
    for k in range(len(ops) - 1, -1, -1):
        need = set(needed_after[k + 1])
        if isinstance(ops[k], PhysProbe):
            for expr in ops[k].probe_keys:
                need |= expression_columns(expr)
        else:
            need |= expression_columns(ops[k].predicate)
        needed_after[k] = need

    em.load_columns(
        name for name in needed_after[0] if origins.get(name, 0) == -1
    )

    def prune_live(keep) -> None:
        # Drop dead bindings so a stale (wrong-length) array can never
        # be referenced silently — column_var raises _NoFuse instead.
        for name in list(em._col_vars):
            if name not in keep:
                del em._col_vars[name]

    nfilters = 0
    probe_no = 0
    rows_bt: str | None = None
    #: A leading filter run defers its selection into an index vector
    #: (one ``flatnonzero``) instead of slicing every live column —
    #: scan columns stay full-length ("lazy") until first use, then
    #: gather ONCE through composed indices.  Boolean slicing re-scans
    #: the mask per column; index gathers don't.
    pending: str | None = None
    lazy: set[str] = set()
    k = 0
    while k < len(ops):
        if isinstance(ops[k], PhysFilter):
            run = [ops[k].predicate]
            while k + 1 < len(ops) and isinstance(ops[k + 1], PhysFilter):
                k += 1
                run.append(ops[k].predicate)
            nfilters += len(run)
            _emit_filters(em, run)
            fidx = em.fresh("_fx")
            em.emit(f"{fidx} = np.flatnonzero(_sel)")
            em.emit(f"_n = len({fidx})")
            live = [n for n in needed_after[k + 1] if n in em._col_vars]
            if probe_no == 0:
                # Before the first probe: defer.  The probe composes
                # this selection with its own match indices, so each
                # surviving column is gathered exactly once.
                pending = fidx
                lazy = set(live)
            else:
                for name in sorted(live):
                    var = em._col_vars[name]
                    em.emit(f"{var} = {var}.take({fidx})")
                if rows_bt is not None:
                    em.emit(f"{rows_bt} = {rows_bt}.take({fidx})")
            prune_live(live)
            em.reset_stage()
        else:
            op = ops[k]
            p = probe_no
            if pending is not None:
                key_columns: set[str] = set()
                for expr in op.probe_keys:
                    key_columns |= expression_columns(expr)
                for name in sorted(key_columns):
                    if name in lazy:
                        var = em._col_vars[name]
                        em.emit(f"{var} = {var}.take({pending})")
                        lazy.discard(name)
            key_toks = [em.values_tok(expr) for expr in op.probe_keys]
            keys = ", ".join(key_toks) + ("," if len(key_toks) == 1 else "")
            em.emit(f"_J{p} = _joins[{p}]")
            em.emit(f"_pk{p} = _J{p}.encode_probe(({keys}))")
            em.emit(f"_pt{p}, _bt{p} = _J{p}.expand_inner(_pk{p})")
            em.emit(f"_n = len(_pt{p})")
            em.emit(f"_B{p} = _J{p}.build_batch.columns")
            composed: str | None = None
            survivors = sorted(needed_after[k + 1])
            for name in survivors:
                if origins.get(name) == p:
                    var = em.fresh("_c")
                    em._col_vars[name] = var
                    em.emit(f"{var} = _B{p}[{name!r}].take(_bt{p})")
                elif name in em._col_vars:
                    var = em._col_vars[name]
                    if name in lazy:
                        if composed is None:
                            composed = em.fresh("_ab")
                            em.emit(
                                f"{composed} = {pending}.take(_pt{p})"
                            )
                        em.emit(f"{var} = {var}.take({composed})")
                    else:
                        em.emit(f"{var} = {var}.take(_pt{p})")
            prune_live(survivors)
            pending = None
            lazy = set()
            if rows_bt is not None:
                em.emit(f"{rows_bt} = {rows_bt}.take(_pt{p})")
            if rows_plan is not None and p == rows_plan[0]:
                # The group keys are functions of this probe's build
                # row: its build-take indices ride the rest of the
                # chain like a live column.
                rows_bt = f"_bt{p}"
            em.reset_stage()
            probe_no += 1
        k += 1

    extra_namespace: dict = {}
    if rows_plan is not None:
        _p, specs, dtypes = rows_plan
        _emit_group_ids_rows(em, rows_plan, rows_bt)
        extra_namespace["_RDT"] = dtypes
        extra_namespace["_RDEC"] = _make_rows_decoder(specs)
    else:
        _emit_group_ids_joined(em, aggregate)
    return _finish_kernel(em, aggregate, signature, nfilters, probe_no,
                          extra_namespace=extra_namespace)


def _generate(chain, aggregate, signature, columns, types) -> FusedKernel:
    from .physical import PhysProbe

    if any(isinstance(op, PhysProbe) for op in chain.ops):
        return _generate_joined(chain, aggregate, signature, types)
    predicates = tuple(op.predicate for op in chain.ops)
    return _generate_simple(chain.source, predicates, aggregate, signature,
                            columns)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _check_chain(chain) -> None:
    """Structural qualification of one morsel chain: filters and
    *inner* hash-join probes only, with every build tree rooted in a
    real (or replica) scan.  LEFT joins decline — their null
    introduction changes build column types after the probe, which the
    zero-length dtype probe cannot model."""
    from .physical import PhysFilter, PhysProbe

    for op in chain.ops:
        if isinstance(op, PhysProbe):
            if op.kind != "inner":
                raise _NoFuse(reason="join_left_outer")
            if op.build.source.table is None:
                raise _NoFuse(reason="dual_scan")
            _check_chain(op.build)
        elif not isinstance(op, PhysFilter):
            raise _NoFuse(reason="unsupported_operator")


def compile_fused(chain, aggregate, context) -> FusedKernel | None:
    """Compile (or fetch from the context's kernel cache) a fused
    kernel for this pipeline + aggregate, or ``None`` when the plan
    does not qualify — the caller then runs the interpreted path.

    On decline the machine-readable reason is recorded on
    ``aggregate.fuse_reason`` (surfaced by EXPLAIN).  Cache entries are
    ``(kernel-or-None, reason)`` pairs so a cached decline replays its
    reason; the cache is kept LRU-bounded to
    :attr:`ExecutionContext.DEFAULT_KERNEL_CACHE_SIZE` entries,
    counting evictions on ``context.kernel_cache_evictions``."""

    def decline(reason: str):
        aggregate.fuse_reason = reason
        return None

    if aggregate.external:
        return decline("external")
    if chain.source.table is None:
        return decline("dual_scan")
    try:
        _check_chain(chain)
        types = _pipeline_types(chain)
        signature, columns = _plan_signature(chain, aggregate, types)
    except _NoFuse as exc:
        return decline(exc.reason)

    cache = context._kernel_cache
    if signature in cache:
        kernel, reason = cache[signature]
        cache.move_to_end(signature)
        context.kernel_cache_hits += 1
    else:
        try:
            kernel, reason = _generate(chain, aggregate, signature, columns,
                                       types), None
        except _NoFuse as exc:
            kernel, reason = None, exc.reason
        except Exception:
            # Genuine surprises: the interpreted path is always correct,
            # so an uncompilable plan just runs unfused.
            kernel, reason = None, "codegen_error"
        cache[signature] = (kernel, reason)
        context.kernel_cache_misses += 1
        while len(cache) > ExecutionContext.DEFAULT_KERNEL_CACHE_SIZE:
            cache.popitem(last=False)
            context.kernel_cache_evictions += 1
    aggregate.fuse_reason = reason  # None exactly when a kernel exists
    return kernel
