"""Mini column-store SQL engine (the paper's system-integration substrate).

A deliberately small but real engine: SQL front end, a binder +
logical-plan IR (:mod:`repro.engine.plan`), a rule-based optimizer
(:mod:`repro.engine.optimizer`), a physical planner with per-node
operator choice (:mod:`repro.engine.physical`, inspectable via
``EXPLAIN``), columnar storage with MonetDB-style delete+append
updates, a bit-reproducible hash equi-join (:mod:`repro.engine.join`),
a morsel-driven pipeline with partial-aggregate/exact-merge GROUP BY
(its morsels split over ``workers`` partial tables:
:mod:`repro.engine.pipeline`), and a SUM implementation selectable per
session (``ieee`` / ``repro``) plus the explicit
``RSUM(expr, L)`` aggregate the paper proposes in Section V-D.  In the
repro mode the result bits are invariant under the ``workers``,
``morsel_size`` and ``memory_budget`` execution knobs (the latter via
the out-of-core external aggregation of
:mod:`repro.aggregation.external_agg`) and under the planner's choice
of hash-join build side; in IEEE mode they may drift.
"""

from ..errors import (
    AdmissionError,
    CatalogError,
    ConfigError,
    ParseError,
    QueryTimeout,
    ReproError,
)
from .catalog import Catalog
from .executor import (
    QueryResult,
    compute_grouped_arrays,
    execute_select,
    explain_select,
)
from .expr import (
    ExprCache,
    ExprError,
    evaluate,
    expression_columns,
    find_aggregates,
)
from .operators import (
    AggregateSpec,
    Batch,
    SumConfig,
)
from .pipeline import (
    DEFAULT_MORSEL_SIZE,
    ExecutionContext,
    PipelineStats,
    run_grouped_pipeline,
    run_projection_pipeline,
)
from .join import HashJoin
from .matview import (
    MaterializedView,
    ViewDefinitionError,
    match_view,
)
from .optimizer import optimize
from .physical import (
    PhysicalQuery,
    estimate_group_state_bytes,
    plan_physical,
    render_physical,
)
from .plan import BindError, bind_select, render_plan
from .session import Database, Session
from .sql import SqlLexError, SqlParseError, parse, parse_expression, tokenize
from .table import VersionClock
from .vectorized import VectorizedGroupTable
from .table import Column, Schema, Table
from .types import (
    BIGINT,
    BOOLEAN,
    DATE,
    DOUBLE,
    FLOAT,
    INT,
    DateType,
    DecimalSqlType,
    FloatType,
    IntType,
    SqlType,
    VarcharType,
    parse_date,
    type_from_name,
)

__all__ = [
    "Database",
    "Session",
    "Catalog",
    "VersionClock",
    "ReproError",
    "ParseError",
    "CatalogError",
    "ConfigError",
    "AdmissionError",
    "QueryTimeout",
    "ExecutionContext",
    "PipelineStats",
    "DEFAULT_MORSEL_SIZE",
    "AggregateSpec",
    "VectorizedGroupTable",
    "run_grouped_pipeline",
    "run_projection_pipeline",
    "Table",
    "Schema",
    "Column",
    "QueryResult",
    "compute_grouped_arrays",
    "execute_select",
    "explain_select",
    "bind_select",
    "optimize",
    "plan_physical",
    "render_plan",
    "render_physical",
    "PhysicalQuery",
    "estimate_group_state_bytes",
    "BindError",
    "HashJoin",
    "MaterializedView",
    "ViewDefinitionError",
    "match_view",
    "Batch",
    "SumConfig",
    "parse",
    "parse_expression",
    "tokenize",
    "SqlParseError",
    "SqlLexError",
    "evaluate",
    "ExprCache",
    "ExprError",
    "expression_columns",
    "find_aggregates",
    "SqlType",
    "IntType",
    "FloatType",
    "DecimalSqlType",
    "VarcharType",
    "DateType",
    "INT",
    "BIGINT",
    "FLOAT",
    "DOUBLE",
    "DATE",
    "BOOLEAN",
    "parse_date",
    "type_from_name",
]


_RETIRED = {
    "MaintenanceGroupTable": "a materialized view holds the plain "
    "VectorizedGroupTable a SELECT builds; a REFRESH whose delta deletes "
    "a row rebuilds it from the view's live rows",
    "SortedMorsel": "no state sorts a morsel: MIN / MAX fold each morsel "
    "in by scatter (np.minimum.at / np.maximum.at) like every other "
    "state, and VectorizedGroupTable.update passes the ladder queue as a "
    "plain dict",
}


def __getattr__(name):
    # ImportError, not AttributeError: ``from repro.engine import X``
    # would replace an AttributeError's message with its own.
    if name in _RETIRED:
        raise ImportError(f"repro.engine.{name} is retired: "
                          f"{_RETIRED[name]}", name=name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
