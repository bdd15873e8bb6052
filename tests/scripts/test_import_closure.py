"""``src/repro`` is the engine: the serving import closure is pinned.

An AST walk of every import statement (function-level ones included:
a lazy import still runs when its caller does) from the serving entry
points — the server and its ``__main__``, the client, an embedded
session, the durable store and an executor process — yields the
modules a served statement can load.  That set is pinned here, so a
module joins it only on purpose.  Every other module under
``src/repro`` must be named in :data:`LIBRARY`, the inputs the
benchmarks load.  A new module that is neither fails, which is what
keeps paper-figure code (it lives under ``benchmarks/paper``) out of
the package.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

ENTRY_POINTS = (
    "repro.server",
    "repro.server.__main__",
    "repro.client",
    "repro.engine.session",
    "repro.storage.durable",
    "repro.distributed.worker",
)

SERVING = frozenset({
    "repro",
    "repro.aggregation",
    "repro.aggregation.api",
    "repro.aggregation.external_agg",
    "repro.aggregation.grouped",
    "repro.aggregation.partition",
    "repro.aggregation.result",
    "repro.aggregation.retractable",
    "repro.client",
    "repro.core",
    "repro.core.params",
    "repro.core.rsum",
    "repro.core.stats",
    "repro.distributed",
    "repro.distributed.coordinator",
    "repro.distributed.pool",
    "repro.distributed.worker",
    "repro.engine",
    "repro.engine.aggregates",
    "repro.engine.catalog",
    "repro.engine.content_hash",
    "repro.engine.executor",
    "repro.engine.expr",
    "repro.engine.join",
    "repro.engine.matview",
    "repro.engine.operators",
    "repro.engine.optimizer",
    "repro.engine.physical",
    "repro.engine.pipeline",
    "repro.engine.plan",
    "repro.engine.session",
    "repro.engine.sql",
    "repro.engine.sql.ast",
    "repro.engine.sql.lexer",
    "repro.engine.sql.parser",
    "repro.engine.table",
    "repro.engine.types",
    "repro.engine.vectorized",
    "repro.errors",
    "repro.fp",
    "repro.fp.decimal_fixed",
    "repro.fp.formats",
    "repro.fp.ieee",
    "repro.server",
    "repro.server.__main__",
    "repro.server.protocol",
    "repro.storage",
    "repro.storage.durable",
    "repro.storage.spill",
    "repro.storage.wal",
})

#: In the package but outside the closure: what ``benchmarks/e2e`` and
#: ``scripts/repro_digest.py`` load (TPC-H data and queries, the
#: paper's pairs input).
LIBRARY = frozenset({
    "repro.tpch",
    "repro.tpch.dbgen",
    "repro.tpch.queries",
    "repro.workloads",
})


def _module_path(name: str) -> pathlib.Path | None:
    base = SRC.joinpath(*name.split("."))
    for path in (base / "__init__.py", base.with_suffix(".py")):
        if path.exists():
            return path
    return None


def _imported_names(name: str):
    """Every module name an import statement of ``name`` could load
    (``from x import y`` may name module ``x.y``; non-modules drop out
    when resolved)."""
    path = _module_path(name)
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                parts = package.split(".")
                parts = parts[: len(parts) - node.level + 1]
                target = ".".join(parts + ([node.module] if node.module else []))
            else:
                target = node.module
            yield target
            yield from (f"{target}.{alias.name}" for alias in node.names)


def serving_closure() -> set[str]:
    seen: set[str] = set()
    todo = list(ENTRY_POINTS)
    while todo:
        name = todo.pop()
        if name in seen or _module_path(name) is None:
            continue
        seen.add(name)
        parts = name.split(".")
        # importing a module runs every enclosing package first
        todo.extend(".".join(parts[:i]) for i in range(1, len(parts)))
        todo.extend(_imported_names(name))
    return seen


def _all_modules() -> set[str]:
    root = SRC / "repro"
    names = set()
    for path in root.rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        names.add(".".join(parts[:-1] if parts[-1] == "__init__" else parts))
    return names


def test_serving_import_closure_is_pinned():
    closure = serving_closure()
    assert sorted(closure - SERVING) == [], "new in the serving closure"
    assert sorted(SERVING - closure) == [], "no longer served: move it"


def test_every_module_is_served_or_named_library():
    modules = _all_modules()
    assert not SERVING & LIBRARY
    assert sorted(modules - SERVING - LIBRARY) == []
    assert sorted(LIBRARY - modules) == []


def test_the_walk_sees_lazy_and_relative_imports():
    """``repro.open`` / ``repro.connect`` import inside the function;
    ``durable`` imports its siblings relatively: the walk reads both."""
    lazy = set(_imported_names("repro"))
    assert {"repro.engine.session", "repro.client"} <= lazy
    assert "repro.storage.wal" in set(_imported_names("repro.storage.durable"))
