"""No bare ``np.unique`` in ``src/repro``.

NumPy 2.x answers ``np.unique(a)`` with no ``return_*`` flag by
hashing, about 40x slower than ``np.sort`` on 2^18 int64 on a 2-core
x86-64 box (NumPy 2.4).  The engine's code spaces are bounded, so a
mark array (:func:`repro.engine.operators.distinct_codes`) or a sort
with the repeats dropped gives the same sorted distinct values.  An AST
walk fails on any ``np.unique(...)`` / ``numpy.unique(...)`` call that
passes none of ``return_index``, ``return_inverse`` or
``return_counts``.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"

FLAGS = frozenset({"return_index", "return_inverse", "return_counts"})


def bare_unique_calls(tree: ast.AST) -> list[int]:
    """Line numbers of the bare ``np.unique`` calls in ``tree``."""
    lines = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "unique"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in ("np", "numpy")):
            continue
        # a flag passed by position counts as passed
        if len(node.args) > 1 or FLAGS & {kw.arg for kw in node.keywords}:
            continue
        lines.append(node.lineno)
    return lines


def test_detector_sees_bare_and_flagged_calls():
    tree = ast.parse(
        "np.unique(a)\n"
        "numpy.unique(a, axis=0)\n"
        "np.unique(a, return_inverse=True)\n"
        "np.unique(a, True)\n"
        "np.unique(a, return_counts=c)\n")
    assert bare_unique_calls(tree) == [1, 2]


def test_src_has_no_bare_np_unique():
    found = [
        f"{path.relative_to(SRC.parent)}:{line}"
        for path in sorted(SRC.rglob("*.py"))
        for line in bare_unique_calls(ast.parse(path.read_text("utf-8")))
    ]
    assert not found, (
        "bare np.unique (hashes under NumPy 2.x; use a mark array or "
        f"np.sort and drop repeats): {found}")
