"""Shared fixtures for the repro test suite."""

import sys
from pathlib import Path

import numpy as np
import pytest

# The paper-figure code (``benchmarks/paper``, imported as ``paper``) is
# not part of the package; its tests and the oracles it holds import it
# from the checkout.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def exp_values(rng):
    """10k exponential doubles — the standard accuracy workload."""
    return rng.exponential(size=10_000)


@pytest.fixture
def wide_values(rng):
    """Values spanning ~50 binades with mixed signs."""
    exponents = rng.uniform(-25, 25, size=5_000)
    signs = rng.choice([-1.0, 1.0], size=5_000)
    return signs * rng.uniform(1.0, 2.0, size=5_000) * np.exp2(exponents)


@pytest.fixture
def small_pairs(rng):
    """2k (key, value) pairs over 50 groups."""
    keys = rng.integers(0, 50, size=2_000).astype(np.uint32)
    values = rng.exponential(size=2_000)
    return keys, values


@pytest.fixture
def engine_path(monkeypatch):
    """The one door to the aggregate runtime no query can select.

    ``with engine_path("scalar"):`` swaps the single table constructor,
    ``pipeline.make_group_table``, for the row-order
    :class:`reference_table.PartialGroupTable` — the reference of the
    differential tests (it re-evaluates every key and argument from the
    batch and ignores every encoding, the build-row one included).
    ``engine_path(None)`` patches nothing (what users run), so a test
    can loop over both.  Build the ``Database`` inside the block.
    """
    from contextlib import contextmanager

    from reference_table import PartialGroupTable
    from repro.engine import pipeline

    @contextmanager
    def select(path):
        assert path in (None, "scalar"), path
        with monkeypatch.context() as patch:
            if path:
                patch.setattr(pipeline, "make_group_table", PartialGroupTable)
            yield

    return select


@pytest.fixture
def build_side(monkeypatch):
    """Pick every inner hash join's build side, with no knob to set.

    The planner builds on the input with the smaller
    ``estimate_rows``; ``with build_side("left"):`` reads the other
    input of every join it lowers as ``sys.maxsize`` rows, so the left
    input builds (``"right"`` likewise) and EXPLAIN shows ``build=left``
    / ``build=right``.  A LEFT join builds on the right whatever it
    says.  ``build_side(None)`` patches nothing (the planner's own
    choice).  Lowering runs per SELECT, so the block may hold the
    ``Database`` or not.
    """
    from contextlib import contextmanager

    from repro.engine import physical
    from repro.engine.plan import Join

    lower, estimate = physical._build_pipeline, physical.estimate_rows

    @contextmanager
    def select(side):
        assert side in (None, "left", "right"), side
        # id -> (input, side); holding the input keeps its id unique
        inputs = {}

        def build_pipeline(node, state):
            if isinstance(node, Join):
                inputs[id(node.left)] = (node.left, "left")
                inputs[id(node.right)] = (node.right, "right")
            return lower(node, state)

        def estimate_rows(node, snapshot=None):
            role = inputs.get(id(node), (None, None))[1]
            if role is not None and role != side:
                return sys.maxsize
            return estimate(node, snapshot)

        with monkeypatch.context() as patch:
            if side:
                patch.setattr(physical, "_build_pipeline", build_pipeline)
                patch.setattr(physical, "estimate_rows", estimate_rows)
            yield

    return select
