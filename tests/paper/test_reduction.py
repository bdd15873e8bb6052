"""Tests for the reduction topologies and the MIMD simulation
(``benchmarks/paper/reduction.py``)."""

import numpy as np
import pytest

from paper.reduction import (
    butterfly_reduce,
    linear_reduce,
    simulate_mimd_sum,
    tree_reduce,
)
from paper.state import SummationState
from repro.core import reproducible_sum
from repro.core.params import RsumParams
from repro.fp.ieee import same_bits


class TestReductionTopologies:
    def make_states(self, values, parts):
        states = []
        for chunk in np.array_split(values, parts):
            state = SummationState(RsumParams.double(2))
            state.add_array(chunk)
            states.append(state)
        return states

    def test_all_topologies_identical(self, exp_values):
        for parts in (1, 2, 5, 8, 13):
            states = self.make_states(exp_values, parts)
            linear = linear_reduce(states)
            binary = tree_reduce(states, 2)
            quad = tree_reduce(states, 4)
            butterfly = butterfly_reduce(states)
            reference = linear.state_tuple()
            assert binary.state_tuple() == reference, parts
            assert quad.state_tuple() == reference, parts
            assert butterfly.state_tuple() == reference, parts

    def test_reduce_preserves_inputs(self, exp_values):
        states = self.make_states(exp_values, 4)
        before = [s.state_tuple() for s in states]
        tree_reduce(states)
        assert [s.state_tuple() for s in states] == before

    def test_empty_states_rejected(self):
        with pytest.raises(ValueError):
            linear_reduce([])

    def test_mismatched_params_rejected(self):
        a = SummationState(RsumParams.double(2))
        b = SummationState(RsumParams.double(3))
        with pytest.raises(ValueError):
            tree_reduce([a, b])

    def test_arity_validation(self):
        a = SummationState(RsumParams.double(2))
        with pytest.raises(ValueError):
            tree_reduce([a], arity=1)


class TestMimdSimulation:
    def test_worker_count_invariance(self, exp_values):
        reference = simulate_mimd_sum(exp_values, workers=1)
        for workers in (2, 3, 8, 16):
            assert same_bits(
                simulate_mimd_sum(exp_values, workers=workers), reference
            )

    def test_topology_invariance(self, exp_values):
        reference = simulate_mimd_sum(exp_values, topology="linear")
        for topology in ("tree", "butterfly"):
            assert same_bits(
                simulate_mimd_sum(exp_values, topology=topology), reference
            )

    def test_work_stealing_invariance(self, exp_values):
        reference = simulate_mimd_sum(exp_values, workers=8)
        for seed in (1, 2, 3):
            assert same_bits(
                simulate_mimd_sum(exp_values, workers=8, chunk_seed=seed),
                reference,
            )

    def test_matches_plain_sum(self, exp_values):
        # the scalar states' reduction equals the engine's ladder
        assert same_bits(
            simulate_mimd_sum(exp_values), reproducible_sum(exp_values)
        )

    def test_unknown_topology(self, exp_values):
        with pytest.raises(ValueError):
            simulate_mimd_sum(exp_values, topology="ring")
