"""MIMD-style reproducible reductions (paper Section III-D).

    "RSUM was originally introduced in a MIMD context, where each
    process performs the full summation of the local data and the
    results are finally summed up globally using MPI_Reduce."

The :class:`~repro.core.state.SummationState` merge is exact and
ladder-aligning, so *any* reduction topology over per-worker partial
states yields the same bits.  This module provides the topologies a
distributed engine would use — linear chains, binary/k-ary trees,
butterfly/recursive-doubling — plus a deterministic simulator of a
whole MIMD execution (split input, per-worker summation, seeded
reduction schedule), which the tests use to assert topology
independence the way an MPI_Allreduce user would rely on it.
"""

from __future__ import annotations

import numpy as np

from repro.core.params import DEFAULT_LEVELS
from repro.core.rsum import ReproducibleSummer, params_from_spec
from repro.core.state import SummationState

__all__ = [
    "linear_reduce",
    "tree_reduce",
    "butterfly_reduce",
    "simulate_mimd_sum",
]


def _check_states(states) -> list[SummationState]:
    states = list(states)
    if not states:
        raise ValueError("need at least one state to reduce")
    params = states[0].params
    for state in states[1:]:
        if state.params != params:
            raise ValueError("all states must share parameters")
    return states


def linear_reduce(states) -> SummationState:
    """Fold states left to right (rank order) into a fresh state."""
    states = _check_states(states)
    result = states[0].copy()
    for state in states[1:]:
        result.merge(state)
    return result


def tree_reduce(states, arity: int = 2) -> SummationState:
    """k-ary reduction tree (MPI_Reduce's usual shape)."""
    if arity < 2:
        raise ValueError("arity must be at least 2")
    level = [state.copy() for state in _check_states(states)]
    while len(level) > 1:
        next_level = []
        for i in range(0, len(level), arity):
            group = level[i : i + arity]
            node = group[0]
            for other in group[1:]:
                node.merge(other)
            next_level.append(node)
        level = next_level
    return level[0]


def butterfly_reduce(states) -> SummationState:
    """Recursive-doubling allreduce; returns rank 0's final state.

    Works for any worker count (non-powers of two fold the stragglers
    in first, like real allreduce implementations).
    """
    level = [state.copy() for state in _check_states(states)]
    # Fold down to a power of two.
    power = 1
    while power * 2 <= len(level):
        power *= 2
    for i in range(power, len(level)):
        level[i - power].merge(level[i])
    level = level[:power]
    distance = 1
    while distance < len(level):
        for i in range(0, len(level), 2 * distance):
            partner = i + distance
            if partner < len(level):
                level[i].merge(level[partner])
        distance *= 2
    return level[0]


def simulate_mimd_sum(
    values,
    workers: int = 8,
    topology: str = "tree",
    dtype="double",
    levels: int = DEFAULT_LEVELS,
    chunk_seed: int | None = None,
):
    """One full MIMD execution: split -> local RSUM -> global reduce.

    ``chunk_seed=None`` splits the input into equal contiguous chunks;
    an integer seed produces a random (but deterministic) assignment of
    elements to workers — modelling work stealing.  Either way the
    result bits depend only on the input multiset.
    """
    values = np.asarray(values)
    params = params_from_spec(dtype, levels)
    if chunk_seed is None:
        assignment = np.repeat(
            np.arange(workers), -(-values.size // workers)
        )[: values.size]
    else:
        assignment = np.random.default_rng(chunk_seed).integers(
            0, workers, size=values.size
        )
    states = []
    for worker in range(workers):
        summer = ReproducibleSummer(params=params)
        summer.add_array(values[assignment == worker])
        states.append(summer.state)
    if topology == "linear":
        final = linear_reduce(states)
    elif topology == "tree":
        final = tree_reduce(states)
    elif topology == "butterfly":
        final = butterfly_reduce(states)
    else:
        raise ValueError(f"unknown topology {topology!r}")
    return final.finalize()
