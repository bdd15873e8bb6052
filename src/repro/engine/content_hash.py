"""The process-stable content hash — one definition, one router.

:func:`row_hashes` maps rows to 64-bit hashes that are a pure function
of the rows' *values* under the engine's key identity: ``-0.0`` hashes
with ``0.0``, every NaN payload with every other, floats otherwise by
their exact bits, integers by value, Python objects (strings, ``None``)
through blake2b (:func:`value_hash`).  Nothing here depends on
``PYTHONHASHSEED`` or any other per-process state, so every process
and run sends equal values the same way.

The one router is this hash modulo a fan-out: the spill partitioner over
a query's group keys
(:func:`repro.aggregation.external_agg.partition_ids`) — the one place
where equal keys must meet.  The ``workers`` split needs no router:
partial states merge exactly, so which table a morsel feeds is
invisible in the bits and the pipeline deals morsels by position.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

from .operators import canonical_float_bits, factorize_object

__all__ = ["row_hashes", "value_hash"]


def value_hash(value) -> int:
    """64-bit blake2b hash of one Python value, floats under the
    canonical identity (Python's own ``hash`` is salted per process)."""
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if value != value:  # NaN: one bucket for every payload
            data = b"\x01"
        else:
            data = b"\x02" + struct.pack("<d", value + 0.0)  # folds -0.0
    elif isinstance(value, (int, np.integer)):
        data = b"\x03" + str(int(value)).encode("ascii")
    elif isinstance(value, str):
        data = b"\x04" + value.encode("utf-8")
    elif value is None:
        data = b"\x05"
    else:
        data = b"\x06" + repr(value).encode("utf-8")
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(),
                          "little")


def _mix64(lanes: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer (wrapping uint64 arithmetic)."""
    lanes = lanes + np.uint64(0x9E3779B97F4A7C15)
    lanes ^= lanes >> np.uint64(30)
    lanes = lanes * np.uint64(0xBF58476D1CE4E5B9)
    lanes ^= lanes >> np.uint64(27)
    lanes = lanes * np.uint64(0x94D049BB133111EB)
    lanes ^= lanes >> np.uint64(31)
    return lanes


def _lanes(values: np.ndarray) -> np.ndarray:
    """One uint64 lane per value of an array."""
    kind = values.dtype.kind
    if kind in "iub":
        return values.astype(np.int64).view(np.uint64)
    if kind == "f":
        return canonical_float_bits(values)
    # Python objects (and fixed-width strings): hash each distinct
    # value once, then gather.
    codes, uniques = factorize_object(values.astype(object, copy=False))
    return np.fromiter(
        map(value_hash, uniques.tolist()), np.uint64, len(uniques)
    )[codes]


def row_hashes(columns, dictionaries: dict | None = None) -> np.ndarray:
    """uint64 content hash per row over ``columns``, in the order given.

    A column is an array of values or the ``(codes, uniques)``
    dictionary encoding of one, as a scan lets it ride on its morsels.
    A dictionary is hashed once per ``dictionaries`` — a memo the
    caller keeps across calls — and then costs one gather per morsel.
    """
    if dictionaries is None:
        dictionaries = {}
    mixed = np.uint64(0)
    for column in columns:
        if isinstance(column, tuple):
            codes, uniques = column
            entry = dictionaries.get(id(uniques))
            if entry is None:
                # holding ``uniques`` keeps its id its own
                entry = dictionaries[id(uniques)] = (uniques, _lanes(uniques))
            lanes = entry[1][codes]
        else:
            lanes = _lanes(np.asarray(column))
        mixed = _mix64(mixed ^ _mix64(lanes))
    return mixed
