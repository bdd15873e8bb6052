"""The eager reference of the late-materialized batch.

A morsel here is a plain ``dict`` of real arrays and every operator
copies every column at every step — what ``Batch.filter`` and the inner
``HashJoin.probe`` did before columns were gathered late — written the
plainest way that is obviously right: a boolean-mask slice per column,
and a nested-loop join in place of the hash table (probe rows in order,
each one's matches in build-row order, keys compared under the engine's
canonical identity: NaN joins NaN, ``-0.0`` joins ``0.0``, ``None``
joins ``None``).  ``tests/engine/test_lazy_batch.py`` holds the lazy
batch against it, like ``reference_table.py`` holds the group table.
"""

import numpy as np

#: name the reference tracks a probe's build-row index under (the lazy
#: batch hides it; here it is one more column of the dict)
BUILD_ROW_COLUMN = "<build row>"


def eager_filter(columns: dict, mask: np.ndarray) -> dict:
    return {name: arr[mask] for name, arr in columns.items()}


def _identity(value):
    if isinstance(value, float) and value != value:
        return "NaN"
    return value  # -0.0 == 0.0 and None == None already hold


def eager_probe(columns: dict, build: dict, probe_key: str, build_key: str,
                carry_build_rows: bool = False) -> dict:
    """Inner join of ``columns`` with ``build`` on one key each; a name
    bound on both sides reads the build side afterwards."""
    build_keys = [_identity(v) for v in build[build_key].tolist()]
    probe_take, build_take = [], []
    for i, value in enumerate(columns[probe_key].tolist()):
        value = _identity(value)
        for j, candidate in enumerate(build_keys):
            if candidate == value:
                probe_take.append(i)
                build_take.append(j)
    probe_take = np.array(probe_take, dtype=np.int64)
    build_take = np.array(build_take, dtype=np.int64)
    out = {name: arr[probe_take] for name, arr in columns.items()}
    out.update({name: arr[build_take] for name, arr in build.items()})
    if carry_build_rows:
        out[BUILD_ROW_COLUMN] = build_take
    return out
