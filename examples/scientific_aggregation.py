"""Scientific data: wide dynamic range, cancellation, and the L knob.

Section II-C argues fixed-point DECIMALs cannot serve "measurements or
scientific data ... values of different orders of magnitude such as
those handled in machine learning".  This example aggregates exactly
that kind of data — per-sensor sums over values spanning ~60 binades
with heavy cancellation — and shows:

* DECIMAL cannot even represent the inputs (quantisation destroys
  them);
* IEEE sums differ run-to-run under reordering, by far more than the
  true per-group signal;
* the reproducible type gives identical bits every time, and raising
  L recovers the tiny true signal exactly.

Run:  python examples/scientific_aggregation.py
"""

import math

import numpy as np

import repro
from repro.fp.decimal_fixed import DECIMAL18, DecimalOverflowError


def make_sensor_data(rng, n, nsensors):
    """Cancelling field samples plus a tiny per-sensor drift."""
    keys = rng.integers(0, nsensors, size=n).astype(np.uint32)
    exponents = rng.uniform(-25, 25, size=n)
    base = rng.choice([-1.0, 1.0], size=n) * np.exp2(exponents)
    # Pair up large values so they cancel; the physics is in the drift.
    values = np.concatenate([base, -base])
    keys = np.concatenate([keys, keys])
    drift = rng.normal(scale=1e-9, size=values.size)
    return keys, values + drift


def main():
    rng = np.random.default_rng(0)
    nsensors = 32
    keys, values = make_sensor_data(rng, 50_000, nsensors)
    print(f"{values.size} samples, {nsensors} sensors")
    print(f"value magnitudes: {np.abs(values).min():.2e} .. "
          f"{np.abs(values).max():.2e}\n")

    # DECIMAL: not even representable.
    print("-- DECIMAL(18,2): the fixed-point non-option (paper §II-C) --")
    try:
        DECIMAL18.unscaled_from_real(float(np.abs(values).max()))
        quantised = DECIMAL18.unscaled_from_real(1e-9)
        print(f"a 1e-9 drift quantised to cents: {quantised} (signal erased)")
    except DecimalOverflowError as exc:
        print(f"overflow: {exc}")
    print()

    # IEEE: order-dependent garbage at this dynamic range.
    print("-- IEEE double GROUP BY SUM under physical reordering --")
    perm = rng.permutation(values.size)
    conv_a = repro.group_sum(keys, values, reproducible=False)
    conv_b = repro.group_sum(keys[perm], values[perm], reproducible=False)
    diffs = np.abs(conv_a.sums - conv_b.sums)
    print(f"max |difference| between two runs: {diffs.max():.3e}")
    print(f"bit-identical? {conv_a.bit_equal(conv_b)}\n")

    # Reproducible: identical bits, and accuracy scales with L.
    print("-- reproducible GROUP BY SUM, accuracy vs L --")
    exact = {
        int(k): math.fsum(values[keys == k]) for k in np.unique(keys)
    }
    for levels in (1, 2, 3, 4):
        result = repro.group_sum(keys, values, levels=levels)
        shuffled = repro.group_sum(keys[perm], values[perm], levels=levels)
        assert result.bit_equal(shuffled)
        worst = max(
            abs(float(result.as_dict()[k]) - exact[k]) for k in exact
        )
        print(f"L={levels}: bit-stable=True   max error vs exact: {worst:.3e}")

    print(
        "\nWith L>=3 the tiny drift survives ~50 binades of cancellation,"
        "\nreproducibly — the 'higher accuracy than IEEE numbers at"
        "\nessentially the same price' the paper points out."
    )


if __name__ == "__main__":
    main()
