"""End-to-end TPC-H Query 1 under both SUM implementations.

The paper's Table IV experiment at laptop scale: load a generated
``lineitem``, run Q1 with conventional and reproducible (buffered)
SUM, time the operators, and check bit-stability across a physical
shuffle of the table.

Run:  python examples/tpch_q1.py [scale_factor]
"""

import struct
import sys
import time

from repro.engine import Database
from repro.tpch import Q1_SQL, load_lineitem, run_q1, shuffled_copy


def q1_bits(result):
    return [
        tuple(struct.pack("<d", x) for x in row[2:9]) for row in result.rows()
    ]


def main(scale_factor: float = 0.005):
    print(f"Generating lineitem at SF={scale_factor}...")
    reference_db = Database(sum_mode="ieee")
    nrows = load_lineitem(reference_db, scale_factor=scale_factor)
    print(f"{nrows} rows\n")

    print(Q1_SQL.strip(), "\n")

    timings = {}
    results = {}
    for mode in ("ieee", "repro"):
        db = Database(sum_mode=mode, levels=2)
        db.catalog.add(reference_db.table("lineitem"))
        run_q1(db)  # warm-up
        started = time.perf_counter()
        results[mode] = run_q1(db)
        timings[mode] = time.perf_counter() - started

    print(f"{'mode':<16} {'total [ms]':>11} {'vs ieee':>8}")
    for mode, seconds in timings.items():
        print(
            f"{mode:<16} {seconds * 1e3:>11.1f} "
            f"{seconds / timings['ieee']:>7.2f}x"
        )

    print("\nQuery answer (repro mode):")
    rows = results["repro"].rows()
    header = results["repro"].names
    print("  " + "  ".join(header[:6]))
    for row in rows:
        print("  " + "  ".join(str(v)[:14] for v in row[:6]))

    # Bit-stability across a physical shuffle.
    print("\nShuffling the table physically (same logical content)...")
    for mode in ("ieee", "repro"):
        db = Database(sum_mode=mode)
        db.catalog.add(shuffled_copy(reference_db, seed=7))
        stable = q1_bits(run_q1(db)) == q1_bits(results[mode])
        print(f"  {mode:<6}: Q1 bit-identical after shuffle? {stable}")


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 0.005)
