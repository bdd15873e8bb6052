"""ORDER BY cases that must hold embedded and served alike: each
``check_*`` takes an ``execute(sql)`` — ``Database().execute`` in
``tests/engine/test_executor_edges.py``, a ``repro.connect`` session's in
``tests/server/test_server.py``."""

BIG = 1 << 53
INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1


def check_desc_integer_keys(execute):
    """``ORDER BY <integer> DESC`` is exact: BIGINT keys past 2**53,
    INT64_MIN / MAX and DATEs come back strictly descending, alone and
    under a mixed two-key sort.  Creates and fills table ``b``."""
    execute("CREATE TABLE b (g INT, k BIGINT, d DATE, v DOUBLE)")
    # scan order is deliberately neither ascending nor descending in k
    execute(
        "INSERT INTO b VALUES "
        f"(1, {BIG}, DATE '1995-03-15', 1.0), "
        f"(2, {BIG + 1}, DATE '1995-03-17', 2.0), "
        f"(1, {BIG + 2}, DATE '1995-03-16', 3.0), "
        "(2, 5, DATE '1970-01-01', 4.0), "
        f"(1, {INT64_MIN}, DATE '1969-12-31', 5.0), "
        f"(2, {INT64_MAX}, DATE '2024-02-29', 6.0)"
    )
    descending = [INT64_MAX, BIG + 2, BIG + 1, BIG, 5, INT64_MIN]
    for query in (
        "SELECT k, v FROM b ORDER BY k DESC",
        "SELECT k, SUM(v) FROM b GROUP BY k ORDER BY k DESC",
        "SELECT k FROM b ORDER BY 1 DESC",
    ):
        assert execute(query).arrays[0].tolist() == descending, query
    assert execute("SELECT k FROM b ORDER BY k").arrays[0].tolist() == (
        descending[::-1])
    days = execute("SELECT d FROM b ORDER BY d DESC").arrays[0].tolist()
    assert days == sorted(days, reverse=True) and len(set(days)) == 6
    assert execute("SELECT g, k FROM b ORDER BY g, k DESC").rows() == [
        (1, BIG + 2), (1, BIG), (1, INT64_MIN),
        (2, INT64_MAX), (2, BIG + 1), (2, 5),
    ]
    assert execute("SELECT g, k FROM b ORDER BY g DESC, k").rows() == [
        (2, 5), (2, BIG + 1), (2, INT64_MAX),
        (1, INT64_MIN), (1, BIG), (1, BIG + 2),
    ]
