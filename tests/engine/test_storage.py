"""Tests for types, tables, and MonetDB-style storage semantics."""

import datetime

import numpy as np
import pytest

from repro.engine.table import Schema, Table
from repro.engine.types import (
    BIGINT,
    DATE,
    DOUBLE,
    FLOAT,
    INT,
    DecimalSqlType,
    IntType,
    VarcharType,
    parse_date,
    type_from_name,
)


class TestTypes:
    def test_type_from_name(self):
        assert type_from_name("int") is INT
        assert type_from_name("BIGINT") is BIGINT
        assert type_from_name("double") == DOUBLE
        assert type_from_name("real") == FLOAT
        assert isinstance(type_from_name("decimal", (12, 2)), DecimalSqlType)
        assert type_from_name("varchar", (5,)).length == 5
        assert type_from_name("date") is DATE

    def test_unknown_type(self):
        with pytest.raises(ValueError):
            type_from_name("blob")

    def test_int_coercion(self):
        assert INT.coerce(3.0) == 3
        assert INT.numpy_dtype == np.int32

    def test_varchar_length_check(self):
        vc = VarcharType(3)
        assert vc.coerce("abc") == "abc"
        with pytest.raises(ValueError):
            vc.coerce("abcd")

    def test_varchar_null_stays_null(self):
        """NULL is no string: not ``'None'``, whatever the length."""
        vc = VarcharType(3)
        assert vc.coerce(None) is None
        assert vc.coerce_column(["ab", None]).tolist() == ["ab", None]
        table = Table("t", Schema([("k", INT), ("s", VarcharType(1))]))
        table.insert_rows([{"k": 1, "s": None}, {"k": 2, "s": "x"}])
        assert table.scan()["s"].tolist() == [None, "x"]

    def test_date_roundtrip(self):
        ordinal = DATE.coerce("1998-12-01")
        assert DATE.to_python(ordinal) == datetime.date(1998, 12, 1)
        assert parse_date("1992-01-01") == datetime.date(1992, 1, 1).toordinal()

    def test_decimal_scale(self):
        dec = DecimalSqlType(12, 2)
        assert dec.coerce(12.34) == 1234
        assert dec.to_python(1234) == 12.34

    def test_int_width_validation(self):
        with pytest.raises(ValueError):
            IntType(24)


class TestSchema:
    def test_duplicate_columns_rejected(self):
        with pytest.raises(ValueError):
            Schema([("a", INT), ("A", DOUBLE)])

    def test_lookup(self):
        schema = Schema([("k", INT), ("v", DOUBLE)])
        assert schema.type_of("V") == DOUBLE
        assert "k" in schema
        with pytest.raises(KeyError):
            schema.type_of("missing")


class TestTableStorage:
    def make_table(self):
        return Table("r", Schema([("i", INT), ("f", DOUBLE)]))

    def test_insert_and_scan(self):
        table = self.make_table()
        table.insert_row({"i": 1, "f": 0.5})
        table.insert_row({"i": 2, "f": 1.5})
        data = table.scan()
        assert data["i"].tolist() == [1, 2]
        assert data["f"].tolist() == [0.5, 1.5]

    def test_missing_column_rejected(self):
        table = self.make_table()
        with pytest.raises(ValueError):
            table.insert_row({"i": 1})

    def test_update_semantics_mask_and_append(self):
        """The storage behaviour behind Algorithm 1: masked + appended."""
        table = self.make_table()
        for i, f in [(1, 0.1), (2, 0.2), (3, 0.3)]:
            table.insert_row({"i": i, "f": f})
        table.mask_rows(np.array([1]))
        table.append_versions([{"i": 2, "f": 0.2}])
        assert len(table) == 3
        assert table.physical_rows == 4
        # Physical scan order changed: row 2 now comes last.
        assert table.scan()["i"].tolist() == [1, 3, 2]

    def test_mask_counts_only_visible(self):
        table = self.make_table()
        table.insert_row({"i": 1, "f": 0.0})
        assert table.mask_rows(np.array([0])) == 1
        assert table.mask_rows(np.array([0])) == 0

    def test_bulk_load(self):
        table = self.make_table()
        table.bulk_load({"i": np.array([1, 2]), "f": np.array([0.5, 1.5])})
        assert len(table) == 2

    def test_bulk_load_ragged_rejected(self):
        table = self.make_table()
        with pytest.raises(ValueError):
            table.bulk_load({"i": np.array([1]), "f": np.array([0.5, 1.5])})

    def test_rows_natural_values(self):
        table = Table("t", Schema([("d", DATE), ("x", DOUBLE)]))
        table.insert_row({"d": "1998-09-02", "x": 1.5})
        rows = table.rows()
        assert rows == [(datetime.date(1998, 9, 2), 1.5)]

    def test_column_array_visibility(self):
        table = self.make_table()
        table.insert_row({"i": 1, "f": 0.5})
        table.insert_row({"i": 2, "f": 1.5})
        table.mask_rows(np.array([0]))
        assert table.column_array("f").tolist() == [1.5]
        assert table.column_array("f", visible_only=False).tolist() == [0.5, 1.5]


class TestVersionedStorage:
    """Versioned append chunks + delete vectors (the view delta feed)."""

    def make_table(self):
        return Table("t", Schema([("i", INT), ("f", DOUBLE)]))

    def test_watermark_bumps_per_statement(self):
        table = self.make_table()
        assert table.version == 0
        table.insert_rows([{"i": 1, "f": 0.1}, {"i": 2, "f": 0.2}])
        assert table.version == 1  # one chunk, one bump
        table.insert_row({"i": 3, "f": 0.3})
        assert table.version == 2
        table.mask_rows(np.array([0]))
        assert table.version == 3

    def test_delta_window(self):
        """Since a watermark: the rows read from :meth:`rows_at` it on
        are the inserts, :meth:`deletes_between` flags the deletes."""
        table = self.make_table()
        table.insert_rows([{"i": 1, "f": 0.1}, {"i": 2, "f": 0.2}])
        watermark = table.version
        table.insert_row({"i": 3, "f": 0.3})
        table.mask_rows(np.array([0]))
        start = table.rows_at(watermark)
        assert table.read(["i"], start=start)[0]["i"].tolist() == [3]
        assert table.deletes_between(watermark, table.version)
        # the window ends at upto: the mask came after the insert
        assert not table.deletes_between(watermark, watermark + 1)
        # Since watermark 0 every live row is an insert, none a delete.
        since_zero = table.read(["i"], start=table.rows_at(0))[0]
        assert since_zero["i"].tolist() == [2, 3]
        assert not table.deletes_between(0, table.version)

    def test_insert_then_delete_within_window_cancels(self):
        table = self.make_table()
        table.insert_row({"i": 1, "f": 0.1})
        watermark = table.version
        table.insert_row({"i": 9, "f": 9.9})
        table.mask_rows(np.array([1]))
        start = table.rows_at(watermark)
        assert table.read(["i"], start=start)[0]["i"].tolist() == []
        assert not table.deletes_between(watermark, table.version)

    def test_deletes_between_survives_a_restore(self):
        """A checkpoint image's masked rows still count as deletes."""
        table = self.make_table()
        table.insert_rows([{"i": 1, "f": 0.1}, {"i": 2, "f": 0.2}])
        table.mask_rows(np.array([1]))
        restored = self.make_table()
        restored.restore_physical(**table.physical_state())
        assert restored.deletes_between(1, 2)
        assert not restored.deletes_between(2, 2)
        restored.replay_mask(3, [0])
        assert restored.deletes_between(2, 3)

    def test_read_from_start_reads_delta_rows(self):
        table = self.make_table()
        table.insert_rows([{"i": 1, "f": 0.1}, {"i": 2, "f": 0.2}])
        watermark = table.version
        table.insert_rows([{"i": 3, "f": 0.3}])
        data, _, copied = table.read(["i"], start=table.rows_at(watermark))
        assert data["i"].tolist() == [3] and copied == 0

    def test_incremental_array_cache_preserves_handed_out_views(self):
        table = self.make_table()
        table.insert_row({"i": 1, "f": 0.5})
        before = table.column_array("f", visible_only=False)
        assert before.tolist() == [0.5]
        table.insert_rows([{"i": 2, "f": 1.5}, {"i": 3, "f": 2.5}])
        # The earlier view is unchanged; the new array sees the tail.
        assert before.tolist() == [0.5]
        assert table.column_array("f", visible_only=False).tolist() == [
            0.5, 1.5, 2.5
        ]

    def test_valid_mask_extends_after_append_and_resets_after_delete(self):
        table = self.make_table()
        table.insert_rows([{"i": 1, "f": 0.1}])
        assert table.valid_mask().tolist() == [True]
        table.insert_rows([{"i": 2, "f": 0.2}])
        assert table.valid_mask().tolist() == [True, True]
        table.mask_rows(np.array([0]))
        assert table.valid_mask().tolist() == [False, True]

    def test_views_handed_out_before_a_delete_or_append_keep_their_contents(
        self,
    ):
        """No statement changes an array a reader already holds — across
        an append into spare capacity, a capacity doubling, a DELETE and
        an UPDATE, for column views, masks and the version vectors."""
        table = self.make_table()
        table.insert_rows([{"i": k, "f": k / 4} for k in range(3)])
        table.insert_rows([{"i": 3, "f": 0.75}])    # capacity 6, 4 rows

        def holdings():
            state = table.physical_state()
            return {
                "column": table.column_array("f", visible_only=False),
                "valid": table.valid_mask(),
                "snapshot": table.snapshot_mask(table.version),
                "tails": table.column_tails(1)["i"],
                "inserted": state["inserted"],
                "deleted": state["deleted"],
                "scan": table.physical_scan()[0]["i"],
            }

        held = []
        for statement in (
            lambda: table.insert_row({"i": 4, "f": 1.0}),       # in place
            lambda: table.mask_rows(np.array([1])),
            lambda: table.insert_rows(                          # doubles
                [{"i": k, "f": 0.0} for k in range(5, 12)]
            ),
            lambda: table.replace_rows(
                np.array([0, 6]), [{"i": -1, "f": -1.0}]
            ),
            lambda: table.replay_mask(table.version + 1, [2]),
        ):
            views = holdings()
            held.append((views, {k: v.copy() for k, v in views.items()}))
            statement()
        for views, copies in held:
            for what, view in views.items():
                assert view.tolist() == copies[what].tolist(), what
        assert table.valid_mask().tolist() == (
            [False, False, False, True, True, True, False] + [True] * 6
        )

    @pytest.mark.parametrize("deleted", [False, True])
    def test_scanned_arrays_are_read_only(self, deleted):
        """Whatever a scan hands out — slices of the buffers, or copies
        once a delete is visible — refuses writes: the table's rows
        stay as they were."""
        table = Table("t", Schema([("s", VarcharType(3)), ("f", DOUBLE)]))
        table.insert_rows([{"s": s, "f": float(i)}
                           for i, s in enumerate("abcab")])
        if deleted:
            table.mask_rows(np.array([1]))
        before = table.rows()
        arrays, encodings, copied = table.read(["s", "f"], ["s"])
        assert (copied > 0) == deleted
        codes = encodings["s"][0]
        for arr in (arrays["f"], arrays["s"], codes,
                    table.scan(["f"])["f"],
                    table.key_encodings(["s"])["s"][0],
                    next(table.morsels(2, ["f"]))["f"]):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = arr[1]
            with pytest.raises(ValueError, match="read-only"):
                arr += arr
        assert table.rows() == before

    def test_delete_keeps_the_dictionary_encoding_append_drops_it(self):
        table = Table("t", Schema([("s", VarcharType(3)), ("f", DOUBLE)]))
        table.insert_rows([{"s": s, "f": 0.0} for s in "abcab"])
        _, uniques = table.key_encodings(["s"])["s"]
        table.mask_rows(np.array([0]))
        codes, again = table.key_encodings(["s"])["s"]
        assert again is uniques and again[codes].tolist() == list("bcab")
        table.insert_rows([{"s": "d", "f": 0.0}])
        codes, fresh = table.key_encodings(["s"])["s"]
        assert fresh is not uniques and fresh[codes].tolist() == list("bcabd")

    def test_physical_state_round_trips_through_restore_physical(self):
        table = self.make_table()
        table.insert_rows([{"i": k, "f": k / 2} for k in range(5)])
        table.mask_rows(np.array([1, 3]))
        table.replace_rows(np.array([0]), [{"i": 9, "f": 9.0}])
        state = table.physical_state()
        twin = self.make_table()
        twin.restore_physical(**state)
        again = twin.physical_state()
        assert again["version"] == state["version"] == table.version
        for key in ("inserted", "deleted"):
            assert again[key].tobytes() == state[key].tobytes()
            assert not np.shares_memory(again[key], state[key])
        for name, arr in state["columns"].items():
            assert again["columns"][name].tobytes() == arr.tobytes()
            assert not np.shares_memory(again["columns"][name], arr)
        with pytest.raises(ValueError):
            twin.restore_physical(**state)      # only into an empty table

    def test_bulk_paths_never_alias_the_callers_array(self):
        table = self.make_table()
        mine = {"i": np.arange(4, dtype=np.int32), "f": np.ones(4)}
        table.bulk_load(mine)
        mine["f"][:] = -1.0
        assert table.column_array("f").tolist() == [1.0] * 4
        table.replay_append(table.version + 1, mine)
        mine["i"][:] = 0
        assert table.column_array("i").tolist() == [0, 1, 2, 3] * 2

    def test_bulk_load_refuses_values_the_dtype_cannot_hold(self):
        table = self.make_table()
        for bad in (np.array([1 << 31]), np.array([np.nan]), ["x"]):
            with pytest.raises(ValueError):
                table.bulk_load({"i": bad, "f": np.zeros(1)})
        assert table.physical_rows == 0 and table.version == 0
        table.bulk_load({"i": np.array([2.9]), "f": [1]})   # C-style cast
        assert table.rows() == [(2, 1.0)]
