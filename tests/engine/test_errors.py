"""The typed exception hierarchy, raised locally by the engine.

Every user-facing failure is a :class:`repro.errors.ReproError`
subclass with a stable wire code — while still subclassing the ad-hoc
builtins (`ValueError` / `KeyError`) the pre-PR-7 API raised, so
existing ``except`` clauses keep working.
"""

import pytest

import repro
from repro.engine import Database
from repro.errors import (
    BindError,
    CatalogError,
    ConfigError,
    ParseError,
    ReproError,
    error_code,
)


@pytest.fixture
def db():
    db = Database(sum_mode="repro")
    db.execute("CREATE TABLE t (k INT, f DOUBLE)")
    return db


def test_parse_errors(db):
    with pytest.raises(ParseError) as info:
        db.execute("SELEC 1")
    assert isinstance(info.value, ValueError)  # backward compat
    assert error_code(info.value) == "parse_error"
    with pytest.raises(ParseError):
        db.execute("SELECT 'unterminated")  # lexer error is a ParseError


def test_bind_errors(db):
    with pytest.raises(BindError) as info:
        db.execute("SELECT nope FROM t")
    assert error_code(info.value) == "bind_error"
    with pytest.raises(BindError):
        db.execute(
            "CREATE MATERIALIZED VIEW v AS SELECT k FROM t"
        )  # view-definition errors bind-fail too


def test_catalog_errors(db):
    with pytest.raises(CatalogError) as info:
        db.execute("SELECT * FROM missing")
    # Still a KeyError (old API) but with an unquoted message.
    assert isinstance(info.value, KeyError)
    assert str(info.value).startswith("no table")
    with pytest.raises(CatalogError):
        db.execute("CREATE TABLE t (k INT)")  # duplicate
    with pytest.raises(CatalogError):
        db.execute("REFRESH MATERIALIZED VIEW ghost")


def test_config_errors(db):
    for sql in ("SET workers = 0", "SET bogus = 1", "SET morsel_size = 0"):
        with pytest.raises(ConfigError) as info:
            db.execute(sql)
        assert isinstance(info.value, ValueError)
        assert error_code(info.value) == "config_error"
    with pytest.raises(ConfigError):
        db.session(workers=0)


def test_everything_is_a_repro_error(db):
    for sql in ("SELEC 1", "SELECT nope FROM t", "SELECT * FROM missing",
                "SET workers = 0"):
        with pytest.raises(ReproError):
            db.execute(sql)


def test_unknown_session_option_is_typed():
    db = Database()
    with pytest.raises(ReproError):
        db.session(not_a_knob=True)


@pytest.mark.parametrize("levels", [0, -1, 2.5, "x", True, None])
def test_levels_is_validated_at_open(levels):
    with pytest.raises(ConfigError, match="levels"):
        repro.open(sum_mode="repro", levels=levels)
    with pytest.raises(ConfigError, match="levels"):
        Database().session(levels=levels)


@pytest.mark.parametrize("literal", ["0", "-2", "TRUE", "FALSE", "1.5"])
def test_rsum_level_literal_is_bound(db, literal):
    sql = f"SELECT RSUM(f, {literal}) FROM t"
    with pytest.raises(BindError, match="RSUM level"):
        db.explain(sql)
    with pytest.raises(BindError, match="RSUM level"):
        db.execute(sql)
    db.execute("INSERT INTO t VALUES (1, 0.5)")
    assert db.execute("SELECT RSUM(f, 1) FROM t").scalar() == 0.5


@pytest.mark.parametrize("name, value", [
    ("workers", 0), ("morsel_size", -1), ("join_build", "sideways"),
    ("sum_mode", "sorted"), ("levels", 0), ("memory_budget", -5),
])
def test_set_default_validates_before_logging(tmp_path, name, value):
    db = repro.open(str(tmp_path / "d"))
    try:
        with pytest.raises(ConfigError):
            db.set_default(name, value)
        db.set_default("morsel_size", 512)
    finally:
        db.close()
    with repro.open(str(tmp_path / "d"), workers=1) as db:
        assert db.session_defaults["morsel_size"] == 512
        assert db.session_defaults[name] != value
