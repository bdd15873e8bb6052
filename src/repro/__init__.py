"""repro — bit-reproducible floating-point aggregation for RDBMSs.

Reproduction of Müller, Arteaga, Hoefler & Alonso, "Reproducible
Floating-Point Aggregation in RDBMSs", ICDE 2018.

Quickstart::

    import numpy as np
    import repro

    values = np.random.default_rng(0).exponential(size=1_000_000)
    keys = np.random.default_rng(1).integers(0, 1024, size=values.size)

    # Bit-reproducible scalar sum: same bits for any permutation.
    s1 = repro.reproducible_sum(values)
    s2 = repro.reproducible_sum(values[::-1])
    assert repro.same_bits(s1, s2)

    # Bit-reproducible GROUP BY SUM.
    table = repro.group_sum(keys, values)

See README.md for the architecture, the SQL engine and the
benchmarks.
"""

from .aggregation.api import group_sum
from .core import (
    ReproducibleSummer,
    RsumParams,
    reproducible_dot,
    reproducible_mean,
    reproducible_std,
    reproducible_sum,
    reproducible_variance,
)
from .errors import (
    AdmissionError,
    BindError,
    CatalogError,
    CheckpointError,
    ConfigError,
    ConnectionClosed,
    DataError,
    ParseError,
    ProtocolError,
    QueryTimeout,
    ReproError,
    SpillFormatError,
    StorageError,
    WalCorruptError,
)
from .fp import same_bits

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "ParseError",
    "BindError",
    "CatalogError",
    "ConfigError",
    "DataError",
    "AdmissionError",
    "QueryTimeout",
    "ProtocolError",
    "ConnectionClosed",
    "StorageError",
    "SpillFormatError",
    "WalCorruptError",
    "CheckpointError",
    "open",
    "connect",
    "reproducible_sum",
    "reproducible_dot",
    "reproducible_mean",
    "reproducible_variance",
    "reproducible_std",
    "ReproducibleSummer",
    "RsumParams",
    "same_bits",
    "group_sum",
    "__version__",
]


#: The accumulator types and tuning rules that left with the scalar
#: Algorithm 2 state (``benchmarks/paper``, imported as ``paper``).
_MOVED = frozenset({"ReproFloat", "BufferedReproFloat", "SummationState",
                    "optimal_buffer_size", "choose_partition_depth"})


def __getattr__(name):
    # ImportError naming where the name went, as ``repro.core`` raises
    if name in _MOVED:
        from .core import moved_error

        raise moved_error(__name__, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def open(path=None, **session_defaults):
    """Open a local database — the embedded twin of :func:`connect`.

    ``repro.open()`` and ``repro.connect()`` are the two symmetric
    entry points: ``open`` gives you an in-process
    :class:`~repro.engine.session.Database` (``path=None`` keeps it
    purely in memory; a directory path makes it **durable** — tables,
    materialized views, and the version clock persist through a
    checkpoint plus write-ahead log, and reopening after a crash
    replays to a byte-identical state), while ``connect`` reaches the
    same session surface over the network.

    Keyword arguments are session defaults (``sum_mode``, ``workers``,
    ``morsel_size``, ...) exactly as for
    :class:`~repro.engine.session.Database`.

    >>> with repro.open() as db:                       # doctest: +SKIP
    ...     db.execute("CREATE TABLE t (f DOUBLE)")
    >>> db = repro.open("/var/lib/repro")              # doctest: +SKIP
    >>> db.checkpoint()                                # doctest: +SKIP
    """
    from .engine.session import Database

    return Database(path=path, **session_defaults)


def connect(address, **kwargs):
    """Open a network :class:`~repro.client.RemoteSession` to a repro
    server — the remote twin of :func:`open`.

    ``address`` is ``(host, port)`` for TCP or a filesystem path for a
    unix socket.  The returned session speaks the same ``execute`` /
    ``explain`` surface as a local :func:`open` session; point the
    server at a ``--data-dir`` and the data it serves is durable.
    """
    from .client import connect as _connect

    return _connect(address, **kwargs)
