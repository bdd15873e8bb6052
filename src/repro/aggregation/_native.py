"""Build and load the compiled ladder update (``_ladder.c``).

The C source ships inside the package and is compiled on first import
with the system C compiler into a per-user cache directory, keyed by a
hash of the source, the flags and the platform; every later import
(a server, another Python process) finds the shared object there and
only loads it.  A build writes a temporary file in the cache and
``os.replace``-s it into place, so processes building at once never
load a half-written file.  There is no fallback: without a compiler the
import fails with :class:`~repro.errors.KernelBuildError`.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from ..errors import KernelBuildError

__all__ = ["LadderKernel", "load_ladder"]

SOURCE = Path(__file__).with_name("_ladder.c")

#: ``-ffast-math`` / ``-march=native`` stay out: either may fold the
#: anchor extraction ``(r + a) - a`` or change its rounding.
FLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")
LIBS = ("-lm",)

_REQUIREMENT = ("repro needs a C compiler (cc) next to NumPy: it builds its "
                "ladder kernel from {source} on first import")


def default_cache_dir() -> Path:
    """``$XDG_CACHE_HOME/repro``, or ``~/.cache/repro``."""
    base = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(base) / "repro"


def build_name(source: bytes) -> str:
    """The cached shared object's file name: one per source, flags and
    platform."""
    digest = hashlib.sha256()
    for part in (source, " ".join(FLAGS + LIBS).encode(),
                 sys.platform.encode(),
                 platform.machine().encode(),
                 str(ctypes.sizeof(ctypes.c_void_p)).encode()):
        digest.update(part + b"\0")
    return f"_ladder-{digest.hexdigest()[:20]}.so"


def _build(compiler: str, target: Path) -> None:
    fail = _REQUIREMENT.format(source=SOURCE)
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=target.name,
                                   suffix=".tmp")
        os.close(fd)
    except OSError as exc:
        raise KernelBuildError(
            f"{fail}, and cannot write its cache {target.parent}: {exc}"
        ) from exc
    try:
        try:
            done = subprocess.run(
                [compiler, *FLAGS, "-o", tmp, str(SOURCE), *LIBS],
                capture_output=True, text=True, check=False)
        except OSError as exc:
            raise KernelBuildError(
                f"{fail}; running {compiler!r} failed: {exc}") from exc
        if done.returncode != 0:
            raise KernelBuildError(
                f"{fail}; {compiler!r} exited with {done.returncode}:\n"
                f"{done.stderr.strip()}")
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


class LadderKernel:
    """The loaded kernel, per table value dtype (``float64`` or
    ``float32``): ``block[dtype](start, stop, ntables, ptrs, io)`` runs
    rows ``[start, stop)`` as one block and ``declined[dtype](start,
    stop, ntables, t, ptrs, io, out)`` lists the rows of it table ``t``
    declined.  ``finalize[dtype](ngroups, levels, m, w, emin, block,
    stride, carries, counts, out)`` is Equation 1 for ``float64``, ``float32``
    and ``float16`` (whose ``out`` is ``float32``: every value it writes
    is a ``float16``).  Addresses are ints; ``_ladder.c`` has the layouts."""

    def __init__(self, path: Path):
        self.path = path
        lib = ctypes.CDLL(str(path))
        self.block, self.declined, self.finalize = {}, {}, {}
        i64, ptr = ctypes.c_int64, ctypes.c_void_p
        for dtype, suffix in ((np.dtype(np.float64), "f64"),
                              (np.dtype(np.float32), "f32"),
                              (np.dtype(np.float16), "f16")):
            finalize = getattr(lib, f"ladder_finalize_{suffix}")
            finalize.restype = None
            finalize.argtypes = [i64, i64, i64, i64, i64, ptr, i64, ptr,
                                 ptr, ptr]
            self.finalize[dtype] = finalize
            if suffix == "f16":  # Equation 1 only: no ladder update
                continue
            block = getattr(lib, f"ladder_block_{suffix}")
            block.restype = i64
            block.argtypes = [i64, i64, i64, ptr, ptr]
            declined = getattr(lib, f"ladder_declined_{suffix}")
            declined.restype = None
            declined.argtypes = [i64, i64, i64, i64, ptr, ptr, ptr]
            self.block[dtype], self.declined[dtype] = block, declined


def load_ladder(compiler: str = "cc",
                cache_dir: str | os.PathLike | None = None) -> LadderKernel:
    """Load the kernel from ``cache_dir`` (default
    :func:`default_cache_dir`), building it with ``compiler`` first
    when no build for this source, these flags and this platform is
    cached.  A cached build starts no process."""
    try:
        source = SOURCE.read_bytes()
    except OSError as exc:
        raise KernelBuildError(
            f"{_REQUIREMENT.format(source=SOURCE)}, which is missing: {exc}"
        ) from exc
    cache = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    target = cache / build_name(source)
    if not target.exists():
        _build(compiler, target)
    try:
        return LadderKernel(target)
    except (OSError, AttributeError) as exc:
        raise KernelBuildError(
            f"{_REQUIREMENT.format(source=SOURCE)}; loading {target} "
            f"failed: {exc}") from exc
