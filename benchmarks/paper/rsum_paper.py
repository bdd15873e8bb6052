"""Algorithm 2 verbatim: the paper's own RSUM, for the ablation study.

:class:`ScalarRsumPaper` is a literal transcription of Algorithm 2,
extracting against the *running sums* ``S(l)`` and keeping float state.
It matches the anchor-extraction formulation — the scalar oracle
:class:`paper.state.SummationState` and the engine's vectorised ladder
that ``repro.reproducible_sum`` and SQL's SUM run — bit-for-bit on all
inputs except round-to-nearest *ties*, where its (q, r) split — and in
unlucky cases its result — depends on input order.  It is the subject
of ``bench_ablation_extraction.py`` and the executable specification
both are cross-checked against (``tests/paper/test_rsum_paper.py``).
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.params import RsumParams
from repro.fp.ieee import exponent as _exponent

__all__ = ["ScalarRsumPaper"]


class ScalarRsumPaper:
    """Algorithm 2 verbatim: running-sum extraction, float state.

    State per level: the running sum ``S(l)`` (a float pinned to
    ``[1.5, 1.75) * ufp``) and carry counter ``C(l)``.  The extractor
    *is* the running sum, so extraction of a tie-valued input consults
    ``S(l)``'s last mantissa bit — i.e. the order of prior inputs.  See
    the ablation bench for a demonstration.

    Limitations compared with the production path (they are inherent to
    the verbatim algorithm, not bugs): the first extractor is derived
    from the first input value when ``grid_aligned=False``, no special
    handling of non-finite inputs, no exponent-range clamping.
    """

    def __init__(self, params: RsumParams, grid_aligned: bool = True):
        self.params = params
        self._m = params.fmt.mantissa_bits
        self._w = params.w
        self._L = params.levels
        self._grid_aligned = grid_aligned
        self._dt = (
            params.fmt.dtype.type if params.fmt.dtype is not None else np.float64
        )
        self.S: list = []
        self.C: list = []

    # -- Algorithm 2, line 1 (lazy): initialise state ------------------
    def _init_levels(self, first_value: float) -> None:
        # Paper: f > log2|b1| + m - W + 1, "chosen arbitrarily".
        f = _exponent(first_value) + self._m - self._w + 2
        if self._grid_aligned:
            f = -(-f // self._w) * self._w
        dt = self._dt
        self.S = [dt(math.ldexp(1.5, f - level * self._w)) for level in range(self._L)]
        self.C = [0] * self._L

    def _ufp(self, x) -> float:
        return math.ldexp(1.0, _exponent(float(x)))

    def add(self, value) -> None:
        dt = self._dt
        b = dt(value)
        if float(b) == 0.0:
            return
        if not self.S:
            self._init_levels(float(b))
        m, w = self._m, self._w
        # Lines 3-7: check extractor validity, demote levels if needed.
        while abs(float(b)) >= math.ldexp(1.0, w - 1) * self._ufp(self.S[0]) * 2.0**-m:
            old_top_ufp = self._ufp(self.S[0])
            for level in range(self._L - 1, 0, -1):
                self.S[level] = self.S[level - 1]
                self.C[level] = self.C[level - 1]
            # Line 7: S(1) <- 1.5 * 2**W * ufp(S(2)); after the shift the
            # second level holds the old first level, so this is the old
            # top ufp scaled up (also valid for L = 1).
            self.S[0] = dt(math.ldexp(1.5, w) * old_top_ufp)
            self.C[0] = 0
        # Lines 8-13: transform the value, update running sums.
        r = b
        for level in range(self._L):
            s = self.S[level]
            q = (s + r) - s  # running-sum extraction (the paper's line 11)
            self.S[level] = s + q
            r = r - q
        # Lines 14-18: carry-bit propagation.
        for level in range(self._L):
            s = self.S[level]
            ufp = self._ufp(s)
            d = math.floor((float(s) - 1.5 * ufp) / (0.25 * ufp))
            if d:
                self.S[level] = s - dt(d * 0.25 * ufp)
                self.C[level] += d

    def add_many(self, values) -> None:
        for v in values:
            self.add(v)

    def result(self):
        """Equation 1, evaluated from the last level upwards."""
        dt = self._dt
        if not self.S:
            return dt(0.0)
        acc = dt(0.0)
        for level in reversed(range(self._L)):
            s = self.S[level]
            ufp = self._ufp(s)
            term = (s - dt(1.5 * ufp)) + dt(self.C[level]) * dt(0.25 * ufp)
            acc = acc + term
        return acc
