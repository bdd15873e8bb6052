"""Algorithm 2 over software floats: the paper's Figure 2, executable.

The paper develops RSUM on a toy format (m = 4 mantissa bits, W = 2,
first extractor exponent f = 4, two levels) and walks through summing
b1 = 1.3125, b2 = 9, b3 = 4.25 — including a level demotion when b2
arrives — to the final result 14.

:class:`ToyRsum` runs Algorithm 2 verbatim on
:class:`~paper.softfloat.SoftFloat` values of *any* format, so that
worked example (and any other toy-format trace) can be executed and
asserted step by step.  It is an executable specification: slow,
exact, and format-generic — the binary32/64 production code in
:mod:`repro.core.state` is its fast sibling.

A finding from executing the example: the paper's *text* (Algorithm 2,
line 4) demotes while ``|b| >= 2**(W-1) * ulp(S(1))``, but its
*figure* demotes b2 = 9 only once — which requires the threshold
``2**W * ulp(S(1))`` (under the text's threshold, 9 >= 2 * ulp(96) = 8
forces a second demotion and the final result becomes 12, not the
figure's 14).  Both thresholds are sound for W <= m - 2;
``demote_threshold_shift`` selects between them, defaulting to the
figure's behaviour.  The production code keeps the text's conservative
bound, for which the NB blocking analysis is stated.
"""

from __future__ import annotations

from fractions import Fraction

from repro.fp.formats import TOY_M4, FloatFormat
from .softfloat import NEAREST_EVEN, RoundingMode, SoftFloat

__all__ = ["ToyRsum", "figure2_trace"]


class ToyRsum:
    """Reproducible summation on an arbitrary software float format."""

    def __init__(self, fmt: FloatFormat = TOY_M4, w: int = 2, levels: int = 2,
                 first_exponent: int | None = None,
                 mode: RoundingMode = NEAREST_EVEN,
                 demote_threshold_shift: int | None = None):
        if not 1 <= w <= fmt.mantissa_bits - 2:
            raise ValueError("W must be in [1, m-2]")
        self.fmt = fmt
        self.w = w
        self.levels = levels
        self.mode = mode
        # Figure 2's behaviour is shift = W; the text's Algorithm 2 says
        # shift = W - 1 (see module docstring).
        self.demote_threshold_shift = (
            demote_threshold_shift if demote_threshold_shift is not None else w
        )
        self._first_exponent = first_exponent
        self.S: list[SoftFloat] = []
        self.C: list[int] = []
        #: (description, level values) tuples for inspection/teaching.
        self.trace: list[tuple[str, list[Fraction]]] = []

    # -- helpers ----------------------------------------------------------
    def _lit(self, value) -> SoftFloat:
        return SoftFloat.from_real(value, self.fmt, self.mode)

    def _ufp(self, x: SoftFloat) -> Fraction:
        return x.ufp()

    def _record(self, what: str) -> None:
        self.trace.append((what, [s.exact() for s in self.S]))

    # -- Algorithm 2 -------------------------------------------------------
    def _init_levels(self, first_value: SoftFloat) -> None:
        import math

        if self._first_exponent is not None:
            f = self._first_exponent
        else:
            magnitude = abs(first_value.exact())
            f = (
                math.floor(math.log2(float(magnitude)))
                + self.fmt.mantissa_bits
                - self.w
                + 2
            )
        self.S = [
            self._lit(Fraction(3, 2) * Fraction(2) ** (f - level * self.w))
            for level in range(self.levels)
        ]
        self.C = [0] * self.levels
        self._record("init")

    def add(self, value) -> None:
        b = value if isinstance(value, SoftFloat) else self._lit(value)
        if b.exact() == 0:
            return
        if not self.S:
            self._init_levels(b)
        # Lines 4-7: extractor validity / demotion.
        while (
            abs(b.exact())
            >= Fraction(2) ** self.demote_threshold_shift * self.S[0].ulp()
        ):
            old_top_ufp = self._ufp(self.S[0])
            for level in range(self.levels - 1, 0, -1):
                self.S[level] = self.S[level - 1]
                self.C[level] = self.C[level - 1]
            self.S[0] = self._lit(
                Fraction(3, 2) * Fraction(2) ** self.w * old_top_ufp
            )
            self.C[0] = 0
            self._record("demote")
        # Lines 9-13: extract through the levels.
        r = b
        for level in range(self.levels):
            s = self.S[level]
            q = (s + r) - s
            self.S[level] = s + q
            r = r - q
        self._record(f"add {float(b.exact())}")
        # Lines 14-18: carry-bit propagation.
        for level in range(self.levels):
            s = self.S[level]
            ufp = self._ufp(s)
            lo = Fraction(3, 2) * ufp
            hi = Fraction(7, 4) * ufp
            quantum = Fraction(1, 4) * ufp
            d = (s.exact() - lo) // quantum
            if s.exact() - d * quantum >= hi:  # exact floor guard
                d += 1
            if d:
                self.S[level] = self._lit(s.exact() - d * quantum)
                self.C[level] += int(d)
                self._record("carry")

    def add_many(self, values) -> None:
        for value in values:
            self.add(value)

    def result(self) -> Fraction:
        """Equation 1, from the last level upwards (exact Fractions in,
        format-rounded arithmetic throughout)."""
        if not self.S:
            return Fraction(0)
        acc = self._lit(0)
        for level in reversed(range(self.levels)):
            s = self.S[level]
            ufp = self._ufp(s)
            term = (s - self._lit(Fraction(3, 2) * ufp)) + self._lit(
                Fraction(self.C[level]) * Fraction(1, 4) * ufp
            )
            acc = acc + term
        return acc.exact()


def figure2_trace() -> dict:
    """Execute the paper's Figure 2 example and return its milestones.

    Format m = 4, W = 2, f = 4, two levels; inputs 1.3125, 9, 4.25;
    result 1110_2 = 14.
    """
    rsum = ToyRsum(TOY_M4, w=2, levels=2, first_exponent=4)
    rsum.add(1.3125)
    after_b1 = [s.exact() for s in rsum.S]
    rsum.add(9)
    after_b2 = [s.exact() for s in rsum.S]
    rsum.add(4.25)
    after_b3 = [s.exact() for s in rsum.S]
    return {
        "after_b1": after_b1,
        "after_b2": after_b2,
        "after_b3": after_b3,
        "carries": list(rsum.C),
        "result": rsum.result(),
        "trace": rsum.trace,
    }
