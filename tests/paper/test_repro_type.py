"""Tests for the repro<ScalarT,L> drop-in type."""

import numpy as np
import pytest

from paper.repro_type import ReproFloat
from repro.core import repro_spec_name
from repro.core.params import RsumParams


class TestNaming:
    def test_spec_names(self):
        assert repro_spec_name(RsumParams.double(2)) == "repro<double,2>"
        assert repro_spec_name(RsumParams.single(4)) == "repro<float,4>"

    def test_type_name_property(self):
        assert ReproFloat("float", 3).type_name == "repro<float,3>"


class TestOperatorPlusEquals:
    def test_scalar_accumulation(self):
        acc = ReproFloat("double")
        acc += 1.5
        acc += 2.5
        assert float(acc) == 4.0

    def test_merge_instances(self):
        a = ReproFloat("double")
        a += 10.0
        b = ReproFloat("double")
        b += 32.0
        a += b
        assert float(a) == 42.0

    def test_associativity_bitwise(self, rng):
        """The headline property: the type is associative."""
        values = rng.exponential(size=300)
        left = ReproFloat("double")
        for v in values:
            left += v
        # Arbitrary tree shape.
        chunks = np.array_split(values, 7)
        partials = []
        for chunk in chunks:
            p = ReproFloat("double")
            p.add_array(chunk)
            partials.append(p)
        tree = ReproFloat("double")
        tree += partials[3]
        tree += partials[0]
        tree += partials[6]
        tree += partials[1]
        tree += partials[5]
        tree += partials[2]
        tree += partials[4]
        assert tree.bits() == left.bits()

    def test_commutativity_bitwise(self):
        x, y = 0.1, 1e17
        a = ReproFloat("double")
        a += x
        a += y
        b = ReproFloat("double")
        b += y
        b += x
        assert a.bits() == b.bits()

    def test_add_array_equals_scalar_adds(self, exp_values):
        batch = ReproFloat("double")
        batch.add_array(exp_values[:500])
        loop = ReproFloat("double")
        for v in exp_values[:500]:
            loop += v
        assert batch.bits() == loop.bits()


class TestValueAccess:
    def test_float32_value_type(self):
        acc = ReproFloat("float")
        acc += np.float32(1.5)
        assert isinstance(acc.value, np.float32)

    def test_bits_for_both_widths(self):
        d = ReproFloat("double")
        d += 1.0
        assert d.bits() == 0x3FF0000000000000
        f = ReproFloat("float")
        f += 1.0
        assert f.bits() == 0x3F800000

    def test_equality_is_bit_level(self):
        a = ReproFloat("double")
        b = ReproFloat("double")
        a += 0.5
        b += 0.5
        assert a == b
        b += 2.0**-30
        assert a != b

    def test_copy_independent(self):
        a = ReproFloat("double")
        a += 1.0
        b = a.copy()
        b += 1.0
        assert float(a) == 1.0 and float(b) == 2.0

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(ReproFloat("double"))

    def test_repr_contains_name(self):
        acc = ReproFloat("double", 3)
        assert "repro<double,3>" in repr(acc)
