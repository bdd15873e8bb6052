"""Tests for summation buffers (Section V-A)."""

import numpy as np
import pytest

from paper.buffer import DEFAULT_BUFFER_SIZE, BufferedReproFloat
from paper.repro_type import ReproFloat


class TestBasics:
    def test_default_buffer_size(self):
        assert BufferedReproFloat().buffer_size == DEFAULT_BUFFER_SIZE

    def test_invalid_buffer_size(self):
        with pytest.raises(ValueError):
            BufferedReproFloat(buffer_size=0)

    def test_append_and_value(self):
        buf = BufferedReproFloat(buffer_size=4)
        for v in (1.0, 2.0, 3.0):
            buf.append(v)
        assert float(buf) == 6.0

    def test_flush_on_full(self):
        buf = BufferedReproFloat(buffer_size=2)
        buf.append(1.0)
        assert buf.next == 1
        buf.append(2.0)  # triggers flush
        assert buf.next == 0
        assert float(buf.accumulator) == 3.0

    def test_iadd_scalar(self):
        buf = BufferedReproFloat(buffer_size=8)
        buf += 5.0
        buf += 7.0
        assert float(buf) == 12.0


class TestFlushInvariance:
    """Flush points cannot change the bits (the key buffer property)."""

    def test_buffer_size_invariance(self, exp_values):
        values = exp_values[:3000]
        reference = ReproFloat("double")
        reference.add_array(values)
        for bsz in (1, 2, 7, 64, 256, 1024, 5000):
            buf = BufferedReproFloat(buffer_size=bsz)
            for v in values:
                buf.append(v)
            assert buf.bits() == reference.bits(), f"bsz={bsz}"

    def test_random_manual_flushes(self, rng, exp_values):
        values = exp_values[:1000]
        reference = ReproFloat("double")
        reference.add_array(values)
        buf = BufferedReproFloat(buffer_size=64)
        for v in values:
            buf.append(v)
            if rng.random() < 0.05:
                buf.flush()
        assert buf.bits() == reference.bits()

    def test_append_array_equals_appends(self, exp_values):
        values = exp_values[:2000]
        one = BufferedReproFloat(buffer_size=100)
        one.append_array(values)
        two = BufferedReproFloat(buffer_size=100)
        for v in values:
            two.append(v)
        assert one.bits() == two.bits()

    def test_float32_buffer(self, rng):
        values = rng.exponential(size=500).astype(np.float32)
        buf = BufferedReproFloat("float", buffer_size=32)
        buf.append_array(values)
        reference = ReproFloat("float")
        reference.add_array(values)
        assert buf.bits() == reference.bits()


class TestMerging:
    def test_merge_buffered_pair(self, exp_values):
        values = exp_values[:1000]
        a = BufferedReproFloat(buffer_size=33)
        a.append_array(values[:400])
        b = BufferedReproFloat(buffer_size=57)
        b.append_array(values[400:])
        a.merge(b)
        reference = ReproFloat("double")
        reference.add_array(values)
        assert a.bits() == reference.bits()

    def test_merge_with_plain_repro(self):
        buf = BufferedReproFloat(buffer_size=8)
        buf.append(1.0)
        plain = ReproFloat("double")
        plain += 2.0
        buf += plain
        assert float(buf) == 3.0

    def test_to_repro_flushes(self):
        buf = BufferedReproFloat(buffer_size=100)
        buf.append(4.0)
        acc = buf.to_repro()
        assert float(acc) == 4.0
        assert buf.next == 0


class TestFootprint:
    def test_footprint_scales_with_bsz(self):
        small = BufferedReproFloat("double", 2, buffer_size=16)
        large = BufferedReproFloat("double", 2, buffer_size=1024)
        assert large.footprint_bytes() - small.footprint_bytes() == (1024 - 16) * 8

    def test_float_buffer_is_half(self):
        f = BufferedReproFloat("float", 2, buffer_size=256)
        d = BufferedReproFloat("double", 2, buffer_size=256)
        assert d.footprint_bytes() - f.footprint_bytes() == 256 * 4
