"""Tests for repro.utils: bit manipulation and deterministic RNG streams."""

import pytest
from hypothesis import given, strategies as st

from repro.utils import (
    DeterministicRng,
    bit,
    bits,
    is_aligned,
    mask,
    popcount,
    sign_extend,
    to_signed,
    to_unsigned,
)


class TestMask:
    def test_zero_width(self):
        assert mask(0) == 0

    def test_small_widths(self):
        assert mask(1) == 1
        assert mask(4) == 0xF
        assert mask(8) == 0xFF

    def test_64_bits(self):
        assert mask(64) == (1 << 64) - 1

    def test_negative_width_rejected(self):
        with pytest.raises(ValueError):
            mask(-1)


class TestBitAccess:
    def test_bit_extraction(self):
        assert bit(0b1010, 1) == 1
        assert bit(0b1010, 0) == 0
        assert bit(0b1010, 3) == 1

    def test_bit_negative_index_rejected(self):
        with pytest.raises(ValueError):
            bit(1, -1)

    def test_bits_slice(self):
        assert bits(0xABCD, 15, 12) == 0xA
        assert bits(0xABCD, 7, 0) == 0xCD
        assert bits(0xABCD, 11, 8) == 0xB

    def test_bits_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            bits(0xFF, 0, 4)


class TestSignedness:
    def test_to_signed_positive(self):
        assert to_signed(5, 8) == 5

    def test_to_signed_negative(self):
        assert to_signed(0xFF, 8) == -1
        assert to_signed(0x80, 8) == -128

    def test_to_unsigned_wraps(self):
        assert to_unsigned(-1, 8) == 0xFF
        assert to_unsigned(-1, 64) == mask(64)

    def test_sign_extend(self):
        assert sign_extend(0xFF, 8, 16) == 0xFFFF
        assert sign_extend(0x7F, 8, 16) == 0x7F

    def test_sign_extend_narrowing_rejected(self):
        with pytest.raises(ValueError):
            sign_extend(0xFF, 16, 8)

    @given(st.integers(min_value=-(2**31), max_value=2**31 - 1))
    def test_signed_unsigned_roundtrip(self, value):
        assert to_signed(to_unsigned(value, 32), 32) == value

    @given(st.integers(min_value=0, max_value=2**16 - 1), st.integers(min_value=1, max_value=16))
    def test_to_unsigned_always_in_range(self, value, width):
        assert 0 <= to_unsigned(value, width) < (1 << width)


class TestPopcountAndAlignment:
    def test_popcount(self):
        assert popcount(0) == 0
        assert popcount(0b1011) == 3
        assert popcount(mask(64)) == 64

    def test_popcount_rejects_negative(self):
        with pytest.raises(ValueError):
            popcount(-1)

    def test_is_aligned(self):
        assert is_aligned(64, 64)
        assert not is_aligned(65, 64)

    def test_alignment_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            is_aligned(10, 3)


class TestDeterministicRng:
    def test_same_seed_same_sequence(self):
        a = DeterministicRng(42)
        b = DeterministicRng(42)
        assert [a.randint(0, 100) for _ in range(10)] == [b.randint(0, 100) for _ in range(10)]

    def test_different_seeds_differ(self):
        a = DeterministicRng(1)
        b = DeterministicRng(2)
        assert [a.randint(0, 10**9) for _ in range(5)] != [b.randint(0, 10**9) for _ in range(5)]

    def test_split_independent_of_consumption(self):
        a = DeterministicRng(7)
        a_child_before = a.split("x").randint(0, 10**9)
        b = DeterministicRng(7)
        for _ in range(100):
            b.random()
        b_child = b.split("x").randint(0, 10**9)
        assert a_child_before == b_child

    def test_split_labels_differ(self):
        root = DeterministicRng(7)
        assert root.split("a").randint(0, 10**9) != root.split("b").randint(0, 10**9)

    def test_choice_and_sample(self):
        rng = DeterministicRng(3)
        options = list(range(20))
        assert rng.choice(options) in options
        sampled = rng.sample(options, 5)
        assert len(set(sampled)) == 5

    def test_choice_empty_rejected(self):
        with pytest.raises(ValueError):
            DeterministicRng(1).choice([])

    def test_bernoulli_bounds(self):
        rng = DeterministicRng(5)
        assert rng.bernoulli(1.0) is True
        assert rng.bernoulli(0.0) is False
        with pytest.raises(ValueError):
            rng.bernoulli(1.5)

    def test_shuffle_preserves_elements(self):
        rng = DeterministicRng(11)
        items = list(range(10))
        shuffled = rng.shuffle(items)
        assert sorted(shuffled) == items
        assert items == list(range(10))  # original untouched

    def test_randbits_width(self):
        rng = DeterministicRng(9)
        for width in (1, 8, 64):
            assert 0 <= rng.randbits(width) < (1 << width)
        assert rng.randbits(0) == 0

