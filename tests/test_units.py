"""Tests for unit helpers."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.units import ceil_div, cycles_for_delay


class TestCeilDiv:
    def test_exact_division(self):
        assert ceil_div(6, 3) == 2

    def test_rounds_up(self):
        assert ceil_div(7, 3) == 3

    def test_zero_numerator(self):
        assert ceil_div(0, 5) == 0

    def test_one(self):
        assert ceil_div(1, 100) == 1

    def test_rejects_zero_denominator(self):
        with pytest.raises(ValueError):
            ceil_div(1, 0)

    def test_rejects_negative_numerator(self):
        with pytest.raises(ValueError):
            ceil_div(-1, 2)

    @given(
        st.integers(min_value=0, max_value=10**9),
        st.integers(min_value=1, max_value=10**6),
    )
    def test_matches_float_ceiling(self, n, d):
        result = ceil_div(n, d)
        assert (result - 1) * d < n or n == 0
        assert result * d >= n


class TestCyclesForDelay:
    def test_fits_one_cycle(self):
        assert cycles_for_delay(151.0, 300.0) == 1

    def test_exact_boundary_is_one_cycle(self):
        assert cycles_for_delay(300.0, 300.0) == 1

    def test_just_over_boundary(self):
        assert cycles_for_delay(300.1, 300.0) == 2

    def test_zero_delay_still_one_cycle(self):
        assert cycles_for_delay(0.0, 300.0) == 1

    def test_paper_mul2_in_main_clock(self):
        # mul2 is 2950 ns; at a 300 ns cycle that is 10 cycles.
        assert cycles_for_delay(2950.0, 300.0) == 10

    def test_paper_mul3_in_main_clock(self):
        # mul3 is 7370 ns -> 25 cycles of 300 ns.
        assert cycles_for_delay(7370.0, 300.0) == 25

    def test_rejects_non_positive_cycle(self):
        with pytest.raises(ValueError):
            cycles_for_delay(10.0, 0.0)

    def test_rejects_negative_delay(self):
        with pytest.raises(ValueError):
            cycles_for_delay(-1.0, 300.0)

    @given(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        st.floats(min_value=0.1, max_value=1e4, allow_nan=False),
    )
    def test_covers_delay(self, delay, cycle):
        cycles = cycles_for_delay(delay, cycle)
        assert cycles >= 1
        assert cycles * cycle >= delay - 1e-6 * max(delay, 1.0)
