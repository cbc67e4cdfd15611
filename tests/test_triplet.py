"""Tests for the statistical triplet type."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.stats import Triplet
from tests.strategies import triplet_parts

NAN = float("nan")
NAN_MESSAGE = "triplet fields must not be NaN"


class TestConstruction:
    def test_exact(self):
        t = Triplet.exact(5)
        assert t.lb == t.ml == t.ub == 5.0

    def test_spread(self):
        t = Triplet.spread(100, 0.9, 1.25)
        assert t == Triplet(90.0, 100.0, 125.0)

    def test_spread_negative_value_flips_bounds(self):
        t = Triplet.spread(-100, 0.9, 1.25)
        assert t.lb == -125.0 and t.ub == -90.0

    def test_spread_rejects_inverted_factors(self):
        with pytest.raises(ValueError):
            Triplet.spread(100, 1.1, 1.2)
        with pytest.raises(ValueError):
            Triplet.spread(100, 0.9, 0.95)

    def test_rejects_bad_ordering(self):
        with pytest.raises(ValueError):
            Triplet(2.0, 1.0, 3.0)
        with pytest.raises(ValueError):
            Triplet(1.0, 3.0, 2.0)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Triplet(float("nan"), 1.0, 2.0)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ((NAN, 1.0, 2.0), NAN_MESSAGE),
            ((1.0, NAN, 2.0), NAN_MESSAGE),
            ((1.0, 2.0, NAN), NAN_MESSAGE),
            # A NaN is named even where the other fields misorder.
            ((NAN, 3.0, 1.0), NAN_MESSAGE),
        ] + [
            (
                fields,
                "triplet ordering violated: lb={} ml={} ub={}".format(*fields),
            )
            for fields in [
                (2.0, 1.0, 3.0), (1.0, 3.0, 2.0), (2.0, 3.0, 1.0),
                (3.0, 1.0, 2.0), (3.0, 2.0, 1.0),
            ]
        ],
    )
    def test_rejection_message(self, fields, message):
        with pytest.raises(ValueError) as info:
            Triplet(*fields)
        assert str(info.value) == message

    def test_zero(self):
        assert Triplet.zero() == Triplet.exact(0)


class TestArithmetic:
    def test_add(self):
        a = Triplet(1, 2, 3)
        b = Triplet(10, 20, 30)
        assert a + b == Triplet(11, 22, 33)

    def test_add_scalar(self):
        assert Triplet(1, 2, 3) + 10 == Triplet(11, 12, 13)

    def test_radd_enables_sum_builtin(self):
        total = sum([Triplet(1, 2, 3), Triplet(4, 5, 6)], Triplet.zero())
        assert total == Triplet(5, 7, 9)

    def test_sub_pairs_worst_case_bounds(self):
        a = Triplet(10, 20, 30)
        b = Triplet(1, 2, 3)
        assert a - b == Triplet(7, 18, 29)

    def test_mul_positive(self):
        assert Triplet(1, 2, 3) * 2 == Triplet(2, 4, 6)

    def test_mul_negative_flips(self):
        t = Triplet(1, 2, 3) * -1
        assert t == Triplet(-3, -2, -1)

    def test_div(self):
        assert Triplet(2, 4, 6) / 2 == Triplet(1, 2, 3)

    def test_div_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            Triplet(1, 2, 3) / 0

    def test_sum_static(self):
        assert Triplet.sum([]) == Triplet.zero()
        assert Triplet.sum([Triplet(1, 2, 3)] * 3) == Triplet(3, 6, 9)

    def test_max(self):
        result = Triplet.max([Triplet(1, 5, 9), Triplet(2, 3, 4)])
        assert result == Triplet(2, 5, 9)

    def test_max_empty_is_zero(self):
        assert Triplet.max([]) == Triplet.zero()


class TestQueries:
    def test_width(self):
        assert Triplet(1, 2, 4).width == 3

    def test_format(self):
        assert "100" in format(Triplet.exact(100), ".4g")


class TestProperties:
    @given(triplet_parts(), triplet_parts())
    def test_addition_preserves_ordering(self, p1, p2):
        t = Triplet(*p1) + Triplet(*p2)
        assert t.lb <= t.ml <= t.ub

    @given(triplet_parts(), triplet_parts())
    def test_subtraction_preserves_ordering(self, p1, p2):
        t = Triplet(*p1) - Triplet(*p2)
        assert t.lb <= t.ml <= t.ub

    @given(
        triplet_parts(),
        st.floats(min_value=-100, max_value=100, allow_nan=False),
    )
    def test_scaling_preserves_ordering(self, parts, factor):
        t = Triplet(*parts) * factor
        assert t.lb <= t.ml <= t.ub

    @given(triplet_parts(), triplet_parts())
    def test_addition_commutes(self, p1, p2):
        a, b = Triplet(*p1), Triplet(*p2)
        assert a + b == b + a

    @given(triplet_parts())
    def test_zero_is_identity(self, parts):
        t = Triplet(*parts)
        assert t + Triplet.zero() == t

    @given(triplet_parts())
    def test_width_non_negative(self, parts):
        assert Triplet(*parts).width >= 0
