"""Tests for the triangular-distribution feasibility math."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.stats import (
    ConstraintCheck,
    Triplet,
    prob_ge,
    prob_le,
    triangular_cdf,
    triangular_mean,
    triangular_variance,
)
from tests.strategies import triplet_parts


class TestTriangularCdf:
    def test_below_support(self):
        assert triangular_cdf(0.0, 1.0, 2.0, 3.0) == 0.0

    def test_above_support(self):
        assert triangular_cdf(4.0, 1.0, 2.0, 3.0) == 1.0

    def test_at_mode_symmetric(self):
        assert triangular_cdf(2.0, 1.0, 2.0, 3.0) == pytest.approx(0.5)

    def test_quarter_point(self):
        # Symmetric triangle on [0, 2] with mode 1: F(0.5) = 0.5^2/2 = 0.125
        assert triangular_cdf(0.5, 0.0, 1.0, 2.0) == pytest.approx(0.125)

    def test_degenerate_point_mass(self):
        assert triangular_cdf(5.0, 5.0, 5.0, 5.0) == 1.0
        assert triangular_cdf(4.999, 5.0, 5.0, 5.0) == 0.0

    def test_mode_at_lower_edge(self):
        # Decreasing density on [0, 2], mode 0: F(1) = 1 - (1)^2/2 = 0.75
        assert triangular_cdf(1.0, 0.0, 0.0, 2.0) == pytest.approx(0.75)

    def test_mode_at_upper_edge(self):
        # Increasing density on [0, 2], mode 2: F(1) = 1/4
        assert triangular_cdf(1.0, 0.0, 2.0, 2.0) == pytest.approx(0.25)

    def test_rejects_invalid_params(self):
        with pytest.raises(ValueError):
            triangular_cdf(0.0, 2.0, 1.0, 3.0)

    @given(
        triplet_parts(),
        st.floats(min_value=-2e6, max_value=2e6, allow_nan=False),
    )
    def test_cdf_in_unit_interval(self, parts, x):
        lb, ml, ub = parts
        value = triangular_cdf(x, lb, ml, ub)
        assert 0.0 <= value <= 1.0

    @given(triplet_parts())
    def test_cdf_monotone(self, parts):
        lb, ml, ub = parts
        span = max(ub - lb, 1.0)
        xs = [lb + span * f for f in (-0.5, 0.0, 0.25, 0.5, 0.75, 1.0, 1.5)]
        values = [triangular_cdf(x, lb, ml, ub) for x in xs]
        assert values == sorted(values)

    @given(
        parts=triplet_parts(),
        field=st.sampled_from((0, 1, 2)),
        step=st.floats(min_value=0.0, max_value=1.0),
        data=st.data(),
    )
    def test_cdf_does_not_rise_as_a_parameter_rises(
        self, parts, field, step, data
    ):
        # The walk's delay floor rests on this: at a fixed limit, a
        # triangle no lower in any of lb, ml or ub is no likelier to
        # meet it, up to the CDF's float rounding.
        lb, ml, ub = parts
        span = max(ub - lb, 1.0)
        ceiling = (ml, ub, ub + span)[field]
        raised = list(parts)
        raised[field] = min(
            ceiling, parts[field] + (ceiling - parts[field]) * step
        )
        x = data.draw(
            st.sampled_from((lb, ml, ub, raised[field]))
            | st.floats(min_value=lb - span, max_value=ub + 2 * span),
            label="x",
        )
        assert triangular_cdf(x, *raised) <= triangular_cdf(x, *parts) + 1e-15


class TestMoments:
    def test_mean_symmetric(self):
        assert triangular_mean(0.0, 1.0, 2.0) == pytest.approx(1.0)

    def test_variance_known_value(self):
        # Var of triangular(0, 1, 2) = (0+1+4-0-0-2)/18 = 1/6
        assert triangular_variance(0.0, 1.0, 2.0) == pytest.approx(1 / 6)

    def test_variance_of_point_mass_is_zero(self):
        assert triangular_variance(3.0, 3.0, 3.0) == 0.0


class TestProbHelpers:
    def test_prob_le_upper_bound(self):
        t = Triplet(10, 20, 30)
        assert prob_le(t, 30) == 1.0
        assert prob_le(t, 10) == 0.0

    def test_prob_ge_complements(self):
        t = Triplet(10, 20, 30)
        assert prob_ge(t, 10) == pytest.approx(1.0)
        assert prob_ge(t, 31) == 0.0

    def test_exact_triplet_is_step(self):
        t = Triplet.exact(100)
        assert prob_le(t, 100) == 1.0
        assert prob_le(t, 99.999) == 0.0


class TestConstraintCheck:
    def test_pass_at_full_confidence_needs_ub(self):
        check = ConstraintCheck.upper_bound(
            "area", Triplet(80, 90, 100), 100, confidence=1.0
        )
        assert check.passed

    def test_fail_at_full_confidence_when_ub_exceeds(self):
        check = ConstraintCheck.upper_bound(
            "area", Triplet(80, 90, 101), 100, confidence=1.0
        )
        assert not check.passed

    def test_partial_confidence(self):
        # Delay at 80% confidence, as in the paper's criteria.
        value = Triplet(90, 100, 110)
        check = ConstraintCheck.upper_bound("delay", value, 105, 0.8)
        assert check.probability == pytest.approx(
            prob_le(value, 105)
        )

    def test_margin(self):
        check = ConstraintCheck.upper_bound(
            "x", Triplet(1, 2, 3), 10, 0.5
        )
        assert check.margin == 8

    def test_rejects_bad_confidence(self):
        with pytest.raises(ValueError):
            ConstraintCheck.upper_bound("x", Triplet.exact(1), 2, 1.5)

    def test_str_mentions_state(self):
        ok = ConstraintCheck.upper_bound("x", Triplet.exact(1), 2, 1.0)
        bad = ConstraintCheck.upper_bound("x", Triplet.exact(3), 2, 1.0)
        assert "ok" in str(ok)
        assert "VIOLATED" in str(bad)
