"""Tests for repro.netbase.units (the Rate value type)."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.netbase.units import Rate, bps, gbps, mbps


class TestConstruction:
    def test_constructors_scale_correctly(self):
        assert bps(1).bits_per_second == 1
        assert mbps(1).bits_per_second == 1_000_000
        assert gbps(1).bits_per_second == 1_000_000_000

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            Rate(-1.0)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            Rate(math.nan)

    def test_immutable(self):
        rate = gbps(10)
        with pytest.raises(AttributeError):
            rate._bps = 5  # type: ignore[misc]

    def test_accessors(self):
        assert gbps(2).bits_per_second == 2e9
        assert mbps(500).gigabits_per_second == 0.5


class TestArithmetic:
    def test_addition(self):
        assert gbps(10) + gbps(2.5) == gbps(12.5)

    def test_subtraction_floors_at_zero(self):
        assert gbps(5) - gbps(10) == bps(0)
        assert gbps(10) - gbps(4) == gbps(6)

    def test_surplus_over_is_signed(self):
        assert gbps(5).surplus_over(gbps(10)) == pytest.approx(-5e9)
        assert gbps(10).surplus_over(gbps(5)) == pytest.approx(5e9)

    def test_scaling(self):
        assert gbps(5) * 2 == gbps(10)
        assert 0.5 * gbps(5) == gbps(2.5)
        assert gbps(10) / 4 == gbps(2.5)

    def test_ratio_of_rates(self):
        assert gbps(5) / gbps(10) == 0.5

    def test_divide_by_zero_rate(self):
        with pytest.raises(ZeroDivisionError):
            gbps(1) / bps(0)

    def test_add_non_rate_is_type_error(self):
        with pytest.raises(TypeError):
            gbps(1) + 5  # type: ignore[operator]


class TestComparison:
    def test_ordering(self):
        assert mbps(999) < gbps(1) < gbps(2)
        assert gbps(1) <= gbps(1)
        assert gbps(2) > gbps(1)

    def test_equality_and_hash(self):
        assert gbps(1) == mbps(1000)
        assert hash(gbps(1)) == hash(mbps(1000))
        assert gbps(1) != gbps(2)

    def test_bool_and_is_zero(self):
        assert not bps(0)
        assert bps(0).is_zero()
        assert gbps(1)
        assert not gbps(1).is_zero()


class TestRendering:
    @pytest.mark.parametrize(
        "rate, text",
        [
            (bps(12), "12 bps"),
            (Rate(1_500), "1.500 kbps"),
            (mbps(250), "250.000 Mbps"),
            (gbps(10), "10.000 Gbps"),
            (Rate(1.2e12), "1.200 Tbps"),
        ],
    )
    def test_str(self, rate, text):
        assert str(rate) == text

    def test_repr_round_trips_the_display(self):
        assert repr(gbps(10)) == "Rate('10.000 Gbps')"


finite_rates = st.floats(
    min_value=0, max_value=1e15, allow_nan=False, allow_infinity=False
)


class TestProperties:
    @given(finite_rates, finite_rates)
    def test_addition_commutes(self, a, b):
        assert Rate(a) + Rate(b) == Rate(b) + Rate(a)

    @given(finite_rates, finite_rates)
    def test_subtraction_never_negative(self, a, b):
        assert (Rate(a) - Rate(b)).bits_per_second >= 0

    @given(finite_rates)
    def test_zero_is_identity(self, a):
        assert Rate(a) + Rate(0) == Rate(a)

    @given(finite_rates, finite_rates)
    def test_order_consistent_with_floats(self, a, b):
        assert (Rate(a) < Rate(b)) == (a < b)
