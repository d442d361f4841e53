"""First-kind Bessel evaluation against an independent reference."""

import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given
from hypothesis import strategies as st

from photonstats.bessel import bessel_j


def test_reference_grid():
    xs = np.linspace(-200.0, 200.0, 801)
    for n in (0, 1, 2, 3, 5, 10, 20):
        for x in xs:
            assert bessel_j(n, float(x)) == pytest.approx(
                sp.jv(n, x), abs=1e-12
            )


def test_negative_argument_parity():
    for n in range(6):
        ref = (-1.0) ** n * bessel_j(n, 2.5)
        assert bessel_j(n, -2.5) == pytest.approx(ref, abs=1e-14)


def test_small_argument_series_branch():
    for n in (0, 1, 4):
        assert bessel_j(n, 0.05) == pytest.approx(sp.jv(n, 0.05), abs=1e-15)


def test_at_zero():
    assert bessel_j(0, 0.0) == 1.0
    assert bessel_j(3, 0.0) == 0.0


def test_first_zero_of_j0():
    x0 = sp.jn_zeros(0, 1)[0]
    assert abs(bessel_j(0, float(x0))) < 1e-12


def test_range_and_order_validation():
    with pytest.raises(ValueError):
        bessel_j(-1, 1.0)


@given(
    st.integers(min_value=0, max_value=25),
    st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
)
def test_bounded_and_matches_reference(n, x):
    value = bessel_j(n, x)
    assert abs(value) <= 1.0 + 1e-12
    assert value == pytest.approx(sp.jv(n, x), abs=1e-10)
