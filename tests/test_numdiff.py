"""Finite-difference stencils with Richardson halving."""

import math

import numpy as np
import pytest

from photonstats.numdiff import StencilResult, central_derivative


def test_first_derivative_exp():
    res = central_derivative(lambda x: math.exp(2.0 * x), 1, 1e-3)
    assert res.value == pytest.approx(2.0, rel=1e-12)


def test_second_derivative_exp():
    res = central_derivative(lambda x: math.exp(2.0 * x), 2, 1e-3)
    assert res.value == pytest.approx(4.0, rel=1e-10)


def test_complex_function():
    res = central_derivative(lambda x: np.exp(1j * x), 1, 1e-3)
    assert res.value == pytest.approx(1j, rel=1e-12)


def test_richardson_beats_plain_stencil():
    f = lambda x: math.sin(3.0 * x + 0.2)
    exact = 3.0 * math.cos(0.2)
    res = central_derivative(f, 1, 1e-2)
    assert abs(res.value - exact) < abs(res.coarse - exact)


def test_error_estimate_tracks_disagreement():
    res = central_derivative(lambda x: math.exp(x), 1, 1e-2)
    assert res.error == abs(res.fine - res.coarse)
    assert res.rel_error <= res.error / abs(res.fine)


def test_exact_for_polynomials():
    # the 5-point stencil is exact through degree 4, so no Richardson residual
    res = central_derivative(lambda x: x**3 - 2 * x, 1, 0.1)
    assert res.value == pytest.approx(-2.0, abs=1e-13)
    assert res.error < 1e-12


def test_zero_function_rel_error():
    res = central_derivative(lambda x: 0.0, 1, 1e-3)
    assert res.value == 0.0
    assert res.rel_error == 0.0


def test_higher_orders_refused():
    with pytest.raises(ValueError):
        central_derivative(lambda x: x, 3)


def test_result_is_frozen():
    res = central_derivative(lambda x: x, 1)
    assert isinstance(res, StencilResult)
    with pytest.raises(AttributeError):
        res.value = 0.0
