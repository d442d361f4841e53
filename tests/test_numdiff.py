"""Finite-difference stencils with Richardson halving."""

import math

import numpy as np
import pytest

from photonstats.numdiff import central_derivative


def plain_stencils(f, h):
    """The 5-point first- and second-derivative stencils at step h."""
    s = {x: f(x) for x in (0.0, h, -h, 2 * h, -2 * h)}
    first = (-s[2 * h] + 8 * s[h] - 8 * s[-h] + s[-2 * h]) / (12 * h)
    second = (-s[2 * h] + 16 * s[h] - 30 * s[0.0] + 16 * s[-h] - s[-2 * h]) / (12 * h * h)
    return first, second


def test_first_derivative_exp():
    d1, _, _ = central_derivative(lambda x: math.exp(2.0 * x), 1e-3)
    assert d1 == pytest.approx(2.0, rel=1e-12)


def test_second_derivative_exp():
    _, d2, _ = central_derivative(lambda x: math.exp(2.0 * x), 1e-3)
    assert d2 == pytest.approx(4.0, rel=1e-10)


def test_complex_function():
    d1, d2, _ = central_derivative(lambda x: np.exp(1j * x), 1e-3)
    assert d1 == pytest.approx(1j, rel=1e-12)
    assert d2 == pytest.approx(-1.0, rel=1e-9)


def test_richardson_beats_plain_stencil():
    a, b = 3.0, 0.2
    f = lambda x: math.sin(a * x + b)
    first, second = plain_stencils(f, 1e-2)
    d1, d2, _ = central_derivative(f, 1e-2)
    assert abs(d1 - a * math.cos(b)) < abs(first - a * math.cos(b))
    assert abs(d2 + a * a * math.sin(b)) < abs(second + a * a * math.sin(b))


def test_error_estimate_tracks_disagreement():
    # the larger of the two derivatives' relative h vs h/2 disagreements
    f = lambda x: math.exp(x) + math.sin(3.0 * x)
    coarse, fine = plain_stencils(f, 1e-2), plain_stencils(f, 5e-3)
    rel = [abs(b - a) / max(abs(a), abs(b)) for a, b in zip(coarse, fine)]
    _, _, rel_error = central_derivative(f, 1e-2)
    assert rel_error == max(rel) > 0.0


def test_exact_for_polynomials():
    # both 5-point stencils are exact through degree 4, so no Richardson residual
    for degree in (2, 3, 4):
        coeffs = [0.7, -2.0, 1.5, 3.0, -0.5][: degree + 1]
        f = lambda x: sum(c * x**k for k, c in enumerate(coeffs))
        d1, d2, rel_error = central_derivative(f, 0.1)
        assert d1 == pytest.approx(-2.0, abs=1e-12)
        assert d2 == pytest.approx(3.0, abs=1e-11)
        assert rel_error < 1e-12


def test_zero_function_rel_error():
    assert central_derivative(lambda x: 0.0, 1e-3) == (0.0, 0.0, 0.0)


def test_seven_samples_per_call():
    calls = []
    central_derivative(lambda x: calls.append(x) or math.exp(x), 1e-3)
    assert sorted(calls) == [-2e-3, -1e-3, -5e-4, 0.0, 5e-4, 1e-3, 2e-3]
