"""Characteristic-polynomial coefficients, truncated roots, derivatives."""

import numpy as np
import pytest

from photonstats.charpoly import (
    CharPolyCoeffs,
    DegenerateRootError,
    char_poly,
    coefficient_derivatives,
    truncated_root,
)
from photonstats.counting import Method, cumulants
from photonstats.models.jc import (
    JaynesCummingsModel,
    JcParams,
    jc_charpoly_analytic,
    jc_liouvillian,
)

RNG = np.random.default_rng(77)


class TestCharPoly:
    def test_matches_numpy_poly(self):
        for _ in range(20):
            d = int(RNG.integers(2, 8))
            a = RNG.normal(size=(d, d)) + 1j * RNG.normal(size=(d, d))
            ours = char_poly(a).coefficients
            ref = np.poly(a)[::-1]  # ascending powers
            assert np.allclose(ours, ref, rtol=1e-9, atol=1e-9)

    def test_roots_are_eigenvalues(self):
        a = RNG.normal(size=(4, 4))
        roots = np.sort_complex(char_poly(a).roots())
        evs = np.sort_complex(np.linalg.eigvals(a))
        assert np.allclose(roots, evs, atol=1e-8)

    def test_zero_matrix(self):
        coeffs = char_poly(np.zeros((3, 3))).coefficients
        assert np.allclose(coeffs, [0, 0, 0, 1])

    def test_ill_scaled_matrix(self):
        a = 1e8 * (RNG.normal(size=(3, 3)))
        ours = char_poly(a).coefficients
        ref = np.poly(a)[::-1]
        assert np.allclose(ours, ref, rtol=1e-9)

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            char_poly(np.zeros((65, 65)))
        with pytest.raises(ValueError):
            char_poly(np.zeros((2, 3)))

    def test_monic_enforced(self):
        with pytest.raises(ValueError):
            CharPolyCoeffs(np.array([1.0, 2.0, 3.0]))

    def test_evaluation(self):
        p = CharPolyCoeffs(np.array([2.0, 0.0, 1.0]))  # z^2 + 2
        assert p(1j) == pytest.approx(1.0)
        assert p.degree == 2


class TestTruncatedRoot:
    def test_linear_truncation(self):
        coeffs = CharPolyCoeffs(np.array([0.02, 2.0, 3.0, 1.0], dtype=complex))
        assert truncated_root(coeffs, 1) == pytest.approx(-0.01)

    def test_quadratic_branch_vanishes_with_a0(self):
        coeffs = CharPolyCoeffs(np.array([1e-9, 1.0, 5.0, 1.0], dtype=complex))
        root = truncated_root(coeffs, 2)
        # the selected branch tends to -a0/a1 as a0 -> 0
        assert root == pytest.approx(-1e-9, rel=1e-6)

    def test_quadratic_is_exact_root(self):
        coeffs = CharPolyCoeffs(np.array([0.3, 1.5, 2.0, 1.0], dtype=complex))
        z = truncated_root(coeffs, 2)
        assert 2.0 * z * z + 1.5 * z + 0.3 == pytest.approx(0.0, abs=1e-14)

    def test_degenerate_a1_raises(self):
        coeffs = CharPolyCoeffs(np.array([0.0, 0.0, 1.0, 1.0], dtype=complex))
        with pytest.raises(DegenerateRootError):
            truncated_root(coeffs, 1)

    def test_order_validation(self):
        coeffs = CharPolyCoeffs(np.array([0.0, 1.0, 1.0], dtype=complex))
        with pytest.raises(ValueError):
            truncated_root(coeffs, 3)


class TestCoefficientDerivatives:
    def test_against_closed_form_quartic(self):
        # with equal drive fields the quartic depends on exp(i chi) only,
        # so its lowest coefficients have elementary chi-derivatives
        p = JcParams(eps_delta=0.3, omega2=0.8, phi2=0.4, gamma=0.05)
        derivs = coefficient_derivatives(
            lambda x: jc_liouvillian(p, (x, x), 0.0)
        )
        w2, g = p.omega_phi_sq, p.gamma
        # a0 = 16 w2 g^2 (1 - e^{i chi}); a1 = g(-8 w2 e^{i chi} + ...)
        assert derivs.da0 == pytest.approx(-16j * w2 * g * g, rel=1e-10)
        assert derivs.d2a0 == pytest.approx(16.0 * w2 * g * g, rel=1e-10)
        assert derivs.da1 == pytest.approx(-8j * w2 * g, rel=1e-10)
        assert derivs.rel_error < 1e-10


class TestCumulantRates:
    def test_degenerate_root_raises(self):
        # gamma = 0 makes a1(0) = 0: the stationary root is not simple
        p = JcParams(eps_delta=0.0, omega2=1.0, gamma=0.0)
        with pytest.raises(DegenerateRootError):
            cumulants(JaynesCummingsModel(p), 1, method=Method.CHARPOLY)
