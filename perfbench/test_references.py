"""Tests of the benchmark's independent references (a), (b) and (c)."""

import math

import numpy as np
import pytest

import references
from photonstats.models.jc import JaynesCummingsModel, JcParams, jc_liouvillian
from photonstats.models.lambda_system import LambdaParams, LambdaPeriodicModel


def test_a_weak_dissipation_noise_law():
    for gamma in np.logspace(-4.0, -3.0, 5):
        p = JcParams(eps_delta=0.0, omega2=1.0, phi2=math.pi / 2, gamma=float(gamma))
        _, noise = references.static_cumulants(JaynesCummingsModel(p), 1)
        assert noise * 2.0 * gamma == pytest.approx(1.0, rel=0.01)


def test_a_matches_jc_flux_formula():
    rng = np.random.default_rng(3)
    for _ in range(20):
        e, o1, o2 = rng.uniform(-2, 2), rng.uniform(0.1, 2), rng.uniform(0.1, 2)
        phi, g = rng.uniform(0, 2 * math.pi), 10 ** rng.uniform(-3, 0)
        p = JcParams(eps_delta=e, omega1=o1, omega2=o2, phi2=phi, gamma=g)
        # stationary photon flux into mode 1, typed in from the closed form
        expected = o1 * (2 * e * o2 * math.sin(phi) - 4 * g * o1 - 4 * g * o2 * math.cos(phi)) / (
            e * e + 4 * g * g + 2 * o1 * o1 + 4 * o1 * o2 * math.cos(phi) + 2 * o2 * o2
        )
        flux, _ = references.static_cumulants(JaynesCummingsModel(p), 1)
        assert flux == pytest.approx(expected, rel=1e-9, abs=1e-14)


def test_generator_derivatives_reject_higher_harmonics():
    with pytest.raises(ValueError):
        references.generator_derivatives(lambda x: np.exp(2j * x) * np.eye(2))


class _ConstantPeriodic:
    """A time-independent jc generator dressed up as a periodic model."""

    n_modes, n_baths = 2, 1

    def __init__(self, params: JcParams, omega_d: float):
        self.static = JaynesCummingsModel(params)
        self.params = type("P", (), {"omega_d": omega_d})()

    def liouvillian_of_t(self, chi, xi):
        gen = self.static.dressed_liouvillian(chi, xi)
        return lambda t: gen


def test_b_equals_a_on_a_time_independent_generator():
    # weak drive: the slow branch stays isolated over the whole chi circle
    p = JcParams(eps_delta=0.3, omega1=0.05, omega2=0.03, phi2=1.0, gamma=0.3)
    periodic = _ConstantPeriodic(p, omega_d=1.0)
    for mode in (1, 2):
        a = references.static_cumulants(JaynesCummingsModel(p), mode)
        b = references.periodic_cumulants(periodic, mode, steps=512, n_chi=16)
        assert b[0] == pytest.approx(a[0], rel=1e-8)
        assert b[1] == pytest.approx(a[1], rel=1e-7)


def test_b_is_converged_on_the_fig4_working_point():
    p = LambdaParams(r=2).with_detuning(2.0)
    model = LambdaPeriodicModel(p)
    coarse = references.periodic_cumulants(model, 2, steps=1024, n_chi=8)
    fine = references.periodic_cumulants(model, 2, steps=2048, n_chi=16)
    assert coarse[0] == pytest.approx(fine[0], rel=1e-7)
    assert coarse[1] == pytest.approx(fine[1], rel=1e-6)
    assert fine[1] == pytest.approx(1.1716e-6, rel=1e-4)


def test_c_grows_like_a_times_t():
    p = JcParams(eps_delta=0.1, omega2=1.0, phi2=0.7, gamma=0.2)
    model = JaynesCummingsModel(p)
    rho0 = references.stationary_right_vector(
        jc_liouvillian(p), model.trace_vector()
    )
    for mode in (1, 2):
        flux, noise = references.static_cumulants(model, mode)
        m1, v1 = references.distribution_moments(model, rho0, 200.0, mode, 0.0, 0.0)
        m2, v2 = references.distribution_moments(model, rho0, 400.0, mode, 0.0, 0.0)
        assert (m2 - m1) / 200.0 == pytest.approx(flux, rel=1e-6)
        assert (v2 - v1) / 200.0 == pytest.approx(noise, rel=1e-5)


def test_c_adds_the_initial_law():
    p = JcParams(eps_delta=0.1, omega2=1.0, phi2=0.7, gamma=0.2)
    model = JaynesCummingsModel(p)
    rho0 = model.stationary_vector()
    m0, v0 = references.distribution_moments(model, rho0, 3.0, 1, 0.0, 0.0)
    m, v = references.distribution_moments(model, rho0, 3.0, 1, 1000.0, 25.0)
    assert m == pytest.approx(m0 + 1000.0, abs=1e-9)
    assert v == pytest.approx(v0 + 25.0, abs=1e-9)
