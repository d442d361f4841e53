"""Counting engine: generating functions, slow eigenvalue, cumulant reports."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from photonstats import counting
from photonstats.counting import (
    CountingFields,
    Method,
    conservation_check,
    cumulants,
    cumulants_charpoly,
    cumulants_oracle,
    cumulants_spectral,
    default_step,
    dynamical_mgf,
    gaussian_initial_mgf,
    initial_mgf,
    lambda0_nearest,
    spectral_gap,
)
from photonstats.models.jc import (
    JaynesCummingsModel,
    JcParams,
    jc_exact_cumulants,
    jc_semiclassical_flux,
)

RNG = np.random.default_rng(5)


def model(**kw):
    return JaynesCummingsModel(JcParams(**kw))


class TestCountingFields:
    def test_validation(self):
        with pytest.raises(ValueError):
            CountingFields((math.nan,), (0.0,))

    def test_negation(self):
        f = CountingFields((0.1, -0.2), (0.3,))
        assert f.negated_chi().chi == (-0.1, 0.2)
        assert f.negated_chi().xi == (0.3,)

    def test_zero(self):
        z = CountingFields.zero(2, 1)
        assert z.chi == (0.0, 0.0) and z.xi == (0.0,)


class TestInitialMgf:
    def test_poisson_normalization_and_moments(self):
        assert initial_mgf((3.0,), (0.0,)) == pytest.approx(1.0)
        h = 1e-5
        d1 = (initial_mgf((3.0,), (h,)) - initial_mgf((3.0,), (-h,))) / (2 * h)
        assert (1j * d1).real == pytest.approx(9.0, rel=1e-6)

    def test_poisson_negative_amplitude(self):
        with pytest.raises(ValueError):
            initial_mgf((-1.0,), (0.0,))

    def test_gaussian_is_periodic(self):
        a = gaussian_initial_mgf((100.0,), (25.0,), (0.3,))
        b = gaussian_initial_mgf((100.0,), (25.0,), (0.3 + 2.0 * math.pi,))
        assert a == pytest.approx(b, rel=1e-12)

    def test_gaussian_moments(self):
        h = 1e-5
        f = lambda x: np.log(gaussian_initial_mgf((50.0,), (9.0,), (x,)))
        d1 = (f(h) - f(-h)) / (2 * h)
        d2 = (f(h) - 2 * f(0.0) + f(-h)) / (h * h)
        assert (1j * d1).real == pytest.approx(50.0, rel=1e-8)
        assert (-d2).real == pytest.approx(9.0, rel=1e-4)


class TestSlowEigenvalue:
    def test_zero_fields_gives_stationary_zero(self):
        m = model(gamma=0.01)
        lam = lambda0_nearest(m, CountingFields.zero(2, 1))
        assert abs(lam) < 1e-14

    def test_field_difference_identity(self):
        # equal drive fields: lambda0 depends on xi - chi only
        m = model(eps_delta=0.3, omega2=0.7, phi2=0.9, gamma=0.05)
        rng = np.random.default_rng(123)
        for _ in range(5):
            xi, chi = rng.uniform(-0.05, 0.05, size=2)
            a = lambda0_nearest(m, CountingFields((chi, chi), (xi,)))
            b = lambda0_nearest(m, CountingFields((0.0, 0.0), (xi - chi,)))
            assert abs(a - b) < 1e-10

    def test_spectral_gap_scale(self):
        gap = spectral_gap(model(eps_delta=0.0, omega2=0.0, omega1=1.0, gamma=0.01))
        assert 0.0 < gap <= 4 * 0.01 + 1e-12

    def test_default_step_bounded(self):
        m = model(gamma=1e-4)
        assert default_step(m) <= spectral_gap(m) / 20.0 + 1e-18


class TestMgf:
    def test_unity_at_zero_fields(self):
        m = model(gamma=0.05)
        rho0 = m.stationary_vector()
        val = dynamical_mgf(m, CountingFields.zero(2, 1), rho0, 7.0)
        assert val.value == pytest.approx(1.0, abs=1e-12)

    def test_asymptotic_matches_dynamical_at_long_times(self):
        m = model(eps_delta=0.1, gamma=0.2)
        rho0 = m.stationary_vector()
        f = CountingFields((0.02, 0.0), (0.0,))
        t = 400.0
        dyn = dynamical_mgf(m, f, rho0, t).value
        # [e^{lambda0(chi) t} + conj(e^{lambda0(-chi) t})] / 2
        lam_p = lambda0_nearest(m, f)
        lam_m = lambda0_nearest(m, f.negated_chi())
        asym = (np.exp(lam_p * t) + np.conj(np.exp(lam_m * t))) / 2.0
        assert dyn == pytest.approx(asym, rel=1e-3)


class TestCumulants:
    def test_spectral_matches_oracle(self):
        m = model(eps_delta=0.2, omega2=0.8, phi2=0.6, gamma=0.03)
        rep = cumulants_spectral(m, 1)
        flux, noise = jc_exact_cumulants(m.params, "mode1")
        assert rep.flux == pytest.approx(flux, rel=1e-8)
        assert rep.noise == pytest.approx(noise, rel=1e-6)
        assert not rep.flagged

    def test_charpoly_matches_oracle(self):
        m = model(eps_delta=0.2, omega2=0.8, phi2=0.6, gamma=0.03)
        rep = cumulants_charpoly(m, 1)
        flux, noise = jc_exact_cumulants(m.params, "mode1")
        assert rep.flux == pytest.approx(flux, rel=1e-9)
        assert rep.noise == pytest.approx(noise, rel=1e-8)

    def test_explicit_step_honored(self):
        m = model(gamma=0.1)
        rep = cumulants_spectral(m, 1, h=3e-4)
        assert rep.h == 3e-4

    def test_higher_cumulants_refused(self):
        m = model()
        for fn in (cumulants_spectral, cumulants_charpoly):
            with pytest.raises(ValueError):
                fn(m, 1, order=3)
        with pytest.raises(ValueError):
            cumulants(m, 1, order=3)

    def test_selector_validation(self):
        m = model()
        with pytest.raises(ValueError):
            cumulants_spectral(m, 3)
        with pytest.raises(ValueError):
            cumulants_spectral(m, "everything")

    def test_engine_imports_no_model_and_tables_every_method(self):
        tree = ast.parse(Path(counting.__file__).read_text(encoding="utf-8"))
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported.append(node.module or "")
                imported += [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                imported += [alias.name for alias in node.names]
        assert not [name for name in imported if "models" in name.split(".")]
        assert set(counting._DISPATCH) == set(Method)

    def test_dispatch(self):
        m = model(gamma=0.05)
        for method in (Method.SPECTRAL_FD, Method.CHARPOLY, Method.ANALYTIC_ORACLE):
            rep = cumulants(m, 1, method=method)
            assert rep.method is method

    def test_snr(self):
        m = model(eps_delta=0.1, gamma=0.05)
        rep = cumulants(m, 1, method=Method.ANALYTIC_ORACLE)
        assert rep.snr == pytest.approx(rep.flux / math.sqrt(rep.noise))

    def test_noise_nonnegative(self):
        for _ in range(10):
            p = JcParams(
                eps_delta=float(RNG.uniform(-2, 2)),
                omega2=float(RNG.uniform(0, 3)),
                phi2=float(RNG.uniform(0, math.pi)),
                gamma=float(10 ** RNG.uniform(-3, 0)),
            )
            rep = cumulants_oracle(JaynesCummingsModel(p), 1)
            assert rep.noise >= -1e-10


class TestConservation:
    def test_drive_balances_bath(self):
        m = model(eps_delta=0.1, omega2=1.0, phi2=0.9, gamma=0.01)
        rep = conservation_check(m, method=Method.SPECTRAL_FD)
        assert rep.passed
        assert abs(rep.flux_residual) <= 1e-8
        assert abs(rep.noise_residual) <= 1e-6

    def test_semiclassical_flux_matches_counting(self):
        m = model(eps_delta=0.15, omega2=0.9, phi2=1.2, gamma=0.02)
        rep = cumulants_oracle(m, 1)
        assert jc_semiclassical_flux(m.params, 1) == pytest.approx(rep.flux, rel=1e-10)

