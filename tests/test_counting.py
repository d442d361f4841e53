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
    default_step,
    dynamical_mgf,
    gaussian_initial_mgf,
    initial_mgf,
    lambda0_nearest,
    spectral_gap,
)
from photonstats.models import jc, lambda_system
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
        rep = cumulants(m, 1, method=Method.SPECTRAL_FD)
        flux, noise = jc_exact_cumulants(m.params, "mode1")
        assert rep.flux == pytest.approx(flux, rel=1e-8)
        assert rep.noise == pytest.approx(noise, rel=1e-6)
        assert not rep.flagged

    def test_charpoly_matches_oracle(self):
        m = model(eps_delta=0.2, omega2=0.8, phi2=0.6, gamma=0.03)
        rep = cumulants(m, 1, method=Method.CHARPOLY)
        flux, noise = jc_exact_cumulants(m.params, "mode1")
        assert rep.flux == pytest.approx(flux, rel=1e-9)
        assert rep.noise == pytest.approx(noise, rel=1e-8)

    def test_explicit_step_honored(self):
        m = model(gamma=0.1)
        rep = cumulants(m, 1, method=Method.SPECTRAL_FD, h=3e-4)
        assert rep.h == 3e-4

    def test_higher_cumulants_refused(self):
        m = model()
        for method in (Method.SPECTRAL_FD, Method.CHARPOLY):
            with pytest.raises(ValueError):
                cumulants(m, 1, method=method, order=3)
        with pytest.raises(ValueError):
            cumulants(m, 1, order=3)

    def test_selector_validation(self):
        m = model()
        with pytest.raises(ValueError):
            cumulants(m, 3, method=Method.SPECTRAL_FD)
        with pytest.raises(ValueError):
            cumulants(m, "everything", method=Method.SPECTRAL_FD)

    def test_engine_imports_no_model_and_tables_every_method(self):
        def imported(module):
            tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
            names = []
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom):
                    names.append(node.module or "")
                    names += [alias.name for alias in node.names]
                elif isinstance(node, ast.Import):
                    names += [alias.name for alias in node.names]
            return names

        assert not [name for name in imported(counting) if "models" in name.split(".")]
        assert set(counting._ROUTES) == set(Method)
        # the engine alone builds reports; a model hook returns rates
        for module in (jc, lambda_system):
            assert "CumulantReport" not in imported(module)

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
            rep = cumulants(JaynesCummingsModel(p), 1, method=Method.ANALYTIC_ORACLE)
            assert rep.noise >= -1e-10


class TestFieldComponents:
    """Each generator is of trigonometric degree 1 in every counting field,
    with no cross terms: its field components are its only Fourier bins."""

    @staticmethod
    def fourier_bins(fn) -> tuple[np.ndarray, float]:
        """The 4 x 4 x 4 Fourier coefficients of fn over (chi_1, chi_2, xi),
        bin k the coefficient of e^{i k theta}, and the largest sample."""
        angles = 2.0 * math.pi * np.arange(4) / 4
        samples = np.array(
            [[[fn((a, b), (x,)) for x in angles] for b in angles] for a in angles]
        )
        return np.fft.fftn(samples, axes=(0, 1, 2)) / 64.0, float(np.abs(samples).max())

    @pytest.mark.parametrize("name", ["jc", "lambda", "harmonics"])
    def test_components_are_the_only_fourier_bins(self, name):
        if name == "harmonics":
            periodic = lambda_system.LambdaPeriodicModel(
                lambda_system.LambdaParams(r=2, phi1=0.3, phi2=-0.8).with_detuning(0.6)
            )
            bins, scale = self.fourier_bins(lambda c, x: periodic.time_harmonics(c, x)[1])
            l0, plus, minus = periodic._components
        else:
            static = (
                model(eps_delta=0.3, omega2=0.7, phi1=0.2, phi2=1.1, gamma=0.05)
                if name == "jc"
                else lambda_system.LambdaModel(lambda_system.LambdaParams(phi1=0.3, phi2=-0.8))
            )
            bins, scale = self.fourier_bins(static.dressed_liouvillian)
            components = type(static).field_components([static])
            l0, plus, minus = (a[..., 0, :, :] for a in components)
        expected = np.zeros_like(bins)
        expected[0, 0, 0] = l0
        for f in range(3):
            for sign, component in ((1, plus), (-1, minus)):
                expected[tuple(sign * (np.arange(3) == f))] = component[f]
        nonzero = np.abs(expected).max(axis=tuple(range(3, expected.ndim))) > 0.0
        assert np.count_nonzero(nonzero) == 6
        assert np.abs(bins - expected).max() <= 1e-13 * scale


class TestConservation:
    def test_drive_balances_bath(self):
        m = model(eps_delta=0.1, omega2=1.0, phi2=0.9, gamma=0.01)
        rep = conservation_check(m, method=Method.SPECTRAL_FD)
        assert rep.passed
        assert abs(rep.flux_residual) <= 1e-8
        assert abs(rep.noise_residual) <= 1e-6

    def test_semiclassical_flux_matches_counting(self):
        m = model(eps_delta=0.15, omega2=0.9, phi2=1.2, gamma=0.02)
        rep = cumulants(m, 1, method=Method.ANALYTIC_ORACLE)
        assert jc_semiclassical_flux(m.params, 1) == pytest.approx(rep.flux, rel=1e-10)

