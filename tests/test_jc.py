"""Two-mode driven emitter: generator structure, oracles, quasienergies."""

import math
from dataclasses import replace

import numpy as np
import pytest
from test_acceptance import probe_sweep_grid

from photonstats.charpoly import char_poly
from photonstats.counting import Method, cumulants
from photonstats.distributions import closed_mgf
from photonstats.models import jc as jc_module
from photonstats.models.jc import (
    JaynesCummingsModel,
    JcParams,
    jc_charpoly_analytic,
    jc_closed_statistics,
    jc_dressed_quasienergies,
    jc_exact_cumulants,
    jc_flux_oracle,
    jc_liouvillian,
    jc_liouvillian_stack,
    jc_semiclassical_flux,
    jc_stationary_bloch,
    jc_weak_gamma_noise,
)
from photonstats.numdiff import central_derivative

RNG = np.random.default_rng(9)


def random_params(rng=RNG, gamma_range=(-3, 0)):
    return JcParams(
        eps_delta=float(rng.uniform(-2, 2)),
        omega2=float(rng.uniform(0.1, 3)),
        phi1=float(rng.uniform(0, 2 * math.pi)),
        phi2=float(rng.uniform(0, 2 * math.pi)),
        gamma=float(10 ** rng.uniform(*gamma_range)),
    )


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            JcParams(gamma=-0.1)
        with pytest.raises(ValueError):
            JcParams(omega1=-1.0)
        with pytest.raises(ValueError):
            JcParams(eps_delta=math.inf)

    def test_derived_quantities(self):
        p = JcParams(omega1=1.0, omega2=2.0, phi1=0.1, phi2=0.6)
        assert p.phase_diff == pytest.approx(0.5)
        assert p.omega_phi_sq == pytest.approx(1 + 4 + 4 * math.cos(0.5))


class TestLiouvillian:
    def test_trace_conserving_at_zero_bath_field(self):
        for _ in range(5):
            p = random_params()
            l = jc_liouvillian(p, (0.3, -0.2), 0.0)
            # trace row (first Pauli component) is untouched by drive fields
            trace = np.array([1.0, 0, 0, 0])
            assert np.abs(trace @ jc_liouvillian(p)).max() < 1e-14
            assert abs((trace @ l)[0]) < 1e-14  # no trace decay without xi

    def test_stationary_vector_is_null(self):
        p = random_params()
        m = JaynesCummingsModel(p)
        l = jc_liouvillian(p)
        assert np.abs(l @ m.stationary_vector()).max() < 1e-12

    def test_stacked_generators_equal_the_scalar_formula(self):
        # the two jc generator formulas agree bit for bit, with and without
        # a bath field
        rng = np.random.default_rng(11)
        params = [random_params(rng, gamma_range=(-4, 0)) for _ in range(8)]
        params = [replace(p, omega1=float(rng.uniform(0, 3))) for p in params]
        generators = jc_liouvillian_stack(params)
        for a, b, x in rng.uniform(-2 * math.pi, 2 * math.pi, size=(30, 3)):
            for xi in (0.0, float(x)):
                chi = (float(a), float(b))
                stack = generators(chi, (xi,))
                assert stack.shape == (len(params), 4, 4)
                for p, generator in zip(params, stack):
                    assert np.array_equal(generator, jc_liouvillian(p, chi, xi))

    def test_charpoly_matches_analytic_quartic(self):
        for _ in range(5):
            p = random_params()
            chi, xi = RNG.uniform(-1, 1, size=2)
            ours = char_poly(jc_liouvillian(p, (chi, chi), xi)).coefficients
            ref = jc_charpoly_analytic(p, chi, xi).coefficients
            scale = max(1.0, np.abs(ref).max())
            assert np.abs(ours - ref).max() / scale < 1e-10


class TestFluxOracles:
    def test_four_way_agreement(self):
        for _ in range(10):
            p = random_params()
            m = JaynesCummingsModel(p)
            printed = jc_flux_oracle(p)
            exact = jc_exact_cumulants(p, "mode1")[0]
            semi = jc_semiclassical_flux(p, 1)
            spectral = cumulants(m, 1, method=Method.SPECTRAL_FD).flux
            scale = max(abs(printed), 1e-12)
            assert abs(exact - printed) / scale < 1e-9
            assert abs(semi - printed) / scale < 1e-9
            assert abs(spectral - printed) / scale < 1e-6

    def test_overdamped_single_drive_absorbs(self):
        p = JcParams(eps_delta=0.0, omega1=1.0, omega2=0.0, gamma=0.5)
        assert jc_flux_oracle(p) < 0.0

    def test_mode_exchange_antisymmetry(self):
        p = JcParams(eps_delta=0.4, omega1=1.0, omega2=0.7, phi2=0.8, gamma=0.01)
        swapped = JcParams(
            eps_delta=0.4, omega1=0.7, omega2=1.0, phi2=-0.8, gamma=0.01
        )
        i2 = jc_exact_cumulants(p, "mode2")[0]
        assert jc_flux_oracle(swapped) == pytest.approx(i2, rel=1e-9)

    def test_drive_total_balances_bath(self):
        p = random_params()
        i1 = jc_exact_cumulants(p, "mode1")[0]
        i2 = jc_exact_cumulants(p, "mode2")[0]
        i_drive = jc_exact_cumulants(p, "drive")[0]
        i_bath = jc_exact_cumulants(p, "bath")[0]
        assert i1 + i2 == pytest.approx(i_drive, abs=1e-12)
        assert i_drive == pytest.approx(-i_bath, abs=1e-12)

    def test_unknown_field_is_refused(self):
        with pytest.raises(ValueError, match="^unknown counting selector 'bogus'$"):
            jc_exact_cumulants(JcParams(), "bogus")
        with pytest.raises(ValueError, match="^mode 3 out of range$"):
            jc_exact_cumulants(JcParams(), 3)


class TestClosedFormOracle:
    def test_matches_pseudo_inverse_on_the_acceptance_grid(self):
        for p in probe_sweep_grid():
            model = JaynesCummingsModel(p)
            for selector in (1, 2, "drive", "bath"):
                rep = cumulants(model, selector, method=Method.PSEUDO_INVERSE)
                # PseudoInverse's drive noise loses digits to cancellation
                theirs = (rep.flux,) if selector == "drive" else (rep.flux, rep.noise)
                # the floor covers the rates that vanish at omega2 = 0
                for a, b in zip(jc_exact_cumulants(p, selector), theirs):
                    assert abs(a - b) <= 1e-11 * abs(b) + 1e-15, (p, selector)

    def test_photon_ledger(self):
        for p in probe_sweep_grid():
            drive, bath = jc_exact_cumulants(p, "drive"), jc_exact_cumulants(p, "bath")
            assert abs(drive[0] + bath[0]) <= 1e-14 * abs(bath[0])
            assert abs(drive[1] - bath[1]) <= 1e-14 * abs(bath[1])

    def test_does_not_run_the_charpoly_route(self, monkeypatch):
        sampled = ("char_poly", "fourier_derivatives", "field_samples")
        assert not set(sampled) & vars(jc_module).keys()

        def refuse(*args, **kwargs):
            raise AssertionError("the closed form samples no characteristic polynomial")

        monkeypatch.setattr("photonstats.charpoly.char_poly", refuse)
        monkeypatch.setattr("photonstats.charpoly.fourier_derivatives", refuse)
        monkeypatch.setattr("photonstats.counting.field_samples", refuse)
        p = JcParams(eps_delta=0.3, omega2=0.7, phi2=1.1, gamma=0.02)
        for selector in ("mode1", "mode2", "drive", "bath"):
            flux, noise = jc_exact_cumulants(p, selector)
            assert math.isfinite(flux) and math.isfinite(noise)


class TestNoise:
    def test_weak_gamma_law(self):
        p = JcParams(eps_delta=0.0, omega2=1.0, phi2=math.pi / 2, gamma=1e-4)
        assert jc_weak_gamma_noise(p) == pytest.approx(1.0 / (2.0 * p.gamma))
        assert jc_exact_cumulants(p, "mode1")[1] == pytest.approx(
            1.0 / (2.0 * p.gamma), rel=1e-3
        )

    def test_weak_gamma_vanishes_at_zero_phase(self):
        # phi = pi needs unequal amplitudes: equal ones make the
        # quasienergies degenerate and the law a 0/0 form
        for phi, o2 in ((0.0, 1.0), (math.pi, 0.7)):
            p = JcParams(eps_delta=0.0, omega2=o2, phi2=phi, gamma=1e-3)
            assert jc_weak_gamma_noise(p) == pytest.approx(0.0, abs=1e-20)

    def test_gamma_zero_diverges(self):
        with pytest.raises(ZeroDivisionError):
            jc_weak_gamma_noise(JcParams(gamma=0.0))

    def test_noise_divergence_scaling(self):
        # sigma^2 * gamma approaches a finite nonzero limit as gamma -> 0
        values = []
        for g in (1e-4, 1e-5, 1e-6):
            p = JcParams(eps_delta=0.0, omega2=1.0, phi2=math.pi / 2, gamma=g)
            values.append(jc_exact_cumulants(p, "mode1")[1] * g)
        assert values[-1] == pytest.approx(0.5, rel=1e-4)
        assert abs(values[2] - values[1]) < abs(values[1] - values[0])


class TestTurnovers:
    def test_flux_changes_sign_at_zero_detuning(self):
        grid = np.linspace(-2, 2, 81)
        flux = [
            jc_flux_oracle(
                JcParams(eps_delta=e, omega2=1.0, phi2=math.pi / 2, gamma=0.001)
            )
            for e in grid
        ]
        signs = np.sign(flux)
        assert signs[0] != signs[-1]

    def test_flux_has_interior_maximum_in_amplitude(self):
        grid = np.linspace(0.0, 3.0, 61)
        flux = [
            jc_flux_oracle(
                JcParams(eps_delta=0.1, omega2=o, phi2=math.pi / 2, gamma=0.001)
            )
            for o in grid
        ]
        imax = int(np.argmax(flux))
        assert 0 < imax < len(grid) - 1

    def test_flux_changes_sign_in_gamma(self):
        grid = np.logspace(-4, 0, 41)
        flux = [
            jc_flux_oracle(
                JcParams(eps_delta=0.1, omega2=1.0, phi2=math.pi / 2, gamma=g)
            )
            for g in grid
        ]
        assert np.sign(flux[0]) != np.sign(flux[-1])


class TestQuasienergies:
    def test_single_drive(self):
        p = JcParams(eps_delta=0.3, omega1=1.2, omega2=0.0)
        e1, e2 = jc_dressed_quasienergies(p)
        assert e2 == pytest.approx(0.5 * math.hypot(0.3, 2.4))
        assert e1 == -e2

    def test_degenerate_at_opposite_phases(self):
        p = JcParams(eps_delta=0.0, omega1=1.0, omega2=1.0, phi2=math.pi)
        assert jc_dressed_quasienergies(p) == (0.0, 0.0)

    def test_counting_derivative(self):
        p = JcParams(eps_delta=0.0, omega1=1.0, omega2=1.0, phi2=math.pi / 2)
        h = 1e-6
        e_p = jc_dressed_quasienergies(p, (h, 0.0))
        e_m = jc_dressed_quasienergies(p, (-h, 0.0))
        d2 = (e_p[1] - e_m[1]) / (2 * h)
        assert d2 == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-6)

    def test_dressed_variant_doubles_drive(self):
        p = JcParams(eps_delta=0.5, omega1=0.7, omega2=0.4, phi2=0.3)
        e = jc_dressed_quasienergies(p)[1]
        assert e == pytest.approx(0.5 * math.sqrt(0.25 + 4.0 * p.omega_phi_sq))


class TestClosedStatistics:
    BAL = JcParams(eps_delta=0.0, omega1=1.0, omega2=1.0, phi2=math.pi / 2, gamma=0.0)

    def test_single_floquet_state_variance_vanishes(self):
        for t in (10.0, 30.0, 100.0):
            _, var = jc_closed_statistics(self.BAL, (1.0, 0.0), 1, t)
            assert abs(var) < 1e-10

    def test_balanced_variance(self):
        for t in (10.0, 30.0, 100.0):
            _, var = jc_closed_statistics(self.BAL, (0.5, 0.5), 1, t)
            assert var == pytest.approx(t * t / 2.0, rel=1e-12)

    def test_pure_states_have_opposite_means(self):
        m1, _ = jc_closed_statistics(self.BAL, (1.0, 0.0), 1, 5.0)
        m2, _ = jc_closed_statistics(self.BAL, (0.0, 1.0), 1, 5.0)
        assert m1 == pytest.approx(-m2)
        assert abs(m1) == pytest.approx(5.0 / math.sqrt(2.0), rel=1e-12)

    @pytest.mark.parametrize("eps", [0.0, 0.5])
    @pytest.mark.parametrize("weights", [(1.0, 0.0), (0.8, 0.2)])
    @pytest.mark.parametrize("mode", [1, 2])
    def test_moments_are_log_mgf_derivatives(self, eps, weights, mode):
        p = replace(self.BAL, eps_delta=eps)
        t = 5.0

        def log_mgf(x):
            chi = (x, 0.0) if mode == 1 else (0.0, x)
            return np.log(closed_mgf(p, weights, chi, t))

        mean, var = jc_closed_statistics(p, weights, mode, t)
        d1 = central_derivative(log_mgf, 1, 1e-3).value
        d2 = central_derivative(log_mgf, 2, 1e-3).value
        assert mean == pytest.approx((1j * d1).real, rel=1e-8)
        assert var == pytest.approx((-d2).real, rel=1e-6, abs=1e-8)

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            jc_closed_statistics(self.BAL, (0.7, 0.7), 1, 1.0)


class TestStationaryBloch:
    def test_solves_stationarity(self):
        p = random_params()
        rx, ry, rz = jc_stationary_bloch(p)
        v = np.array([1.0, rx, ry, rz], dtype=complex)
        assert np.abs(jc_liouvillian(p) @ v).max() < 1e-12

    def test_lossless_resonant_limit(self):
        assert jc_stationary_bloch(JcParams(eps_delta=0.0, gamma=0.0)) == (
            0.0,
            0.0,
            0.0,
        )
