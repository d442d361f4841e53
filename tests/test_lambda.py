"""Pump-modulated three-level system: RWA generator, PT, periodic route."""

import math

import mpmath as mp
import numpy as np
import pytest
import scipy.special as sp

from photonstats.counting import (
    CountingFields,
    Method,
    conservation_check,
    cumulants,
    lambda0_nearest,
)
from photonstats.models.lambda_system import (
    LambdaModel,
    LambdaParams,
    LambdaPeriodicModel,
    _bessel_factors,
    effective_couplings,
    lambda_lambda0_pt2,
)
from photonstats.perturbation import SubspacePartition, adiabatic_eliminate
from photonstats.superop import dissipator_superop, hamiltonian_superop

BASE = LambdaParams()  # resonant pump, r = 1


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            LambdaParams(gamma=-0.1)
        with pytest.raises(ValueError):
            LambdaParams(omega_d=0.0)
        with pytest.raises(ValueError):
            LambdaParams(r=-1)

    def test_detuning_helper(self):
        p = BASE.with_detuning(1.5)
        assert p.eps_c_delta == pytest.approx(1.5)

    def test_rotating_frame_energies(self):
        p = LambdaParams(eps_b=0.0, eps_c=30.0, omega_p=30.0, omega_1=28.0)
        assert p.eps_b_delta == pytest.approx(2.0)
        assert p.eps_c_delta == pytest.approx(2.0)
        assert p.pump_resonant

    def test_nonresonant_pump_detected(self):
        p = LambdaParams(eps_c=31.0)
        assert not p.pump_resonant
        with pytest.raises(ValueError):
            lambda_lambda0_pt2(p, (0.1, 0.0))


class TestEffectiveCouplings:
    def test_mixing_angle_on_resonance(self):
        # eps_b_delta = eps_c_delta makes delta = 0, so theta = pi/2
        c = effective_couplings(BASE)
        assert c.theta == pytest.approx(math.pi / 2)
        assert c.eps_tilde_c - c.eps_tilde_b == pytest.approx(2.0 * BASE.omega_p0)

    def test_couplings_linear_in_signal(self):
        c1 = effective_couplings(BASE)
        c2 = effective_couplings(LambdaParams(omega_s=2 * BASE.omega_s))
        assert c2.omega_b == pytest.approx(2.0 * c1.omega_b)
        assert c2.omega_c == pytest.approx(2.0 * c1.omega_c)


class TestGenerator:
    def test_trace_conserving_at_zero_fields(self):
        m = LambdaModel(BASE)
        l = m.dressed_liouvillian((0.0, 0.0), (0.0,))
        assert np.abs(m.trace_vector() @ l).max() < 1e-12

    def test_counting_fields_break_trace_conservation(self):
        # the dressed generator must let the trace decay once a mode is counted
        m = LambdaModel(BASE)
        l = m.dressed_liouvillian((0.2, -0.1), (0.0,))
        assert np.abs(m.trace_vector() @ l).max() > 1e-6

    def test_stationary_state_is_ground_level(self):
        m = LambdaModel(LambdaParams(omega_s=0.0))
        l = m.dressed_liouvillian((0.0, 0.0), (0.0,))
        assert np.abs(l @ m.stationary_vector()).max() < 1e-12

    def test_tagged_split_sums_to_generator(self):
        m = LambdaModel(BASE)
        terms = m.tagged_terms((0.1, 0.2), 0.3)
        total = sum(mat for _, mat in terms)
        assert np.allclose(total, m.dressed_liouvillian((0.1, 0.2), (0.3,)))
        orders = sorted(o for o, _ in terms)
        assert orders == [0, 1]

    def test_field_count_validation(self):
        m = LambdaModel(BASE)
        with pytest.raises(ValueError):
            m.dressed_liouvillian((0.1,), (0.0,))


def _reference_terms(p, chi, xi):
    """(L0, L1) of one parameter set, assembled term by term from the
    Hamiltonians and dissipators."""
    j_split, j0, jr = _bessel_factors(p)
    ave = 0.5 * (p.eps_b_delta + p.eps_c_delta)
    delta = 0.5 * j_split * (p.eps_b_delta - p.eps_c_delta)
    h0 = np.diag([p.eps_a, ave + delta, ave - delta]).astype(complex)
    h0[1, 2] = h0[2, 1] = p.omega_p0

    def h_signal(chi):
        e1 = p.omega_s * j0 * np.exp(1j * (p.phi1 + chi[0]))
        e2 = p.omega_s * jr * np.exp(1j * (p.phi2 + chi[1]))
        vb, vc = (0.0, e1 + e2) if p.r % 2 == 0 else (e2, e1)
        h = np.zeros((3, 3), dtype=complex)
        h[1, 0], h[2, 0], h[0, 1], h[0, 2] = vb, vc, np.conj(vb), np.conj(vc)
        return h

    decay = np.zeros((9, 9), dtype=complex)
    for upper in (1, 2):
        c = np.zeros((3, 3), dtype=complex)
        c[0, upper] = 1.0
        decay += dissipator_superop(c, rate=2.0 * p.gamma, xi=xi)
    l0 = hamiltonian_superop(h0, h0) + decay
    return l0, hamiltonian_superop(h_signal(chi), h_signal((0.0, 0.0)))


def _random_params(rng, r):
    return LambdaParams(
        r=r, eps_b=rng.uniform(-1, 1), omega_1=rng.uniform(20, 40),
        omega_s=rng.uniform(0, 0.1), omega_p1=rng.uniform(0, 320),
        gamma=rng.uniform(0, 1), phi1=rng.uniform(-3, 3), phi2=rng.uniform(-3, 3),
    )


def _random_fields(rng):
    """(chi, xi) pairs: 20 with a bath field and 10 without."""
    fields = [((float(a), float(b)), float(x))
              for a, b, x in rng.uniform(-2 * math.pi, 2 * math.pi, size=(30, 3))]
    return fields[:20] + [(chi, 0.0) for chi, _ in fields[20:]]


class TestFieldFreeParts:
    """The one generator formula: the stacked field components, of which a
    single model is the one-row case."""

    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_generator_matches_a_fresh_build(self, r):
        rng = np.random.default_rng(40 + r)
        for p in [LambdaParams(r=r)] + [_random_params(rng, r) for _ in range(3)]:
            model = LambdaModel(p)
            for chi, xi in _random_fields(rng):
                l0, l1 = _reference_terms(p, chi, xi)
                bound = 1e-15 * np.abs(l0 + l1).max()
                assert np.abs(model.dressed_liouvillian(chi, (xi,)) - (l0 + l1)).max() <= bound
                (o0, t0), (o1, t1) = model.tagged_terms(chi, xi)
                assert (o0, o1) == (0, 1)
                assert np.abs(t0 - l0).max() <= bound and np.abs(t1 - l1).max() <= bound

    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_stacked_generators_equal_the_single_model_ones(self, r):
        rng = np.random.default_rng(50 + r)
        # a chunk at this r, with one point of each other r mixed in
        params = [_random_params(rng, r) for _ in range(6)]
        params += [_random_params(rng, other) for other in (0, 1, 2) if other != r]
        models = [LambdaModel(p) for p in params]
        l0, plus, minus = LambdaModel.field_components(models)
        assert l0.shape == (len(models), 9, 9) and plus.shape == minus.shape == (3,) + l0.shape
        for chi, xi in _random_fields(rng):
            phase = np.exp(1j * np.array(chi + (xi,)))[:, None, None, None]
            stack = l0 + (phase * plus).sum(axis=0) + (np.conj(phase) * minus).sum(axis=0)
            for model, generator in zip(models, stack):
                assert np.array_equal(generator, model.dressed_liouvillian(chi, (xi,)))

    def test_writing_into_a_returned_term_leaves_the_generator_unchanged(self):
        model = LambdaModel(BASE)
        before = model.dressed_liouvillian((0.1, 0.2), (0.0,))
        for _, term in model.tagged_terms((0.3, -0.4), 0.0):
            try:
                term += 1.0
            except ValueError:
                pass
        assert np.array_equal(model.dressed_liouvillian((0.1, 0.2), (0.0,)), before)


class TestClosedFormEigenvalue:
    def test_matches_generic_perturbation_theory(self):
        for chi in ((0.05, 0.0), (0.0, 0.08), (0.03, -0.04)):
            pt2 = lambda_lambda0_pt2(BASE, chi)
            rep_m = LambdaModel(BASE)
            terms = rep_m.tagged_terms(chi, 0.0)
            from photonstats.perturbation import PerturbationSplit, nhpt_eigenvalue
            from photonstats.superop import spectral_decompose

            l0 = sum(m for o, m in terms if o == 0)
            l1 = sum(m for o, m in terms if o == 1)
            mu = int(np.argmin(np.abs(spectral_decompose(l0).eigenvalues)))
            generic = nhpt_eigenvalue(PerturbationSplit(l0, l1), mu, order=2)
            assert abs(pt2 - generic) < 1e-15

    def test_matches_full_eigenvalue_to_second_order(self):
        p = LambdaParams(omega_s=1e-3)
        chi = (0.2, 0.0)
        pt2 = lambda_lambda0_pt2(p, chi)
        full = lambda0_nearest(LambdaModel(p), CountingFields(chi, (0.0,)))
        assert abs(pt2 - full) < 1e-11  # residual is O(omega_s^4)

    def test_adiabatic_elimination_agrees(self):
        m = LambdaModel(BASE)
        chi = (0.07, 0.0)
        terms = m.tagged_terms(chi, 0.0)
        part = SubspacePartition(slow=(0,), fast=tuple(range(1, 9)))
        eff = adiabatic_eliminate(terms, part, order=2)
        assert abs(complex(eff[0, 0]) - lambda_lambda0_pt2(BASE, chi)) < 1e-10


def _mp_slow_eigenvalue(p, weights, x):
    """:func:`lambda_lambda0_pt2` at chi = x * weights in mpmath, fed by the
    double-precision sideband factors, mixing angle and dressed energies."""
    _, j0, jr = _bessel_factors(p)
    c = effective_couplings(p)
    half = mp.mpf(c.theta) / 2

    def dressed(chi):
        e1 = mp.mpf(p.omega_s * j0) * mp.expj(mp.mpf(p.phi1) + chi[0])
        e2 = mp.mpf(p.omega_s * jr) * mp.expj(mp.mpf(p.phi2) + chi[1])
        vb, vc = (0, e1 + e2) if p.r % 2 == 0 else (e2, e1)
        return (-mp.sin(half) * vb + mp.cos(half) * vc, mp.cos(half) * vb + mp.sin(half) * vc)

    g = mp.mpf(p.gamma)
    energies = (mp.mpf(c.eps_tilde_b) - p.eps_a, mp.mpf(c.eps_tilde_c) - p.eps_a)
    total = mp.mpc(0)
    for o, o0, eps in zip(dressed([x * w for w in weights]), dressed([0, 0]), energies):
        total += o * (mp.conj(o0) - mp.conj(o)) / (1j * eps + g)
        total += mp.conj(o0) * (o - o0) / (-1j * eps + g)
    return total


class TestClosedFormOracle:
    @pytest.mark.parametrize("params, selector", [
        # the sampled oracle was off by 2.6e-10 (flux) and 3.1e-9 (noise) here
        (LambdaParams(r=3, omega_1=26.94, omega_p1=0.99, gamma=0.65, phi1=-0.32, phi2=1.07), 2),
        (BASE, 1),
        (LambdaParams(r=2, phi1=0.4, phi2=-1.3).with_detuning(-0.7), "drive"),
    ])
    def test_matches_an_extended_precision_derivative(self, params, selector):
        weights = {1: (1, 0), 2: (0, 1), "drive": (1, 1)}[selector]
        with mp.workdps(80):
            h = mp.mpf("1e-25")
            lam = [_mp_slow_eigenvalue(params, weights, x) for x in (-h, 0, h)]
            d1 = (lam[2] - lam[0]) / (2 * h)
            d2 = (lam[2] - 2 * lam[1] + lam[0]) / h**2
            flux, noise = float(mp.re(1j * d1)), float(-mp.re(d2))
        rep = cumulants(LambdaModel(params), selector, method=Method.ANALYTIC_ORACLE)
        assert abs(rep.flux - flux) <= 1e-13 * abs(flux)
        assert abs(rep.noise - noise) <= 1e-13 * abs(noise)
        assert rep.stencil_error == 0.0

    def test_bath_is_refused(self):
        with pytest.raises(ValueError, match="drive photons only"):
            cumulants(LambdaModel(BASE), "bath", method=Method.ANALYTIC_ORACLE)


class TestConservationAndCdt:
    def test_photon_ledger_closes(self):
        rep1 = cumulants(LambdaModel(BASE), 1, method=Method.ANALYTIC_ORACLE)
        rep2 = cumulants(LambdaModel(BASE), 2, method=Method.ANALYTIC_ORACLE)
        bath = cumulants(LambdaModel(BASE), "bath", method=Method.SPECTRAL_FD)
        assert abs(rep1.flux + rep2.flux + bath.flux) < 1e-6

    def test_spectral_conservation_check(self):
        rep = conservation_check(LambdaModel(BASE), method=Method.SPECTRAL_FD)
        assert rep.passed

    def test_destructive_pump_interference_kills_mode2(self):
        # first zero of J_r(Omega_p1 / 2 omega_d) for r = 1
        arg0 = float(sp.jn_zeros(1, 1)[0])
        p = LambdaParams(omega_p1=2.0 * BASE.omega_d * arg0)
        rep = cumulants(LambdaModel(p), 2, method=Method.ANALYTIC_ORACLE)
        assert abs(rep.flux) < 1e-10
        assert abs(rep.noise) < 1e-10


class TestPeriodicModel:
    def test_agrees_with_rwa_at_deep_drive_separation(self):
        p = LambdaParams(omega_d=400.0, omega_p1=800.0).with_detuning(-1.0)
        chi = (0.3, 0.1)
        fields = CountingFields(chi, (0.0,))
        num = lambda0_nearest(LambdaPeriodicModel(p, steps=1024), fields)
        rwa = lambda0_nearest(LambdaModel(p), fields)
        # residual is the beyond-RWA correction, suppressed by 1/omega_d
        assert abs(num - rwa) / abs(rwa) < 1e-5

    def test_trace_conserving(self):
        m = LambdaPeriodicModel(BASE, steps=256)
        l = m.dressed_liouvillian((0.0, 0.0), (0.0,))
        assert np.abs(m.trace_vector() @ l).max() < 1e-8

    def test_period(self):
        assert LambdaPeriodicModel(BASE).period == pytest.approx(
            2.0 * math.pi / BASE.omega_d
        )

    def test_perturbation_dispatch(self):
        rep = cumulants(LambdaModel(BASE), 2, method=Method.PERTURBATION)
        oracle = cumulants(LambdaModel(BASE), 2, method=Method.ANALYTIC_ORACLE)
        assert rep.flux == pytest.approx(oracle.flux, rel=1e-8)
        assert rep.method is Method.PERTURBATION
