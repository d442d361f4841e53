"""Pump-modulated three-level system: RWA generator, PT, periodic route."""

import math

import numpy as np
import pytest
import scipy.special as sp

from photonstats.counting import (
    CountingFields,
    Method,
    conservation_check,
    cumulants,
    cumulants_perturbation,
    lambda0_nearest,
)
from photonstats.models.lambda_system import (
    LambdaModel,
    LambdaParams,
    LambdaPeriodicModel,
    _bessel_factors,
    _dissipators,
    _h_signal,
    _h_static,
    effective_couplings,
    lambda_lambda0_pt2,
)
from photonstats.perturbation import SubspacePartition, adiabatic_eliminate
from photonstats.superop import hamiltonian_superop

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


class TestFieldFreeParts:
    """The field-free parts that ``LambdaModel`` builds once per instance."""

    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_generator_matches_a_fresh_build(self, r):
        p = LambdaParams(r=r)
        model = LambdaModel(p)
        rng = np.random.default_rng(40 + r)
        samples = [
            ((float(a), float(b)), float(x))
            for a, b, x in rng.uniform(-math.pi, math.pi, size=(50, 3))
        ]
        samples += [(chi, 0.0) for chi, _ in samples[:10]]
        rng.shuffle(samples)
        for chi, xi in samples:
            cached = model.dressed_liouvillian(chi, (xi,))
            _bessel_factors.cache_clear()
            h0 = _h_static(p)
            fresh = (
                hamiltonian_superop(h0, h0)
                + _dissipators(p, xi)
                + hamiltonian_superop(_h_signal(p, chi), _h_signal(p, (0.0, 0.0)))
            )
            assert np.array_equal(cached, fresh)

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
        rep = cumulants_perturbation(LambdaModel(BASE), 2)
        oracle = cumulants(LambdaModel(BASE), 2, method=Method.ANALYTIC_ORACLE)
        assert rep.flux == pytest.approx(oracle.flux, rel=1e-8)
        assert rep.method is Method.PERTURBATION
