"""FFT reconstruction of photon-number distributions from MGFs."""

import math

import numpy as np
import pytest
from scipy.stats import poisson

from photonstats import distributions
from photonstats.counting import dynamical_mgf
from photonstats.distributions import (
    GaussianLaw,
    PhotonDistribution,
    PoissonLaw,
    WindowOverflowError,
    closed_mgf,
    reconstruct,
    reconstruct_from_mgf,
)
from photonstats.models.jc import JaynesCummingsModel, JcParams


def jc_model(**kw):
    return JaynesCummingsModel(JcParams(**kw))


class TestLaws:
    def test_poisson_moments(self):
        law = PoissonLaw((3.0,))
        means, variances = law.moments()
        assert means == (9.0,) and variances == (9.0,)

    def test_gaussian_moments(self):
        law = GaussianLaw((50.0,), (16.0,))
        assert law.moments() == ((50.0,), (16.0,))


class TestReconstructFromMgf:
    def test_pure_poisson(self):
        law = PoissonLaw((10.0,))
        dist = reconstruct_from_mgf(lambda chi: law.mgf(chi), 1, 1024)
        ref = poisson.pmf(np.clip(dist.offsets[0], 0, None), 100.0)
        assert np.abs(dist.probabilities - ref).max() < 2e-9
        assert dist.probabilities.sum() == pytest.approx(1.0, abs=1e-9)

    def test_moment_consistency(self):
        law = GaussianLaw((200.0,), (36.0,))
        dist = reconstruct_from_mgf(lambda chi: law.mgf(chi), 1, 512)
        assert dist.mean(0) == pytest.approx(200.0, rel=1e-3)
        assert dist.variance(0) == pytest.approx(36.0, rel=1e-3)

    def test_window_overflow_suggests_n(self):
        law = GaussianLaw((0.0,), (10000.0,))  # 12 sigma = 1200 > 128
        with pytest.raises(WindowOverflowError) as exc:
            reconstruct_from_mgf(lambda chi: law.mgf(chi), 1, 128)
        assert exc.value.suggested_n >= 1201

    def test_n_validation(self):
        law = PoissonLaw((1.0,))
        with pytest.raises(ValueError):
            reconstruct_from_mgf(lambda chi: law.mgf(chi), 1, 100)
        with pytest.raises(ValueError):
            reconstruct_from_mgf(lambda chi: law.mgf(chi), 1, 64)

    def test_doubling_n_is_stable(self):
        law = PoissonLaw((5.0,))
        d1 = reconstruct_from_mgf(lambda chi: law.mgf(chi), 1, 256)
        d2 = reconstruct_from_mgf(lambda chi: law.mgf(chi), 1, 512)
        common = {int(n): p for n, p in zip(d1.offsets[0], d1.probabilities)}
        for n, p in zip(d2.offsets[0], d2.probabilities):
            if int(n) in common:
                assert abs(common[int(n)] - p) < 1e-8

    def test_two_mode_grid_from_mgf_alone(self):
        # without a sampler every grid point is one mgf call, for either
        # mode count; the marginals of independent modes match their
        # one-mode reconstructions up to the clipping of FFT noise
        law = GaussianLaw((30.0, 60.0), (4.0, 9.0))
        joint = reconstruct_from_mgf(law.mgf, 2, 128)
        for mode in range(2):
            single = GaussianLaw((law.nbar[mode],), (law.sigma2[mode],))
            ref = reconstruct_from_mgf(single.mgf, 1, 128)
            assert np.array_equal(joint.offsets[mode], ref.offsets[0])
            assert np.abs(joint.probabilities.sum(axis=1 - mode) - ref.probabilities).max() < 1e-7

    def test_sampler_shape_is_checked(self):
        law = PoissonLaw((2.0,))
        with pytest.raises(ValueError, match=r"shape \(128, 128\), expected \(128,\)"):
            reconstruct_from_mgf(
                law.mgf, 1, 128, sampler=lambda grid: np.ones((grid.size, grid.size))
            )

    def test_clipping_is_recorded(self):
        law = PoissonLaw((4.0,))
        dist = reconstruct_from_mgf(lambda chi: law.mgf(chi), 1, 256)
        assert "clipped_mass" in dist.metadata
        assert dist.metadata["clipped_mass"] < 1e-6
        assert (dist.probabilities >= 0).all()


class TestReconstructDynamical:
    def test_zero_coupling_identity(self):
        m = jc_model(omega1=0.0, omega2=0.0, gamma=0.1)
        law = PoissonLaw((10.0,))
        dist = reconstruct(m, m.stationary_vector(), law, 13.0, (1,), 1024)
        ref = poisson.pmf(np.clip(dist.offsets[0], 0, None), 100.0)
        assert np.abs(dist.probabilities - ref).max() < 2e-9

    def test_normalization_and_moment_consistency(self):
        m = jc_model(eps_delta=0.0, omega2=1.0, gamma=0.1)
        law = GaussianLaw((1000.0,), (100.0,))
        dist = reconstruct(m, m.stationary_vector(), law, 25.0, (1,), 1024)
        assert dist.probabilities.sum() == pytest.approx(1.0, abs=1e-6)
        meta = dist.metadata
        assert dist.mean(0) == pytest.approx(meta["mgf_mean"][0], rel=1e-3)
        assert dist.variance(0) == pytest.approx(meta["mgf_variance"][0], rel=1e-3)

    def test_shape_preserving_translation(self):
        # phase 0, strong dissipation: mean decreases, variance nearly fixed
        m = jc_model(eps_delta=0.0, omega2=1.0, phi2=0.0, gamma=0.1)
        law = GaussianLaw((1000.0,), (100.0,))
        stats = []
        for t in (0.0, 25.0, 50.0):
            d = reconstruct(m, m.stationary_vector(), law, t, (1,), 1024)
            stats.append((d.mean(0), d.variance(0)))
        means = [s[0] for s in stats]
        assert means[0] > means[1] > means[2]
        v0 = stats[0][1]
        assert all(abs(v - v0) / v0 <= 0.05 for _, v in stats)

    def test_mode_validation(self):
        m = jc_model()
        law = PoissonLaw((1.0,))
        with pytest.raises(ValueError):
            reconstruct(m, m.stationary_vector(), law, 1.0, (3,))
        with pytest.raises(ValueError):
            reconstruct(m, m.stationary_vector(), law, 1.0, (1, 1), 128)

    def test_joint_reconstruction_marginals(self):
        m = jc_model(eps_delta=0.1, omega2=1.0, phi2=0.0, gamma=0.2)
        law = GaussianLaw((40.0, 40.0), (9.0, 9.0))
        dist = reconstruct(m, m.stationary_vector(), law, 5.0, (1, 2), 128)
        assert dist.probabilities.sum() == pytest.approx(1.0, abs=1e-6)
        assert dist.mean(0) == pytest.approx(
            dist.metadata["mgf_mean"][0], rel=1e-3
        )
        assert dist.mean(1) == pytest.approx(
            dist.metadata["mgf_mean"][1], rel=1e-3
        )

    def test_seven_moment_samples_then_the_grid(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return dynamical_mgf(*args)

        monkeypatch.setattr(distributions, "dynamical_mgf", counted)
        m = jc_model(gamma=0.2)
        reconstruct(m, m.stationary_vector(), GaussianLaw((40.0,), (9.0,)), 5.0, (1,), 128)
        assert len(calls) == 7 + 128


class NilpotentModel:
    """One counted mode whose generator is nilpotent at every field.

    Its eigenvectors are parallel, so every propagation leaves the spectral
    route for the expm fallback; L rho0 = 0 makes the dynamical MGF 1.
    """

    n_modes = 1
    n_baths = 1

    def __init__(self):
        self.generators = 0

    def dressed_liouvillian(self, chi, xi):
        self.generators += 1
        return np.array([[0.0, np.exp(1j * chi[0])], [0.0, 0.0]])

    def trace_vector(self):
        return np.array([1.0, 0.0], dtype=complex)

    def stationary_vector(self):
        return np.array([1.0, 0.0], dtype=complex)


class TestExpmFallbacks:
    def test_every_fallen_back_sample_is_counted(self):
        model = NilpotentModel()
        law = GaussianLaw((40.0,), (9.0,))
        dist = reconstruct(model, model.stationary_vector(), law, 2.0, (1,), 128)
        ref = reconstruct_from_mgf(law.mgf, 1, 128)
        assert np.array_equal(dist.offsets[0], ref.offsets[0])
        assert np.abs(dist.probabilities - ref.probabilities).max() < 1e-15
        # two propagations per sample; moment samples come on top of the grid
        assert dist.metadata["expm_fallbacks"] == model.generators // 2 > 128

    def test_count_survives_a_row_mapper(self):
        law = GaussianLaw((40.0,), (9.0,))
        calls = []

        def mapper(fn, payloads):
            calls.append(len(payloads))
            return [fn(payload) for payload in payloads]

        model = NilpotentModel()
        dist = reconstruct(model, model.stationary_vector(), law, 2.0, (1,), 128, mapper)
        ref = reconstruct(NilpotentModel(), model.stationary_vector(), law, 2.0, (1,), 128)
        # one call maps every block of grid rows, in order
        assert len(calls) == 1 and 1 < calls[0] <= 128
        assert np.array_equal(dist.probabilities, ref.probabilities)
        assert dist.metadata == ref.metadata
        assert dist.metadata["expm_fallbacks"] == model.generators // 2 > 128


class TestClosedMgf:
    P = JcParams(eps_delta=0.0, omega1=1.0, omega2=1.0, phi2=math.pi / 2, gamma=0.0)

    def test_unity_at_zero_field(self):
        assert closed_mgf(self.P, (0.5, 0.5), (0.0, 0.0), 9.0) == pytest.approx(1.0)

    def test_single_state_is_pure_phase_to_fourth_order(self):
        # a single dressed state drifts deterministically: the modulus
        # deficit of its MGF vanishes as chi^4 and the second cumulant is zero
        for t in (3.0, 11.0):
            d1 = 1.0 - abs(closed_mgf(self.P, (1.0, 0.0), (0.2, 0.0), t))
            d2 = 1.0 - abs(closed_mgf(self.P, (1.0, 0.0), (0.1, 0.0), t))
            assert d1 < 5e-3
            assert d1 / d2 == pytest.approx(16.0, rel=0.05)
            h = 1e-3
            vals = [
                closed_mgf(self.P, (1.0, 0.0), (c, 0.0), t) for c in (-h, 0.0, h)
            ]
            k2 = -(
                np.log(vals[0]) - 2.0 * np.log(vals[1]) + np.log(vals[2])
            ).real / h**2
            assert abs(k2) < 1e-4

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            closed_mgf(self.P, (0.9, 0.3), (0.1, 0.0), 1.0)

    def test_signed_reconstruction_recovers_branch_spread(self):
        t = 30.0
        dist = reconstruct_from_mgf(
            lambda chi: closed_mgf(self.P, (0.5, 0.5), (chi[0], 0.0), t),
            1,
            1024,
            signed=True,
        )
        assert dist.probabilities.sum() == pytest.approx(1.0, abs=1e-9)
        assert dist.variance(0) == pytest.approx(t * t / 2.0, rel=0.01)
        # tomographic quasi-probability: genuine negative interference weight
        assert dist.metadata["negative_mass"] > 0.1

    def test_arcsine_shape(self):
        # the balanced-weight quasi-distribution follows an arcsine law on
        # [-t, t]: symmetric, caustic peaks near the edges, and interference
        # fringes that drive the net inner-region weight negative
        t = 50.0
        dist = reconstruct_from_mgf(
            lambda chi: closed_mgf(self.P, (0.5, 0.5), (chi[0], 0.0), t),
            1,
            1024,
            signed=True,
        )
        p = dist.probabilities
        n = dist.offsets[0]
        peak_pos = n[np.argmax(p * (n > 0))]
        peak_neg = n[np.argmax(p * (n < 0))]
        assert peak_pos == -peak_neg
        assert 0.5 * t < peak_pos <= t
        inner = p[np.abs(n) <= 0.5 * t].sum()
        outer = p[np.abs(n) > 0.5 * t].sum()
        assert outer > 1.0 and inner < 0.0
        assert inner + outer == pytest.approx(1.0, abs=1e-9)


class TestPhotonDistribution:
    def test_marginal_errors(self):
        d = PhotonDistribution(
            offsets=(np.array([0, 1]),), probabilities=np.array([0.5, 0.5])
        )
        assert d.mean(0) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            d.mean(1)
