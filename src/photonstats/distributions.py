"""Photon-number distributions from moment-generating functions by FFT.

The probability of n photons is the Fourier coefficient of the MGF over one
period of the counting field, p_n = (1/2 pi) int M(chi) e^{i n chi} d chi.
Sampling M on a uniform N-point grid and applying an inverse FFT recovers
p_n exactly for any distribution supported on a window of N consecutive
integers; the window is centered on the MGF-derived mean.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .counting import (
    CountingFields,
    dynamical_mgf,
    flux_and_noise,
    gaussian_initial_mgf,
    initial_mgf,
)
from .models.jc import JcParams, jc_dressed_quasienergies
from .numdiff import central_derivative

__all__ = [
    "PhotonDistribution",
    "WindowOverflowError",
    "PoissonLaw",
    "GaussianLaw",
    "reconstruct_from_mgf",
    "reconstruct",
    "closed_mgf",
]

EPS_FFT = 1e-9
MIN_N = 128  # smallest FFT window; every window is a power of two
_SIGMA_COVERAGE = 6.0


class WindowOverflowError(ValueError):
    """Estimated support does not fit in the FFT window."""

    def __init__(self, needed: int, n: int):
        self.suggested_n = 1 << max(needed - 1, 1).bit_length()
        super().__init__(
            f"estimated support of {needed} integers exceeds the N={n} window; "
            f"suggested N = {self.suggested_n}"
        )


@dataclass(frozen=True)
class PoissonLaw:
    """Coherent-state photon statistics per resolved mode."""

    alphas: tuple[float, ...]

    def mgf(self, chi: Sequence[float]) -> complex:
        return initial_mgf(self.alphas, chi)

    def moments(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        means = tuple(a * a for a in self.alphas)
        return means, means


@dataclass(frozen=True)
class GaussianLaw:
    """Gaussian photon statistics (mean nbar, variance sigma2) per mode."""

    nbar: tuple[float, ...]
    sigma2: tuple[float, ...]

    def mgf(self, chi: Sequence[float]) -> complex:
        return gaussian_initial_mgf(self.nbar, self.sigma2, chi)

    def moments(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        return self.nbar, self.sigma2


@dataclass(frozen=True)
class PhotonDistribution:
    """Photon-number table over an integer window, one axis per mode."""

    offsets: tuple[np.ndarray, ...]
    probabilities: np.ndarray
    metadata: dict = field(default_factory=dict)

    @property
    def n_modes(self) -> int:
        return len(self.offsets)

    def mean(self, mode: int = 0) -> float:
        p = self._marginal(mode)
        return float(np.sum(self.offsets[mode] * p))

    def variance(self, mode: int = 0) -> float:
        p = self._marginal(mode)
        m = float(np.sum(self.offsets[mode] * p))
        return float(np.sum((self.offsets[mode] - m) ** 2 * p))

    def _marginal(self, mode: int) -> np.ndarray:
        p = self.probabilities
        if p.ndim == 1:
            if mode != 0:
                raise ValueError("single-mode distribution")
            return p
        return p.sum(axis=1 - mode)


# stencil step of the log-MGF derivatives that size the FFT window
_MOMENT_STEP = 1e-4


def _mgf_moments(mgf: Callable[..., complex], n_modes: int) -> tuple[list[float], list[float]]:
    """Mean and variance per mode from log-MGF derivatives at zero field."""
    means, variances = [], []
    for k in range(n_modes):

        def f(x: float, k: int = k) -> complex:
            chi = [0.0] * n_modes
            chi[k] = x
            return np.log(mgf(tuple(chi)))

        d1 = central_derivative(f, 1, _MOMENT_STEP)
        d2 = central_derivative(f, 2, _MOMENT_STEP)
        mean, variance = flux_and_noise(d1.value, d2.value)
        means.append(mean)
        variances.append(max(variance, 0.0))
    return means, variances


def reconstruct_from_mgf(
    mgf: Callable[[tuple[float, ...]], complex],
    n_modes: int,
    n: int = 1024,
    signed: bool = False,
    sampler: Callable[[np.ndarray], np.ndarray] | None = None,
) -> PhotonDistribution:
    """Inverse-FFT reconstruction of the photon-number distribution.

    ``mgf`` maps a tuple of counting angles (one per resolved mode) to a
    complex MGF value.  The integer window per mode is centered on the
    MGF-derived mean and must cover mean +/- 6 sigma, otherwise a
    :class:`WindowOverflowError` suggests a sufficient N.  The grid is
    sampled by calling ``mgf`` at every point of it, unless a ``sampler``
    maps the N grid angles to the (N,) * n_modes array of samples itself.

    With ``signed=True`` negative values are kept instead of clipped.  A
    lossless emitter measured tomographically yields a signed
    quasi-probability whose negative regions carry real interference weight;
    clipping them would corrupt the moments, whereas for dissipative
    dynamics negatives are pure FFT ringing and are clipped away.
    """
    if n < MIN_N or n & (n - 1):
        raise ValueError(f"N must be a power of two >= {MIN_N}, got {n}")
    if n_modes not in (1, 2):
        raise ValueError("only 1-mode marginals and 2-mode joints are supported")
    means, variances = _mgf_moments(mgf, n_modes)
    centers = []
    for mean, var in zip(means, variances):
        needed = int(math.ceil(2.0 * _SIGMA_COVERAGE * math.sqrt(var))) + 1
        if needed > n:
            raise WindowOverflowError(needed, n)
        centers.append(int(round(mean)))
    grid = 2.0 * np.pi * np.arange(n) / n
    shape = (n,) * n_modes
    if sampler is None:
        samples = np.array([mgf(chi) for chi in itertools.product(grid, repeat=n_modes)])
        samples = samples.reshape(shape)
    else:
        samples = np.asarray(sampler(grid), dtype=complex)
        if samples.shape != shape:
            raise ValueError(f"sampler returned shape {samples.shape}, expected {shape}")
    raw = np.fft.ifft(samples) if n_modes == 1 else np.fft.ifft2(samples)
    offsets, probs = _window(raw, centers, n)
    max_imag = float(np.abs(probs.imag).max())
    p = probs.real
    norm_before = float(p.sum())
    if signed:
        clipped = p
        clipped_mass = 0.0
    else:
        clipped = np.where(p < EPS_FFT, 0.0, p)
        clipped_mass = float(np.abs(p - clipped).sum())
    total = clipped.sum()
    if total <= 0:
        raise ValueError("reconstruction produced no probability mass")
    clipped = clipped / total
    meta = dict(
        n=n,
        signed=signed,
        norm_before_clip=norm_before,
        clipped_mass=clipped_mass,
        negative_mass=float(np.abs(p[p < 0.0]).sum()),
        max_imag=max_imag,
        mgf_mean=means,
        mgf_variance=variances,
    )
    return PhotonDistribution(
        offsets=tuple(offsets), probabilities=clipped, metadata=meta
    )


def _window(raw: np.ndarray, centers: list[int], n: int):
    """Relabel FFT bins (defined mod N) to integers centered on the means."""
    offsets = []
    out = raw
    for axis, center in enumerate(centers):
        lo = center - n // 2
        idx = (np.arange(lo, lo + n)) % n
        out = np.take(out, idx, axis=axis)
        offsets.append(np.arange(lo, lo + n))
    return offsets, out


# blocks of grid rows per distribution, one row-function call each: fixed, so
# that the samples do not depend on the mapping, and a few per worker
_ROW_BLOCKS = 16


def _mgf_block(payload) -> tuple[np.ndarray, int]:
    """MGF samples over the product of the resolved modes' angle arrays, one
    row per first-mode angle, and their count of expm fallbacks.  A sample
    is the dynamical MGF (matter-mediated exchange, from the dressed
    generator) times the initial photon law's MGF of the resolved modes."""
    model, rho0_vec, law, t, modes, angles = payload
    values, fallbacks = [], 0
    for chi_sel in itertools.product(*angles):
        chi = [0.0] * model.n_modes
        for m, x in zip(modes, chi_sel):
            chi[m - 1] = x
        fields = CountingFields(tuple(chi), (0.0,) * model.n_baths)
        dyn = dynamical_mgf(model, fields, rho0_vec, t)
        fallbacks += dyn.fallback
        values.append(dyn.value * law.mgf(chi_sel))
    return np.array(values).reshape(len(angles[0]), -1), fallbacks


def reconstruct(
    model,
    rho0_vec,
    law: PoissonLaw | GaussianLaw,
    t: float,
    modes: Sequence[int],
    n: int = 1024,
    mapper: Callable = map,
) -> PhotonDistribution:
    """Distribution of the selected drive modes at time t.

    The grid is sampled in blocks of rows, one row-function call per block
    through ``mapper(row_function, payloads)``, which must keep the order
    as the builtin ``map`` does; a process-pool map runs the blocks in
    workers.  ``expm_fallbacks`` in the metadata counts the samples, moment
    samples included, that fell back to expm.
    """
    modes = tuple(int(m) for m in modes)
    if any(not 1 <= m <= model.n_modes for m in modes):
        raise ValueError("resolved modes out of range")
    if len(set(modes)) != len(modes):
        raise ValueError("duplicate modes")

    fallbacks = []  # per call of the row function

    def mgf(chi_sel: tuple[float, ...]) -> complex:
        value, count = _mgf_block((model, rho0_vec, law, t, modes, [(x,) for x in chi_sel]))
        fallbacks.append(count)
        return value[0, 0]

    def sampler(grid: np.ndarray) -> np.ndarray:
        blocks = np.array_split(np.arange(n), _ROW_BLOCKS)
        inner = (grid,) * (len(modes) - 1)
        payloads = [(model, rho0_vec, law, t, modes, (grid[rows],) + inner) for rows in blocks]
        samples = np.empty((n, n ** (len(modes) - 1)), dtype=complex)
        for rows, (values, count) in zip(blocks, mapper(_mgf_block, payloads)):
            samples[rows] = values
            fallbacks.append(count)
        return samples.reshape((n,) * len(modes))

    dist = reconstruct_from_mgf(
        mgf,
        len(modes),
        n,
        sampler=sampler,
    )
    dist.metadata.update(
        time=t, model=type(model).__name__, modes=modes, expm_fallbacks=sum(fallbacks)
    )
    return dist


def closed_mgf(
    p: JcParams,
    weights: tuple[float, float],
    chi: tuple[float, float],
    t: float,
) -> complex:
    """Stroboscopic MGF of the lossless emitter from its quasienergy branches.

    M = sum_mu w_mu/2 [e^{i(E_mu(0)-E_mu(-chi)) t} + e^{-i(E_mu(0)-E_mu(chi)) t}]
    with the full-strength (dressed) quasienergies, so the FFT moments
    reproduce the closed-system mean and branch-spread variance.
    """
    w = np.asarray(weights, dtype=float)
    if w.shape != (2,) or np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
        raise ValueError("weights must be two nonnegative numbers summing to 1")
    e0 = jc_dressed_quasienergies(p, (0.0, 0.0))
    e_plus = jc_dressed_quasienergies(p, chi)
    e_minus = jc_dressed_quasienergies(p, (-chi[0], -chi[1]))
    total = 0.0 + 0.0j
    for mu in range(2):
        total += 0.5 * w[mu] * np.exp(1j * (e0[mu] - e_minus[mu]) * t)
        total += 0.5 * w[mu] * np.exp(-1j * (e0[mu] - e_plus[mu]) * t)
    return complex(total)
