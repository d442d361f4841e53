"""Independent reference values for the benchmark's output checks.

Each reference uses only a model's dressed generator (or its time-periodic
callback) and standard dense linear algebra; none of the package's cumulant,
stencil, eigenvalue-tracking or distribution code is involved.

(a) ``static_cumulants``: flux and noise of a time-independent generator from
    its pseudo-inverse (Flindt et al., PRL 100, 150601 (2008)), with L, L'
    and L'' taken exactly from four Fourier samples of the generator.
(b) ``periodic_cumulants``: flux and noise from the slow Floquet exponent
    log(mu)/T of a time-periodic generator, with the multiplier mu from an
    RK4 one-period propagator and derivatives by trigonometric interpolation.
(c) ``distribution_moments``: mean and variance of the two-branch MGF at
    time t from a Van Loan block exponential.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg as la

_FOURIER_SAMPLES = 4


def _counting_fields(model, mode: int, x: float):
    chi = [0.0] * model.n_modes
    chi[mode - 1] = x
    return tuple(chi), (0.0,) * model.n_baths


def generator_derivatives(generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """L(0), L'(0) and L''(0) of a generator that is trigonometric of degree 1.

    Every entry of a counting-field-dressed generator is a degree-1
    trigonometric polynomial in any single field, so four equispaced samples
    determine it exactly; the aliased degree-2 coefficient must vanish.
    """
    grid = 2.0 * np.pi * np.arange(_FOURIER_SAMPLES) / _FOURIER_SAMPLES
    samples = np.array([generator(x) for x in grid], dtype=complex)
    coeff = np.fft.fft(samples, axis=0) / _FOURIER_SAMPLES  # bins m = 0, 1, +-2, -1
    scale = max(float(np.abs(samples).max()), 1e-300)
    if float(np.abs(coeff[2]).max()) > 1e-12 * scale:
        raise ValueError("generator is not of trigonometric degree 1 in the field")
    plus, minus = coeff[1], coeff[3]
    return samples[0], 1j * (plus - minus), -(plus + minus)


def stationary_right_vector(l0: np.ndarray, trace: np.ndarray) -> np.ndarray:
    """Right null vector of l0 (smallest singular value), with trace 1."""
    _, _, vh = np.linalg.svd(l0)
    r = vh[-1].conj()
    return r / (trace @ r)


def cumulants_from_derivatives(
    l0: np.ndarray, l1: np.ndarray, l2: np.ndarray, trace: np.ndarray
) -> tuple[float, float]:
    """Flux and noise rate of the slow eigenvalue of l0 + x l1 + x^2 l2 / 2.

    lambda' = l L' r and lambda'' = l L'' r - 2 l L' R L' r, where R is the
    pseudo-inverse of l0 on the complement of its null space; R L' r is the
    solution x of the bordered system l0 x = Q L' r, l x = 0.
    """
    r = stationary_right_vector(l0, trace)
    lam1 = trace @ l1 @ r
    y = l1 @ r - lam1 * r
    dim = l0.shape[0]
    bordered = np.zeros((dim + 1, dim + 1), dtype=complex)
    bordered[:dim, :dim] = l0
    bordered[:dim, dim] = r
    bordered[dim, :dim] = trace
    sol = np.linalg.solve(bordered, np.concatenate([y, [0.0]]))
    lam2 = trace @ l2 @ r - 2.0 * (trace @ l1 @ sol[:dim])
    return float((1j * lam1).real), float((-lam2).real)


def static_cumulants(model, mode: int) -> tuple[float, float]:
    """Reference (a): flux and noise of drive mode ``mode`` of a static model."""

    def generator(x: float) -> np.ndarray:
        return model.dressed_liouvillian(*_counting_fields(model, mode, x))

    l0, l1, l2 = generator_derivatives(generator)
    return cumulants_from_derivatives(l0, l1, l2, model.trace_vector())


def one_period_multipliers(
    l_of_t_list, period: float, steps: int
) -> np.ndarray:
    """Eigenvalues of U(period) for each callback, by batched fixed-step RK4."""
    h = period / steps
    nodes = 0.5 * h * np.arange(2 * steps + 1)
    stack = np.array(
        [[l_of_t(t) for t in nodes] for l_of_t in l_of_t_list], dtype=complex
    )
    batch, dim = stack.shape[0], stack.shape[-1]
    u = np.broadcast_to(np.eye(dim, dtype=complex), (batch, dim, dim)).copy()
    for n in range(steps):
        a, b, c = stack[:, 2 * n], stack[:, 2 * n + 1], stack[:, 2 * n + 2]
        k1 = a @ u
        k2 = b @ (u + 0.5 * h * k1)
        k3 = b @ (u + 0.5 * h * k2)
        k4 = c @ (u + h * k3)
        u = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return np.linalg.eigvals(u)


def periodic_cumulants(
    model, mode: int, steps: int = 2048, n_chi: int = 8
) -> tuple[float, float]:
    """Reference (b): flux and noise from the slow Floquet exponent.

    lambda(chi) = log(mu(chi)) / T for the multiplier mu nearest 1, sampled
    at ``n_chi`` equispaced fields over one period of chi and differentiated
    at chi = 0 by trigonometric interpolation.
    """
    period = 2.0 * math.pi / model.params.omega_d
    grid = 2.0 * np.pi * np.arange(n_chi) / n_chi
    callbacks = [
        model.liouvillian_of_t(*_counting_fields(model, mode, x)) for x in grid
    ]
    mults = one_period_multipliers(callbacks, period, steps)
    nearest = mults[np.arange(n_chi), np.argmin(np.abs(mults - 1.0), axis=1)]
    lam = np.log(nearest) / period
    coeff = np.fft.fft(lam) / n_chi
    m = np.fft.fftfreq(n_chi, d=1.0 / n_chi)
    m[n_chi // 2] = 0.0  # the Nyquist bin has no symmetric partner
    d1 = complex(np.sum(1j * m * coeff))
    d2 = complex(np.sum(-(m**2) * coeff))
    return float((1j * d1).real), float((-d2).real)


def distribution_moments(
    model, rho0: np.ndarray, t: float, mode: int, nbar: float, sigma2: float
) -> tuple[float, float]:
    """Reference (c): mean and variance of one mode's photon number at time t.

    The MGF is [Z(chi) + conj Z(-chi)] / 2 times the Gaussian law
    exp(-i nbar chi - sigma2 chi^2 / 2), with Z(chi) = tr exp(L(chi) t) rho0.
    The chi-derivatives of exp(L(chi) t) at chi = 0 are the off-diagonal
    blocks of the exponential of [[L, L', L''/2], [0, L, L'], [0, 0, L]] t.
    """

    def generator(x: float) -> np.ndarray:
        return model.dressed_liouvillian(*_counting_fields(model, mode, x))

    l0, l1, l2 = generator_derivatives(generator)
    d = l0.shape[0]
    block = np.zeros((3 * d, 3 * d), dtype=complex)
    for k in range(3):
        block[k * d:(k + 1) * d, k * d:(k + 1) * d] = l0
    block[:d, d:2 * d] = l1
    block[d:2 * d, 2 * d:] = l1
    block[:d, 2 * d:] = 0.5 * l2
    prop = la.expm(block * t)
    trace = model.trace_vector()
    rho0 = np.asarray(rho0, dtype=complex)
    z0, z1, z2 = (trace @ prop[:d, k * d:(k + 1) * d] @ rho0 for k in range(3))
    # derivatives of the two-branch average at chi = 0
    m0 = z0.real
    m1 = 1j * z1.imag
    m2 = 2.0 * z2.real
    dlog1 = m1 / m0
    dlog2 = m2 / m0 - dlog1 * dlog1
    mean = float((1j * dlog1).real) + nbar
    variance = float((-dlog2).real) + sigma2
    return mean, variance
