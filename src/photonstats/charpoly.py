"""Characteristic-polynomial route to low-order counting cumulants.

The slow eigenvalue of a dressed Liouvillian is the root of its
characteristic polynomial that vanishes at zero counting fields.  Truncating
the polynomial at first or second order in that root gives closed-form
expressions whose counting-field derivatives yield the flux and the noise
without any eigenvalue tracking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "CharPolyCoeffs",
    "CoefficientDerivatives",
    "DegenerateRootError",
    "char_poly",
    "truncated_root",
    "coefficient_derivatives",
    "fourier_derivatives",
]

_MAX_DIM = 64
_A1_THRESHOLD = 1e-12


class DegenerateRootError(ValueError):
    """The stationary root is not simple; use the perturbation module."""


@dataclass(frozen=True)
class CharPolyCoeffs:
    """Monic characteristic polynomial, coefficients ascending in power.

    ``coefficients[j]`` multiplies z**j; ``coefficients[-1] == 1``.
    """

    coefficients: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.coefficients, dtype=complex)
        object.__setattr__(self, "coefficients", c)
        if abs(c[-1] - 1.0) > 1e-12:
            raise ValueError("polynomial must be monic")

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, z: complex) -> complex:
        return complex(np.polyval(self.coefficients[::-1], z))

    def roots(self) -> np.ndarray:
        return np.roots(self.coefficients[::-1])


def char_poly(a: np.ndarray) -> CharPolyCoeffs:
    """Monic characteristic polynomial of a dense matrix (dimension <= 64).

    Uses the Faddeev-LeVerrier trace recursion on a spectral-norm-rescaled
    copy; the rescaling is undone on the coefficients, guarding against
    overflow for ill-scaled generators.
    """
    a = np.asarray(a, dtype=complex)
    d = a.shape[0]
    if a.shape != (d, d):
        raise ValueError("matrix must be square")
    if d > _MAX_DIM:
        raise ValueError(f"dimension {d} exceeds supported maximum {_MAX_DIM}")
    scale = float(np.linalg.norm(a, 2))
    if scale == 0.0:
        coeffs = np.zeros(d + 1, dtype=complex)
        coeffs[-1] = 1.0
        return CharPolyCoeffs(coeffs)
    b = a / scale
    coeffs = np.zeros(d + 1, dtype=complex)
    coeffs[d] = 1.0
    m = np.eye(d, dtype=complex)
    for k in range(1, d + 1):
        bm = b @ m
        c = -np.trace(bm) / k
        coeffs[d - k] = c
        m = bm + c * np.eye(d)
    # undo the rescaling: a_j(A) = a_j(A/s) * s^(d-j)
    powers = scale ** np.arange(d, -1, -1, dtype=float)
    return CharPolyCoeffs(coeffs * powers)


def truncated_root(coeffs: CharPolyCoeffs, order: int) -> complex:
    """Root of the order-R truncated polynomial continuous with 0 at a0=0.

    R=1: lambda = -a0/a1.  R=2: the quadratic root of a2 z^2 + a1 z + a0
    on the branch that vanishes with a0, evaluated in the numerically
    stable product form.
    """
    a = coeffs.coefficients
    if abs(a[1]) < _A1_THRESHOLD * max(1.0, float(np.max(np.abs(a)))):
        raise DegenerateRootError(
            "linear coefficient a1 vanishes: stationary root is not simple; "
            "use the perturbation module instead"
        )
    if order == 1:
        return complex(-a[0] / a[1])
    if order == 2:
        a0, a1, a2 = a[0], a[1], a[2]
        disc = np.sqrt(a1 * a1 - 4.0 * a0 * a2)
        # align the square root with a1 so the sum below never cancels
        if (np.conj(a1) * disc).real < 0.0:
            disc = -disc
        q = -0.5 * (a1 + disc)
        # root pair is q/a2 and a0/q; the latter -> -a0/a1 as a0 -> 0
        return complex(a0 / q)
    raise ValueError("truncation order must be 1 or 2")


@dataclass(frozen=True)
class CoefficientDerivatives:
    """Field-derivatives at zero of the two lowest coefficients.

    ``rel_error`` is the relative weight of Fourier harmonics beyond the
    trigonometric degree of the coefficients, a pure roundoff/aliasing
    diagnostic.
    """

    da0: complex
    d2a0: complex
    da1: complex
    at_zero: CharPolyCoeffs
    rel_error: float
    n_samples: int


def fourier_derivatives(
    samples,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Fourier coefficients of a 2 pi-periodic function, then its value and
    its first and second derivative at x = 0.

    ``samples[j]`` (a number or an array) is the function at x = 2 pi j / n.
    For a trigonometric polynomial of degree below n / 2 the interpolant is
    the function itself, so the derivatives are exact up to roundoff; the
    Nyquist bin, empty at such degrees, is left out of them.
    """
    samples = np.asarray(samples, dtype=complex)
    n = samples.shape[0]
    coeffs = np.fft.fft(samples, axis=0) / n
    k = np.fft.fftfreq(n, 1.0 / n)
    k[n // 2] = 0.0
    k = k.reshape((n,) + (1,) * (samples.ndim - 1))
    return (
        coeffs,
        coeffs.sum(axis=0),
        (1j * k * coeffs).sum(axis=0),
        (-(k**2) * coeffs).sum(axis=0),
    )


def coefficient_derivatives(
    matrix_fn: Callable[[float], np.ndarray],
) -> CoefficientDerivatives:
    """Exact coefficient derivatives by trigonometric interpolation.

    The characteristic-polynomial coefficients of a counting-field-dressed
    generator are trigonometric polynomials in the field, of degree at most
    the matrix dimension (each matrix entry carries at most one e^{+-i x}
    factor).  Sampling one full period and differentiating the Fourier
    series is therefore exact up to roundoff, with no step-size trade-off.
    a0 is evaluated as the determinant, which is far more accurate than the
    trace recursion near its zero at vanishing field.
    """
    m0 = np.asarray(matrix_fn(0.0), dtype=complex)
    d = m0.shape[0]
    n = 1 << (2 * d + 1).bit_length()
    sign = -1.0 if d % 2 else 1.0
    at_zero = char_poly(m0)
    samples = np.empty((n, 2), dtype=complex)  # columns a0, a1
    for j in range(n):
        m = m0 if j == 0 else np.asarray(matrix_fn(2.0 * np.pi * j / n), dtype=complex)
        a1 = (at_zero if j == 0 else char_poly(m)).coefficients[1]
        samples[j] = sign * np.linalg.det(m), a1
    coeffs, _, d1, d2 = fourier_derivatives(samples)
    hi = np.abs(np.fft.fftfreq(n, 1.0 / n)) > d
    scale = np.maximum(np.abs(coeffs).max(axis=0), 1e-300)
    rel = float((np.abs(coeffs[hi]).max(axis=0) / scale).max())
    return CoefficientDerivatives(
        complex(d1[0]), complex(d2[0]), complex(d1[1]), at_zero, rel, n
    )
