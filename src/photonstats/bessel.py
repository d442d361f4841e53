"""Bessel functions of the first kind from Bessel's integral.

J_n(x) = (1/2π) ∫ cos(n t − x sin t) dt over one period.  The integrand is
periodic and entire, so the trapezoidal rule on m equispaced nodes is exact
up to aliased terms of size |J_{m−n}(x)|, which vanish to round-off once m
exceeds |x| + n by a margin (Trefethen & Weideman, SIAM Rev. 56, 385 (2014)).

It stays hand-written rather than ``scipy.special.jv``: importing
``scipy.special`` takes 0.2–0.3 s, which every CLI process would pay at
start-up (the default routes load no scipy at all), against the few
milliseconds that the Bessel factors of a whole sweep take here.
"""

from __future__ import annotations

import numpy as np

__all__ = ["bessel_j"]


def bessel_j(n: int, x: float) -> float:
    """J_n(x) for integer n >= 0 and real x, to an absolute error of ~1e-15."""
    if n < 0 or n != int(n):
        raise ValueError("order must be a nonnegative integer")
    n = int(n)
    if x == 0.0:
        return 1.0 if n == 0 else 0.0
    m = int(2 * (abs(x) + n)) + 64
    t = np.arange(m) * (2.0 * np.pi / m)
    # sum / m rather than np.mean: the same reduction, without its overhead
    return float(np.cos(n * t - x * np.sin(t)).sum() / m)
