"""Finite-difference stencils for derivatives of analytic scalar functions."""

from __future__ import annotations

from typing import Callable

__all__ = ["central_derivative"]


def central_derivative(
    f: Callable[[float], complex], h: float
) -> tuple[complex, complex, float]:
    """First and second derivatives of f at 0, and their stencil disagreement.

    Both come from 4th-order central stencils at the steps h and h/2,
    extrapolated by one Richardson halving (effective order 6), so f is
    called once at each of 0, +-h/2, +-h and +-2h.  The disagreement is the
    larger of the two derivatives' |fine - coarse| / max(|fine|, |coarse|),
    and 0 for a derivative whose estimates are both 0.
    """
    s = {x: f(x) for x in (0.0, h / 2, -h / 2, h, -h, 2 * h, -2 * h)}
    estimates = [
        ((-s[2 * d] + 8 * s[d] - 8 * s[-d] + s[-2 * d]) / (12 * d),
         (-s[2 * d] + 16 * s[d] - 30 * s[0.0] + 16 * s[-d] - s[-2 * d]) / (12 * d * d))
        for d in (h, h / 2)
    ]
    values, rel_errors = [], []
    for coarse, fine in zip(*estimates):
        values.append((16.0 * fine - coarse) / 15.0)
        scale = max(abs(fine), abs(coarse))
        rel_errors.append(abs(fine - coarse) / scale if scale > 0 else 0.0)
    return values[0], values[1], max(rel_errors)
