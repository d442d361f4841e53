"""Finite-difference stencils for derivatives of analytic scalar functions.

Fourth-order central differences with one Richardson halving; the returned
record carries the step, both estimates and their disagreement so callers
can propagate the error estimate into reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

__all__ = ["StencilResult", "central_derivative"]


@dataclass(frozen=True)
class StencilResult:
    """Derivative estimate with stencil provenance."""

    value: complex
    order: int
    h: float
    coarse: complex
    fine: complex

    @property
    def error(self) -> float:
        """Absolute disagreement between the two stencil widths."""
        return abs(self.fine - self.coarse)

    @property
    def rel_error(self) -> float:
        scale = max(abs(self.fine), abs(self.coarse))
        return self.error / scale if scale > 0 else 0.0


def _stencil_1(f: Callable[[float], complex], h: float) -> complex:
    return (-f(2 * h) + 8 * f(h) - 8 * f(-h) + f(-2 * h)) / (12 * h)


def _stencil_2(f: Callable[[float], complex], h: float) -> complex:
    return (
        -f(2 * h) + 16 * f(h) - 30 * f(0.0) + 16 * f(-h) - f(-2 * h)
    ) / (12 * h * h)


def central_derivative(
    f: Callable[[float], complex],
    order: int,
    h: float = 1e-3,
) -> StencilResult:
    """m-th derivative of f at 0 (m in {1, 2}) by a 4th-order central stencil.

    The stencil is re-evaluated at h/2 and the two estimates are
    extrapolated (effective order 6); the h and h/2 values are kept as
    coarse/fine for the disagreement diagnostic.
    """
    if order == 1:
        stencil = _stencil_1
    elif order == 2:
        stencil = _stencil_2
    else:
        raise ValueError("only first and second derivatives are supported")
    coarse = stencil(f, h)
    fine = stencil(f, h / 2)
    value = (16.0 * fine - coarse) / 15.0
    return StencilResult(value=value, order=order, h=h, coarse=coarse, fine=fine)
