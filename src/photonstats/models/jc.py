"""Two-mode driven two-level system with single-photon decay.

A two-level emitter is driven by two coherent modes with Rabi amplitudes
Omega_1, Omega_2 and phases phi_1, phi_2, and decays into a monitored bath
at rate gamma.  In the rotating frame the dressed generator acts on the
Pauli 4-vector (rho_0, rho_x, rho_y, rho_z) with rho_alpha = tr[rho sigma_alpha].

Counting conventions (fixed here once, validated by cross-method tests):

* a drive counting field chi_k enters by shifting the drive phase of the
  left-multiplying Hamiltonian, phi_k -> phi_k - chi_k;
* the bath counting field xi multiplies the recycling term by exp(-i xi).

With these signs the flux of an overdamped weak probe is negative
(absorption), and the slow eigenvalue with equal drive fields depends on
xi - chi only, which is what makes the drive and bath ledgers consistent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..charpoly import CharPolyCoeffs
from ..counting import flux_and_noise

__all__ = [
    "JcParams",
    "JaynesCummingsModel",
    "jc_liouvillian",
    "jc_charpoly_analytic",
    "jc_flux_oracle",
    "jc_exact_cumulants",
    "jc_stationary_bloch",
    "jc_dressed_quasienergies",
    "jc_closed_statistics",
]


@dataclass(frozen=True)
class JcParams:
    """Detuning, Rabi amplitudes/phases and decay rate of the emitter."""

    eps_delta: float = 0.0
    omega1: float = 1.0
    omega2: float = 1.0
    phi1: float = 0.0
    phi2: float = 0.0
    gamma: float = 0.001

    def __post_init__(self) -> None:
        for name in ("omega1", "omega2", "gamma"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        for name in ("eps_delta", "omega1", "omega2", "phi1", "phi2", "gamma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    @property
    def phase_diff(self) -> float:
        """Relative drive phase phi = phi_2 - phi_1."""
        return self.phi2 - self.phi1

    @property
    def omega_phi_sq(self) -> float:
        """Squared magnitude of the total drive amplitude."""
        return (
            self.omega1**2
            + self.omega2**2
            + 2.0 * self.omega1 * self.omega2 * math.cos(self.phase_diff)
        )


def jc_liouvillian(
    p: JcParams,
    chi: tuple[float, float] = (0.0, 0.0),
    xi: float = 0.0,
) -> np.ndarray:
    """Dressed generator on the Pauli 4-vector (rho_0, rho_x, rho_y, rho_z).

    The per-sample MGF path calls this scalar formula twice per sample;
    a sweep reads the same generator from
    :meth:`JaynesCummingsModel.field_components`.
    """
    c1, c2 = -chi[0], -chi[1]
    x = -xi

    def omega_x(a: float, b: float) -> float:
        return p.omega1 * math.cos(p.phi1 + a) + p.omega2 * math.cos(p.phi2 + b)

    def omega_y(a: float, b: float) -> float:
        return p.omega1 * math.sin(p.phi1 + a) + p.omega2 * math.sin(p.phi2 + b)

    cxm = omega_x(0.0, 0.0) - omega_x(c1, c2)
    cxp = omega_x(0.0, 0.0) + omega_x(c1, c2)
    sxm = omega_y(0.0, 0.0) - omega_y(c1, c2)
    sxp = omega_y(0.0, 0.0) + omega_y(c1, c2)
    g = p.gamma
    gm = 2.0 * g * (np.exp(1j * x) - 1.0)
    gp = 2.0 * g * (np.exp(1j * x) + 1.0)
    eps = p.eps_delta
    return np.array(
        [
            [gm, 1j * cxm, 1j * sxm, gm],
            [1j * cxm, -2.0 * g, -eps, sxp],
            [1j * sxm, eps, -2.0 * g, -cxp],
            [-gp, -sxp, cxp, -gp],
        ],
        dtype=complex,
    )


def _pattern(*entries) -> np.ndarray:
    out = np.zeros((4, 4), dtype=complex)
    for i, j, value in entries:
        out[i, j] = value
    return out


# jc_liouvillian is L = L0 + ox(chi) A + oy(chi) B + e^{-i xi} gamma G, with
# (ox, oy)(chi) = sum_k Omega_k (cos, sin)(phi_k - chi_k); L0 is
# ox(0) A0 + oy(0) B0 + gamma D + eps E
_A = _pattern((0, 1, -1j), (1, 0, -1j), (2, 3, -1.0), (3, 2, 1.0))
_B = _pattern((0, 2, -1j), (2, 0, -1j), (1, 3, 1.0), (3, 1, -1.0))
_G = _pattern((0, 0, 2.0), (0, 3, 2.0), (3, 0, -2.0), (3, 3, -2.0))
_A0 = _pattern((0, 1, 1j), (1, 0, 1j), (2, 3, -1.0), (3, 2, 1.0))
_B0 = _pattern((0, 2, 1j), (2, 0, 1j), (1, 3, 1.0), (3, 1, -1.0))
_D = _pattern(*((i, j, -2.0) for i, j in ((0, 0), (0, 3), (1, 1), (2, 2), (3, 0), (3, 3))))
_E = _pattern((1, 2, -1.0), (2, 1, 1.0))


def jc_charpoly_analytic(p: JcParams, chi: float, xi: float) -> CharPolyCoeffs:
    """Closed-form quartic for equal drive counting fields chi_1 = chi_2.

    The polynomial depends on the counting fields only through xi - chi,
    which encodes drive/bath photon conservation.
    """
    s = np.exp(-1j * (xi - chi))
    w2 = p.omega_phi_sq
    g = p.gamma
    e2 = p.eps_delta**2
    a0 = 16.0 * w2 * g * g * (1.0 - s)
    a1 = g * (-8.0 * w2 * s + 16.0 * w2 + 16.0 * g * g + 4.0 * e2)
    a2 = 4.0 * w2 + 20.0 * g * g + e2
    a3 = 8.0 * g
    return CharPolyCoeffs(np.array([a0, a1, a2, a3, 1.0], dtype=complex))


def jc_flux_oracle(p: JcParams) -> float:
    """Closed-form stationary photon flux into mode 1."""
    phi = p.phase_diff
    o1, o2, g, e = p.omega1, p.omega2, p.gamma, p.eps_delta
    num = o1 * (
        2.0 * e * o2 * math.sin(phi) - 4.0 * g * o1 - 4.0 * g * o2 * math.cos(phi)
    )
    den = e * e + 4.0 * g * g + 2.0 * o1 * o1 + 4.0 * o1 * o2 * math.cos(phi) + 2.0 * o2 * o2
    return num / den


def jc_weak_gamma_noise(p: JcParams) -> float:
    """Small-dissipation closed form for the mode-1 noise rate (~ 1/gamma)."""
    if p.gamma == 0.0:
        raise ZeroDivisionError("weak-dissipation noise law diverges at gamma = 0")
    phi = p.phase_diff
    o1, o2, g, e = p.omega1, p.omega2, p.gamma, p.eps_delta
    num = (
        8.0
        * o1**2
        * o2**2
        * (o1 * o1 + 2.0 * o1 * o2 * math.cos(phi) + o2 * o2) ** 2
        * math.sin(phi) ** 2
    )
    den = g * (e * e + 2.0 * o1 * o1 + 4.0 * o1 * o2 * math.cos(phi) + 2.0 * o2 * o2) ** 3
    return num / den


def jc_exact_cumulants(p: JcParams, field: str | int = "mode1") -> tuple[float, float]:
    """Flux and noise rate by implicit differentiation of the exact quartic.

    ``field`` is 'mode1', 'mode2', 'drive' or 'bath', or a counting
    selector (1 and 2 name the modes).  With P(lambda(x), x) = 0 and
    lambda(0) = 0, lambda' = -a0'/a1 and lambda'' = -(a0'' + 2 a1' lambda'
    + 2 a2 lambda'^2)/a1, from the coefficients' closed-form field derivatives.
    """
    selector = {"mode1": 1, "mode2": 2}.get(field, field)
    a = jc_charpoly_analytic(p, 0.0, 0.0).coefficients
    g, e = p.gamma, p.eps_delta
    if selector in ("drive", "bath"):  # the quartic depends on xi - chi only
        sign, w2 = (1.0 if selector == "drive" else -1.0), p.omega_phi_sq
        da0, d2a0, da1 = -16j * sign * w2 * g * g, 16.0 * w2 * g * g, -8j * sign * g * w2
    elif selector in (1, 2) and isinstance(selector, int):  # mode 2: the drives exchanged
        o1, o2, phi = ((p.omega1, p.omega2, p.phi1 - p.phi2) if selector == 1
                       else (p.omega2, p.omega1, p.phi2 - p.phi1))
        x, y = o2 * math.cos(phi), o2 * math.sin(phi)  # the other drive, in this one's phase
        da0 = -8j * g * o1 * (e * y + 2 * g * o1 + 2 * g * x)
        d2a0 = 8j * o1 * (g * (e * x - 2j * g * o1 - 2 * g * y) - 1j * o1 * y * y)
        da1 = -8j * g * o1 * (o1 + 1j * y + x)
    else:
        raise ValueError(f"mode {selector} out of range" if isinstance(selector, int)
                         else f"unknown counting selector {selector!r}")
    if abs(a[1]) == 0.0:
        raise ZeroDivisionError("degenerate stationary root (a1 = 0)")
    lam1 = -da0 / a[1]
    lam2 = -(d2a0 + 2.0 * da1 * lam1 + 2.0 * a[2] * lam1 * lam1) / a[1]
    return flux_and_noise(lam1, lam2)


def jc_stationary_bloch(p: JcParams) -> tuple[float, float, float]:
    """Stationary Bloch vector (rho_x, rho_y, rho_z) at zero counting fields."""
    ox = p.omega1 * math.cos(p.phi1) + p.omega2 * math.cos(p.phi2)
    oy = p.omega1 * math.sin(p.phi1) + p.omega2 * math.sin(p.phi2)
    e, g = p.eps_delta, p.gamma
    d = e * e + 4.0 * g * g
    if d == 0.0:
        # resonant lossless limit: fully mixed stationary state
        return (0.0, 0.0, 0.0)
    rz = -d / (d + 2.0 * (ox * ox + oy * oy))
    rx = (4.0 * g * oy + 2.0 * e * ox) * rz / d
    ry = (2.0 * e * oy - 4.0 * g * ox) * rz / d
    return (rx, ry, rz)


def jc_semiclassical_flux(p: JcParams, mode: int) -> float:
    """Stationary flux from the phase derivative of the drive energy.

    I_k = Omega_k (<sigma_x> sin phi_k - <sigma_y> cos phi_k); at phi_1 = 0
    this is the familiar I_1 = -Omega_1 <sigma_y>.
    """
    if mode not in (1, 2):
        raise ValueError("mode must be 1 or 2")
    rx, ry, _ = jc_stationary_bloch(p)
    omega = p.omega1 if mode == 1 else p.omega2
    phi = p.phi1 if mode == 1 else p.phi2
    return omega * (rx * math.sin(phi) - ry * math.cos(phi))


def _quasienergy_radicand(p: JcParams, chi: tuple[float, float]) -> float:
    arg = p.phase_diff + chi[1] - chi[0]
    w2 = p.omega1**2 + p.omega2**2 + 2.0 * p.omega1 * p.omega2 * math.cos(arg)
    return p.eps_delta**2 + 4.0 * w2


def jc_dressed_quasienergies(
    p: JcParams, chi: tuple[float, float] = (0.0, 0.0)
) -> tuple[float, float]:
    """Counting-field-resolved quasienergy pair (E_1, E_2) = (-, +).

    These are the quasienergies of the full rotating-frame two-level
    Hamiltonian, +-(1/2) sqrt(eps^2 + 4 |Omega|^2), the form consistent
    with the dissipative generator (there d rho_x/dt = -eps rho_y +
    2 Omega_y rho_z); the closed-system generating function uses them.
    """
    root = 0.5 * math.sqrt(_quasienergy_radicand(p, chi))
    return (-root, root)


def _quasienergy_derivatives(p: JcParams, mode: int) -> tuple[float, float]:
    """(dE_1/dchi_k, dE_2/dchi_k) of the dressed quasienergies at zero fields."""
    root = math.sqrt(_quasienergy_radicand(p, (0.0, 0.0)))
    if root == 0.0:
        return (0.0, 0.0)
    sign = 1.0 if mode == 1 else -1.0
    base = sign * 2.0 * p.omega1 * p.omega2 * math.sin(p.phase_diff) / root
    return (-base, base)


def jc_closed_statistics(
    p: JcParams,
    weights: tuple[float, float],
    mode: int,
    t: float,
) -> tuple[float, float]:
    """Mean and variance of the photon-number change for a lossless emitter
    prepared in a mixture of the two Floquet states.

    These are the log-MGF derivatives of the dressed-quasienergy generating
    function (``distributions.closed_mgf``): mean = -sum_mu w_mu E'_mu t,
    with E'_mu = dE_mu/dchi_k, and the variance is the weighted branch
    spread t^2 [sum_mu w_mu E'_mu^2 - (sum_mu w_mu E'_mu)^2], vanishing for
    a single Floquet state and (E'_2 - E'_1)^2 t^2 / 4 for the balanced
    superposition.
    """
    w = np.asarray(weights, dtype=float)
    if w.shape != (2,) or np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
        raise ValueError("weights must be two nonnegative numbers summing to 1")
    d1, d2 = _quasienergy_derivatives(p, mode)
    derivs = np.array([d1, d2])
    mean = -float(w @ derivs) * t
    variance = float(w @ derivs**2 - (w @ derivs) ** 2) * t * t
    return (mean, variance)


class JaynesCummingsModel:
    """Counting-engine adapter for the dissipative two-mode emitter."""

    n_modes = 2
    n_baths = 1

    def __init__(self, params: JcParams):
        self.params = params

    @staticmethod
    def field_components(models: Sequence["JaynesCummingsModel"]):
        """The exact field components (l0, plus, minus) of the dressed
        generators of ``models``: l0 of shape (n, 4, 4), and plus and minus
        of shape (3, n, 4, 4) for the fields (chi_1, chi_2, xi).

        Mode k contributes plus = c_k (A + iB) and minus = conj(c_k)(A - iB),
        with c_k = Omega_k e^{-i phi_k} / 2; the bath contributes
        minus = gamma G.
        """
        params = [m.params for m in models]
        omega = np.array([(p.omega1, p.omega2) for p in params])
        phi = np.array([(p.phi1, p.phi2) for p in params])
        gamma = np.array([p.gamma for p in params])[:, None, None]
        eps = np.array([p.eps_delta for p in params])[:, None, None]
        ox0 = (omega * np.cos(phi)).sum(axis=1)[:, None, None]
        oy0 = (omega * np.sin(phi)).sum(axis=1)[:, None, None]
        c = (0.5 * omega * np.exp(-1j * phi)).T[..., None, None]  # (2, n, 1, 1)
        plus = np.zeros((3, len(params), 4, 4), dtype=complex)
        minus = np.zeros_like(plus)
        plus[:2] = c * (_A + 1j * _B)
        minus[:2] = np.conj(c) * (_A - 1j * _B)
        minus[2] = gamma * _G
        return ox0 * _A0 + oy0 * _B0 + gamma * _D + eps * _E, plus, minus

    def dressed_liouvillian(self, chi, xi) -> np.ndarray:
        chi = tuple(float(c) for c in chi)
        xi = tuple(float(x) for x in xi)
        if len(chi) != 2 or len(xi) != 1:
            raise ValueError("model counts two drive modes and one bath")
        return jc_liouvillian(self.params, (chi[0], chi[1]), xi[0])

    def trace_vector(self) -> np.ndarray:
        return np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)

    def stationary_vector(self) -> np.ndarray:
        rx, ry, rz = jc_stationary_bloch(self.params)
        return np.array([1.0, rx, ry, rz], dtype=complex)

    def oracle_rates(self, selector) -> tuple[float, float, float]:
        """AnalyticOracle: exact flux and noise from the closed-form quartic,
        with a zero error estimate."""
        return (*jc_exact_cumulants(self.params, selector), 0.0)
