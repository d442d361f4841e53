"""Three-level lambda system with an amplitude-modulated pump.

Levels a, b, c: the two signal modes couple c <-> a (and, for odd resonance
order r, b <-> a through pump sidebands), the pump couples b <-> c with Rabi
amplitude Omega_p(t) = Omega_p0 + (Omega_p1/2) cos(omega_d t), and the excited
state b/c manifold relaxes into |a> through a monitored bath (both decay
channels share one bath counting field xi).

Two frames are provided:

* ``LambdaPeriodicModel``: the rotating frame in which |c> rotates at
  omega_1 and |b> at omega_1 - omega_p; every residual time dependence has
  period 2 pi / omega_d, so the generator is the photon-resolved Floquet
  (Sambe) matrix of its time harmonics (the non-perturbative numerical
  route).
* ``LambdaModel``: the time-independent generator after the rotating-wave
  approximation, with pump sidebands folded into Bessel-renormalized
  effective couplings.

Counting conventions follow the two-mode emitter model: absorption from a
drive mode carries exp(+i chi_k) on the raising operator (so the raising
amplitudes are dressed as exp[i(phi_k + chi_k)]), and the bath field enters
the recycling terms as exp(-i xi).  With these orientations the photon
ledger closes: I_1 + I_2 + I_bath = 0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from ..bessel import bessel_j
from ..charpoly import DegenerateRootError
from ..counting import _fields_for, flux_and_noise, selector_derivatives
from ..superop import (
    BlockTridiagonalLU,
    StepConvergenceError,
    dissipator_superop,
    hamiltonian_superop,
)

__all__ = [
    "LambdaParams",
    "EffectiveCouplings",
    "effective_couplings",
    "LambdaModel",
    "LambdaPeriodicModel",
    "lambda_lambda0_pt2",
]

_A, _B, _C = 0, 1, 2
_TRACE = np.array([0, 4, 8])  # the diagonal of a row-major vectorized 3x3 matrix


@dataclass(frozen=True)
class LambdaParams:
    """Level energies, drive frequencies and amplitudes of the lambda system.

    Default units: the dc pump amplitude omega_p0 is the frequency unit.
    The second signal frequency is omega_2 = omega_1 + r * omega_d.
    """

    eps_a: float = 0.0
    eps_b: float = 0.0
    eps_c: float = 30.0
    omega_p: float = 30.0
    omega_1: float = 30.0
    omega_d: float = 40.0
    r: int = 1
    omega_s: float = 0.02
    omega_p0: float = 1.0
    omega_p1: float = 80.0
    gamma: float = 0.2
    phi1: float = 0.0
    phi2: float = 0.0

    def __post_init__(self) -> None:
        if self.gamma < 0 or self.omega_s < 0:
            raise ValueError("gamma and omega_s must be nonnegative")
        if self.omega_d <= 0:
            raise ValueError("omega_d must be positive")
        if self.r < 0 or self.r != int(self.r):
            raise ValueError("r must be a nonnegative integer")

    @property
    def eps_b_delta(self) -> float:
        """Rotating-frame energy of |b>."""
        return self.eps_b + self.omega_p - self.omega_1

    @property
    def eps_c_delta(self) -> float:
        """Rotating-frame energy of |c> (the detuning omega_Delta on resonance)."""
        return self.eps_c - self.omega_1

    @property
    def pump_resonant(self) -> bool:
        return abs(self.eps_c - self.eps_b - self.omega_p) <= 1e-9 * max(
            abs(self.omega_p), 1.0
        )

    def with_detuning(self, omega_delta: float) -> "LambdaParams":
        """Same parameters with omega_1 set so that eps_c - omega_1 = omega_delta."""
        return replace(self, omega_1=self.eps_c - omega_delta)


@dataclass(frozen=True)
class EffectiveCouplings:
    """Dressed-basis signal couplings and energies at given counting fields."""

    omega_b: complex
    omega_c: complex
    theta: float
    eps_tilde_b: float
    eps_tilde_c: float


@functools.lru_cache(maxsize=256)
def _bessel_factors(p: LambdaParams) -> tuple[float, float, float]:
    """Pump-sideband factors, computed once per parameter set.

    J_0(Omega_p1 / omega_d) renormalizes the b/c splitting; J_0 and J_r of
    Omega_p1 / (2 omega_d) renormalize the two signal modes.
    """
    arg = p.omega_p1 / (2.0 * p.omega_d)
    return bessel_j(0, p.omega_p1 / p.omega_d), bessel_j(0, arg), bessel_j(p.r, arg)


def _signal_amplitudes(s1, s2, phase1, phase2, even):
    """Bare signal couplings (v_b, v_c) onto |b><a| and |c><a|, elementwise.

    The pump sidebands renormalize the signal amplitude Omega_s by J_0 and
    J_r of Omega_p1 / (2 omega_d): s1 = Omega_s J_0 and s2 = Omega_s J_r,
    with the dressed phases phase_k = phi_k + chi_k.  For even r both
    signal modes address |c>, for odd r the second mode addresses |b>
    instead.
    """
    e1 = s1 * np.exp(1j * phase1)
    e2 = s2 * np.exp(1j * phase2)
    return np.where(even, 0.0, e2), np.where(even, e1 + e2, e1)


def _dressed(theta: float, vb, vc):
    """Bare couplings (v_b, v_c) in the pump-dressed basis of mixing angle theta."""
    sin, cos = math.sin(0.5 * theta), math.cos(0.5 * theta)
    return -sin * vb + cos * vc, cos * vb + sin * vc


def effective_couplings(
    p: LambdaParams, chi: tuple[float, float] = (0.0, 0.0)
) -> EffectiveCouplings:
    """Couplings and energies in the pump-dressed basis.

    The b/c block of the effective Hamiltonian is
    [[ave + delta, Omega_p0], [Omega_p0, ave - delta]] with the bare
    splitting renormalized by J_0(Omega_p1/omega_d); its eigenstates define
    the mixing angle theta = atan2(Omega_p0, delta) and the dressed energies
    eps_tilde = ave -/+ sqrt(delta^2 + Omega_p0^2).
    """
    ave = 0.5 * (p.eps_b_delta + p.eps_c_delta)
    j_split, j0, jr = _bessel_factors(p)
    delta = 0.5 * j_split * (p.eps_b_delta - p.eps_c_delta)
    split = math.hypot(delta, p.omega_p0)
    theta = math.atan2(p.omega_p0, delta)
    omega_b, omega_c = _dressed(theta, *_signal_amplitudes(
        p.omega_s * j0, p.omega_s * jr, p.phi1 + chi[0], p.phi2 + chi[1], p.r % 2 == 0
    ))
    return EffectiveCouplings(
        omega_b=complex(omega_b),
        omega_c=complex(omega_c),
        theta=theta,
        eps_tilde_b=ave - split,
        eps_tilde_c=ave + split,
    )


def _op(i: int, j: int) -> np.ndarray:
    """|i><j| on the three levels."""
    return np.outer(np.eye(3)[i], np.eye(3)[j]).astype(complex)


# the decay of |b> and |c> into |a> at unit rate: its jumps |b><b|, |c><c|
# -> |a><a|, which the bath field xi dresses by e^{-i xi}, and the rest
_JUMP = np.zeros((9, 9), dtype=complex)
_JUMP[0, _TRACE[1:]] = 1.0
_NO_JUMP = sum(dissipator_superop(_op(_A, upper)) for upper in (_B, _C)) - _JUMP


def _evaluate(l0, plus, minus, angles) -> np.ndarray:
    """l0 + sum_f (e^{i theta_f} plus[f] + e^{-i theta_f} minus[f]) at the
    field angles theta."""
    phase = np.exp(1j * np.array(angles, dtype=float)).reshape((-1,) + (1,) * (plus.ndim - 1))
    return l0 + (phase * plus).sum(axis=0) + (np.conj(phase) * minus).sum(axis=0)


def _rwa_components(params: Sequence[LambdaParams]):
    """The RWA generators of n parameter sets as exact field components
    (static, signal, plus, minus): static and signal of shape (n, 9, 9),
    plus and minus of shape (3, n, 9, 9) for the fields (chi_1, chi_2, xi).

    ``static`` is the signal-free generator less the decay's jumps: the
    static Hamiltonian (its b/c splitting renormalized by
    J_0(Omega_p1 / omega_d)) and the rest of the decay; the jumps are the xi
    component.  Everything linear in Omega_s is ``signal``, the zero-field
    signal Hamiltonian on the right, and the chi components: on the left,
    mode k's raising half v_k e^{i(phi_k + chi_k)} and its conjugate.
    """
    n = len(params)
    bessel = np.array([_bessel_factors(p) for p in params])
    omega_s, eps_a, eps_b, eps_c, omega_p0, phi1, phi2, gamma, r = (
        np.array([getattr(p, name) for p in params]) for name in (
            "omega_s", "eps_a", "eps_b_delta", "eps_c_delta", "omega_p0", "phi1", "phi2",
            "gamma", "r",
        )
    )
    s1, s2 = omega_s * bessel[:, 1], omega_s * bessel[:, 2]
    ave = 0.5 * (eps_b + eps_c)
    delta = 0.5 * bessel[:, 0] * (eps_b - eps_c)
    h0 = np.zeros((n, 3, 3), dtype=complex)
    h0[:, _A, _A] = eps_a
    h0[:, _B, _B] = ave + delta
    h0[:, _C, _C] = ave - delta
    h0[:, _B, _C] = h0[:, _C, _B] = omega_p0
    rate = 2.0 * gamma[:, None, None]
    raising = np.zeros((2, n, 3, 3), dtype=complex)
    for k, amplitudes in enumerate(((s1, 0.0 * s2), (0.0 * s1, s2))):
        raising[k, :, _B, _A], raising[k, :, _C, _A] = _signal_amplitudes(
            *amplitudes, phi1, phi2, r % 2 == 0
        )
    lowering = np.conj(raising).swapaxes(-1, -2)
    zero = np.zeros_like(h0)
    plus = np.zeros((3, n, 9, 9), dtype=complex)
    minus = np.zeros_like(plus)
    plus[:2] = hamiltonian_superop(raising, zero)
    minus[:2] = hamiltonian_superop(lowering, zero)
    minus[2] = rate * _JUMP
    signal = hamiltonian_superop(zero, (raising + lowering).sum(axis=0))
    return hamiltonian_superop(h0, h0) + rate * _NO_JUMP, signal, plus, minus


def _fields(chi, xi) -> tuple[tuple[float, float], tuple[float]]:
    chi = tuple(float(c) for c in chi)
    xi = tuple(float(x) for x in xi)
    if len(chi) != 2 or len(xi) != 1:
        raise ValueError("model counts two drive modes and one bath")
    return chi, xi


class LambdaModel:
    """Counting-engine adapter for the RWA effective generator (9x9), a sum
    of the exact field components of one stacked formula."""

    n_modes = 2
    n_baths = 1

    def __init__(self, params: LambdaParams):
        self.params = params

    @staticmethod
    def field_components(models: Sequence["LambdaModel"]):
        """The exact field components (l0, plus, minus) of the dressed
        generators of ``models``: l0 of shape (n, 9, 9), and plus and minus
        of shape (3, n, 9, 9) for the fields (chi_1, chi_2, xi)."""
        static, signal, plus, minus = _rwa_components([m.params for m in models])
        return static + signal, plus, minus

    def tagged_terms(self, chi: tuple[float, float], xi: float) -> list[tuple[int, np.ndarray]]:
        """Liouvillian as (perturbative order, matrix) terms.

        Order 0 is the signal-free generator: the static part and the decay's
        jumps under xi.  Order 1 collects everything linear in the signal
        amplitude Omega_s: the signal part and the chi components.
        """
        static, signal, plus, minus = self._components
        return [
            (0, _evaluate(static, plus[2:], minus[2:], (xi,))[0]),
            (1, _evaluate(signal, plus[:2], minus[:2], chi)[0]),
        ]

    def dressed_liouvillian(self, chi, xi) -> np.ndarray:
        chi, xi = _fields(chi, xi)
        static, signal, plus, minus = self._components
        return _evaluate(static + signal, plus, minus, chi + xi)[0]

    @functools.cached_property
    def _components(self):
        """This model's row of :func:`_rwa_components`, built once."""
        return _rwa_components([self.params])

    def trace_vector(self) -> np.ndarray:
        t = np.zeros(9, dtype=complex)
        t[_TRACE] = 1.0
        return t

    def stationary_vector(self) -> np.ndarray:
        """Unperturbed stationary state: all population relaxed into |a>."""
        v = np.zeros(9, dtype=complex)
        v[0] = 1.0
        return v

    def oracle_rates(self, selector) -> tuple[float, float, float]:
        """AnalyticOracle: the exact field derivatives of
        :func:`lambda_lambda0_pt2`, with a zero error estimate.

        Along the selector each dressed coupling is
        a_alpha + b_alpha (e^{ix} - 1), with a_alpha its zero-field value and
        b_alpha the part of it that the counted modes carry.  So
        flux = -2 sum_alpha Re[a_alpha conj(b_alpha) / (gamma + i eps_alpha)]
        and noise = 2 gamma sum_alpha |b_alpha|^2 / (gamma^2 + eps_alpha^2),
        with eps_alpha the dressed energies measured from the a level.
        """
        if selector == "bath":
            raise ValueError("the closed-form slow eigenvalue counts drive photons only")
        p = self.params
        _require_resonant_pump(p)
        weights = _fields_for(self, selector, 1.0).chi
        couplings = effective_couplings(p)
        _, j0, jr = _bessel_factors(p)
        counted = _dressed(couplings.theta, *_signal_amplitudes(
            weights[0] * p.omega_s * j0, weights[1] * p.omega_s * jr,
            p.phi1, p.phi2, p.r % 2 == 0,
        ))
        g, flux, noise = p.gamma, 0.0, 0.0
        for a, b, eps in zip(
            (couplings.omega_b, couplings.omega_c), counted,
            (couplings.eps_tilde_b - p.eps_a, couplings.eps_tilde_c - p.eps_a),
        ):
            flux -= 2.0 * (a * np.conj(b) / (g + 1j * eps)).real
            noise += 2.0 * g * abs(b) ** 2 / (g * g + eps * eps)
        return flux, noise, 0.0


def _harmonic_components(p: LambdaParams, orders: np.ndarray):
    """The time harmonics' exact field components (l0, plus, minus): l0 of
    shape (H, 9, 9), and plus and minus of shape (3, H, 9, 9) for the fields
    (chi_1, chi_2, xi), one row per harmonic order.

    The static harmonic holds the levels, the dc pump, mode 1 and the
    decay; the pump modulation sits at +-1 and the co-/counter-rotating
    halves of mode 2 at -/+ r.
    """
    pump, lower, raise_ = _op(_B, _C) + _op(_C, _B), _op(_C, _A), _op(_A, _C)
    zero = np.zeros((3, 3), dtype=complex)
    h_static = np.diag(np.array([p.eps_a, p.eps_b_delta, p.eps_c_delta], dtype=complex))
    h_static += p.omega_p0 * pump
    amp1 = p.omega_s * np.exp(1j * p.phi1)
    amp2 = p.omega_s * np.exp(1j * p.phi2)
    half_cos = hamiltonian_superop(0.25 * p.omega_p1 * pump, 0.25 * p.omega_p1 * pump)
    parts = np.zeros((7, orders.size, 9, 9), dtype=complex)  # l0, plus[0:3], minus[0:3]
    for slot, order, mat in (
        (0, 0, hamiltonian_superop(h_static, h_static + amp1 * lower + np.conj(amp1) * raise_)
         + 2.0 * p.gamma * _NO_JUMP),
        (1, 0, hamiltonian_superop(amp1 * lower, zero)),
        (4, 0, hamiltonian_superop(np.conj(amp1) * raise_, zero)),
        (6, 0, 2.0 * p.gamma * _JUMP),
        (0, 1, half_cos),
        (0, -1, half_cos),
        (0, -p.r, hamiltonian_superop(zero, amp2 * lower)),
        (2, -p.r, hamiltonian_superop(amp2 * lower, zero)),
        (0, p.r, hamiltonian_superop(zero, np.conj(amp2) * raise_)),
        (5, p.r, hamiltonian_superop(np.conj(amp2) * raise_, zero)),
    ):
        parts[slot, np.searchsorted(orders, order)] += mat
    return parts[0], parts[1:4], parts[4:]


def _harmonic_cutoff(p: LambdaParams) -> int:
    """Photon cutoff M of the Sambe generator: blocks |m| <= M are kept.

    The pump modulation spreads the Floquet state over about
    Omega_p1 / omega_d drive photons and mode 2 adds r.  At the fig5 base
    point (r = 2) the flux and noise are within 1e-12 of their M = 24 values
    from M = 8, 12 and 16 at Omega_p1 / omega_d = 2, 4 and 6; this rule
    stays above those.
    """
    return p.r + 6 + math.ceil(1.5 * abs(p.omega_p1) / p.omega_d)


def _sambe(orders, mats, cutoff: int, omega_d: float) -> np.ndarray:
    """Block m - m' = orders[k] is mats[k], less i m omega_d on the diagonal; |m| <= cutoff."""
    n, d = 2 * cutoff + 1, mats.shape[-1]
    sambe = np.zeros((n, d, n, d), dtype=complex)
    for order, mat in zip(orders, mats):
        rows = np.arange(max(order, 0), min(n + order, n))
        sambe[rows, :, rows - order] = mat
    sambe = sambe.reshape(n * d, n * d)
    photons = np.arange(-cutoff, cutoff + 1)
    sambe[np.diag_indices(n * d)] -= 1j * omega_d * np.repeat(photons, d)
    return sambe


def _sambe_blocks(orders, mats, cutoff: int, omega_d: float, group: int):
    """The Sambe generator as (lower, diag, upper) blocks of ``group`` photons.

    With ``group`` at least the largest harmonic order, block rows g couple
    to g - 1, g and g + 1 only.  Each block has shape (group d, group d);
    the last group is padded with identity blocks that couple to nothing.
    """
    n, d = 2 * cutoff + 1, mats.shape[-1]
    groups = -(-n // group)
    local = np.arange(group)
    blocks = np.zeros((3, group, d, group, d), dtype=complex)
    for slot, offset in enumerate((group, 0, -group)):  # m - m' of A[g, g-1], A[g, g], A[g, g+1]
        for order, mat in zip(orders, mats):
            i, j = np.nonzero(local[:, None] - local[None, :] + offset == order)
            blocks[slot, i, :, j] = mat
    blocks = np.repeat(blocks[:, None], groups, axis=1)
    photons = np.arange(groups * group).reshape(groups, group)
    live = photons < n
    blocks *= live[None, :, :, None, None, None]
    blocks[1] *= live[:, None, None, :, None]
    blocks[2, :-1] *= live[1:, None, None, :, None]
    blocks[0, 0] = blocks[2, -1] = 0.0
    lower, diag, upper = blocks.reshape(3, groups, group * d, group * d)
    shift = np.where(live, -1j * omega_d * (photons - cutoff), 1.0)
    diag[:, np.arange(group * d), np.arange(group * d)] += np.repeat(shift, d, axis=1)
    return lower, diag, upper


def _band_apply(orders, mats, v: np.ndarray, n: int) -> np.ndarray:
    """Sambe matrix of ``mats`` (no diagonal shift) times v of shape (photons, d, k)."""
    out = np.zeros_like(v)
    for order, mat in zip(orders, mats):
        lo, hi = max(order, 0), min(n + order, n)
        out[lo:hi] += mat @ v[lo - order:hi - order]
    return out


class _ShiftedSambe:
    """A = F(0) + u t at one cutoff, factored once.

    t is the trace in block m = 0 and u the unit vector on |a><a| there, so
    t u = 1.  Since t F(0) = 0, s = A^{-1} u is the stationary state, with
    t s = 1, and for t y = 0 the solution x = A^{-1} y has t x = 0 and
    F(0) x = y: the two solves that a bordered inverse of F(0) provides.
    The shift enters the |a><a| row only, which t F(0) = 0 makes redundant
    in F(0); a shift by conj(t) t would also enter the |b><b| and |c><c|
    rows and cost the small excited populations of s, and with them the
    bath flux, about 1e-11 relative.  A is block tridiagonal in groups of
    max(1, r) photons, so its block LU costs a few small inverses per group.
    """

    def __init__(self, orders, l0: np.ndarray, cutoff: int, omega_d: float):
        self.orders, self.cutoff = orders, cutoff
        group = max(1, int(np.abs(orders).max()))
        self.dim = l0.shape[-1]
        lower, diag, upper = _sambe_blocks(orders, l0, cutoff, omega_d, group)
        g0, rows = cutoff // group, (cutoff % group) * self.dim + _TRACE
        diag[g0, rows[0], rows] += 1.0
        try:
            self.lu = BlockTridiagonalLU(lower, diag, upper)
        except np.linalg.LinAlgError as exc:
            raise DegenerateRootError(
                "the shifted Sambe generator is singular: the stationary state "
                "is not unique"
            ) from exc
        unit = np.zeros(diag.shape[:2] + (1,), dtype=complex)
        unit[g0, rows[0]] = 1.0
        self.stationary = self.lu.solve(unit)
        self.stationary_residual = self.lu.residual(self.stationary, unit)

    def _photons(self, v: np.ndarray) -> np.ndarray:
        return v.reshape(-1, self.dim, v.shape[-1])

    def _trace(self, v: np.ndarray) -> complex:
        """t v for v of shape (photons, d, 1)."""
        return v[self.cutoff, _TRACE, 0].sum()

    @functools.cached_property
    def cond_error(self) -> float:
        """eps times the 1-norm condition estimate of A."""
        return float(np.finfo(float).eps * self.lu.cond1())

    def rates(self, derivatives) -> tuple[list[tuple[float, float]], float]:
        """(flux, noise) per (L', L'') pair of harmonic stacks, and the
        largest relative residual of the solves."""
        n = 2 * self.cutoff + 1
        s = self._photons(self.stationary)
        drifts, lam1 = [], []
        for d1, _ in derivatives:
            f1s = _band_apply(self.orders, d1, s, n)
            lam1.append(self._trace(f1s))
            drifts.append(f1s - lam1[-1] * s)
        rhs = np.concatenate(drifts, axis=-1).reshape(self.stationary.shape[:2] + (-1,))
        x = self.lu.solve(rhs)
        xs = self._photons(x)
        rates = []
        for k, (d1, d2) in enumerate(derivatives):
            lam2 = (self._trace(_band_apply(self.orders, d2, s, n))
                    - 2.0 * self._trace(_band_apply(self.orders, d1, xs[..., k:k + 1], n)))
            rates.append(flux_and_noise(lam1[k], lam2))
        return rates, max(self.stationary_residual, self.lu.residual(x, rhs))


class LambdaPeriodicModel:
    """Rotating-frame periodic Liouvillian, described by its time harmonics.

    ``dressed_liouvillian`` returns the photon-resolved Floquet (Sambe)
    generator F[m, m'] = L_{m - m'} - i m omega_d delta_{m m'} for
    |m|, |m'| <= ``cutoff`` (Shirley, Phys. Rev. 138, B979 (1965)), where
    L_n are the time harmonics and m counts drive photons.  Its slow
    eigenvalue is the slow Floquet exponent.  ``trace_vector`` is the trace
    in the m = 0 block, the left null vector of F at zero fields;
    ``stationary_vector`` is |a><a| in every block, so that
    tr_0 exp(F t) v = tr U(t) |a><a| at every t, since
    U(t) = sum_m' [exp(F t)]_{0, m'}.

    The cutoff follows from the parameters and is checked once per
    instance: when four more blocks change the flux or noise of either drive
    mode by more than ``check_tol`` (relative; ``truncation_change``), the
    generator raises :class:`~photonstats.superop.StepConvergenceError`.
    The check and the PseudoInverse route (``pseudo_inverse_rates``) share
    one block LU of the shifted generator per cutoff.
    That covers flux, noise and MGFs from |a><a|-type states, not the
    coherence columns of U(T) (5.6e-6 off at r = 1, omega_Delta = 0.5,
    M = 10).  ``steps`` is the number of RK4 steps per drive period of the
    PeriodicNumeric route, the time-domain cross-check, which is checked by
    step doubling against the same ``check_tol`` (``None`` switches both
    checks off; PeriodicNumeric cumulants still report their own change as
    ``stencil_error``).
    """

    n_modes = 2
    n_baths = 1

    def __init__(self, params: LambdaParams, steps: int = 2048,
                 check_tol: float | None = 1e-6):
        self.params = params
        self.steps = steps
        self.check_tol = check_tol
        self.cutoff = _harmonic_cutoff(params)
        # sorted() rather than np.unique, which imports numpy.ma on first use
        self.orders = np.array(sorted({0, 1, -1, -params.r, params.r}))
        self._components = _harmonic_components(params, self.orders)
        self._truncation = None
        self._shifted: dict[int, _ShiftedSambe] = {}

    @property
    def period(self) -> float:
        return 2.0 * math.pi / self.params.omega_d

    def time_harmonics(self, chi, xi) -> tuple[np.ndarray, np.ndarray]:
        """Time harmonics of the dressed generator.

        Returns integer ``orders`` and a matching stack of 9x9 matrices such
        that L(t) = sum_n exp(i orders[n] omega_d t) matrices[n]: the sum of
        the harmonics' field components at (chi, xi).
        """
        chi, xi = _fields(chi, xi)
        return self.orders, _evaluate(*self._components, chi + xi)

    def liouvillian_of_t(self, chi, xi):
        """Periodic callback t -> L(t), for time-domain references."""
        orders, mats = self.time_harmonics(chi, xi)
        freqs = self.params.omega_d * orders

        def l_of_t(t: float) -> np.ndarray:
            return np.einsum("h,hij->ij", np.exp(1j * freqs * t), mats)

        return l_of_t

    def _check_cutoff(self) -> None:
        if self.check_tol is not None and self.truncation_change > self.check_tol:
            raise StepConvergenceError(*self._truncation[1:], self.check_tol)

    def dressed_liouvillian(self, chi, xi) -> np.ndarray:
        self._check_cutoff()
        orders, mats = self.time_harmonics(chi, xi)
        return _sambe(orders, mats, self.cutoff, self.params.omega_d)

    def harmonic_derivatives(self, selector):
        """PeriodicNumeric hook: the harmonic ``orders``, the harmonics at
        zero field and their exact first two field derivatives along
        ``selector``, read from the harmonics' field components."""
        l0, plus, minus = self._components
        return (self.orders, _evaluate(l0, plus, minus, (0.0, 0.0, 0.0)),
                *selector_derivatives(self, selector, plus, minus))

    def _shifted_sambe(self, cutoff: int) -> _ShiftedSambe:
        """The factored shifted generator at ``cutoff``, built once per cutoff
        from the zero-field harmonics."""
        if cutoff not in self._shifted:
            orders, l0 = self.harmonic_derivatives(1)[:2]
            self._shifted[cutoff] = _ShiftedSambe(orders, l0, cutoff, self.params.omega_d)
        return self._shifted[cutoff]

    def pseudo_inverse_rates(self, selector) -> tuple[float, float, float]:
        """PseudoInverse hook: flux, noise and error estimate of ``selector``.

        The route reuses the factorization of the cutoff check at
        ``cutoff``; F' and F'' act as banded products of the harmonics'
        field derivatives.  The error estimate is the larger of eps times
        the 1-norm condition estimate of the shifted generator and the
        relative residual of the solves (the block LU does not pivot across
        blocks).
        """
        self._check_cutoff()
        _, _, d1, d2 = self.harmonic_derivatives(selector)
        shifted = self._shifted_sambe(self.cutoff)
        [(flux, noise)], residual = shifted.rates([(d1, d2)])
        return flux, noise, max(shifted.cond_error, residual)

    @property
    def truncation_change(self) -> float:
        """Largest relative change of drive-mode flux or noise from
        ``cutoff`` to ``cutoff + 4``, computed once per cutoff."""
        if self._truncation is None or self._truncation[0] != self.cutoff:
            pairs = [self.harmonic_derivatives(mode)[2:4] for mode in (1, 2)]
            coarse, fine = (
                np.array(self._shifted_sambe(self.cutoff + extra).rates(pairs)[0])
                for extra in (0, 4)
            )
            rel = np.abs(fine - coarse) / np.maximum(np.abs(fine), 1e-300)
            self._truncation = (self.cutoff, coarse, fine, float(rel.max()))
        return self._truncation[3]

    def trace_vector(self) -> np.ndarray:
        t = np.zeros((2 * self.cutoff + 1, 9), dtype=complex)
        t[self.cutoff, _TRACE] = 1.0
        return t.reshape(-1)

    def stationary_vector(self) -> np.ndarray:
        v = np.zeros((2 * self.cutoff + 1, 9), dtype=complex)
        v[:, 0] = 1.0
        return v.reshape(-1)


def _require_resonant_pump(p: LambdaParams) -> None:
    if not p.pump_resonant:
        raise ValueError(
            "closed-form slow eigenvalue requires the resonant pump "
            "eps_c - eps_b = omega_p; use the numeric route instead"
        )


def lambda_lambda0_pt2(p: LambdaParams, chi: tuple[float, float]) -> complex:
    """Second-order slow eigenvalue of the RWA generator, in closed form.

    lambda_0 = sum_alpha Omega_{alpha,chi} (Omega*_{alpha,0} - Omega*_{alpha,chi})
               / (i eps~_alpha + gamma)
             + sum_alpha Omega*_{alpha,0} (Omega_{alpha,chi} - Omega_{alpha,0})
               / (-i eps~_alpha + gamma),
    with the dressed couplings/energies of :func:`effective_couplings`
    (energies measured from the a level).  The denominators are the negated
    eigenvalues of the unperturbed coherences |alpha><a| and |a><alpha|,
    which decay at exactly gamma.  Requires the resonant pump
    eps_c - eps_b = omega_p.
    """
    _require_resonant_pump(p)
    at_chi = effective_couplings(p, chi)
    at_zero = effective_couplings(p, (0.0, 0.0))
    g = p.gamma
    total = 0.0 + 0.0j
    for o_chi, o_zero, eps in (
        (at_chi.omega_b, at_zero.omega_b, at_chi.eps_tilde_b - p.eps_a),
        (at_chi.omega_c, at_zero.omega_c, at_chi.eps_tilde_c - p.eps_a),
    ):
        total += o_chi * (np.conj(o_zero) - np.conj(o_chi)) / (1j * eps + g)
        total += np.conj(o_zero) * (o_chi - o_zero) / (-1j * eps + g)
    return complex(total)
