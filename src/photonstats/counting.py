"""Counting engine: generating functions and cumulants from dressed generators.

A model exposes ``dressed_liouvillian(chi, xi)``; this module turns that into
moment-generating functions, the slow eigenvalue lambda_0(xi, chi), and flux /
noise reports by differentiation at zero counting fields.  Each route only
computes rates; :func:`cumulants` is the one place that checks a request
(order, the route's model hook) and builds a report.  The default
route, PseudoInverse, differentiates lambda_0 exactly through the
pseudo-inverse of the generator, whose exact field components a static
model class returns for a stack of models (``field_components(models)``;
:func:`selector_derivatives` reads L' and L'' from them).  Optional model
hooks serve the other routes: ``tagged_terms(chi, xi)`` PerturbationTheory,
``harmonic_derivatives(selector)`` PeriodicNumeric (which differentiates
the slow Floquet multiplier exactly) and ``oracle_rates(selector)``
AnalyticOracle; ``pseudo_inverse_rates(selector)`` lets a structured
model serve PseudoInverse.  Both rate hooks return (flux, noise, error
estimate).  :func:`cumulants_many` serves a sweep, stacking
the PseudoInverse solves of many static models.  The engine imports no
model.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .charpoly import (
    DegenerateRootError,
    coefficient_derivatives,
    truncated_root,
)
from .superop import (
    StepConvergenceError,
    propagate,
    spectral_decompose,
    step_change,
    variational_monodromy,
)

__all__ = [
    "Method",
    "DEFAULT_METHOD",
    "STENCIL_FLAG_RTOL",
    "CountingFields",
    "MgfValue",
    "CumulantReport",
    "ConservationReport",
    "evolve_generalized",
    "dynamical_mgf",
    "initial_mgf",
    "gaussian_initial_mgf",
    "lambda0_nearest",
    "spectral_gap",
    "default_step",
    "selector_derivatives",
    "flux_and_noise",
    "cumulants",
    "cumulants_many",
    "conservation_check",
]

# a report whose error estimate exceeds this is flagged
STENCIL_FLAG_RTOL = 1e-6
# a drive-vs-bath ledger passes when its residuals are within these
_LEDGER_FLUX_TOL = 1e-8
_LEDGER_NOISE_TOL = 1e-6
# Newton steps that refine each stencil eigenvalue (lambda0_nearest)
_NEWTON_STEPS = 2


class Method(enum.Enum):
    SPECTRAL_FD = "SpectralFD"
    CHARPOLY = "CharPoly"
    ANALYTIC_ORACLE = "AnalyticOracle"
    PERTURBATION = "PerturbationTheory"
    PERIODIC_NUMERIC = "PeriodicNumeric"
    PSEUDO_INVERSE = "PseudoInverse"


DEFAULT_METHOD = Method.PSEUDO_INVERSE


@dataclass(frozen=True)
class CountingFields:
    """One drive counting angle per coherent mode, one per monitored bath."""

    chi: tuple[float, ...]
    xi: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        chi = tuple(float(c) for c in self.chi)
        xi = tuple(float(x) for x in self.xi)
        if not all(math.isfinite(v) for v in chi + xi):
            raise ValueError("counting fields must be finite")
        object.__setattr__(self, "chi", chi)
        object.__setattr__(self, "xi", xi)

    def negated_chi(self) -> "CountingFields":
        return CountingFields(tuple(-c for c in self.chi), self.xi)

    @staticmethod
    def zero(n_modes: int, n_baths: int) -> "CountingFields":
        return CountingFields((0.0,) * n_modes, (0.0,) * n_baths)


@dataclass(frozen=True)
class MgfValue:
    """Moment-generating-function sample.

    ``fallback`` is true when either branch was propagated by expm.
    """

    value: complex
    fallback: bool = False


@dataclass(frozen=True)
class CumulantReport:
    """Flux and noise rate of one counted channel; ``h`` is the step the
    route chose (0.0 for a route that takes none)."""

    mode: int | str
    flux: float
    noise: float
    method: Method
    h: float
    stencil_error: float

    @property
    def flagged(self) -> bool:
        return self.stencil_error > STENCIL_FLAG_RTOL

    @property
    def snr(self) -> float:
        if self.noise > 0.0:
            return self.flux / math.sqrt(self.noise)
        return 0.0 if self.flux == 0.0 else math.inf * math.copysign(1.0, self.flux)


@dataclass(frozen=True)
class ConservationReport:
    """Drive vs bath ledger comparison in the long-time limit."""

    drive: CumulantReport
    bath: CumulantReport
    flux_residual: float
    noise_residual: float

    @property
    def passed(self) -> bool:
        return (
            abs(self.flux_residual) <= _LEDGER_FLUX_TOL
            and abs(self.noise_residual) <= _LEDGER_NOISE_TOL
        )


# ---------------------------------------------------------------------------
# generating functions


def evolve_generalized(model, fields: CountingFields, rho0_vec, t: float):
    """Generalized density matrix rho_L(t) as a flagged ``PropagationResult``."""
    liouv = model.dressed_liouvillian(fields.chi, fields.xi)
    return propagate(liouv, np.asarray(rho0_vec, dtype=complex), t)


def dynamical_mgf(model, fields: CountingFields, rho0_vec, t: float) -> MgfValue:
    """Two-branch dynamical MGF tr[rho_L(xi,chi)]/2 + conj(tr[rho_L(xi,-chi)])/2."""
    trace = model.trace_vector()
    plus = evolve_generalized(model, fields, rho0_vec, t)
    minus = evolve_generalized(model, fields.negated_chi(), rho0_vec, t)
    left = complex(trace @ plus.vector) / 2.0
    right = np.conj(complex(trace @ minus.vector)) / 2.0
    return MgfValue(value=left + right, fallback=plus.fallback or minus.fallback)


def initial_mgf(alphas: Sequence[float], chi: Sequence[float]) -> complex:
    """Coherent-state (Poissonian) initial MGF, prod_k exp[a_k^2 (e^{-i chi_k}-1)]."""
    total = 0.0 + 0.0j
    for a, c in zip(alphas, chi, strict=True):
        if a < 0:
            raise ValueError("coherent amplitudes must be nonnegative")
        total += a * a * (np.exp(-1j * c) - 1.0)
    return complex(np.exp(total))


def gaussian_initial_mgf(
    nbar: Sequence[float], sigma2: Sequence[float], chi: Sequence[float]
) -> complex:
    """Gaussian initial MGF, prod_k exp[-i nbar_k chi_k - sigma_k^2 chi_k^2 / 2].

    The angle is wrapped to (-pi, pi] before evaluation: photon numbers live
    on the integer lattice, so their MGF must be 2 pi periodic, and the
    wrapped Gaussian is the dominant term of the exact periodization (the
    neglected images carry weight exp(-sigma^2 pi^2 / 2)).
    """
    total = 0.0 + 0.0j
    for n, s2, c in zip(nbar, sigma2, chi, strict=True):
        c = math.remainder(c, 2.0 * math.pi)
        total += -1j * n * c - 0.5 * s2 * c * c
    return complex(np.exp(total))


# ---------------------------------------------------------------------------
# the slow eigenvalue


def _newton_polish(liouv: np.ndarray, lam: complex) -> complex:
    """Refine an eigenvalue by Newton iteration on the determinant.

    The update lam -> lam - 1/tr[(lam I - L)^{-1}] drives det(lam I - L) to
    zero; determinants carry far less roundoff than a full eigensolve, which
    matters when eigenvalue derivatives are later amplified by 1/h^2.
    """
    eye = np.eye(liouv.shape[0], dtype=complex)
    for _ in range(_NEWTON_STEPS):
        try:
            inv = np.linalg.inv(lam * eye - liouv)
        except np.linalg.LinAlgError:
            break
        trace = np.trace(inv)
        if trace == 0.0:
            break
        lam = lam - 1.0 / trace
    return complex(lam)


def lambda0_nearest(model, fields: CountingFields) -> complex:
    """Eigenvalue of the dressed generator nearest zero, Newton-refined.

    Safe for the small fields used in derivative stencils only.
    """
    liouv = model.dressed_liouvillian(fields.chi, fields.xi)
    evals = np.linalg.eigvals(liouv)
    lam = complex(evals[np.argmin(np.abs(evals))])
    return _newton_polish(liouv, lam)


def spectral_gap(model) -> float:
    """Distance from the stationary eigenvalue to the rest of the spectrum.

    Measured as the smallest nonzero decay rate |Re lambda| at zero fields,
    which is the scale that bounds safe counting-field steps.
    """
    zero = CountingFields.zero(model.n_modes, model.n_baths)
    liouv = model.dressed_liouvillian(zero.chi, zero.xi)
    evals = np.linalg.eigvals(liouv)
    scale = max(float(np.abs(evals).max()), 1e-300)
    rates = np.abs(evals.real)
    nonzero = rates[rates > 1e-12 * scale]
    return float(nonzero.min()) if nonzero.size else 0.0


_MAX_STEP = 1e-3
_GAP_DIVISOR = 20.0


def default_step(model) -> float:
    """Stencil step bounded by the spectral gap (keeps lambda_0 on its branch)."""
    gap = spectral_gap(model)
    if gap == 0.0:
        return _MAX_STEP
    return min(_MAX_STEP, gap / _GAP_DIVISOR)


# ---------------------------------------------------------------------------
# cumulants

Selector = int | str


def _fields_for(model, selector: Selector, x: float) -> CountingFields:
    chi = [0.0] * model.n_modes
    xi = [0.0] * model.n_baths
    if isinstance(selector, int):
        if not 1 <= selector <= model.n_modes:
            raise ValueError(f"mode {selector} out of range")
        chi[selector - 1] = x
    elif selector == "drive":
        chi = [x] * model.n_modes
    elif selector == "bath":
        xi = [x] * model.n_baths
    else:
        raise ValueError(f"unknown counting selector {selector!r}")
    return CountingFields(tuple(chi), tuple(xi))


def _check_order(order: int) -> None:
    if order not in (1, 2):
        raise ValueError(
            f"cumulant order {order} is not served: every cumulant grows "
            "linearly in time in the long-time limit, but the routes take only "
            "the first two field derivatives of the slow eigenvalue, so they "
            "report the flux (order 1) and the noise (order 2)"
        )


def flux_and_noise(d1, d2):
    """Flux Re(i lambda') and noise -Re(lambda'') from the first two field
    derivatives of a slow eigenvalue (or the mean and variance from those of
    a log-MGF); floats for scalars, elementwise for arrays."""
    flux, noise = (1j * d1).real, (-d2).real
    if np.ndim(flux):
        return flux, noise
    return float(flux), float(noise)


Rates = tuple[float, float, float, float]  # flux, noise, h, stencil error


def _report(selector: Selector, method: Method, flux, noise, h, err) -> CumulantReport:
    return CumulantReport(selector, float(flux), float(noise), method, h, float(err))


def _stencil_rates(f: Callable[[float], complex], h: float) -> Rates:
    from .numdiff import central_derivative  # only the stencil routes load it

    d1, d2, rel_error = central_derivative(f, h)
    return (*flux_and_noise(d1, d2), h, rel_error)


def _spectral(model, selector: Selector) -> Rates:
    """Flux and noise from stencil derivatives of the tracked slow eigenvalue.

    The stencil is evaluated on a small ladder of candidate steps, and the
    rates with the smallest Richardson disagreement are returned (the first
    such step).  The optimal step varies by orders
    of magnitude across parameter space (the branch radius of lambda_0
    shrinks with the spectral gap while roundoff amplification grows as
    1/h^2), and the Richardson estimate tracks the true error well once the
    eigenvalues are Newton-refined.
    """
    def f(x: float) -> complex:
        return lambda0_nearest(model, _fields_for(model, selector, x))

    # the fixed steps, then the gap-bounded default unless it is one of them
    ladder = dict.fromkeys([1e-3, 3e-4, 1e-4, 3e-5, 1e-5, default_step(model)])
    return min((_stencil_rates(f, step) for step in ladder), key=lambda rates: rates[3])


def _charpoly(model, selector: Selector) -> Rates:
    """Flux and noise by implicit differentiation of the char-poly root.

    Differentiating sum_j a_j(chi) lambda^j = 0 at the stationary root
    lambda(0) = 0 needs only the field-derivatives of a0 and a1, which are
    obtained exactly (up to roundoff) by trigonometric interpolation over
    one field period; the reported ``h`` is the sample spacing.
    """
    def matrix_fn(x: float):
        fields = _fields_for(model, selector, x)
        return model.dressed_liouvillian(fields.chi, fields.xi)

    derivs = coefficient_derivatives(matrix_fn)
    # degeneracy guard: raises if a1(0) vanishes
    truncated_root(derivs.at_zero, 2)
    a1 = derivs.at_zero.coefficients[1]
    a2 = derivs.at_zero.coefficients[2]
    dlam = -derivs.da0 / a1
    d2lam = -(derivs.d2a0 + 2.0 * derivs.da1 * dlam + 2.0 * a2 * dlam * dlam) / a1
    return (*flux_and_noise(dlam, d2lam), 2.0 * math.pi / derivs.n_samples, derivs.rel_error)


def _oracle(model, selector: Selector) -> Rates:
    """Closed-form (or closed-form-derived) cumulants where the model has them.

    The model supplies them through ``oracle_rates(selector)``.
    """
    flux, noise, err = model.oracle_rates(selector)
    return flux, noise, 0.0, err


def _perturbation(model, selector: Selector) -> Rates:
    """Flux and noise from the second-order eigenvalue of a tagged split,
    by a stencil of the gap-bounded :func:`default_step`."""
    from .perturbation import PerturbationSplit, nhpt_eigenvalue

    def f(x: float) -> complex:
        fields = _fields_for(model, selector, x)
        terms = model.tagged_terms(fields.chi, fields.xi[0])
        l0 = sum(m for o, m in terms if o == 0)
        l1 = sum(m for o, m in terms if o > 0)
        split = PerturbationSplit(l0=l0, l1=l1)
        mu = int(np.argmin(np.abs(spectral_decompose(l0).eigenvalues)))
        return nhpt_eigenvalue(split, mu, order=2)

    return _stencil_rates(f, default_step(model))


def _slow_exponent_rates(u, du, d2u, period: float) -> tuple[float, float]:
    """Flux and noise from the Floquet multiplier of ``u`` nearest 1.

    With biorthonormal eigenvectors l_k, r_k of U and V = U', W = U'':
    mu' = l V r and mu'' = l W r + 2 sum_{k != 0} (l V r_k)(l_k V r)/(mu - mu_k);
    the slow exponent lambda = log(mu) / period then has
    lambda' = mu' / (mu T) and lambda'' = (mu''/mu - (mu'/mu)^2) / T.
    """
    dec = spectral_decompose(u)
    k = int(np.argmin(np.abs(dec.eigenvalues - 1.0)))
    mu = dec.eigenvalues[k]
    v = dec.left @ du @ dec.right
    others = np.arange(dec.dim) != k
    mu1 = v[k, k]
    mu2 = dec.left[k] @ d2u @ dec.right[:, k] + 2.0 * np.sum(
        v[k, others] * v[others, k] / (mu - dec.eigenvalues[others])
    )
    lam1 = mu1 / (mu * period)
    lam2 = (mu2 / mu - (mu1 / mu) ** 2) / period
    return flux_and_noise(lam1, lam2)


def _rel_change(coarse: float, fine: float) -> float:
    return abs(fine - coarse) / max(abs(fine), 1e-300)


def selector_derivatives(model, selector: Selector, plus, minus):
    """L' and L'' along ``selector`` at zero field, exactly.

    ``plus`` and ``minus`` hold a generator's field components, one per
    field (chi_1, ..., xi_1, ...) on axis 0 and any shape behind it, so that
    L = L_0 + sum_f (e^{i theta_f} plus[f] + e^{-i theta_f} minus[f]).  With
    u the selector's 0/1 field mask, L' = i sum_f u_f (plus[f] - minus[f])
    and L'' = -sum_f u_f (plus[f] + minus[f]).
    """
    fields = _fields_for(model, selector, 1.0)
    counted = np.array(fields.chi + fields.xi) != 0.0
    plus, minus = plus[counted], minus[counted]
    return 1j * (plus - minus).sum(axis=0), -(plus + minus).sum(axis=0)


def _pseudo_inverse_rates(l0, trace, l1, l2) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flux and noise of shape (n, K) and eps * cond_1(B) of shape (n,).

    ``l0`` stacks n zero-field generators (n, d, d), ``trace`` their left
    null vectors (n, d), and ``l1``, ``l2`` K field-derivative pairs per
    generator (n, K, d, d).  One stacked inverse of the bordered matrices
    serves every pair; a singular one raises ``DegenerateRootError``.  Each
    solve takes one step of iterative refinement with that inverse, z ->
    z + B^{-1} (b - B z): lambda'' is a difference of two terms that can be
    hundreds of times larger than itself, which amplifies the error of an
    unrefined x by as much.
    """
    n, dim = l0.shape[:2]
    bordered = np.zeros((n, dim + 1, dim + 1), dtype=complex)
    bordered[:, :dim, :dim] = l0
    bordered[:, :dim, dim] = np.conj(trace)
    bordered[:, dim, :dim] = trace
    try:
        inverse = np.linalg.inv(bordered)
    except np.linalg.LinAlgError as exc:
        raise DegenerateRootError(
            "the bordered generator is singular: the stationary state is not unique"
        ) from exc

    def solve(rhs: np.ndarray) -> np.ndarray:
        """The first d entries of B^{-1} rhs, rhs of shape (n, K, d + 1, 1)."""
        z = inverse[:, None] @ rhs
        return (z + inverse[:, None] @ (rhs - bordered[:, None] @ z))[..., :dim, :]

    unit = np.zeros((n, 1, dim + 1, 1), dtype=complex)
    unit[..., dim, :] = 1.0
    r = solve(unit)  # (n, 1, d, 1)
    left = trace[:, None, None, :]  # (n, 1, 1, d)
    left_l1 = left @ l1
    lam1 = left_l1 @ r
    drift = np.zeros(l1.shape[:2] + (dim + 1, 1), dtype=complex)
    drift[..., :dim, :] = l1 @ r - lam1 * r
    lam2 = left @ l2 @ r - 2.0 * (left_l1 @ solve(drift))
    cond = np.abs(bordered).sum(axis=1).max(axis=1) * np.abs(inverse).sum(axis=1).max(axis=1)
    flux, noise = flux_and_noise(lam1[..., 0, 0], lam2[..., 0, 0])
    return flux, noise, np.finfo(float).eps * cond


def _pseudo_inverse(model, selector: Selector) -> Rates:
    """Flux and noise from the pseudo-inverse of the generator, with no step.

    The slow eigenvalue of L(x) has lambda' = l L' r and
    lambda'' = l L'' r - 2 l L' R L' r (Flindt et al., PRL 100, 150601
    (2008)), with l the trace, r the stationary state and R the
    pseudo-inverse of L(0) on the complement of its null space; L' and L''
    are exact, from the model's field components.  One inverse of the
    bordered matrix B = [[L(0), conj(l)], [l, 0]] serves both solves: r from
    L(0) r = 0, l r = 1, and x = R (L' r - lambda' r) from
    L(0) x = L' r - lambda' r, l x = 0.  The reported ``stencil_error`` is a
    forward-error estimate, eps * cond_1(B), with cond_1(B) exact from the
    inverse.  (Numpy's inverse rather than scipy's LU factor and condition
    estimate: the latter load further LAPACK code and raise a sweep's peak
    memory by 1 MiB.)
    A model with structure the dense inverse ignores serves the route
    itself through ``pseudo_inverse_rates(selector)``, which returns
    (flux, noise, error estimate).  :func:`cumulants_many` stacks the same
    solve over many models.
    """
    if hasattr(model, "pseudo_inverse_rates"):
        flux, noise, err = model.pseudo_inverse_rates(selector)
    else:
        flux, noise, err = _dense_pseudo_inverse([model], (selector,))
        flux, noise, err = flux[0, 0], noise[0, 0], err[0]
    return flux, noise, 0.0, err


def _dense_pseudo_inverse(models, selectors) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """PseudoInverse flux and noise of shape (n, K) and the error estimate
    of shape (n,): every selector for each static model, from one stacked
    bordered inverse.

    The generators come from the models' exact field components, one
    ``field_components`` call per run of consecutive models of one class."""
    runs = [cls.field_components(list(run)) for cls, run in itertools.groupby(models, type)]
    l0, plus, minus = (np.concatenate(part, axis=axis) for part, axis in zip(zip(*runs), (0, 1, 1)))
    pairs = [selector_derivatives(models[0], s, plus, minus) for s in selectors]
    l1, l2 = (np.stack(d, axis=1) for d in zip(*pairs))
    traces = np.array([m.trace_vector() for m in models])
    return _pseudo_inverse_rates(l0 + plus.sum(axis=0) + minus.sum(axis=0), traces, l1, l2)


def cumulants_many(
    models: Sequence,
    selectors: Sequence[Selector],
    method: Method = DEFAULT_METHOD,
) -> list[list[CumulantReport] | Exception]:
    """For each model, the reports of every selector or the exception that
    refused it, as :func:`cumulants` gives them model by model.

    PseudoInverse is stacked over the models that serve no
    ``pseudo_inverse_rates`` hook: their field components give every
    selector's L' and L'', and one stacked bordered inverse serves all
    models and selectors.  When the stacked solve raises, every model is
    redone alone, so only a failing one carries the error.  Other models
    and methods loop over :func:`cumulants`.
    """
    results: list = [None] * len(models)
    dense = [i for i, m in enumerate(models) if not hasattr(m, "pseudo_inverse_rates")]
    if method is Method.PSEUDO_INVERSE and dense:
        try:
            flux, noise, err = _dense_pseudo_inverse([models[i] for i in dense], selectors)
        except Exception:  # redone model by model below
            dense = []
        for n, i in enumerate(dense):
            results[i] = [_report(s, method, flux[n, k], noise[n, k], 0.0, err[n])
                          for k, s in enumerate(selectors)]
    for i, model in enumerate(models):
        if results[i] is None:
            try:
                results[i] = [cumulants(model, s, method=method) for s in selectors]
            except Exception as exc:  # the caller records it per model
                results[i] = exc
    return results


def _periodic(model, selector: Selector) -> Rates:
    """Flux and noise of a time-periodic model from its slow Floquet multiplier.

    The one-period propagator and its exact first two field derivatives come
    from one RK4 pass over the variational system; the model's
    ``harmonic_derivatives(selector)`` gives its harmonic orders, its time
    harmonics and their exact field derivatives.  The pass is repeated with ``2 * model.steps``
    steps: the finer estimate is returned, its relative change in
    (flux, noise) is the reported ``stencil_error``, and a propagator change
    beyond ``model.check_tol`` raises
    :class:`~photonstats.superop.StepConvergenceError`.
    """
    orders, h0, d1, d2 = model.harmonic_derivatives(selector)
    derivs = np.stack((h0, d1, d2))
    passes = []
    for steps in (model.steps, 2 * model.steps):
        u, du, d2u = variational_monodromy(orders, derivs, model.period, steps)
        passes.append((u, _slow_exponent_rates(u, du, d2u, model.period)))
    (u_coarse, coarse), (u_fine, (flux, noise)) = passes
    if model.check_tol is not None:
        rel = step_change(u_coarse, u_fine)
        if rel > model.check_tol:
            raise StepConvergenceError(u_coarse, u_fine, rel, model.check_tol)
    err = max(_rel_change(coarse[0], flux), _rel_change(coarse[1], noise))
    return flux, noise, 0.0, err


# each method's route and the model hook it needs (None: every model serves it)
_ROUTES = {
    Method.SPECTRAL_FD: (_spectral, None),
    Method.CHARPOLY: (_charpoly, None),
    Method.ANALYTIC_ORACLE: (_oracle, "oracle_rates"),
    Method.PERTURBATION: (_perturbation, "tagged_terms"),
    Method.PERIODIC_NUMERIC: (_periodic, "harmonic_derivatives"),
    Method.PSEUDO_INVERSE: (_pseudo_inverse, None),
}


def cumulants(
    model,
    selector: Selector,
    method: Method = DEFAULT_METHOD,
    order: int = 2,
) -> CumulantReport:
    """Flux and noise of ``selector`` by ``method``.

    The one place that checks a request (the cumulant order, the model hook
    the route needs, which raises ``NotImplementedError``) and builds the
    report of a route's rates.  The report's ``h`` is the step the route
    chose: SpectralFD's ladder step, PerturbationTheory's
    :func:`default_step`, CharPoly's sample spacing, or 0.0 for the routes
    that take no step.
    """
    _check_order(order)
    route, hook = _ROUTES[method]
    if hook is not None and not hasattr(model, hook):
        raise NotImplementedError(
            f"{type(model).__name__} has no {hook} hook, which {method.value} needs"
        )
    return _report(selector, method, *route(model, selector))


def conservation_check(
    model,
    method: Method = DEFAULT_METHOD,
) -> ConservationReport:
    """Compare the total-drive ledger against the bath ledger.

    In the long-time limit the total number of drive photons and bath
    photons can only be exchanged with each other (up to the bounded matter
    occupation), so I_drive = -I_bath and the noise rates coincide.
    """
    drive = cumulants(model, "drive", method=method)
    bath = cumulants(model, "bath", method=method)
    return ConservationReport(
        drive=drive,
        bath=bath,
        flux_residual=drive.flux + bath.flux,
        noise_residual=drive.noise - bath.noise,
    )
