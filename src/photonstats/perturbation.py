"""Non-Hermitian stationary perturbation theory and adiabatic elimination.

Two complementary reductions of a Liouvillian L = L0 + L1 with a weak
coupling L1:

* eigenvalue corrections through second order using the biorthonormal
  left/right eigenvectors of L0, and
* adiabatic elimination of a fast (transient) subspace, optionally
  truncated at a given perturbative order via scale-tagged terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .superop import spectral_decompose

__all__ = [
    "PerturbationSplit",
    "SubspacePartition",
    "NearDegeneracyError",
    "SingularTransientBlockError",
    "nhpt_eigenvalue",
    "adiabatic_eliminate",
]

_GAP_THRESHOLD = 1e-9


class NearDegeneracyError(ValueError):
    """Target eigenvalue too close to another for a second-order sum."""


class SingularTransientBlockError(ValueError):
    """Transient block not invertible; adiabatic elimination undefined."""

    def __init__(self, smallest_singular_value: float):
        self.smallest_singular_value = smallest_singular_value
        super().__init__(
            "transient block is numerically singular "
            f"(smallest singular value {smallest_singular_value:.3e})"
        )


@dataclass(frozen=True)
class PerturbationSplit:
    """Liouvillian split L = L0 + L1 with the strength scale folded into L1."""

    l0: np.ndarray
    l1: np.ndarray

    def __post_init__(self) -> None:
        l0 = np.asarray(self.l0, dtype=complex)
        l1 = np.asarray(self.l1, dtype=complex)
        if l0.shape != l1.shape or l0.ndim != 2 or l0.shape[0] != l0.shape[1]:
            raise ValueError("l0 and l1 must be square matrices of equal shape")
        object.__setattr__(self, "l0", l0)
        object.__setattr__(self, "l1", l1)

    @property
    def full(self) -> np.ndarray:
        return self.l0 + self.l1


@dataclass(frozen=True)
class SubspacePartition:
    """Disjoint covering split of the vectorized basis indices."""

    slow: tuple[int, ...]
    fast: tuple[int, ...]

    def __post_init__(self) -> None:
        s, t = set(self.slow), set(self.fast)
        if s & t:
            raise ValueError("slow and fast index sets overlap")
        if sorted(s | t) != list(range(len(s) + len(t))):
            raise ValueError("index sets must cover 0..dim-1 without gaps")


def nhpt_eigenvalue(split: PerturbationSplit, mu: int, order: int = 2) -> complex:
    """Eigenvalue of L0 + L1 perturbatively corrected through the given order.

    Order 1 adds <l_mu, L1 r_mu>; order 2 adds the biorthonormal sum
    sum_{nu != mu} <l_nu, L1 r_mu><l_mu, L1 r_nu> / (lambda_mu - lambda_nu).
    The target eigenvalue of L0 must be simple.
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    dec = spectral_decompose(split.l0)
    lam = dec.eigenvalues
    norm = float(np.linalg.norm(split.l0, 2))
    target = lam[mu]
    others = np.delete(np.arange(len(lam)), mu)
    gaps = np.abs(lam[others] - target)
    if gaps.size and gaps.min() <= _GAP_THRESHOLD * max(norm, 1e-300):
        raise NearDegeneracyError(
            f"target eigenvalue {target} within {gaps.min():.3e} of another; "
            "nondegenerate perturbation theory does not apply"
        )
    r_mu = dec.right[:, mu]
    l_mu = dec.left[mu, :]
    value = target + l_mu @ split.l1 @ r_mu
    if order == 2:
        l1r = split.l1 @ r_mu
        l1t = l_mu @ split.l1
        for nu in others:
            num = (dec.left[nu, :] @ l1r) * (l1t @ dec.right[:, nu])
            value += num / (target - lam[nu])
    return complex(value)


TaggedTerms = Sequence[tuple[int, np.ndarray]]


def _blocks(a: np.ndarray, part: SubspacePartition):
    s = np.asarray(part.slow)
    t = np.asarray(part.fast)
    return (
        a[np.ix_(s, s)],
        a[np.ix_(s, t)],
        a[np.ix_(t, s)],
        a[np.ix_(t, t)],
    )


def _checked_inverse(block: np.ndarray) -> np.ndarray:
    svals = np.linalg.svd(block, compute_uv=False)
    smallest = float(svals.min()) if svals.size else 0.0
    if smallest < 1e-12 * max(float(svals.max()) if svals.size else 0.0, 1e-300):
        raise SingularTransientBlockError(smallest)
    return np.linalg.inv(block)


def adiabatic_eliminate(
    liouvillian: np.ndarray | TaggedTerms,
    partition: SubspacePartition,
    order: int | None = None,
) -> np.ndarray:
    """Effective generator on the slow subspace after eliminating the fast one.

    Setting d/dt of the fast components to zero yields
    L_eff = L^(ss) - L^(st) [L^(tt)]^-1 L^(ts).

    When the Liouvillian is supplied as scale-tagged terms
    ``[(order, matrix), ...]`` and a truncation order n is requested, the
    fast-block inverse is expanded as a Neumann series around the order-0
    block and every contribution of total order > n is dropped, making the
    truncation mechanical rather than hand-derived.
    """
    if isinstance(liouvillian, np.ndarray):
        if order is not None:
            raise ValueError("order truncation requires scale-tagged terms")
        ss, st, ts, tt = _blocks(np.asarray(liouvillian, dtype=complex), partition)
        return ss - st @ _checked_inverse(tt) @ ts
    terms = [(int(o), np.asarray(m, dtype=complex)) for o, m in liouvillian]
    if order is None:
        total = sum(m for _, m in terms)
        return adiabatic_eliminate(total, partition)
    ss: dict[int, np.ndarray] = {}
    st: dict[int, np.ndarray] = {}
    ts: dict[int, np.ndarray] = {}
    tt: dict[int, np.ndarray] = {}
    for o, m in terms:
        b_ss, b_st, b_ts, b_tt = _blocks(m, partition)
        for store, block in ((ss, b_ss), (st, b_st), (ts, b_ts), (tt, b_tt)):
            store[o] = store.get(o, 0) + block
    if 0 not in tt:
        raise SingularTransientBlockError(0.0)
    inv0 = _checked_inverse(tt[0])
    # Neumann expansion of [L^(tt)]^-1 in the tagged higher-order blocks:
    # inv[m] = -inv0 @ sum_{j=1..m} tt[j] @ inv[m-j]
    inv: dict[int, np.ndarray] = {0: inv0}
    for m in range(1, order + 1):
        acc = np.zeros_like(inv0)
        for j in range(1, m + 1):
            if j in tt:
                acc += tt[j] @ inv[m - j]
        inv[m] = -inv0 @ acc
    n_s = len(partition.slow)
    result = np.zeros((n_s, n_s), dtype=complex)
    for o, block in ss.items():
        if o <= order:
            result += block
    for o1, left in st.items():
        for m, mid in inv.items():
            for o2, right in ts.items():
                if o1 + m + o2 <= order:
                    result -= left @ mid @ right
    return result
