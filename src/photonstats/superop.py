"""Dense complex linear-algebra substrate for open-system photon counting.

Provides Lindblad superoperator assembly on row-major vec(rho),
non-Hermitian spectral decomposition with biorthonormal left/right
eigenvectors, propagation, the one-period (monodromy) propagator of a
time-periodic generator together with its exact counting-field derivatives
from the variational equations, and a block LU factorization of
block-tridiagonal matrices with a 1-norm condition estimate.

Matrices are small (D <= ~100) and dense, except the block-tridiagonal
ones; everything is double precision complex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpectralDecomposition",
    "PropagationResult",
    "DefectiveMatrixError",
    "StepConvergenceError",
    "hamiltonian_superop",
    "dissipator_superop",
    "spectral_decompose",
    "propagate",
    "step_change",
    "variational_monodromy",
    "BlockTridiagonalLU",
]


# right-eigenvector condition number above which a matrix counts as defective
DEFECTIVE_THRESHOLD = 1e12


class DefectiveMatrixError(ValueError):
    """Raised when an eigenvector matrix is numerically singular."""

    def __init__(self, cond: float):
        self.cond = cond
        super().__init__(
            f"eigenvector matrix condition number {cond:.3e} exceeds "
            f"threshold {DEFECTIVE_THRESHOLD:.3e}; matrix is (numerically) defective"
        )


class StepConvergenceError(RuntimeError):
    """Raised when periodic numerics do not converge under refinement.

    The refinement is step doubling of the RK4 monodromy or four more photon
    blocks in a Floquet (Sambe) generator; ``coarse`` and ``fine`` are the
    two estimates compared.
    """

    def __init__(self, coarse, fine, rel_change: float, tol: float):
        self.coarse = coarse
        self.fine = fine
        self.rel_change = rel_change
        super().__init__(
            f"periodic numerics not converged: relative change {rel_change:.3e} "
            f"between the coarse and refined estimates exceeds tolerance {tol:.3e}"
        )


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of square matrices, or of stacks of them (leading
    axes broadcast), by one broadcast multiply.

    It forms the same products as numpy's ``kron``, so the result is
    bit-identical, without that function's per-call overhead.
    """
    d = a.shape[-1] * b.shape[-1]
    product = a[..., :, None, :, None] * b[..., None, :, None, :]
    return product.reshape(product.shape[:-4] + (d, d))


def hamiltonian_superop(h_left: np.ndarray, h_right: np.ndarray | None = None) -> np.ndarray:
    """Coherent part -i(H_L rho) + i(rho H_R) as a matrix on row-major vec(rho).

    For physical evolution ``h_right`` defaults to ``h_left``; generalized
    (counting-field-dressed) evolution uses different left/right Hamiltonians.
    Stacks of Hamiltonians (..., d, d) give stacks of superoperators.
    """
    h_left = np.asarray(h_left, dtype=complex)
    if h_right is None:
        h_right = h_left
    h_right = np.asarray(h_right, dtype=complex)
    eye = np.eye(h_left.shape[-1], dtype=complex)
    return -1.0j * _kron(h_left, eye) + 1.0j * _kron(eye, h_right.swapaxes(-1, -2))


def dissipator_superop(c: np.ndarray, rate: float = 1.0, xi: float = 0.0) -> np.ndarray:
    """Lindblad dissipator with an optional bath counting field.

    Returns the matrix of rate * (e^{-i xi} c rho c^dag - {c^dag c, rho}/2)
    acting on row-major vec(rho).  At xi=0 this is the standard dissipator.
    """
    c = np.asarray(c, dtype=complex)
    eye = np.eye(c.shape[0], dtype=complex)
    cdc = c.conj().T @ c
    jump = np.exp(-1.0j * xi) * _kron(c, c.conj())
    anti = 0.5 * (_kron(cdc, eye) + _kron(eye, cdc.T))
    return rate * (jump - anti)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Biorthonormal eigensystem of a (generally non-Hermitian) matrix.

    ``right`` holds right eigenvectors as columns, ``left`` holds left
    eigenvectors as rows, normalized so that left @ right = identity.
    Eigenvalues are sorted by descending real part (ties by descending
    imaginary part) so the slow/stationary branch comes first.
    """

    eigenvalues: np.ndarray
    right: np.ndarray
    left: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.size


def spectral_decompose(a: np.ndarray) -> SpectralDecomposition:
    """Eigen-decompose with left vectors from inversion of the right matrix.

    Raises :class:`DefectiveMatrixError` when the right-eigenvector matrix
    condition number exceeds ``DEFECTIVE_THRESHOLD``.
    """
    import scipy.linalg  # imported here so that importing the package skips scipy
    a = np.asarray(a, dtype=complex)
    evals, right = scipy.linalg.eig(a)
    order = np.lexsort((-evals.imag, -evals.real))
    evals = evals[order]
    right = right[:, order]
    cond = float(np.linalg.cond(right))
    if not np.isfinite(cond) or cond > DEFECTIVE_THRESHOLD:
        raise DefectiveMatrixError(cond)
    left = np.linalg.inv(right)
    return SpectralDecomposition(eigenvalues=evals, right=right, left=left)


@dataclass(frozen=True)
class PropagationResult:
    """Propagated vector plus provenance of the evaluation path."""

    vector: np.ndarray
    method: str
    fallback: bool = False


def propagate(a: np.ndarray, v0: np.ndarray, t: float) -> PropagationResult:
    """Evaluate exp(a t) v0.

    The spectral route is tried first; when the decomposition is
    ill-conditioned the evaluation falls back to scaling-and-squaring, and
    the result is flagged.
    """
    if t < 0:
        raise ValueError("propagation time must be nonnegative")
    a = np.asarray(a, dtype=complex)
    v0 = np.asarray(v0, dtype=complex)
    try:
        dec = spectral_decompose(a)
    except DefectiveMatrixError:
        import scipy.linalg
        v = scipy.linalg.expm(a * t) @ v0
        return PropagationResult(vector=v, method="series", fallback=True)
    v = dec.right @ (np.exp(dec.eigenvalues * t) * (dec.left @ v0))
    return PropagationResult(vector=v, method="spectral")


_CHUNK_STEPS = 64
MIN_STEPS = 64  # fewest RK4 steps per period that variational_monodromy accepts


def _rk4(nodes: np.ndarray, h: float, y0: np.ndarray) -> np.ndarray:
    """Fixed-step RK4 for y' = A(t) y over precomputed generator nodes.

    ``nodes[2n]``, ``nodes[2n + 1]`` and ``nodes[2n + 2]`` hold A at the
    start, midpoint and end of step n, so m steps take 2m + 1 nodes.
    """
    y = y0
    for n in range(0, nodes.shape[0] - 1, 2):
        a, b, c = nodes[n], nodes[n + 1], nodes[n + 2]
        k1 = a @ y
        k2 = b @ (y + (0.5 * h) * k1)
        k3 = b @ (y + (0.5 * h) * k2)
        k4 = c @ (y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    return y


def _integrate(nodes_at, period: float, steps: int, y: np.ndarray) -> np.ndarray:
    """RK4 of ``y`` over one period, building the 2 steps + 1 nodes in chunks.

    ``nodes_at(times)`` returns the generator at an array of times, stacked
    along the first axis; each time is requested exactly once.  The nodes of
    ``_CHUNK_STEPS`` steps at a time share one buffer, which bounds memory
    and keeps it in cache.
    """
    h = period / steps
    first = nodes_at(np.zeros(1))
    size = 2 * min(steps, _CHUNK_STEPS) + 1
    nodes = np.empty((size,) + first.shape[1:], dtype=complex)
    nodes[0] = first[0]
    for start in range(0, steps, _CHUNK_STEPS):
        m = min(steps - start, _CHUNK_STEPS)
        times = 0.5 * h * np.arange(2 * start + 1, 2 * (start + m) + 1)
        nodes[1:2 * m + 1] = nodes_at(times)
        y = _rk4(nodes[:2 * m + 1], h, y)
        nodes[0] = nodes[2 * m]
    return y


def _check_steps(period: float, steps: int) -> None:
    if steps < MIN_STEPS:
        raise ValueError(f"steps must be at least {MIN_STEPS}")
    if period <= 0:
        raise ValueError("period must be positive")


def step_change(coarse: np.ndarray, fine: np.ndarray) -> float:
    """Largest entry change from the coarse to the step-halved propagator, over max(|fine|, 1)."""
    denom = max(float(np.abs(fine).max()), 1.0)
    return float(np.abs(fine - coarse).max() / denom)


def variational_monodromy(
    orders: np.ndarray, harmonics: np.ndarray, period: float, steps: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One-period propagator and its first two counting-field derivatives.

    The generator is L(t, x) = sum_n exp(2 pi i orders[n] t / period) L_n(x),
    and ``harmonics[k, n]`` is the k-th x-derivative of L_n at x = 0
    (k = 0, 1, 2).  Returns U, V = dU/dx and W = d^2U/dx^2 at t = period,
    from one 3d x 3d RK4 of the block lower-triangular variational system
    dU/dt = L U, dV/dt = L V + L' U, dW/dt = L W + 2 L' V + L'' U.
    """
    _check_steps(period, steps)
    l, dl, d2l = np.asarray(harmonics, dtype=complex)
    n_harm, d = l.shape[0], l.shape[-1]
    # the variational generator is linear in L, so it has the same harmonics
    block = np.zeros((n_harm, 3 * d, 3 * d), dtype=complex)
    for i in range(3):
        block[:, i * d:(i + 1) * d, i * d:(i + 1) * d] = l
    block[:, d:2 * d, :d] = dl
    block[:, 2 * d:, d:2 * d] = 2.0 * dl
    block[:, 2 * d:, :d] = d2l
    block = block.reshape(n_harm, -1)
    freqs = 2.0 * math.pi / period * np.asarray(orders, dtype=float)

    def nodes_at(times):
        phases = np.exp(1j * np.outer(times, freqs))
        return (phases @ block).reshape(times.size, 3 * d, 3 * d)

    y0 = np.zeros((3 * d, d), dtype=complex)
    y0[:d] = np.eye(d)
    y = _integrate(nodes_at, period, steps, y0)
    return y[:d], y[d:2 * d], y[2 * d:]


class BlockTridiagonalLU:
    """Block LU (Thomas) factors of a block-tridiagonal matrix A.

    ``lower[g]``, ``diag[g]`` and ``upper[g]`` are the blocks A[g, g-1],
    A[g, g] and A[g, g+1]; ``lower[0]`` and ``upper[-1]`` are ignored.  The
    factors are A = L U with L block lower bidiagonal (diagonal S_g, the
    Schur complements, and subdiagonal A[g, g-1]) and U unit block upper
    bidiagonal (superdiagonal S_g^{-1} A[g, g+1]).  Pivoting happens within
    each S_g (numpy's inverse) but not across blocks, so callers should
    check residuals; an exactly singular S_g raises
    ``numpy.linalg.LinAlgError``.  Vectors are stacked per block row with
    shape (n_blocks, block, k).
    """

    def __init__(self, lower: np.ndarray, diag: np.ndarray, upper: np.ndarray):
        self.lower, self.diag, self.upper = lower, diag, upper
        self.pivots = np.empty_like(diag)  # S_g^{-1}
        self.ratios = np.empty_like(upper)  # S_g^{-1} A[g, g+1]
        schur = diag[0]
        for g in range(len(diag)):
            if g:
                schur = diag[g] - lower[g] @ self.ratios[g - 1]
            self.pivots[g] = np.linalg.inv(schur)
            self.ratios[g] = self.pivots[g] @ upper[g]

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """A^{-1} rhs: forward through L, back through U."""
        y = np.empty_like(rhs, dtype=complex)
        y[0] = self.pivots[0] @ rhs[0]
        for g in range(1, len(y)):
            y[g] = self.pivots[g] @ (rhs[g] - self.lower[g] @ y[g - 1])
        for g in range(len(y) - 2, -1, -1):
            y[g] -= self.ratios[g] @ y[g + 1]
        return y

    def solve_adjoint(self, rhs: np.ndarray) -> np.ndarray:
        """A^{-H} rhs: forward through U^H, back through L^H."""
        z = np.array(rhs, dtype=complex)
        for g in range(1, len(z)):
            z[g] -= self.ratios[g - 1].conj().T @ z[g - 1]
        z[-1] = self.pivots[-1].conj().T @ z[-1]
        for g in range(len(z) - 2, -1, -1):
            z[g] = self.pivots[g].conj().T @ (z[g] - self.lower[g + 1].conj().T @ z[g + 1])
        return z

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """A x, for residuals."""
        out = self.diag @ x
        out[1:] += self.lower[1:] @ x[:-1]
        out[:-1] += self.upper[:-1] @ x[1:]
        return out

    def residual(self, x: np.ndarray, rhs: np.ndarray) -> float:
        """Largest relative residual ||A x - rhs||_1 / ||rhs||_1 over the columns."""
        res = np.abs(self.matvec(x) - rhs).sum(axis=(0, 1))
        scale = np.maximum(np.abs(rhs).sum(axis=(0, 1)), 1e-300)
        return float((res / scale).max())

    def cond1(self) -> float:
        """Estimate of the 1-norm condition number ||A||_1 ||A^{-1}||_1.

        ||A||_1 is exact; ||A^{-1}||_1 is Hager's estimate in Higham's
        complex form (Higham, ACM TOMS 14, 381 (1988)), which maximizes
        ||A^{-1} x||_1 over unit vectors by alternating solves with A and
        A^H, together with the alternating-sign test vector that guards its
        known blind spots.  The estimate never exceeds the true norm.
        """
        cols = np.abs(self.diag).sum(axis=1)
        cols[:-1] += np.abs(self.lower[1:]).sum(axis=1)
        cols[1:] += np.abs(self.upper[:-1]).sum(axis=1)
        shape = self.diag.shape[:2] + (1,)
        n = self.diag.shape[0] * self.diag.shape[1]
        x = np.full(shape, 1.0 / n, dtype=complex)
        est = 0.0
        for it in range(5):
            y = self.solve(x)
            norm = float(np.abs(y).sum())
            if it and norm <= est:
                break
            est = norm
            z = self.solve_adjoint(np.exp(1j * np.angle(y)))
            j = int(np.argmax(np.abs(z)))
            if it and np.abs(z).flat[j] <= np.vdot(z, x).real:
                break
            x = np.zeros(shape, dtype=complex)
            x.flat[j] = 1.0
        signs = (-1.0) ** np.arange(n) * (1.0 + np.arange(n) / max(n - 1, 1))
        alt = 2.0 * float(np.abs(self.solve(signs.reshape(shape))).sum()) / (3.0 * n)
        return float(cols.max()) * max(est, alt)
