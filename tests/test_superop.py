"""Dense superoperator substrate: Lindblad assembly, spectra, propagation."""

import numpy as np
import pytest
import scipy.linalg as la

from photonstats.superop import (
    BlockTridiagonalLU,
    DefectiveMatrixError,
    dissipator_superop,
    hamiltonian_superop,
    propagate,
    spectral_decompose,
    step_change,
    variational_monodromy,
)

RNG = np.random.default_rng(20240817)


def random_matrix(d, rng=RNG):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


class TestSuperops:
    def test_hamiltonian_superop_is_commutator(self):
        h = random_matrix(3)
        h = h + h.conj().T
        rho = random_matrix(3)
        lhs = (hamiltonian_superop(h) @ rho.reshape(-1)).reshape(3, 3)
        assert np.allclose(lhs, -1j * (h @ rho - rho @ h))

    def test_generalized_left_right(self):
        hl, hr, rho = random_matrix(3), random_matrix(3), random_matrix(3)
        lhs = (hamiltonian_superop(hl, hr) @ rho.reshape(-1)).reshape(3, 3)
        assert np.allclose(lhs, -1j * hl @ rho + 1j * rho @ hr)

    def test_dissipator_action(self):
        c, rho = random_matrix(3), random_matrix(3)
        rate = 0.7
        lhs = (dissipator_superop(c, rate) @ rho.reshape(-1)).reshape(3, 3)
        cdc = c.conj().T @ c
        rhs = rate * (c @ rho @ c.conj().T - 0.5 * (cdc @ rho + rho @ cdc))
        assert np.allclose(lhs, rhs)

    def test_bath_field_scales_jump_only(self):
        c = random_matrix(2)
        xi = 0.37
        plain = dissipator_superop(c)
        dressed = dissipator_superop(c, xi=xi)
        jump = np.kron(c, c.conj())
        assert np.allclose(dressed - plain, (np.exp(-1j * xi) - 1.0) * jump)

    @pytest.mark.parametrize("d", [2, 3, 9])
    def test_builders_match_kron_formulas_bit_for_bit(self, d):
        hl, hr, c = random_matrix(d), random_matrix(d), random_matrix(d)
        eye = np.eye(d, dtype=complex)
        ham = -1.0j * np.kron(hl, eye) + 1.0j * np.kron(eye, hr.T)
        assert np.array_equal(hamiltonian_superop(hl, hr), ham)
        # a stack of Hamiltonians gives the stack of superoperators
        stack = hamiltonian_superop(np.stack([hl, hr]), np.stack([hr, hl]))
        assert np.array_equal(stack[0], ham)
        assert np.array_equal(stack[1], hamiltonian_superop(hr, hl))
        cdc = c.conj().T @ c
        for xi in (0.0, 0.37, -2.1):
            jump = np.exp(-1.0j * xi) * np.kron(c, c.conj())
            anti = 0.5 * (np.kron(cdc, eye) + np.kron(eye, cdc.T))
            assert np.array_equal(dissipator_superop(c, 0.7, xi), 0.7 * (jump - anti))

    def test_lindblad_trace_conserving(self):
        h = random_matrix(3)
        h = h + h.conj().T
        liouv = hamiltonian_superop(h) + dissipator_superop(random_matrix(3), 0.5)
        assert np.allclose(np.eye(3).reshape(-1) @ liouv, 0.0, atol=1e-12)

    def test_dressed_lindblad_not_trace_conserving(self):
        liouv = dissipator_superop(random_matrix(2), 1.0, 0.3)
        assert not np.allclose(np.eye(2).reshape(-1) @ liouv, 0.0, atol=1e-12)


class TestSpectral:
    def test_biorthonormal(self):
        a = random_matrix(5)
        dec = spectral_decompose(a)
        assert np.allclose(dec.left @ dec.right, np.eye(5), atol=1e-10)
        assert np.allclose((dec.right * dec.eigenvalues) @ dec.left, a)

    def test_sorted_by_real_part(self):
        a = np.diag([-3.0, -1.0, -2.0])
        dec = spectral_decompose(a)
        assert np.allclose(dec.eigenvalues.real, [-1.0, -2.0, -3.0])

    def test_defective_raises(self):
        jordan = np.array([[1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(DefectiveMatrixError):
            spectral_decompose(jordan)



class TestPropagation:
    def test_matches_expm(self):
        a = random_matrix(4)
        v0 = RNG.normal(size=4) + 1j * RNG.normal(size=4)
        res = propagate(a, v0, 0.7)
        assert np.allclose(res.vector, la.expm(0.7 * a) @ v0)
        assert res.method == "spectral"

    def test_series_fallback_on_defective(self):
        jordan = np.array([[0.0, 1.0], [0.0, 0.0]])
        res = propagate(jordan, np.array([0.0, 1.0]), 2.0)
        assert res.method == "series" and res.fallback
        assert np.allclose(res.vector, [2.0, 1.0])

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            propagate(np.eye(2), np.ones(2), -1.0)


def monodromy(harmonics, period, steps, orders=(0,)):
    """U(period) of L(t) = sum_n exp(2 pi i orders[n] t / period) harmonics[n]."""
    stack = np.asarray(harmonics, dtype=complex)
    zero = np.zeros_like(stack)
    return variational_monodromy(orders, np.stack([stack, zero, zero]), period, steps)[0]


class TestPeriodic:
    def test_constant_generator(self):
        a = 0.3 * random_matrix(3)
        period = 0.9
        u = monodromy([a], period, steps=128)
        assert np.allclose(u, la.expm(a * period), atol=1e-9)

    def test_step_doubling_detects_coarse_grid(self):
        # L(t) = [[0, cos wt], [-cos wt, 0]] with w = 300 over one period of 3
        half = 0.5 * np.array([[0.0, 1.0], [-1.0, 0.0]])
        period = 2 * np.pi / 3.0
        orders = (-100, 100)
        coarse = monodromy([half, half], period, 64, orders)
        fine = monodromy([half, half], period, 128, orders)
        assert step_change(coarse, fine) > 1e-10

    def test_min_steps(self):
        with pytest.raises(ValueError):
            monodromy([np.eye(2)], 1.0, steps=16)


class TestBlockTridiagonalLU:
    @staticmethod
    def random_system(groups=5, block=4, rng=RNG):
        blocks = rng.normal(size=(3, groups, block, block)) + 1j * rng.normal(
            size=(3, groups, block, block)
        )
        lower, diag, upper = blocks
        diag += 6.0 * np.eye(block)
        dense = la.block_diag(*diag)
        for g in range(1, groups):
            rows, cols = slice(g * block, (g + 1) * block), slice((g - 1) * block, g * block)
            dense[rows, cols] = lower[g]
            dense[cols, rows] = upper[g - 1]
        return BlockTridiagonalLU(lower, diag, upper), dense

    def test_solves_match_dense(self):
        lu, dense = self.random_system()
        rhs = random_matrix(20)[:, :3].reshape(5, 4, 3)
        flat = rhs.reshape(20, 3)
        assert np.allclose(lu.solve(rhs).reshape(20, 3), np.linalg.solve(dense, flat))
        assert np.allclose(
            lu.solve_adjoint(rhs).reshape(20, 3), np.linalg.solve(dense.conj().T, flat)
        )
        assert np.allclose(lu.matvec(rhs).reshape(20, 3), dense @ flat)

    def test_condition_estimate_is_a_close_lower_bound(self):
        lu, dense = self.random_system()
        exact = np.linalg.cond(dense, 1)
        assert 0.3 * exact <= lu.cond1() <= exact * (1 + 1e-12)

    def test_singular_pivot_block_raises(self):
        lower, diag, upper = np.zeros((3, 3, 2, 2), dtype=complex)
        diag[:] = np.eye(2)
        diag[1] = [[1.0, 0.0], [0.0, 0.0]]
        with pytest.raises(np.linalg.LinAlgError):
            BlockTridiagonalLU(lower, diag, upper)
