import tracemalloc

import numpy as np
import pytest

from ncfourier.algebra import random_element
from ncfourier.checks import check_hausdorff_young, check_inversion_plancherel
from ncfourier.errors import ParameterError
from ncfourier.estimator import _next_stack, estimate_pq_norm, exact_l2_norm
from ncfourier.fourier import fourier, inverse_fourier
from ncfourier.linmap import LinearMap
from ncfourier.lorentz import lorentz_norms, lp_norm
from ncfourier.schur import (
    SchurSymbol,
    schatten_algebra,
    schur_map,
    schur_pair,
    symbol_sequence_norm,
)

from conftest import oracle_entry_lorentz, weighted_adjoint_matrix


class TestSchattenAlgebra:
    def test_single_unit_block(self):
        alg = schatten_algebra(4)
        assert alg.dims == (4,)
        assert alg.weights == (1.0,)

    def test_schatten_norm_is_singular_value_norm(self):
        alg = schatten_algebra(3)
        x = random_element(alg, 1)
        sv = np.linalg.svd(x.blocks[0], compute_uv=False)
        assert lp_norm(x, 3.0) == pytest.approx(
            float((sv**3).sum() ** (1.0 / 3.0)), rel=1e-12
        )

    def test_bad_size(self):
        with pytest.raises(ParameterError):
            schatten_algebra(0)


class TestSchurMap:
    def test_all_ones_is_identity(self):
        m = schur_map(np.ones((3, 3)))
        x = random_element(schatten_algebra(3), 2)
        assert np.allclose(m.apply(x).row, x.row)
        assert exact_l2_norm(m) == pytest.approx(1.0)

    def test_matrix_unit_symbol(self):
        m = schur_map(np.array([[1.0, 0.0], [0.0, 0.0]]))
        alg = schatten_algebra(2)
        x = random_element(alg, 3)
        out = m.apply(x)
        assert out.blocks[0][0, 0] == pytest.approx(x.blocks[0][0, 0])
        assert abs(out.blocks[0][0, 1]) == 0.0
        assert abs(out.blocks[0][1, 0]) == 0.0
        assert abs(out.blocks[0][1, 1]) == 0.0

    def test_zero_one_symbol_idempotent(self):
        rng = np.random.default_rng(70)
        a = (rng.random((4, 4)) < 0.5).astype(float)
        m = schur_map(a)
        assert np.allclose(m.matrix @ m.matrix, m.matrix, atol=1e-14)

    def test_entrywise_action(self):
        rng = np.random.default_rng(71)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        x = random_element(schatten_algebra(3), 4)
        out = schur_map(a).apply(x)
        assert np.allclose(out.blocks[0], a * x.blocks[0], atol=1e-14)

    def test_accepts_symbol_object(self):
        sym = SchurSymbol(np.eye(2))
        m = schur_map(sym)
        assert exact_l2_norm(m) == pytest.approx(1.0)

    def test_diagonal_symbol_l2(self):
        a = np.diag([3.0, 1.0])
        assert exact_l2_norm(schur_map(a)) == pytest.approx(3.0)


class TestDiagonalForm:
    """Schur maps are held as their n^2 values and multiplied entrywise."""

    @pytest.mark.parametrize("n", [1, 3])
    def test_row_products_match_dense(self, n):
        rng = np.random.default_rng(80 + n)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        m = schur_map(a)
        assert m.diagonal is not None and m.diagonal.basis.kind == "identity"
        z = rng.standard_normal((4, n * n)) + 1j * rng.standard_normal((4, n * n))
        stack, _ = _next_stack(m, iter([]), 1, 4)
        slots = np.arange(4)
        dense = np.diag(a.ravel())
        adjoint = weighted_adjoint_matrix(LinearMap(m.domain, m.codomain, dense))
        assert np.allclose(stack.apply(z, slots), z @ dense.T, rtol=1e-12, atol=0.0)
        assert np.allclose(stack.adjoint(z.copy(), slots), z @ adjoint.T, rtol=1e-12, atol=0.0)
        assert "matrix" not in vars(m)
        assert np.array_equal(m.matrix, dense)


class TestIdentityPair:
    """Schur maps are the multipliers of schur_pair(n), whose transform is the identity."""

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_structure(self, n):
        pair = schur_pair(n)
        assert pair.name == f"M{n}" and pair.transform.kind == "identity"
        assert pair.source.is_commutative and pair.source.complex_dim == n * n
        assert set(pair.source.weights) == {1.0}
        assert pair.dual == schatten_algebra(n)

    @pytest.mark.parametrize("n", [2, 16])
    def test_products_are_the_entrywise_product(self, n):
        # bit for bit the entrywise values * rows, and its matrix diag(values)
        rng = np.random.default_rng(90 + n)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        m = schur_map(a)
        values = a.ravel()
        z = rng.standard_normal((6, n * n)) + 1j * rng.standard_normal((6, n * n))
        stack, _ = _next_stack(m, iter([]), 1, 6)
        slots = np.arange(6)
        assert np.array_equal(stack.apply(z, slots), values * z)
        assert np.array_equal(stack.adjoint(z.copy(), slots), values.conj() * z)
        x = random_element(m.domain, 5)
        assert np.array_equal(m.apply(x).row, values * x.row)
        assert np.array_equal(m.matrix, np.ascontiguousarray((values * np.eye(n * n)).T))

    def test_pair_is_built_once_per_size(self):
        assert schur_pair(16) is schur_pair(16)
        assert schur_map(np.ones((16, 16))).domain is schur_pair(16).dual

    def test_m16_map_allocates_little(self):
        # the pair's 256-block source algebra is built once, not per map
        a = np.ones((16, 16))
        schur_map(a)
        tracemalloc.start()
        try:
            schur_map(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 9 * 1024

    def test_transforms_copy_their_rows(self):
        # the identity transform returns its input; an element and its image share no row
        pair = schur_pair(2)
        x = random_element(pair.source, 8)
        fx = fourier(pair, x)
        assert np.array_equal(fx.row, x.row) and not np.shares_memory(fx.row, x.row)
        assert not np.shares_memory(inverse_fourier(pair, fx).row, fx.row)

    def test_hausdorff_young_is_a_hard_pass(self):
        # ||A||_{S_3} <= ||a||_{l_1.5} for the entries a of A
        rep = check_hausdorff_young(schur_pair(4), 1.5, trials=200, seed=3)
        assert rep.hard and rep.passed

    def test_inversion_plancherel_is_a_hard_pass(self):
        rep = check_inversion_plancherel(schur_pair(4), trials=200, seed=4)
        assert rep.hard and rep.passed

    @pytest.mark.parametrize("p, q", [(2.0, None), (1.5, np.inf), (3.0, 1.0), (2.5, 4.0)])
    def test_sequence_norm_is_lorentz_norms_on_the_source(self, p, q):
        rng = np.random.default_rng(95)
        a = rng.standard_normal((3, 3)) * (rng.random((3, 3)) < 0.7)
        want = lorentz_norms(schur_pair(3).source, a.ravel()[None], p, p if q is None else q)[0]
        assert symbol_sequence_norm(a, p, q) == want


class TestSymbolValidation:
    def test_rejects_nonsquare(self):
        with pytest.raises(ParameterError):
            SchurSymbol(np.ones((2, 3)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ParameterError):
            SchurSymbol(np.array([[1.0, np.nan], [0.0, 1.0]]))

    def test_rejects_vector(self):
        with pytest.raises(ParameterError):
            SchurSymbol(np.ones(4))


class TestSequenceNorm:
    def test_matrix_unit(self):
        a = np.zeros((3, 3))
        a[0, 0] = 1.0
        assert symbol_sequence_norm(a, 2.0) == pytest.approx(1.0)
        assert symbol_sequence_norm(a, 1.5, np.inf) == pytest.approx(1.0)

    def test_all_ones_weak_norm(self):
        # n^2 entries of size one: sup_k k^(1/2) * 1 = n
        assert symbol_sequence_norm(np.ones((2, 2)), 2.0, np.inf) == pytest.approx(2.0)

    def test_two_values_weak(self):
        a = np.zeros((2, 2))
        a[0, 0], a[0, 1] = 3.0, 1.0
        # rearrangement (3, 1): max(1^(1/2)*3, 2^(1/2)*1) = 3
        assert symbol_sequence_norm(a, 2.0, np.inf) == pytest.approx(3.0)

    def test_default_q_is_p(self):
        rng = np.random.default_rng(72)
        a = rng.standard_normal((3, 3))
        want = float((np.abs(a.ravel()) ** 2.5).sum() ** (1 / 2.5))
        assert symbol_sequence_norm(a, 2.5) == pytest.approx(want, rel=1e-12)

    def test_against_oracle(self):
        rng = np.random.default_rng(73)
        for i in range(15):
            n = int(rng.integers(2, 5))
            a = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.8)
            r = float(rng.uniform(1.0, 4.0))
            w = float(rng.uniform(1.0, 4.0)) if rng.random() < 0.5 else np.inf
            got = symbol_sequence_norm(a, r, w)
            want = oracle_entry_lorentz(a.ravel(), r, w)
            assert got == pytest.approx(want, rel=1e-6)

    def test_zero_symbol(self):
        assert symbol_sequence_norm(np.zeros((2, 2)), 2.0, np.inf) == 0.0


class TestSchattenBounds:
    """Entrywise-norm controls on Schur multipliers, small sizes."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("p", [4.0 / 3.0, 1.5])
    def test_hard_bound_small(self, n, p):
        # ||a*x||_q <= ||a||_{l_r} ||x||_p with 1/r = 1/p - 1/q, on random data
        q = p / (p - 1.0)
        r = 1.0 / (1.0 / p - 1.0 / q)
        rng = np.random.default_rng(74)
        alg = schatten_algebra(n)
        for i in range(5):
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            m = schur_map(a)
            est = estimate_pq_norm(m, p, q, restarts=4, seed=i)
            bound = symbol_sequence_norm(a, r)
            assert est.lower_bound <= bound * (1 + 1e-6)

    def test_matrix_unit_saturates(self):
        # a = e_11 has ||a||_{l_r} = 1 and the multiplier reaches it
        m = schur_map(np.diag([1.0, 0.0]))
        est = estimate_pq_norm(m, 4.0 / 3.0, 4.0, restarts=4, seed=0)
        assert est.lower_bound == pytest.approx(1.0, rel=1e-7)
