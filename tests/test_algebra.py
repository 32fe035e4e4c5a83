import pickle
import tracemalloc

import numpy as np
import pytest

from ncfourier.algebra import RANDOM_ENSEMBLES, AlgebraElement, TracialAlgebra, modulus, random_element, random_row, trace
from ncfourier.campaign import resolve_instance
from ncfourier.errors import ParameterError, ShapeMismatchError

from conftest import random_algebra, reference_block_row, reference_random_blocks


class TestTracialAlgebra:
    def test_basic_fields(self):
        alg = TracialAlgebra([1, 2], [0.5, 2.0])
        assert alg.num_blocks == 2
        assert alg.complex_dim == 1 + 4
        assert alg.real_dim == 10
        assert alg.total_weight == pytest.approx(0.5 + 4.0)
        assert not alg.is_commutative
        assert TracialAlgebra([1, 1, 1], [1, 1, 1]).is_commutative

    def test_validation(self):
        with pytest.raises(ParameterError):
            TracialAlgebra([], [])
        with pytest.raises(ParameterError):
            TracialAlgebra([0], [1.0])
        with pytest.raises(ParameterError):
            TracialAlgebra([2], [0.0])
        with pytest.raises(ParameterError):
            TracialAlgebra([2], [-1.0])
        with pytest.raises(ParameterError):
            TracialAlgebra([2, 2], [1.0])

    def test_identity_and_zero(self):
        alg = TracialAlgebra([2, 3], [1.0, 0.5])
        one = alg.identity()
        zero = alg.zero()
        assert all(np.array_equal(b, np.eye(d)) for b, d in zip(one.blocks, alg.dims))
        assert all(not b.any() for b in zero.blocks)

    def test_basis_element(self):
        alg = TracialAlgebra([2, 3], [1.0, 0.5])
        e = alg.basis_element(1, 0, 2)
        assert e.blocks[0][0, 0] == 0
        assert e.blocks[1][0, 2] == 1.0
        assert np.count_nonzero(e.blocks[1]) == 1

    # matches: the same object and equal weights return before np.allclose,
    # which must still decide weights that agree only within its tolerance
    def test_matches_same_object(self, monkeypatch):
        alg = TracialAlgebra([1, 2], [1 / 3, 2.0])
        monkeypatch.setattr(np, "allclose", None)
        assert alg.matches(alg)

    def test_matches_equal_weights(self, monkeypatch):
        alg = TracialAlgebra([1, 2], [1 / 3, 2.0])
        monkeypatch.setattr(np, "allclose", None)
        assert alg.matches(TracialAlgebra([1, 2], [1 / 3, 2.0]))

    def test_matches_within_tolerance(self):
        alg = TracialAlgebra([1, 2], [1 / 3, 2.0])
        assert alg.matches(TracialAlgebra([1, 2], [1 / 3 + 1e-12, 2.0]))
        assert not alg.matches(TracialAlgebra([1, 2], [0.5, 2.0]))

    def test_matches_small_weights_by_relative_tolerance(self):
        # weights of 1e-9 and 2e-9 are within np.allclose's default atol of 1e-8
        alg = TracialAlgebra([1, 1], [1e-9, 1.0])
        assert not alg.matches(TracialAlgebra([1, 1], [2e-9, 1.0]))
        assert alg.matches(TracialAlgebra([1, 1], [1e-9 * (1 + 1e-12), 1.0]))

    def test_matches_needs_equal_dims(self):
        alg = TracialAlgebra([1, 2], [1 / 3, 2.0])
        assert not alg.matches(TracialAlgebra([2, 1], [1 / 3, 2.0]))
        assert not alg.matches(TracialAlgebra([1, 2, 1], [1 / 3, 2.0, 1.0]))

    def test_element_shape_check(self):
        alg = TracialAlgebra([2], [1.0])
        with pytest.raises(ShapeMismatchError):
            alg.element([np.zeros((3, 3))])
        with pytest.raises(ShapeMismatchError):
            AlgebraElement(alg, [np.zeros((2, 2)), np.zeros((1, 1))])


class TestTrace:
    def test_identity_single_block(self):
        alg = TracialAlgebra([2], [1.0])
        assert trace(alg.identity()) == pytest.approx(2.0)

    def test_identity_weighted(self):
        alg = TracialAlgebra([1, 2], [0.5, 2.0])
        assert trace(alg.identity()) == pytest.approx(4.5)

    def test_positivity(self):
        rng = np.random.default_rng(7)
        for i in range(50):
            alg = random_algebra(rng)
            x = random_element(alg, int(rng.integers(2**32)))
            val = trace(x.adjoint() * x)
            assert abs(val.imag) < 1e-12
            assert val.real >= 0.0

    def test_linearity_and_traciality(self):
        rng = np.random.default_rng(8)
        for i in range(50):
            alg = random_algebra(rng)
            x = random_element(alg, int(rng.integers(2**32)))
            y = random_element(alg, int(rng.integers(2**32)))
            lhs = trace(x * 2.5 + y)
            assert lhs == pytest.approx(2.5 * trace(x) + trace(y), rel=1e-12, abs=1e-12)
            txy = trace(x * y)
            tyx = trace(y * x)
            assert abs(txy - tyx) <= 1e-10 * (1 + abs(txy))

    def test_faithful(self):
        rng = np.random.default_rng(9)
        for i in range(20):
            alg = random_algebra(rng)
            x = random_element(alg, int(rng.integers(2**32)))
            if trace(x.adjoint() * x).real < 1e-24:
                assert all(np.allclose(b, 0, atol=1e-12) for b in x.blocks)


class TestArithmetic:
    def test_multiplicative_identity(self):
        rng = np.random.default_rng(11)
        alg = random_algebra(rng)
        x = random_element(alg, 3)
        assert (x * alg.identity()).allclose(x)
        assert (alg.identity() * x).allclose(x)

    def test_adjoint_antihomomorphism(self):
        rng = np.random.default_rng(12)
        for i in range(30):
            alg = random_algebra(rng)
            x = random_element(alg, int(rng.integers(2**32)))
            y = random_element(alg, int(rng.integers(2**32)))
            lhs = (x * y).adjoint()
            rhs = y.adjoint() * x.adjoint()
            for a, b in zip(lhs.blocks, rhs.blocks):
                assert np.allclose(a, b, atol=1e-12)

    def test_hermitian_fixed_by_adjoint(self):
        rng = np.random.default_rng(13)
        alg = random_algebra(rng)
        x = random_element(alg, 5, "hermitian")
        assert x.adjoint().allclose(x)

    def test_mixed_algebra_rejected(self):
        a1 = TracialAlgebra([2], [1.0])
        a2 = TracialAlgebra([2], [2.0])
        x = random_element(a1, 0)
        y = random_element(a2, 0)
        with pytest.raises(ShapeMismatchError):
            x + y
        with pytest.raises(ShapeMismatchError):
            x * y

    def test_scalar_ops(self):
        alg = TracialAlgebra([2], [1.0])
        x = random_element(alg, 1)
        assert ((2.0 * x) - x).allclose(x)
        assert (x - x).allclose(alg.zero(), rtol=0, atol=1e-15)
        assert (-x + x).allclose(alg.zero(), rtol=0, atol=1e-15)


class TestModulus:
    def test_diagonal_signs(self):
        alg = TracialAlgebra([2], [1.0])
        x = alg.element([np.diag([-3.0, 4.0]).astype(complex)])
        m = modulus(x)
        assert np.allclose(m.blocks[0], np.diag([3.0, 4.0]))

    def test_unitary_gives_identity(self):
        theta = 0.7
        u = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]], dtype=complex
        )
        alg = TracialAlgebra([2], [1.0])
        m = modulus(alg.element([u]))
        assert np.allclose(m.blocks[0], np.eye(2), atol=1e-12)

    def test_eigenvalues_are_singular_values(self):
        rng = np.random.default_rng(14)
        for i in range(30):
            alg = random_algebra(rng)
            x = random_element(alg, int(rng.integers(2**32)))
            m = modulus(x)
            for mb, xb in zip(m.blocks, x.blocks):
                ev = np.sort(np.linalg.eigvalsh(mb))
                sv = np.sort(np.linalg.svd(xb, compute_uv=False))
                assert np.allclose(ev, sv, atol=1e-10 * (1 + sv.max(initial=0.0)))

    def test_idempotent(self):
        rng = np.random.default_rng(15)
        alg = random_algebra(rng)
        x = random_element(alg, 21)
        m = modulus(x)
        assert modulus(m).allclose(m, rtol=1e-10, atol=1e-10)

    def test_squares_to_xstar_x(self):
        rng = np.random.default_rng(16)
        alg = random_algebra(rng)
        x = random_element(alg, 22)
        m = modulus(x)
        lhs = m * m
        rhs = x.adjoint() * x
        for a, b in zip(lhs.blocks, rhs.blocks):
            scale = max(np.linalg.norm(b, 2), 1.0)
            assert np.linalg.norm(a - b, 2) <= 1e-10 * scale


class TestRandomElement:
    def test_deterministic(self):
        alg = TracialAlgebra([2, 3], [1.0, 0.5])
        x = random_element(alg, 42)
        y = random_element(alg, 42)
        assert x.allclose(y, rtol=0, atol=0)

    @pytest.mark.parametrize("ensemble", ["gaussian", "hermitian"])
    @pytest.mark.parametrize("dims", [[1] * 64, [1] * 512, [1, 1, 2], [2, 2, 3, 1, 1, 4]])
    def test_stream_matches_block_by_block_draws(self, ensemble, dims):
        alg = TracialAlgebra(dims, [1.0] * len(dims))
        for seed in range(5):
            got = random_element(alg, seed, ensemble).blocks
            want = reference_random_blocks(dims, seed, ensemble)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))

    @pytest.mark.parametrize("ensemble", RANDOM_ENSEMBLES)
    @pytest.mark.parametrize("name", ["Z8", "S3", "M3", "mixed"])
    def test_row_matches_block_by_block_draws(self, ensemble, name):
        alg = {
            "Z8": resolve_instance("Z8").source,
            "S3": resolve_instance("S3").dual,
            "M3": TracialAlgebra([3], [1.0]),
            "mixed": TracialAlgebra([2, 2, 3, 1, 1, 4], [1.0, 0.5, 2.0, 1.0, 0.25, 1.5]),
        }[name]
        for seed in [0, 1, 2, 3, np.random.SeedSequence((4, 3))]:
            want = AlgebraElement(alg, reference_random_blocks(alg.dims, seed, ensemble)).row
            assert np.array_equal(random_row(alg, seed, ensemble), want)
            assert np.array_equal(random_element(alg, seed, ensemble).row, want)

    def test_seed_changes_output(self):
        alg = TracialAlgebra([3], [1.0])
        assert not random_element(alg, 1).allclose(random_element(alg, 2))

    def test_hermitian_ensemble(self):
        alg = TracialAlgebra([4], [1.0])
        x = random_element(alg, 5, "hermitian")
        assert np.allclose(x.blocks[0], x.blocks[0].conj().T)

    def test_rank_one(self):
        alg = TracialAlgebra([3], [1.0])
        x = random_element(alg, 6, "rank_one")
        s = np.linalg.svd(x.blocks[0], compute_uv=False)
        assert s[0] > 0
        assert np.all(s[1:] <= 1e-12 * s[0])

    def test_sparse_density(self):
        alg = TracialAlgebra([30], [1.0])
        x = random_element(alg, 7, "sparse", density=0.1)
        frac = np.count_nonzero(x.blocks[0]) / x.blocks[0].size
        assert frac < 0.25

    def test_unknown_ensemble(self):
        alg = TracialAlgebra([2], [1.0])
        with pytest.raises(ParameterError):
            random_element(alg, 0, "cauchy")


# ---------------------------------------------------------------------------
# the one element form: an element is its stacked row


ROW_ALGEBRAS = {
    "mixed_123": TracialAlgebra([1, 2, 3], [0.5, 1.0, 2.0]),
    "mixed_6": TracialAlgebra([2, 2, 3, 1, 1, 4], [1.0, 0.5, 2.0, 1.0, 0.25, 1.5]),
    "commutative": TracialAlgebra([1] * 8, [1 / 8] * 8),
    "matrix": TracialAlgebra([5], [1.0]),
}


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestRowForm:
    @pytest.mark.parametrize("name", ROW_ALGEBRAS)
    def test_arithmetic_matches_blockwise_reference(self, name):
        alg = ROW_ALGEBRAS[name]
        for seed in range(4):
            x = random_element(alg, (seed, 0))
            y = random_element(alg, (seed, 1), "hermitian")
            assert _same_bits((x + y).row, reference_block_row(np.add, x, y))
            assert _same_bits((x - y).row, reference_block_row(np.subtract, x, y))
            assert _same_bits((-x).row, reference_block_row(np.negative, x))
            assert _same_bits((x * (0.3 - 2.0j)).row, reference_block_row(lambda a: a * (0.3 - 2.0j), x))
            assert _same_bits((2.5 * x).row, reference_block_row(lambda a: 2.5 * a, x))
            assert _same_bits((x / 3.0).row, reference_block_row(lambda a: a / 3.0, x))
            assert _same_bits((x * y).row, reference_block_row(lambda a, b: a @ b, x, y))
            assert _same_bits(x.adjoint().row, reference_block_row(lambda a: a.conj().T, x))
            assert _same_bits(x.copy().row, x.row)
            want = complex(sum(w * np.trace(b.copy()) for w, b in zip(alg.weights, x.blocks)))
            assert _same_bits(np.array(trace(x)), np.array(want))

    @pytest.mark.parametrize("name", ROW_ALGEBRAS)
    def test_allclose_matches_blockwise_reference(self, name):
        alg = ROW_ALGEBRAS[name]
        x = random_element(alg, 3)
        for scale in (0.0, 1e-14, 1e-11, 1e-10, 1e-9, 1e-6):
            for k in range(alg.complex_dim):
                y = x.copy()
                y.row[k] += scale * (1 + 1j)
                want = all(np.allclose(a, b, rtol=1e-10, atol=1e-12) for a, b in zip(x.blocks, y.blocks))
                assert x.allclose(y) == want

    def test_blocks_are_views_of_the_row(self):
        alg = ROW_ALGEBRAS["mixed_123"]
        x = random_element(alg, 4)
        first, second = x.blocks, x.blocks
        assert first is not second  # fresh views on each access, never stored
        assert all(np.shares_memory(b, x.row) for b in first)
        x.blocks[2][1, 2] = 7.0 - 1.0j
        assert x.row[alg.block_offset(2) + 1 * 3 + 2] == 7.0 - 1.0j
        assert x.blocks[2][1, 2] == 7.0 - 1.0j

    def test_basis_element_row(self):
        alg = ROW_ALGEBRAS["mixed_123"]
        e = alg.basis_element(2, 1, 0)
        assert np.flatnonzero(e.row).tolist() == [alg.block_offset(2) + 3]
        assert e.row[alg.block_offset(2) + 3] == 1.0

    def test_identity_and_zero_rows(self):
        alg = ROW_ALGEBRAS["mixed_6"]
        want = np.concatenate([np.eye(n, dtype=complex).ravel() for n in alg.dims])
        assert _same_bits(alg.identity().row, want)
        assert _same_bits(alg.zero().row, np.zeros(alg.complex_dim, dtype=complex))

    def test_row_constructor_wraps_without_copy(self):
        alg = ROW_ALGEBRAS["mixed_123"]
        row = random_row(alg, 5)
        x = AlgebraElement.from_row(alg, row)
        assert x.row is row
        assert _same_bits(AlgebraElement(alg, x.blocks).row, row)
        with pytest.raises(ShapeMismatchError):
            AlgebraElement.from_row(alg, np.zeros((1, alg.complex_dim)))

    def test_pickle_carries_the_row(self):
        alg = ROW_ALGEBRAS["mixed_6"]
        x = random_element(alg, 6)
        back = pickle.loads(pickle.dumps(x))
        assert back.algebra == alg and _same_bits(back.row, x.row)
        assert _same_bits(back.blocks[5], x.blocks[5])

    def test_z512_element_pickles_small(self):
        x = random_element(resolve_instance("Z512").source, 7)
        assert len(pickle.dumps(x)) <= 17_000  # row 8,345 B, algebra 7,011 B

    def test_random_element_holds_its_row(self):
        alg = resolve_instance("Z512").source
        random_element(alg, 0)  # warm the layout cache
        tracemalloc.start()
        try:
            x = random_element(alg, 1)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert x.row.nbytes == 8192
        assert held < 16 * 1024
