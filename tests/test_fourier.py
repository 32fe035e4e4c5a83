import dataclasses
import tracemalloc

import numpy as np
import pytest

from ncfourier.algebra import TracialAlgebra, random_element, trace
from ncfourier.checks import check_hausdorff_young, check_inversion_plancherel
from ncfourier.errors import ParameterError, ShapeMismatchError
from ncfourier.fourier import (
    DFT,
    DenseTransform,
    QuantumGroupPair,
    build_finite_abelian,
    build_group_vna,
    fourier,
    inverse_fourier,
    multiplier_map,
    perturb_fourier_matrix,
)
from ncfourier.groups import builtin_group, builtin_group_names, cyclic_group_data
from ncfourier.estimator import _stack, estimate_pq_norm, exact_l2_norm
from ncfourier.linmap import LinearMap, coordinate_weights
from ncfourier.lorentz import lp_norm
from ncfourier.schur import schur_pair

from conftest import (
    forward_matrix,
    inverse_matrix,
    left_multiplication_matrix,
    reference_dft_matrix,
    weighted_adjoint_matrix,
)


def _delta(pair, g: int):
    """Point mass at source coordinate g."""
    return pair.source.basis_element(g)


def _pairs_for_property_tests():
    return [
        build_finite_abelian([5]),
        build_finite_abelian([2, 3]),
        build_group_vna(builtin_group("S3")),
        build_group_vna(builtin_group("Q8")),
    ]


class TestAbelianConstruction:
    def test_z2_point_mass(self):
        pair = build_finite_abelian([2])
        fhat = fourier(pair, _delta(pair, 0))
        assert np.allclose(fhat.row, [1.0, 1.0])
        assert lp_norm(fhat, 2) ** 2 == pytest.approx(1.0)

    def test_z4_constant_saturates_contraction(self):
        pair = build_finite_abelian([4])
        f = pair.source.identity()
        fhat = fourier(pair, f)
        assert np.allclose(fhat.row, [4.0, 0.0, 0.0, 0.0])
        assert lp_norm(fhat, np.inf) == pytest.approx(4.0)
        assert lp_norm(f, 1) == pytest.approx(4.0)

    def test_z2xz2_fourth_power(self):
        pair = build_finite_abelian([2, 2])
        f4 = np.linalg.matrix_power(forward_matrix(pair), 4)
        assert np.allclose(f4, 16.0 * np.eye(4), atol=1e-12)

    def test_z4_character_column(self):
        pair = build_finite_abelian([4])
        fhat = fourier(pair, _delta(pair, 1))
        assert np.allclose(fhat.row, [1.0, -1.0j, -1.0, 1.0j])

    def test_weights(self):
        pair = build_finite_abelian([2, 3])
        assert pair.source.weights == pytest.approx([1.0] * 6)
        assert pair.dual.weights == pytest.approx([1.0 / 6] * 6)
        assert pair.size == pytest.approx(6.0)

    def test_bad_orders(self):
        with pytest.raises(ParameterError):
            build_finite_abelian([])
        with pytest.raises(ParameterError):
            build_finite_abelian([3, 0])


class TestGroupConstruction:
    def test_z2_matches_abelian(self):
        via_group = build_group_vna(cyclic_group_data(2))
        via_abelian = build_finite_abelian([2])
        assert np.allclose(forward_matrix(via_group), forward_matrix(via_abelian))
        assert via_group.dual.weights == pytest.approx(via_abelian.dual.weights)

    def test_s3_identity_transform(self):
        pair = build_group_vna(builtin_group("S3"))
        assert sorted(pair.dual.dims) == [1, 1, 2]
        assert pair.dual.weights == pytest.approx(
            [d / 6.0 for d in pair.dual.dims]
        )
        fhat = fourier(pair, _delta(pair, pair.identity_index))
        for block, n in zip(fhat.blocks, pair.dual.dims):
            assert np.allclose(block, np.eye(n), atol=1e-12)
        assert lp_norm(fhat, np.inf) == pytest.approx(1.0)

    def test_s3_point_mass_norm(self):
        pair = build_group_vna(builtin_group("S3"))
        for g in range(6):
            fhat = fourier(pair, _delta(pair, g))
            assert lp_norm(fhat, 2) == pytest.approx(1.0, rel=1e-12)

    def test_point_mass_trace(self):
        # dual trace of lambda_g picks out the identity element
        pair = build_group_vna(builtin_group("D4"))
        for g in range(8):
            t = trace(fourier(pair, _delta(pair, g)))
            want = 1.0 if g == pair.identity_index else 0.0
            assert t.real == pytest.approx(want, abs=1e-12)
            assert abs(t.imag) < 1e-12

    def test_invalid_data_rejected(self):
        from ncfourier.errors import GroupDataError
        from test_groups import _doctored

        g = cyclic_group_data(2)
        with pytest.raises(GroupDataError):
            build_group_vna(_doctored(g, irreps=(g.irreps[0], g.irreps[0])))


class TestTransformProperties:
    def test_linearity_and_zero(self):
        pair = build_group_vna(builtin_group("Q8"))
        rng = np.random.default_rng(50)
        x = random_element(pair.source, 1)
        y = random_element(pair.source, 2)
        a, b = 1.5 - 0.5j, -2.0j
        lhs = fourier(pair, x * a + y * b)
        rhs = fourier(pair, x) * a + fourier(pair, y) * b
        assert np.allclose(lhs.row, rhs.row, atol=1e-12)
        assert np.allclose(fourier(pair, pair.source.zero()).row, 0.0)

    @pytest.mark.parametrize("pair", _pairs_for_property_tests(), ids=lambda p: p.name)
    def test_round_trips(self, pair):
        for seed in range(25):
            x = random_element(pair.source, seed)
            back = inverse_fourier(pair, fourier(pair, x))
            assert np.allclose(back.row, x.row, atol=1e-10)
            a = random_element(pair.dual, 1000 + seed)
            fwd = fourier(pair, inverse_fourier(pair, a))
            assert np.allclose(fwd.row, a.row, atol=1e-10)

    def test_z2_inverse_solves_system(self):
        pair = build_finite_abelian([2])
        a = pair.dual.basis_element(0)
        f = inverse_fourier(pair, a)
        assert np.allclose(f.row, [0.5, 0.5], atol=1e-14)

    @pytest.mark.parametrize("pair", _pairs_for_property_tests(), ids=lambda p: p.name)
    def test_plancherel_and_contraction(self, pair):
        for seed in range(25):
            x = random_element(pair.source, 2000 + seed)
            fhat = fourier(pair, x)
            l2_src = lp_norm(x, 2)
            assert lp_norm(fhat, 2) == pytest.approx(l2_src, rel=1e-10, abs=1e-12)
            assert lp_norm(fhat, np.inf) <= lp_norm(x, 1) * (1 + 1e-10)

    @pytest.mark.parametrize("pair", _pairs_for_property_tests(), ids=lambda p: p.name)
    @pytest.mark.parametrize("p", [1.0, 4.0 / 3.0, 1.5, 2.0])
    def test_hausdorff_young(self, pair, p):
        q = np.inf if p == 1.0 else p / (p - 1.0)
        for seed in range(10):
            x = random_element(pair.source, 3000 + seed)
            assert lp_norm(fourier(pair, x), q) <= lp_norm(x, p) * (1 + 1e-9)

    def test_algebra_mismatch(self):
        pair = build_finite_abelian([4])
        other = build_finite_abelian([5])
        with pytest.raises(ShapeMismatchError):
            fourier(pair, other.source.identity())
        with pytest.raises(ShapeMismatchError):
            inverse_fourier(pair, pair.source.identity())


class TestLeftMultiplication:
    def test_matches_product(self):
        rng = np.random.default_rng(51)
        alg = TracialAlgebra([2, 3], [1.0, 0.5])
        x = random_element(alg, 5)
        y = random_element(alg, 6)
        via_matrix = left_multiplication_matrix(x) @ y.row
        assert np.allclose(via_matrix, (x * y).row, atol=1e-12)


class TestMultiplierMap:
    def test_unit_symbol_is_identity(self):
        pair = build_group_vna(builtin_group("S3"))
        m = multiplier_map(pair, pair.source.identity())
        assert np.allclose(m.matrix, np.eye(pair.dual.complex_dim), atol=1e-10)

    def test_delta_e_projects_onto_trace_component(self):
        pair = build_group_vna(builtin_group("S3"))
        m = multiplier_map(pair, _delta(pair, pair.identity_index))
        for g in range(6):
            lam_g = fourier(pair, _delta(pair, g))
            out = m.apply(lam_g)
            want = lam_g if g == pair.identity_index else pair.dual.zero()
            assert np.allclose(out.row, want.row, atol=1e-10)

    @pytest.mark.parametrize(
        "pair",
        [build_group_vna(builtin_group("S3")), build_group_vna(builtin_group("D4"))],
        ids=lambda p: p.name,
    )
    def test_diagonal_on_point_masses(self, pair):
        phi = random_element(pair.source, 7)
        m = multiplier_map(pair, phi)
        for g in range(pair.source.num_blocks):
            lam_g = fourier(pair, _delta(pair, g))
            out = m.apply(lam_g)
            want = lam_g * complex(phi.blocks[g][0, 0])
            assert np.allclose(out.row, want.row, atol=1e-10)

    def test_composition_matches_product_symbol(self):
        pair = build_finite_abelian([2, 3])
        x = random_element(pair.source, 8)
        y = random_element(pair.source, 9)
        composed = multiplier_map(pair, x).matrix @ multiplier_map(pair, y).matrix
        direct = multiplier_map(pair, x * y)
        assert np.allclose(composed, direct.matrix, atol=1e-10)

    def test_matches_conjugated_left_multiplication(self):
        # a source with blocks of every kind, which no shipped pair has
        rng = np.random.default_rng(52)
        source = TracialAlgebra([1, 2, 3, 1], [1.0, 0.5, 2.0, 0.25])
        dual = TracialAlgebra([3, 2, 1, 1], [0.5, 1.0, 3.0, 0.25])
        d = source.complex_dim
        # a random transform unitary from L2(source) to L2(dual), so that its
        # weighted adjoint is its inverse
        unitary, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        ws, wd = coordinate_weights(source), coordinate_weights(dual)
        fmat = unitary * np.sqrt(ws) / np.sqrt(wd)[:, None]
        pair = QuantumGroupPair("random", source, dual, DenseTransform(fmat, ws, wd))
        x = random_element(source, 7)
        want = fmat @ left_multiplication_matrix(x) @ np.linalg.inv(fmat)
        assert np.allclose(multiplier_map(pair, x).matrix, want, rtol=0.0, atol=1e-12 * np.abs(want).max())

    def test_symbol_on_wrong_algebra(self):
        pair = build_finite_abelian([4])
        with pytest.raises(ShapeMismatchError):
            multiplier_map(pair, pair.dual.identity())


class TestFaultInjection:
    def test_perturbed_pair_breaks_round_trip(self):
        pair = build_finite_abelian([4])
        bad = perturb_fourier_matrix(pair, 0.05)
        assert bad.name.endswith("!fault")
        x = random_element(bad.source, 3)
        back = inverse_fourier(bad, fourier(bad, x))
        err = np.abs(back.row - x.row).max()
        assert err > 1e-3

    def test_zero_scale_is_harmless(self):
        pair = build_finite_abelian([4])
        same = perturb_fourier_matrix(pair, 0.0)
        assert np.allclose(forward_matrix(same), forward_matrix(pair))

    def test_perturbed_identity_leaves_its_input(self):
        # the identity transform returns its input, which the fault must not scale
        bad = perturb_fourier_matrix(schur_pair(2), 0.1)
        z = np.random.default_rng(8).standard_normal((3, 4)) + 0j
        before = z.copy()
        out = bad.forward(z)
        assert np.array_equal(z, before)
        assert np.array_equal(out[:, 0], before[:, 0] * 1.1)
        assert np.array_equal(out[:, 1:], before[:, 1:])


# ---------------------------------------------------------------------------
# the diagonal form: multipliers of DFT pairs as symbol values, applied by FFT

DFT_ORDERS = [(1,), (2,), (3,), (8,), (128,), (2, 4), (3, 5)]


def _dense_multiplier(pair, x) -> np.ndarray:
    """F diag(x) F^{-1} with F the phase-table DFT over the pair's factor orders."""
    fmat = reference_dft_matrix(pair.transform.orders)
    return fmat @ (x.row[:, None] * np.linalg.inv(fmat))


def _rel_err(got, want) -> float:
    return float(np.abs(got - want).max() / np.abs(want).max())


class TestDiagonalForm:
    @pytest.mark.parametrize("orders", DFT_ORDERS, ids=lambda o: "x".join(f"Z{n}" for n in o))
    def test_row_products_match_dense(self, orders):
        pair = build_finite_abelian(orders)
        x = random_element(pair.source, np.random.SeedSequence((9, len(orders))), "gaussian")
        m = multiplier_map(pair, x)
        assert m.diagonal is not None and m.diagonal.basis == DFT(orders)
        rng = np.random.default_rng(sum(orders))
        d = pair.dual.complex_dim
        z = rng.standard_normal((5, d)) + 1j * rng.standard_normal((5, d))
        stack = _stack([m])
        owner = np.zeros(5, int)
        dense = _dense_multiplier(pair, x)
        adjoint = weighted_adjoint_matrix(LinearMap(pair.dual, pair.dual, dense))
        assert _rel_err(stack.rows(z, owner), z @ dense.T) <= 1e-12
        assert _rel_err(stack.adjoint_rows(z.copy(), owner), z @ adjoint.T) <= 1e-12
        assert "matrix" not in vars(m)  # the products built no matrix
        assert _rel_err(m.matrix, dense) <= 1e-12

    def test_nonabelian_pair_is_symbol_held(self):
        pair = build_group_vna(builtin_group("S3"))
        assert pair.transform.kind == "dense"
        m = multiplier_map(pair, random_element(pair.source, 25))
        assert m.diagonal is not None and m.diagonal.basis is pair.transform

    def test_perturbed_pair_keeps_its_fault(self):
        pair = build_finite_abelian([8])
        bad = perturb_fourier_matrix(pair, 0.05)
        assert bad.transform.kind == "perturbed"
        x = random_element(pair.source, 26, "gaussian")
        m = multiplier_map(bad, x)
        assert m.diagonal is None
        fmat = reference_dft_matrix((8,))
        faulty = fmat * np.where(np.arange(8) == 0, 1.05, 1.0)[:, None]
        want = faulty @ np.diag(x.row) @ np.linalg.inv(fmat)
        assert _rel_err(m.matrix, want) <= 1e-12
        assert _rel_err(m.matrix, multiplier_map(pair, x).matrix) > 1e-3


# ---------------------------------------------------------------------------
# transforms as operators on stacked rows, against independent oracles

ORACLE_ORDERS = [(1,), (2,), (6,), (2, 4), (3, 5), (2, 2, 2)]


def _gaussian_rows(rng, count, d) -> np.ndarray:
    return rng.standard_normal((count, d)) + 1j * rng.standard_normal((count, d))


class TestTransformOracles:
    @pytest.mark.parametrize("orders", ORACLE_ORDERS, ids=lambda o: "x".join(f"Z{n}" for n in o))
    def test_dft_matches_phase_table(self, orders):
        pair = build_finite_abelian(orders)
        assert pair.transform.kind == "dft"
        fmat = reference_dft_matrix(orders)
        z = _gaussian_rows(np.random.default_rng(len(fmat)), 7, len(fmat))
        assert _rel_err(pair.forward(z), z @ fmat.T) <= 1e-12
        assert _rel_err(pair.inverse(z), z @ np.linalg.inv(fmat).T) <= 1e-12

    @pytest.mark.parametrize("name", builtin_group_names())
    def test_inversion_formula_matches_matrix_inverse(self, name):
        pair = build_group_vna(builtin_group(name))
        assert pair.transform.kind == "dense"
        assert _rel_err(inverse_matrix(pair), np.linalg.inv(forward_matrix(pair))) <= 1e-12

    @pytest.mark.parametrize("orders", [(8,), (2, 4), (3, 5), (2, 2, 2)], ids=lambda o: "x".join(f"Z{n}" for n in o))
    def test_row_has_the_same_bits_in_a_batch(self, orders):
        pair = build_finite_abelian(orders)
        z = _gaussian_rows(np.random.default_rng(3), 300, pair.source.complex_dim)
        forward, inverse = pair.forward(z), pair.inverse(z)
        for i in (0, 1, 150, 299):
            assert np.array_equal(pair.forward(z[i : i + 1])[0], forward[i])
            assert np.array_equal(pair.inverse(z[i : i + 1])[0], inverse[i])

    def test_replace_keeps_the_dft(self):
        # replacing any other field keeps the transform, so multipliers stay diagonal
        pair = build_finite_abelian([2, 3])
        renamed = dataclasses.replace(pair, name="renamed")
        m = multiplier_map(renamed, random_element(pair.source, 27, "gaussian"))
        assert renamed.transform.kind == "dft"
        assert m.diagonal is not None and m.diagonal.basis is pair.transform


# ---------------------------------------------------------------------------
# one multiplier form: group-algebra multipliers held as their symbol in the
# basis F, against the dense F diag(x) F^{-1}

GROUPS = ["S3", "D4", "Q8", "Z2xZ2"]


def _group_multiplier(name: str, seed: int):
    """A group pair, a Gaussian symbol on it, its multiplier and the dense F diag(x) F^{-1}."""
    pair = build_group_vna(builtin_group(name))
    x = random_element(pair.source, seed, "gaussian")
    dense = forward_matrix(pair) @ np.diag(x.row) @ inverse_matrix(pair)
    return pair, x, multiplier_map(pair, x), dense


class TestSymbolHeldGroupMultipliers:
    @pytest.mark.parametrize("name", GROUPS)
    def test_held_as_the_symbol(self, name):
        pair, x, m, _ = _group_multiplier(name, 61)
        assert m.diagonal is not None and m.diagonal.basis is pair.transform
        assert np.array_equal(m.diagonal.values, x.row)

    @pytest.mark.parametrize("name", GROUPS)
    def test_row_products_match_dense(self, name):
        pair, _, m, dense = _group_multiplier(name, 62)
        z = _gaussian_rows(np.random.default_rng(62), 5, pair.dual.complex_dim)
        stack = _stack([m])
        owner = np.zeros(5, int)
        adjoint = weighted_adjoint_matrix(LinearMap(pair.dual, pair.dual, dense))
        assert _rel_err(stack.rows(z, owner), z @ dense.T) <= 1e-12
        assert _rel_err(stack.adjoint_rows(z.copy(), owner), z @ adjoint.T) <= 1e-12
        assert "matrix" not in vars(m)  # the products built no matrix
        assert _rel_err(m.matrix, dense) <= 1e-12

    @pytest.mark.parametrize("name", GROUPS)
    def test_exact_l2_norm_is_the_largest_value(self, name):
        _, x, m, _ = _group_multiplier(name, 63)
        assert exact_l2_norm(m) == np.abs(x.row).max()

    @pytest.mark.parametrize("name", GROUPS)
    def test_estimate_matches_the_dense_map(self, name):
        pair, _, m, _ = _group_multiplier(name, 64)
        dense = LinearMap(pair.dual, pair.dual, m.matrix)
        for p, q in [(4.0 / 3.0, 4.0), (1.5, 2.0)]:
            held = estimate_pq_norm(m, p, q, restarts=4, max_iters=60, seed=5)
            want = estimate_pq_norm(dense, p, q, restarts=4, max_iters=60, seed=5)
            assert held.lower_bound == pytest.approx(want.lower_bound, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("name", GROUPS)
    def test_row_has_the_same_bits_in_a_batch(self, name):
        pair, _, m, _ = _group_multiplier(name, 65)
        z = _gaussian_rows(np.random.default_rng(65), 300, pair.dual.complex_dim)
        stack = _stack([m])
        images, adjoints = stack.rows(z, np.zeros(300, int)), stack.adjoint_rows(z.copy(), np.zeros(300, int))
        for i in (0, 1, 150, 299):
            assert np.array_equal(stack.rows(z[i : i + 1], np.zeros(1, int))[0], images[i])
            assert np.array_equal(stack.adjoint_rows(z[i : i + 1].copy(), np.zeros(1, int))[0], adjoints[i])
        # a batch of several maps multiplies each row by its owner's values, as that map alone does
        maps = [m] + [_group_multiplier(name, seed)[2] for seed in (66, 67)]
        batch, owner = _stack(maps), np.arange(300) % 3
        images, adjoints = batch.rows(z, owner), batch.adjoint_rows(z.copy(), owner)
        for i in (0, 1, 2, 150, 299):
            assert np.array_equal(maps[owner[i]].rows(z[i : i + 1])[0], images[i])
            assert np.array_equal(maps[owner[i]].adjoint_rows(z[i : i + 1].copy())[0], adjoints[i])

    def test_z128_multiplier_holds_no_matrix(self):
        pair = build_group_vna(cyclic_group_data(128))
        x = random_element(pair.source, 66, "gaussian")
        tracemalloc.start()
        try:
            m = multiplier_map(pair, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert m.diagonal is not None
        assert peak < 64 * 2**10  # one 128 x 128 complex matrix takes 256 KiB


class TestLargeAbelianPair:
    def test_z4096_builds_without_tables(self):
        # two stored 4096 x 4096 complex tables would take 512 MB
        tracemalloc.start()
        try:
            pair = build_finite_abelian([4096])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        z = _gaussian_rows(np.random.default_rng(4096), 8, 4096)
        assert _rel_err(pair.inverse(pair.forward(z)), z) <= 1e-12

    def test_z4096_transform_checks_pass(self):
        pair = build_finite_abelian([4096])
        assert check_inversion_plancherel(pair, trials=20, seed=1).passed
        assert check_hausdorff_young(pair, 4.0 / 3.0, trials=20, seed=2).passed
