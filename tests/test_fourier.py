import numpy as np
import pytest

from ncfourier.algebra import TracialAlgebra, random_element, trace
from ncfourier.errors import ParameterError, ShapeMismatchError
from ncfourier.fourier import (
    QuantumGroupPair,
    build_finite_abelian,
    build_group_vna,
    fourier,
    inverse_fourier,
    multiplier_map,
    perturb_fourier_matrix,
)
from ncfourier.groups import builtin_group, cyclic_group_data
from ncfourier.linmap import stack_complex
from ncfourier.lorentz import lp_norm

from conftest import dense_coords, left_multiplication_matrix


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
        assert np.allclose(dense_coords(fhat), [1.0, 1.0])
        assert lp_norm(fhat, 2) ** 2 == pytest.approx(1.0)

    def test_z4_constant_saturates_contraction(self):
        pair = build_finite_abelian([4])
        f = pair.source.identity()
        fhat = fourier(pair, f)
        assert np.allclose(dense_coords(fhat), [4.0, 0.0, 0.0, 0.0])
        assert lp_norm(fhat, np.inf) == pytest.approx(4.0)
        assert lp_norm(f, 1) == pytest.approx(4.0)

    def test_z2xz2_fourth_power(self):
        pair = build_finite_abelian([2, 2])
        f4 = np.linalg.matrix_power(pair.fourier_matrix, 4)
        assert np.allclose(f4, 16.0 * np.eye(4), atol=1e-12)

    def test_z4_character_column(self):
        pair = build_finite_abelian([4])
        fhat = fourier(pair, _delta(pair, 1))
        assert np.allclose(dense_coords(fhat), [1.0, -1.0j, -1.0, 1.0j])

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
        assert np.allclose(via_group.fourier_matrix, via_abelian.fourier_matrix)
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
        assert np.allclose(dense_coords(lhs), dense_coords(rhs), atol=1e-12)
        assert np.allclose(dense_coords(fourier(pair, pair.source.zero())), 0.0)

    @pytest.mark.parametrize("pair", _pairs_for_property_tests(), ids=lambda p: p.name)
    def test_round_trips(self, pair):
        for seed in range(25):
            x = random_element(pair.source, seed)
            back = inverse_fourier(pair, fourier(pair, x))
            assert np.allclose(dense_coords(back), dense_coords(x), atol=1e-10)
            a = random_element(pair.dual, 1000 + seed)
            fwd = fourier(pair, inverse_fourier(pair, a))
            assert np.allclose(dense_coords(fwd), dense_coords(a), atol=1e-10)

    def test_z2_inverse_solves_system(self):
        pair = build_finite_abelian([2])
        a = pair.dual.basis_element(0)
        f = inverse_fourier(pair, a)
        assert np.allclose(dense_coords(f), [0.5, 0.5], atol=1e-14)

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
        via_matrix = left_multiplication_matrix(x) @ stack_complex(y)
        assert np.allclose(via_matrix, stack_complex(x * y), atol=1e-12)


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
            assert np.allclose(dense_coords(out), dense_coords(want), atol=1e-10)

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
            assert np.allclose(dense_coords(out), dense_coords(want), atol=1e-10)

    def test_composition_matches_product_symbol(self):
        pair = build_finite_abelian([2, 3])
        x = random_element(pair.source, 8)
        y = random_element(pair.source, 9)
        composed = multiplier_map(pair, x).compose(multiplier_map(pair, y))
        direct = multiplier_map(pair, x * y)
        assert np.allclose(composed.matrix, direct.matrix, atol=1e-10)

    def test_matches_conjugated_left_multiplication(self):
        # a source with blocks of every kind, which no shipped pair has
        rng = np.random.default_rng(52)
        source = TracialAlgebra([1, 2, 3, 1], [1.0, 0.5, 2.0, 0.25])
        dual = TracialAlgebra([3, 2, 1, 1], [0.5, 1.0, 3.0, 0.25])
        d = source.complex_dim
        fmat = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        pair = QuantumGroupPair("random", source, dual, fmat, np.linalg.inv(fmat))
        x = random_element(source, 7)
        want = pair.fourier_matrix @ left_multiplication_matrix(x) @ pair.inverse_matrix
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
        err = np.abs(dense_coords(back) - dense_coords(x)).max()
        assert err > 1e-3

    def test_zero_scale_is_harmless(self):
        pair = build_finite_abelian([4])
        same = perturb_fourier_matrix(pair, 0.0)
        assert np.allclose(same.fourier_matrix, pair.fourier_matrix)
