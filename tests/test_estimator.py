import functools
import pickle
import tracemalloc

import numpy as np
import pytest

from ncfourier.algebra import AlgebraElement, TracialAlgebra, random_element, random_row, trace
from ncfourier.campaign import resolve_instance
from ncfourier.errors import ParameterError, ShapeMismatchError
from ncfourier import checks, estimator
from ncfourier.estimator import (
    brute_force_pq_norm,
    estimate_pq_norm,
    estimate_pq_norms,
    exact_l2_norm,
    schatten_gradient,
)
from ncfourier.fourier import DFT, IdentityTransform, build_finite_abelian, build_group_vna, multiplier_map
from ncfourier.groups import builtin_group
from ncfourier.linmap import (
    LinearMap,
    coordinate_weights,
    diagonal_map,
)
from ncfourier.lorentz import _BlockOps, lorentz_norms, lp_norm, lp_norms
from ncfourier.schur import schur_map

from conftest import (
    oracle_stationarity_residual,
    random_algebra,
    reference_brute_force_pq_norm,
    reference_estimate_pq_norm,
    reference_fixed_steps,
    weighted_adjoint_matrix,
)


def _weighted_inner(algebra, x, y) -> float:
    w = coordinate_weights(algebra)
    return float(np.sum(np.conj(y.row) * w * x.row).real)


def _complex_matrix(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _identity(algebra) -> LinearMap:
    return LinearMap(algebra, algebra, np.eye(algebra.complex_dim))


class TestCoordinates:
    def test_stack_roundtrip(self):
        rng = np.random.default_rng(60)
        for i in range(10):
            alg = random_algebra(rng)
            x = random_element(alg, int(rng.integers(2**32)))
            back = AlgebraElement.from_row(alg, x.row)
            assert np.allclose(back.row, x.row)

    def test_coordinate_weights_give_trace_inner_product(self):
        rng = np.random.default_rng(63)
        for i in range(10):
            alg = random_algebra(rng)
            x = random_element(alg, int(rng.integers(2**32)))
            y = random_element(alg, int(rng.integers(2**32)))
            direct = trace(y.adjoint() * x).real
            assert _weighted_inner(alg, x, y) == pytest.approx(direct, rel=1e-12)

    def test_unstack_size_check(self):
        alg = TracialAlgebra([2], [1.0])
        with pytest.raises(ShapeMismatchError):
            AlgebraElement.from_row(alg, np.zeros(3))


class TestLinearMap:
    def test_identity_map(self):
        alg = TracialAlgebra([2, 1], [0.5, 2.0])
        m = _identity(alg)
        x = random_element(alg, 1)
        assert np.allclose(m.apply(x).row, x.row)
        assert exact_l2_norm(m) == pytest.approx(1.0)

    def test_apply_checks_domain(self):
        alg = TracialAlgebra([2], [1.0])
        other = TracialAlgebra([2], [0.5])
        m = _identity(alg)
        with pytest.raises(ShapeMismatchError):
            m.apply(other.identity())

    def test_shape_validation(self):
        a = TracialAlgebra([2], [1.0])
        with pytest.raises(ShapeMismatchError):
            LinearMap(a, a, np.zeros((3, 4), dtype=complex))
        with pytest.raises(ShapeMismatchError):
            LinearMap(a, a, np.zeros((8, 8), dtype=complex))

    def test_diagonal_validation(self):
        # the values, the algebra and the basis's source must have one dimension
        four = TracialAlgebra([1] * 4, [0.25] * 4)
        with pytest.raises(ShapeMismatchError):
            diagonal_map(four, np.ones(3), DFT((4,)))
        with pytest.raises(ShapeMismatchError):
            diagonal_map(four, np.ones(4), DFT((2, 3)))
        with pytest.raises(ShapeMismatchError):
            diagonal_map(four, np.ones(6), IdentityTransform(6))
        m = diagonal_map(four, np.arange(4.0), DFT((2, 2)))
        assert m.diagonal.basis == DFT((2, 2)) and m.diagonal.values.dtype == complex
        # a dual with unequal weights: the basis is unitary, the symbol held
        s3 = build_group_vna(builtin_group("S3"))
        assert diagonal_map(s3.dual, np.arange(6.0), s3.transform).diagonal is not None

    def test_weighted_adjoint(self):
        rng = np.random.default_rng(64)
        for i in range(10):
            dom = random_algebra(rng, max_blocks=2, max_dim=3)
            cod = random_algebra(rng, max_blocks=2, max_dim=3)
            m = LinearMap(dom, cod, _complex_matrix(rng, (cod.complex_dim, dom.complex_dim)))
            adj = LinearMap(cod, dom, weighted_adjoint_matrix(m))
            x = random_element(dom, int(rng.integers(2**32)))
            y = random_element(cod, int(rng.integers(2**32)))
            assert _weighted_inner(cod, m.apply(x), y) == pytest.approx(
                _weighted_inner(dom, x, adj.apply(y)), rel=1e-10, abs=1e-12
            )

    def _row_maps(self):
        """A dense map between two algebras, C- and F-ordered, and multipliers in the DFT, dense and identity bases."""
        rng = np.random.default_rng(65)
        dom, cod = TracialAlgebra([2, 1], [0.5, 2.0]), TracialAlgebra([1, 2], [3.0, 0.25])
        mat = _complex_matrix(rng, (cod.complex_dim, dom.complex_dim))
        yield LinearMap(dom, cod, mat)
        yield LinearMap(dom, cod, np.asfortranarray(mat))
        for name in ("Z8", "S3"):
            pair = resolve_instance(name)
            yield multiplier_map(pair, random_element(pair.source, 66))
        yield schur_map(_complex_matrix(rng, (3, 3)))

    def test_apply_is_a_row_of_rows(self):
        bases = []
        for m in self._row_maps():
            x = random_element(m.domain, 67)
            assert np.array_equal(m.apply(x).row, m.rows(x.row[None])[0])
            if m.diagonal is not None:
                bases.append(m.diagonal.basis.kind)
                eye = np.eye(m.domain.complex_dim, dtype=complex)
                assert np.array_equal(m.matrix, m.rows(eye).T)
        assert bases == ["dft", "dense", "identity"]

    @pytest.mark.parametrize("dims", [[2], [1] * 5, [2, 2], [2, 2, 4]])
    def test_dense_products_do_not_depend_on_layout(self, dims):
        # D = 4, 5, 8 and 24: F- and C-ordered matrices multiply to different bits
        alg = TracialAlgebra(dims, np.linspace(0.5, 2.0, len(dims)))
        rng = np.random.default_rng(len(dims))
        mat = np.asfortranarray(_complex_matrix(rng, (alg.complex_dim, alg.complex_dim)))
        f, c = LinearMap(alg, alg, mat), LinearMap(alg, alg, np.ascontiguousarray(mat))
        z = _complex_matrix(rng, (50, alg.complex_dim))
        assert np.array_equal(f.rows(z), c.rows(z))
        assert np.array_equal(f.adjoint_rows(z), c.adjoint_rows(z))
        for row in z:
            x = AlgebraElement.from_row(alg, row)
            assert np.array_equal(f.apply(x).row, c.apply(x).row)
        est = estimate_pq_norm(c, 1.5, 3.0, restarts=2)
        assert est.certificate_ratio(f) == est.certificate_ratio(c)
        for row in z:
            est.witness = AlgebraElement.from_row(alg, row)
            assert est.certificate_ratio(f) == est.certificate_ratio(c)

    def test_scaled(self):
        alg = TracialAlgebra([2], [1.0])
        m = LinearMap(alg, alg, -3.0 * np.eye(alg.complex_dim))
        assert exact_l2_norm(m) == pytest.approx(3.0)


class TestSchattenGradient:
    def test_q2_is_normalized_element(self):
        rng = np.random.default_rng(65)
        alg = random_algebra(rng)
        x = random_element(alg, 2)
        g = schatten_gradient(x, 2.0)
        want = x.row / lp_norm(x, 2)
        assert np.allclose(g.row, want, atol=1e-12)

    def test_positive_diagonal_formula(self):
        alg = TracialAlgebra([3], [1.0])
        x = alg.element([np.diag([3.0, 2.0, 1.0]).astype(complex)])
        q = 2.5
        g = schatten_gradient(x, q)
        nrm = lp_norm(x, q)
        want = np.diag([(s / nrm) ** (q - 1.0) for s in (3.0, 2.0, 1.0)])
        assert np.allclose(g.blocks[0], want, atol=1e-12)

    @pytest.mark.parametrize("q", [1.5, 2.0, 3.0, 4.5])
    def test_directional_derivative(self, q):
        rng = np.random.default_rng(66)
        eps = 1e-5
        for i in range(8):
            alg = random_algebra(rng, max_blocks=3, max_dim=3)
            x = random_element(alg, int(rng.integers(2**32)))
            h = random_element(alg, int(rng.integers(2**32)))
            g = schatten_gradient(x, q)
            fd = (lp_norm(x + h * eps, q) - lp_norm(x + h * (-eps), q)) / (2 * eps)
            assert fd == pytest.approx(_weighted_inner(alg, h, g), abs=1e-5)

    def test_invalid_inputs(self):
        alg = TracialAlgebra([2], [1.0])
        with pytest.raises(ParameterError):
            schatten_gradient(alg.identity(), 1.0)
        with pytest.raises(ParameterError):
            schatten_gradient(alg.identity(), np.inf)
        with pytest.raises(ParameterError):
            schatten_gradient(alg.zero(), 2.0)


# ---------------------------------------------------------------------------
# the batched block kernels against per-block LAPACK

# mixed block sizes, with the 2x2 blocks apart (gathered through an index
# array) and side by side (read through a slice)
KERNEL_ALGEBRAS = [
    TracialAlgebra([2, 1, 3, 2, 1], [0.5, 2.0, 1.0, 0.25, 3.0]),
    TracialAlgebra([1, 2, 2, 3], [1 / 6, 1 / 3, 0.75, 2.0]),
]
KERNEL_Q = [1.5, 2.0, 3.0, 4.5]
# 2x2 blocks where closed forms break first; the rank-one block has a
# determinant of exactly 0 in floating point
SPECIAL_2X2 = {
    "zero": np.zeros((2, 2)),
    "diagonal, first larger": np.diag([3.0, 0.5j]),
    "diagonal, second larger": np.diag([-0.5, 3.0j]),
    "rank one": np.outer([1.0, 2j], [3.0, 1.0 - 1j]),
    "scaled unitary": 2.5 / np.sqrt(2.0) * np.array([[1.0, 1j], [1j, 1.0]]),
    # met in a Schur ladder; det / |det| overflowed through 1 / |det|
    "subnormal determinant": np.array([[-0.0438 + 0.999j, 0.0], [0.00128 + 0.00369j, -1.1e-312 - 6e-313j]]),
    # its Gram matrix is I up to a subnormal h01; 1 / (2 radius) overflowed
    "subnormal radius": np.array([[1.0, 2.0**-1060], [0.0, 1.0]]),
}


def _kernel_rows(alg, rng, count, blocks2=()):
    """``count`` complex Gaussian rows of stacked coordinates; row i has
    ``blocks2[i]`` in each of its 2x2 blocks."""
    z = _complex_matrix(rng, (count, alg.complex_dim))
    for i, b in enumerate(blocks2):
        for k, n in enumerate(alg.dims):
            if n == 2:
                o = alg.block_offset(k)
                z[i, o : o + 4] = b.ravel()
    return z


def _lapack_blocks(alg, z, q):
    """Per block, in the order of _BlockOps (1x1, then 2x2, then larger
    blocks, each in block order): offset, size, weight, and for every row the
    singular values of np.linalg.svd and U diag(s^(q-1)) V*."""
    out = []
    for k in sorted(range(alg.num_blocks), key=lambda k: (min(alg.dims[k], 3), k)):
        o, n = alg.block_offset(k), alg.dims[k]
        u, s, vh = np.linalg.svd(z[:, o : o + n * n].reshape(-1, n, n))
        # LAPACK's singular values are good to about eps * s_max; below that
        # they are noise, which s^(q-1) with q < 2 would magnify past 1e-12
        s = np.where(s > 8 * np.finfo(float).eps * s[:, :1], s, 0.0)
        g = (u * s[:, None, :] ** (q - 1.0)) @ vh
        out.append((o, n, alg.weights[k], s, g.reshape(len(z), -1)))
    return out


def _check_kernels(alg, z, q, rtol=1e-12):
    """singular_values, norm (at p = q) and duality direction of _BlockOps
    against per-block LAPACK, within rtol of each block's largest singular
    value (its (q-1)-th power for the direction)."""
    ops = _BlockOps(alg)
    ref = _lapack_blocks(alg, z, q)
    sv, wts = ops.spectrum(z)[0], ops.wts
    assert np.array_equal(wts, np.concatenate([np.full(n, w) for _, n, w, _, _ in ref]))
    want = np.concatenate([s for *_, s, _ in ref], axis=1)
    top = np.concatenate([np.repeat(s[:, :1], n, axis=1) for _, n, _, s, _ in ref], axis=1)
    assert np.all(np.abs(sv - want) <= rtol * top)
    want_norm = sum(w * np.sum(s**q, axis=1) for _, _, w, s, _ in ref) ** (1.0 / q)
    assert np.all(np.abs(ops.norm(z, q) - want_norm) <= rtol * want_norm)
    g = ops.duality(z, q, np.ones_like)[1]
    for o, n, _, s, want_g in ref:
        assert np.all(np.abs(g[:, o : o + n * n] - want_g) <= rtol * s[:, :1] ** (q - 1.0))


class TestBlockKernels:
    @pytest.mark.parametrize("alg", KERNEL_ALGEBRAS)
    @pytest.mark.parametrize("q", KERNEL_Q)
    @pytest.mark.parametrize("case", list(SPECIAL_2X2))
    def test_single_row(self, alg, q, case):
        z = _kernel_rows(alg, np.random.default_rng(80), 1, [SPECIAL_2X2[case]])
        _check_kernels(alg, z, q)

    @pytest.mark.parametrize("alg", KERNEL_ALGEBRAS)
    @pytest.mark.parametrize("q", KERNEL_Q)
    def test_large_batch(self, alg, q):
        z = _kernel_rows(alg, np.random.default_rng(81), 1200, list(SPECIAL_2X2.values()))
        _check_kernels(alg, z, q)

    # s^q and s^(q-1) of 1e150 leave the double range for q > 2
    @pytest.mark.parametrize("alg", KERNEL_ALGEBRAS)
    @pytest.mark.parametrize("q", [1.5, 2.0])
    @pytest.mark.parametrize("scale", [1e-150, 1e150])
    @pytest.mark.parametrize("count", [1, 1200])
    def test_extreme_scales(self, alg, q, scale, count):
        _check_kernels(alg, scale * _kernel_rows(alg, np.random.default_rng(82), count), q)

    # norms alone at every q: power sums s^q that leave the double range are summed again at 2^-e s
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("alg", KERNEL_ALGEBRAS)
    @pytest.mark.parametrize("scale", [1e-150, 1e-100, 1e100, 1e150])
    def test_extreme_scales_of_norms(self, alg, scale):
        z = _kernel_rows(alg, np.random.default_rng(82), 40, list(SPECIAL_2X2.values()))
        for q in KERNEL_Q:
            for norms in (lambda z: lp_norms(alg, z, q), lambda z: lorentz_norms(alg, z, 2.0, q)):
                want = scale * norms(z)
                assert np.all(np.abs(norms(scale * z) - want) <= 1e-12 * want), q

    # the norms of 2^k z are 2^k times those of z to a few ulps: every root is taken of a power
    # sum in [2^-16, 2^16], where the rounding of 1/p costs little
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "alg",
        [TracialAlgebra([2], [1.0]), TracialAlgebra([1, 2, 3], [0.25, 1.0, 4.0]), TracialAlgebra([1] * 64, [1 / 64] * 64)],
    )
    @pytest.mark.parametrize("p", [1.25, 1.5, 3.0, 4.5])
    def test_norms_of_powers_of_two_agree_to_ulps(self, alg, p):
        z = np.array([random_row(alg, seed) for seed in range(20)])
        for norms in (lambda z: lp_norms(alg, z, p), lambda z: lorentz_norms(alg, z, p, 3.0)):
            want = norms(z)
            for k in [-332, -200, 100, 300] + list(range(-60, 61, 3)):
                got = np.ldexp(norms(z * 2.0**k), -k)
                assert np.all(np.abs(got - want) <= 8.0 * np.spacing(want)), k


# the witness of estimate_pq_norm(schur_map(A), 1.5, 3.0, seed=0) under the
# former gradient ascent, A the first complex Gaussian 2x2 of default_rng(0):
# its singular values are about 1 and 2e-31
NEAR_SINGULAR_WITNESS = np.array([
    2.613521540274542e-35 - 1.327764753437249e-34j,
    2.7051707076833113e-47 + 3.082833853739782e-47j,
    0.8034810105779957 + 0.5953303836027211j,
    -1.639288102163519e-17 - 7.570860727316548e-16j,
])


# the exponent pairs of the campaigns, pinned against the reference loop below
PINNED_PAIRS = [(4.0 / 3.0, 4.0), (1.5, 3.0), (2.0, 2.0)]


def _unit_map(name):
    """A Z4 multiplier, an M2 Schur map or that map held as its dense matrix, whose largest
    |value| lies in [1/2, 1), and a function of k giving the map scaled by 2^k, bit for bit."""
    if name == "Z4":
        pair = resolve_instance(name)
        x = random_element(pair.source, 87)
        x = x * 2.0 ** -np.frexp(np.abs(x.row).max())[1]
        return lambda k: multiplier_map(pair, x * 2.0**k)
    sym = _complex_matrix(np.random.default_rng(87), (2, 2))
    sym *= 2.0 ** -np.frexp(np.abs(sym).max())[1]
    if name == "M2":
        return lambda k: schur_map(sym * 2.0**k)
    m = schur_map(sym)
    return lambda k: LinearMap(m.domain, m.codomain, m.matrix * 2.0**k)


class TestTinyScales:
    # tiny and huge maps: squares of singular values and the Gram entries the 2x2 forms are built
    # on would leave the normal range, and powers s^q the double range.  An estimate and brute
    # force scale each map into range by a power of two first, and scale their values back.
    SCALES = np.concatenate([10.0 ** np.arange(-170.0, -139.0), 10.0 ** np.arange(140.0, 301.0, 5.0)])
    # 2^k takes a map of largest |value| in [1/2, 1) near it and far from it, out to the double range
    POWERS = [-1000, -700, -600, -540, -460, -200, -50, -1, 1, 50, 200, 460, 600, 900, 1000]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("name", ["Z4", "M2"])
    def test_lower_bound_stays_below_constant_one_bound(self, name):
        rng = np.random.default_rng(84)
        if name == "M2":
            sym = _complex_matrix(rng, (2, 2))
            bound = lambda r: float(np.sum(np.abs(sym) ** r) ** (1.0 / r)) if np.isfinite(r) else np.abs(sym).max()
            build = lambda scale: schur_map(sym * scale)
        else:
            pair = resolve_instance(name)
            x = random_element(pair.source, 84)
            bound = lambda r: lp_norm(x, r)
            build = lambda scale: multiplier_map(pair, x * scale)
        for p, q in PINNED_PAIRS + [(1.5, 2.0)]:
            r = checks.difference_exponent(p, q)
            for scale in self.SCALES:
                est = estimate_pq_norm(build(scale), p, q, seed=1)
                assert est.lower_bound <= (1.0 + 1e-12) * scale * bound(r), (p, q, scale)

    def test_cube_steps_on_2x2_blocks_do_not_depend_on_scale(self):
        # at r = 3 an image's scale 1 / S ~ s^-3 meets a 2x2 block's 1 / sigma ~ s^-1: their
        # product leaves the double range for blocks of size 1e-100 to 6e-78
        rng = np.random.default_rng(86)
        ops = _BlockOps(TracialAlgebra([2], [1.0]))
        z = _complex_matrix(rng, (16, 4))
        want = ops.duality(z, 3.0, estimator._inverse)[1]
        sym = _complex_matrix(rng, (2, 2))
        want_bound = estimate_pq_norm(schur_map(sym), 1.5, 3.0, seed=1).lower_bound
        for scale in 10.0 ** np.arange(-110.0, -69.0):
            total, got = ops.duality(z * scale, 3.0, estimator._inverse)
            assert np.all(np.isfinite(got)), scale
            live = total > 1e-300  # below, a direction is 0 by design
            assert np.all(np.abs(got[live] * scale - want[live]) <= 1e-13 * np.abs(want).max()), scale
            est = estimate_pq_norm(schur_map(sym * scale), 1.5, 3.0, seed=1)
            assert abs(est.lower_bound / scale - want_bound) <= 1e-6 * want_bound, scale

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("name", ["Z4", "M2", "dense M2"])
    @pytest.mark.parametrize("p, q", PINNED_PAIRS + [(1.5, 2.0)])
    def test_estimate_is_homogeneous_bit_for_bit(self, name, p, q):
        build = _unit_map(name)
        want = estimate_pq_norm(build(0), p, q, seed=1)
        assert want.lower_bound > 0.0
        for k in self.POWERS:
            est = estimate_pq_norm(build(k), p, q, seed=1)
            assert est.lower_bound == np.ldexp(want.lower_bound, k), k
            assert np.array_equal(est.witness.row, want.witness.row), k
            assert est.degenerate is False, k

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("name", ["Z4", "M2"])
    def test_brute_force_is_homogeneous_bit_for_bit(self, name):
        build = _unit_map(name)
        want = brute_force_pq_norm(build(0), 4.0 / 3.0, 4.0, refine_steps=10)
        for k in (-600, -200, -1, 1, 200, 600):
            assert brute_force_pq_norm(build(k), 4.0 / 3.0, 4.0, refine_steps=10) == np.ldexp(want, k), k

    # the gradient has degree 0; it is taken at 2^-e x, in range at every q
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("q", [1.25, 1.5, 2.5, 3.0, 4.5])
    def test_gradient_does_not_depend_on_scale(self, q):
        x = random_element(TracialAlgebra([2], [1.0]), 85)
        want = schatten_gradient(x, q).row
        for scale in np.concatenate([10.0 ** np.arange(-160.0, -139.0), 10.0 ** np.arange(-300.0, 301.0, 10.0)]):
            got = schatten_gradient(x * scale, q).row
            assert np.all(np.isfinite(got))
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), scale


class TestNearSingularDirection:
    # U diag(s^(q-1)) V* with q < 2 is only as well conditioned as s2^(q-1),
    # whose error is (eps s1)^(q-1): the kernel must stay at that level,
    # relative to the block's largest output, however small s2 / s1
    @pytest.mark.parametrize("q", [1.2, 4.0 / 3.0, 1.5])
    def test_agrees_with_lapack(self, q):
        rng = np.random.default_rng(83)
        blocks = [NEAR_SINGULAR_WITNESS.reshape(2, 2)]
        for ratio in 10.0 ** -np.arange(4, 61, 4):
            u = np.linalg.qr(_complex_matrix(rng, (2, 2)))[0]
            v = np.linalg.qr(_complex_matrix(rng, (2, 2)))[0]
            blocks.append(u @ np.diag([1.0, ratio]) @ v.conj().T)
        z = np.stack([b.ravel() for b in blocks])
        got = _BlockOps(TracialAlgebra([2], [1.0])).duality(z, q, np.ones_like)[1]
        u, s, vh = np.linalg.svd(z.reshape(-1, 2, 2))
        want = ((u * s[:, None, :] ** (q - 1.0)) @ vh).reshape(len(z), 4)
        err = np.abs(got - want).max(axis=1) / s[:, 0] ** (q - 1.0)
        assert np.all(err <= 10.0 * np.finfo(float).eps ** (q - 1.0))


class TestExactL2:
    @pytest.mark.parametrize("name", ["S3", "Q8"])
    def test_nonabelian_multiplier_is_max_of_symbol(self, name):
        # F is unitary and the source commutative, so ||m_x||_{2->2} = max_g |x(g)|
        # with the dual weights d_pi/|G|; Z5 is the abelian case below
        pair = resolve_instance(name)
        values = _complex_matrix(np.random.default_rng(68), (pair.source.complex_dim,))
        m = multiplier_map(pair, AlgebraElement.from_row(pair.source, values))
        assert exact_l2_norm(m) == pytest.approx(np.max(np.abs(values)), rel=1e-10)

    def test_multiplier_on_abelian_dual(self):
        pair = build_finite_abelian([5])
        sym = pair.source.element(
            [np.array([[v]]) for v in (0.3, -2.0, 1.0 + 1.0j, 0.0, 0.5)]
        )
        m = multiplier_map(pair, sym)
        assert exact_l2_norm(m) == pytest.approx(2.0, rel=1e-10)

    def test_weights_cancel_for_identity(self):
        alg = TracialAlgebra([1, 3], [0.1, 7.0])
        assert exact_l2_norm(_identity(alg)) == pytest.approx(1.0, rel=1e-12)

    # diagonal maps read max |v| and the basis vector at its argmax, against
    # the SVD of the materialized weighted matrix
    @pytest.mark.parametrize("name", ["Z8", "Z2xZ4", "M3"])
    def test_diagonal_maps_against_svd(self, name):
        m = _diagonal_map(name, 31)
        l2 = exact_l2_norm(m)
        v = estimator._l2_maximizers(estimator._stack([m]), exact=True)[0]
        assert "matrix" not in vars(m)
        w = coordinate_weights(m.domain)
        _, sv, vh = np.linalg.svd(np.sqrt(w)[:, None] * m.matrix / np.sqrt(w))
        assert l2 == pytest.approx(sv[0], rel=1e-12, abs=0.0)
        top = vh[0].conj() / np.sqrt(w)  # the top right singular vector, at unit weighted L2 norm
        assert np.sqrt(np.sum(w * np.abs(v) ** 2)) == pytest.approx(1.0, rel=1e-12)
        assert abs(np.sum(w * np.conj(top) * v)) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("name", ["Z8", "Z2xZ4", "M3"])
    def test_diagonal_warm_start_is_the_dense_power_method(self, name):
        m = _diagonal_map(name, 32)
        stack = estimator._stack([m])
        dense = LinearMap(m.domain, m.codomain, m.matrix)
        got, want = (estimator._l2_maximizers(s, exact=False)[0] for s in (stack, dense))
        assert np.allclose(got, want, rtol=0.0, atol=1e-10)


def _diagonal_map(name: str, seed: int) -> LinearMap:
    """A Gaussian Schur map on M<n>, or a Gaussian multiplier of the DFT pair Z<a>xZ<b>..."""
    rng = np.random.default_rng(seed)
    if name.startswith("M"):
        return schur_map(_complex_matrix(rng, (int(name[1:]),) * 2))
    pair = build_finite_abelian([int(o) for o in name[1:].split("xZ")])
    return multiplier_map(pair, AlgebraElement.from_row(pair.source, _complex_matrix(rng, (pair.source.complex_dim,))))


class TestEstimatePqNorm:
    def test_identity_map_on_state_dual(self):
        # equal dual weights 1/4; point mass is the exact maximizer, with
        # ratio (1/4)^(1/q - 1/p) = 2 at (p, q) = (4/3, 4)
        pair = build_finite_abelian([4])
        m = multiplier_map(pair, pair.source.identity())
        est = estimate_pq_norm(m, 4.0 / 3.0, 4.0, restarts=4, seed=1)
        assert est.lower_bound == pytest.approx(2.0, rel=1e-7)
        assert not est.degenerate

    def test_equal_weight_closed_form(self):
        alg = TracialAlgebra([1] * 6, [1.0 / 6] * 6)
        m = _identity(alg)
        for p, q in [(1.0, 2.0), (1.5, 4.0), (2.0, 6.0)]:
            est = estimate_pq_norm(m, p, q, restarts=4, seed=2)
            want = (1.0 / 6.0) ** (1.0 / q - 1.0 / p)
            assert est.lower_bound == pytest.approx(want, rel=1e-6)

    def test_p2q2_matches_exact(self):
        rng = np.random.default_rng(67)
        for i in range(5):
            dom = random_algebra(rng, max_blocks=2, max_dim=3)
            cod = random_algebra(rng, max_blocks=2, max_dim=3)
            m = LinearMap(dom, cod, _complex_matrix(rng, (cod.complex_dim, dom.complex_dim)))
            est = estimate_pq_norm(m, 2.0, 2.0, restarts=3, seed=3)
            assert est.lower_bound == pytest.approx(exact_l2_norm(m), rel=1e-6)

    def test_certificate_recomputes_bound(self):
        pair = build_finite_abelian([3])
        sym = random_element(pair.source, 11)
        m = multiplier_map(pair, sym)
        est = estimate_pq_norm(m, 1.5, 3.0, restarts=4, seed=4)
        assert est.certificate_ratio(m) == pytest.approx(
            est.lower_bound, rel=1e-8
        )

    def test_homogeneity(self):
        pair = build_finite_abelian([3])
        sym = random_element(pair.source, 12)
        a = estimate_pq_norm(multiplier_map(pair, sym), 1.5, 2.5, restarts=4, seed=5).lower_bound
        b = estimate_pq_norm(multiplier_map(pair, -2.0 * sym), 1.5, 2.5, restarts=4, seed=5).lower_bound
        assert b == pytest.approx(2.0 * a, rel=1e-9)

    def test_zero_map_degenerate(self):
        alg = TracialAlgebra([2], [1.0])
        m = LinearMap(alg, alg, np.zeros((alg.complex_dim, alg.complex_dim), dtype=complex))
        est = estimate_pq_norm(m, 2.0, 2.0, restarts=2, seed=6)
        assert est.lower_bound == 0.0
        assert est.degenerate

    def test_parameter_validation(self):
        alg = TracialAlgebra([1], [1.0])
        m = _identity(alg)
        with pytest.raises(ParameterError):
            estimate_pq_norm(m, 0.5, 2.0)
        with pytest.raises(ParameterError):
            estimate_pq_norm(m, 2.0, np.inf)
        with pytest.raises(ParameterError):
            estimate_pq_norm(m, 2.0, 2.0, restarts=0)
        with pytest.raises(ParameterError):
            estimate_pq_norm(m, 2.0, 2.0, tol=0.0)

    def test_deterministic(self):
        pair = build_finite_abelian([4])
        m = multiplier_map(pair, random_element(pair.source, 13))
        a = estimate_pq_norm(m, 1.5, 3.0, restarts=6, seed=7)
        b = estimate_pq_norm(m, 1.5, 3.0, restarts=6, seed=7)
        assert a.lower_bound == b.lower_bound
        assert np.array_equal(a.witness.row, b.witness.row)

    # certified lower bounds from brute force (1e5 samples, 25 refine steps of
    # the former gradient ascent), which that ascent's estimates missed
    @pytest.mark.parametrize("seed, brute", [(10, 1.11291), (19, 1.32472), (27, 1.40884), (41, 1.44876)])
    def test_reaches_brute_force_on_z4(self, seed, brute):
        pair = resolve_instance("Z4")
        m = multiplier_map(pair, random_element(pair.source, np.random.SeedSequence((seed, 0)), "gaussian"))
        assert estimate_pq_norm(m, 4.0 / 3.0, 4.0, restarts=32).lower_bound >= brute

    def test_p1_is_max_over_point_masses(self):
        # the extreme points of the unit L_1 ball of a commutative domain are
        # its point masses, and every block is a matrix-unit start
        rng = np.random.default_rng(69)
        dom = TracialAlgebra([1, 1, 1], [0.5, 2.0, 1.25])
        cod = TracialAlgebra([1, 1, 1, 1], [0.3, 1.0, 2.0, 0.7])
        m = LinearMap(dom, cod, _complex_matrix(rng, (cod.complex_dim, dom.complex_dim)))
        units = [dom.basis_element(k, 0, 0) for k in range(dom.num_blocks)]
        for q in (2.0, 4.0):
            want = max(lp_norm(m.apply(e), q) / lp_norm(e, 1.0) for e in units)
            est = estimate_pq_norm(m, 1.0, q, seed=8)
            assert est.lower_bound == pytest.approx(want, rel=1e-12, abs=0.0)


class TestBruteForce:
    def test_matches_exact_l2(self):
        pair = build_finite_abelian([2])
        sym = pair.source.element([np.array([[2.0]]), np.array([[1.0]])])
        m = multiplier_map(pair, sym)
        assert brute_force_pq_norm(m, 2.0, 2.0, seed=1) == pytest.approx(
            2.0, rel=1e-4
        )

    def test_matches_estimator_off_diagonal(self):
        pair = build_finite_abelian([2])
        m = multiplier_map(pair, random_element(pair.source, 14))
        est = estimate_pq_norm(m, 4.0 / 3.0, 4.0, restarts=8, seed=2)
        brute = brute_force_pq_norm(m, 4.0 / 3.0, 4.0, seed=2)
        assert est.lower_bound >= 0.98 * brute

    def test_domain_size_guard(self):
        alg = TracialAlgebra([1] * 5, [1.0] * 5)  # 10 real dims
        with pytest.raises(ParameterError, match="8 real"):
            brute_force_pq_norm(_identity(alg), 2.0, 2.0)

    def test_sample_floor(self):
        alg = TracialAlgebra([2], [1.0])
        with pytest.raises(ParameterError, match="1e5"):
            brute_force_pq_norm(_identity(alg), 2.0, 2.0, samples=10)

    def test_zero_map(self):
        alg = TracialAlgebra([1], [1.0])
        m = LinearMap(alg, alg, np.zeros((1, 1), dtype=complex))
        assert brute_force_pq_norm(m, 2.0, 2.0) == 0.0

    def test_samples_are_drawn_batch_by_batch(self):
        # one complex array of the 1e5 samples (6.4 MB), the normals of one batch at a time
        m = schur_map(_complex_matrix(np.random.default_rng(2), (2, 2)))
        brute_force_pq_norm(m, 1.5, 3.0, refine_steps=0)
        tracemalloc.start()
        try:
            brute_force_pq_norm(m, 1.5, 3.0, refine_steps=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 9 * 2**20


class TestHeldAdjoint:
    # a dense stack holds diag(w_c) conj(M) diag(1/w_d), the transpose of the
    # conftest adjoint, and its adjoint is one product with it
    def _maps(self):
        s3 = resolve_instance("S3")  # its dual: blocks 1, 1, 2 of weights 1/6, 1/6, 2/3
        rng = np.random.default_rng(71)
        dom, cod = s3.dual, TracialAlgebra([2, 1], [0.3, 2.5])
        yield multiplier_map(s3, random_element(s3.source, 5))
        yield LinearMap(dom, cod, _complex_matrix(rng, (cod.complex_dim, dom.complex_dim)))

    def test_adjoint_is_the_product_with_the_weighted_adjoint(self):
        for m in self._maps():
            rows = _complex_matrix(np.random.default_rng(72), (300, m.codomain.complex_dim))
            stack = LinearMap(m.domain, m.codomain, m.matrix)
            assert np.array_equal(stack.adjoint_rows(rows, None), rows @ weighted_adjoint_matrix(m).T)


class TestIterationCounts:
    # counts must be integers, and refine_steps may not be negative
    @pytest.mark.parametrize(
        "kwargs", [{"refine_steps": -5}, {"refine_steps": 2.5}, {"samples": 1e5}, {"samples": 100_000.0}]
    )
    def test_brute_force(self, kwargs):
        m = schur_map(_complex_matrix(np.random.default_rng(4), (2, 2)))
        with pytest.raises(ParameterError, match="integer"):
            brute_force_pq_norm(m, 1.5, 3.0, **kwargs)

    @pytest.mark.parametrize("kwargs", [{"restarts": 2.5}, {"max_iters": 2.5}, {"restarts": True}])
    def test_estimate(self, kwargs):
        m = schur_map(_complex_matrix(np.random.default_rng(4), (2, 2)))
        with pytest.raises(ParameterError, match="integer"):
            estimate_pq_norm(m, 1.5, 3.0, **kwargs)
        with pytest.raises(ParameterError, match="integer"):
            list(estimate_pq_norms([m], 1.5, 3.0, [0], **kwargs))


class TestKernelCache:
    def test_estimates_and_brute_force_reuse_cached_kernels(self, monkeypatch):
        m = schur_map(_complex_matrix(np.random.default_rng(3), (2, 2)))
        estimate_pq_norm(m, 1.5, 3.0, restarts=3, max_iters=3)
        built = []
        init = _BlockOps.__init__

        def counted(self, algebra):
            built.append(algebra)
            init(self, algebra)

        monkeypatch.setattr(_BlockOps, "__init__", counted)
        estimate_pq_norm(m, 1.5, 3.0, restarts=3, max_iters=3)
        brute_force_pq_norm(m, 1.5, 3.0, refine_steps=1)
        assert built == []


class TestWitnessTransfer:
    def test_z512_estimate_pickles_as_its_row(self):
        pair = resolve_instance("Z512")
        est = estimate_pq_norm(multiplier_map(pair, random_element(pair.source, 3)), 4.0 / 3.0, 4.0, restarts=2, max_iters=2)
        data = pickle.dumps(est)
        assert len(data) <= 17_000  # 31,916 B as one array per block
        back = pickle.loads(data)
        assert back.witness.row.tobytes() == est.witness.row.tobytes()
        assert back.lower_bound == est.lower_bound


# ---------------------------------------------------------------------------
# the batched ascent against the restart-by-restart loop of conftest

# the default settings, the reference campaign's, and a cut-off that leaves
# most restarts unconverged
PINNED_SETTINGS = [{}, {"restarts": 4, "max_iters": 60}, {"restarts": 6, "max_iters": 8}]


def _pinned_map(name: str, ensemble: str) -> LinearMap:
    if name.startswith("M"):
        n = int(name[1:])
        rng = np.random.default_rng(n)
        sym = _complex_matrix(rng, (n, n))
        if ensemble == "sparse":
            sym = sym * (rng.random((n, n)) < 0.5)
        return schur_map(sym)
    pair = resolve_instance(name)
    return multiplier_map(pair, random_element(pair.source, np.random.SeedSequence((1, 0)), ensemble))


@functools.lru_cache(maxsize=None)
def _pinned_runs(name: str):
    """(map, estimate, reference estimate) per pinned case of one instance."""
    runs = []
    for ensemble in ("gaussian", "sparse"):
        m = _pinned_map(name, ensemble)
        for p, q in PINNED_PAIRS:
            for settings in PINNED_SETTINGS:
                ref = reference_estimate_pq_norm(m, p, q, seed=3, **settings)
                runs.append((m, estimate_pq_norm(m, p, q, seed=3, **settings), ref))
    return runs


PINNED_INSTANCES = ["Z8", "S3", "Q8", "M2", "M4"]


class TestAscentEngine:
    @pytest.mark.parametrize("name", PINNED_INSTANCES)
    def test_matches_restart_by_restart_loop(self, name):
        for m, est, ref in _pinned_runs(name):
            assert est.lower_bound == pytest.approx(ref.lower_bound, rel=1e-12, abs=0.0)
            assert est.restarts_used == ref.restarts_used
            assert est.converged_fraction == ref.converged_fraction
            assert est.certificate_ratio(m) == pytest.approx(est.lower_bound, rel=1e-12)

    # the gradient of ||Mz||_q / ||z||_p vanishes at a converged estimate's
    # witness, by an oracle that shares no code with the ascent
    @pytest.mark.parametrize(
        "name, p, q",
        [(n, p, q) for n in ("Z8", "Z16", "S3", "Q8") for p, q in PINNED_PAIRS[:2]] + [("M3", 1.5, 3.0), ("M4", 1.5, 3.0)],
    )
    def test_converged_estimates_are_stationary(self, name, p, q):
        maps = [_pinned_map(name, ensemble) for ensemble in ("gaussian", "sparse")]
        converged = [(m, est) for m in maps if (est := estimate_pq_norm(m, p, q, seed=3)).converged_fraction == 1.0]
        assert converged
        for m, est in converged:
            assert oracle_stationarity_residual(m, est.witness.row, p, q) <= 1e-2

    @pytest.mark.parametrize("name", ["Z4", "M2"])
    def test_brute_force_matches_fixed_step_loop(self, name):
        m = _pinned_map(name, "gaussian")
        got = brute_force_pq_norm(m, 4.0 / 3.0, 4.0, seed=5, refine_steps=3)
        assert got == reference_brute_force_pq_norm(m, 4.0 / 3.0, 4.0, seed=5, refine_steps=3)


# the exponent pairs of the ascent's tests, and the indicator directions of p = 1 and q = 1
TEXTBOOK_PAIRS = PINNED_PAIRS + [(1.0, 3.0), (1.5, 1.0)]


class TestTextbookStep:
    # the ascent raises each spectrum to one power; the textbook step takes
    # four: value(s, q), powers(s / f, q) / f, powers(s, p') and value(g, p)
    @pytest.mark.parametrize("name", ["Z4", "M2", "S3", "Q8"])
    @pytest.mark.parametrize("p, q", TEXTBOOK_PAIRS)
    def test_steps_match_four_power_form(self, name, p, q):
        m = _pinned_map(name, "gaussian")
        z0 = estimator._complex_normals(np.random.default_rng(9), (300, m.domain.complex_dim))
        maps = LinearMap(m.domain, m.codomain, m.matrix)
        for steps in (1, 3):
            z, best, _ = estimator._ascent(maps, None, _BlockOps(m.domain), p, q, z0.copy(), steps)
            want_z, want_best = reference_fixed_steps(m, z0, p, q, steps, textbook=True)
            assert np.all(np.abs(z - want_z) <= 1e-13 * np.abs(want_z).max(axis=1, keepdims=True))
            assert np.all(np.abs(best - want_best) <= 1e-13 * want_best)

    @pytest.mark.parametrize("name", ["Z4", "M2"])
    @pytest.mark.parametrize("p, q", TEXTBOOK_PAIRS)
    def test_brute_force_matches_four_power_form(self, name, p, q):
        m = _pinned_map(name, "gaussian")
        want = reference_brute_force_pq_norm(m, p, q, seed=5, refine_steps=3, textbook=True)
        assert brute_force_pq_norm(m, p, q, seed=5, refine_steps=3) == pytest.approx(want, rel=1e-13, abs=0.0)


# ---------------------------------------------------------------------------
# estimate_pq_norms: many maps in one batch, each as if it were alone

BATCH_SEEDS = [11, 12, 13, 14]


def _batch_maps(name: str) -> list[LinearMap]:
    """Gaussian, sparse, identity and zero symbols on one instance."""
    if name.startswith("M"):
        n = int(name[1:])
        rng = np.random.default_rng(n)
        gauss = _complex_matrix(rng, (n, n))
        sparse = _complex_matrix(rng, (n, n)) * (rng.random((n, n)) < 0.5)
        return [schur_map(s) for s in (gauss, sparse, np.ones((n, n)), np.zeros((n, n)))]
    pair = resolve_instance(name)
    src = pair.source
    symbols = [random_element(src, np.random.SeedSequence((2, k)), e) for k, e in enumerate(("gaussian", "sparse"))]
    return [multiplier_map(pair, s) for s in symbols + [src.identity(), src.zero()]]


def _same_estimate(a, b) -> bool:
    return (
        a.lower_bound == b.lower_bound
        and np.array_equal(a.witness.row, b.witness.row)
        and (a.restarts_used, a.converged_fraction, a.degenerate) == (b.restarts_used, b.converged_fraction, b.degenerate)
    )


def _batch_sizes(monkeypatch) -> list[int]:
    """The number of maps in each batch the estimator ascends from now on, as it goes: its seeds."""
    sizes = []
    estimate_stack = estimator._estimate_stack

    def counted(stack, p, q, seeds, *args):
        sizes.append(len(seeds))
        return estimate_stack(stack, p, q, seeds, *args)

    monkeypatch.setattr(estimator, "_estimate_stack", counted)
    return sizes


@functools.lru_cache(maxsize=None)
def _batch_runs(name: str):
    """(maps, settings, p, q, estimates of the whole batch) per exponent pair and setting."""
    maps = _batch_maps(name)
    return [
        (maps, settings, p, q, list(estimate_pq_norms(maps, p, q, BATCH_SEEDS, **settings)))
        for p, q in PINNED_PAIRS
        for settings in PINNED_SETTINGS
    ]


BATCH_INSTANCES = ["Z8", "S3", "Q8", "M2", "M4"]
# maps whose dense matrices filled a batch alone; their values share one
LARGE_BATCH_INSTANCES = ["Z128", "M16"]


class TestBatchedEstimates:
    @pytest.mark.parametrize("name", BATCH_INSTANCES)
    def test_matches_restart_by_restart_loop(self, name):
        for maps, settings, p, q, ests in _batch_runs(name):
            for m, seed, est in zip(maps, BATCH_SEEDS, ests):
                ref = reference_estimate_pq_norm(m, p, q, seed=seed, **settings)
                assert est.lower_bound == pytest.approx(ref.lower_bound, rel=1e-12, abs=0.0)
                assert est.restarts_used == ref.restarts_used
                assert est.converged_fraction == ref.converged_fraction
                assert est.degenerate == ref.degenerate
                assert est.certificate_ratio(m) == pytest.approx(est.lower_bound, rel=1e-12, abs=0.0)

    def test_batch_covers_zero_and_unconverged_maps(self):
        ests = [est for name in BATCH_INSTANCES for *_, batch in _batch_runs(name) for est in batch]
        assert any(est.degenerate for est in ests) and not all(est.degenerate for est in ests)
        assert any(0.0 < est.converged_fraction < 1.0 for est in ests)

    @pytest.mark.parametrize("name", BATCH_INSTANCES + LARGE_BATCH_INSTANCES)
    def test_independent_of_position_and_batch_size(self, name, monkeypatch):
        for maps, settings, p, q, ests in _batch_runs(name)[::4]:
            backwards = list(estimate_pq_norms(maps[::-1], p, q, BATCH_SEEDS[::-1], **settings))[::-1]
            alone = [estimate_pq_norm(m, p, q, seed=s, **settings) for m, s in zip(maps, BATCH_SEEDS)]
            assert all(map(_same_estimate, ests, backwards))
            assert all(map(_same_estimate, ests, alone))
        # a byte budget of two maps, as the estimator counts them, splits one
        # call into batches of 2
        restarts = settings.get("restarts", 8)
        monkeypatch.setattr(estimator, "_BATCH_BYTES", 2 * estimator._map_bytes(maps[0], restarts))
        sizes = _batch_sizes(monkeypatch)
        pairs = list(estimate_pq_norms(iter(maps), p, q, BATCH_SEEDS, **settings))
        assert sizes == [2, 2]
        assert all(map(_same_estimate, ests, pairs))

    def test_one_batch_per_form(self, monkeypatch):
        # Z6 and Z2 x Z3 multipliers share their dual algebra but not their
        # DFT basis; a dense map on it stacks as its matrix
        z6, z2z3 = resolve_instance("Z6"), resolve_instance({"abelian": [2, 3]})
        maps = [
            multiplier_map(z6, random_element(z6.source, 41, "gaussian")),
            multiplier_map(z6, random_element(z6.source, 42, "gaussian")),
            _identity(z6.dual),
            multiplier_map(z2z3, random_element(z2z3.source, 43, "gaussian")),
            multiplier_map(z6, random_element(z6.source, 44, "gaussian")),
        ]
        sizes = _batch_sizes(monkeypatch)
        seeds = list(range(5))
        ests = list(estimate_pq_norms(iter(maps), 1.5, 3.0, seeds, restarts=4, max_iters=30))
        assert sizes == [2, 1, 1, 1]
        alone = [estimate_pq_norm(m, 1.5, 3.0, restarts=4, max_iters=30, seed=s) for m, s in zip(maps, seeds)]
        assert all(map(_same_estimate, ests, alone))

    @pytest.mark.parametrize("spec", [{"cyclic": 8, "fault_scale": 0.1}, {"group": "S3", "fault_scale": 0.05}])
    def test_dense_maps_estimated_together_equal_alone(self, spec):
        # the multipliers of a fault-injected transform are dense matrices
        pair = resolve_instance(spec)
        maps = [multiplier_map(pair, random_element(pair.source, 61 + k, e)) for k, e in enumerate(("gaussian", "sparse"))]
        assert all(m.diagonal is None for m in maps)
        for p, q in TEXTBOOK_PAIRS:
            for settings in PINNED_SETTINGS:
                ests = list(estimate_pq_norms(maps, p, q, BATCH_SEEDS[:2], **settings))
                alone = [estimate_pq_norm(m, p, q, seed=s, **settings) for m, s in zip(maps, BATCH_SEEDS)]
                assert all(map(_same_estimate, ests, alone))

    def test_dense_estimate_ignores_matrix_layout(self):
        dom, cod = TracialAlgebra([2, 1], [0.4, 1.7]), TracialAlgebra([2, 1], [2.2, 0.3])
        mat = _complex_matrix(np.random.default_rng(74), (cod.complex_dim, dom.complex_dim))
        c_order, f_order = LinearMap(dom, cod, mat), LinearMap(dom, cod, np.asfortranarray(mat))
        # a map holds its matrix C-contiguous, whatever the layout it was built from
        assert f_order.matrix.flags.c_contiguous and np.array_equal(f_order.matrix, mat)
        for p, q in TEXTBOOK_PAIRS:
            for settings in PINNED_SETTINGS:
                a, b = (estimate_pq_norm(m, p, q, seed=5, **settings) for m in (c_order, f_order))
                assert _same_estimate(a, b)

    @pytest.mark.parametrize("name", ["Z512", "M16"])
    def test_diagonal_maps_build_no_matrix(self, name):
        maps = [_diagonal_map(name, seed) for seed in (51, 52)]
        est = estimate_pq_norm(maps[0], 4.0 / 3.0, 4.0, restarts=4, max_iters=10)
        list(estimate_pq_norms(maps, 2.0, 2.0, [1, 2], restarts=4, max_iters=10))
        assert est.certificate_ratio(maps[0]) == pytest.approx(est.lower_bound, rel=1e-12)
        assert exact_l2_norm(maps[1]) > 0.0
        assert not any("matrix" in vars(m) for m in maps)

    def test_maps_and_seeds_must_pair_up(self):
        maps = _batch_maps("Z8")
        with pytest.raises(ParameterError, match="fewer maps"):
            list(estimate_pq_norms(maps[:2], 1.5, 3.0, BATCH_SEEDS[:3]))
        with pytest.raises(ParameterError, match="more maps"):
            list(estimate_pq_norms(maps, 1.5, 3.0, BATCH_SEEDS[:3]))
        other = multiplier_map(build_finite_abelian([4]), build_finite_abelian([4]).source.identity())
        with pytest.raises(ShapeMismatchError):
            list(estimate_pq_norms([maps[0], other], 1.5, 3.0, BATCH_SEEDS[:2]))
        with pytest.raises(ShapeMismatchError):  # a dense map ascends alone, but is checked all the same
            list(estimate_pq_norms([_identity(maps[0].domain), other], 1.5, 3.0, BATCH_SEEDS[:2]))
