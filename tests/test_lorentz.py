import numpy as np
import pytest

from ncfourier.algebra import TracialAlgebra, random_element
from ncfourier.campaign import resolve_instance
from ncfourier.errors import ParameterError, ShapeMismatchError
from ncfourier.lorentz import (
    SingularFunction,
    _BlockOps,
    _direction2,
    _spectrum2,
    decreasing_step_function,
    distribution_function,
    distribution_functions,
    lorentz_norm,
    lorentz_norm_of_step,
    lorentz_norms,
    lp_norm,
    lp_norms,
    singular_function,
    singular_functions,
)

from conftest import (
    oracle_lorentz,
    oracle_mu,
    random_algebra,
    random_exponent,
    random_unitary_element,
    reference_decreasing_step_function,
)


def _diag_element(values, weights=None):
    values = np.asarray(values, dtype=complex)
    weights = [1.0] * len(values) if weights is None else weights
    alg = TracialAlgebra([1] * len(values), weights)
    return alg.element([np.array([[v]]) for v in values])


class TestSingularFunction:
    def test_identity_two_dim(self):
        alg = TracialAlgebra([2], [1.0])
        sf = singular_function(alg.identity())
        assert np.allclose(sf.breakpoints, [2.0])
        assert np.allclose(sf.values, [1.0])

    def test_diag_3_1(self):
        alg = TracialAlgebra([2], [1.0])
        sf = singular_function(alg.element([np.diag([3.0, 1.0]).astype(complex)]))
        assert np.allclose(sf.breakpoints, [1.0, 2.0])
        assert np.allclose(sf.values, [3.0, 1.0])

    def test_mixed_block_example(self):
        # scalar 5 in a weight-0.5 block next to diag(2,1) with weight 2
        alg = TracialAlgebra([1, 2], [0.5, 2.0])
        x = alg.element([np.array([[5.0]]), np.diag([2.0, 1.0]).astype(complex)])
        sf = singular_function(x)
        assert np.allclose(sf.breakpoints, [0.5, 2.5, 4.5])
        assert np.allclose(sf.values, [5.0, 2.0, 1.0])

    def test_against_definition_oracle(self):
        rng = np.random.default_rng(31)
        for i in range(15):
            alg = random_algebra(rng, max_blocks=3, max_dim=3)
            x = random_element(alg, int(rng.integers(2**32)))
            sf = singular_function(x)
            for t in np.linspace(1e-6, alg.total_weight * 0.999, 17):
                assert sf(t) == pytest.approx(oracle_mu(x, t), rel=1e-3, abs=1e-3)

    def test_zero_element(self):
        alg = TracialAlgebra([2], [1.0])
        sf = singular_function(alg.zero())
        assert len(sf.breakpoints) == 0
        assert sf(0.5) == 0.0

    def test_evaluation_convention(self):
        # mu_t = inf{s > 0 : lambda_s < t} takes the value mu_i on the
        # half-open interval (T_{i-1}, T_i].
        sf = decreasing_step_function([3.0, 1.0], [1.0, 1.0])
        assert sf(1e-12) == 3.0
        assert sf(1.0) == 3.0
        assert sf(1.0 + 1e-12) == 1.0
        assert sf(2.0) == 1.0
        assert sf(2.0 + 1e-12) == 0.0
        assert sf(100.0) == 0.0

    def test_merging_equal_values(self):
        sf = decreasing_step_function([2.0, 2.0, 1.0], [0.5, 1.0, 1.0])
        assert np.allclose(sf.breakpoints, [1.5, 2.5])
        assert np.allclose(sf.values, [2.0, 1.0])

    def test_zeros_dropped(self):
        sf = decreasing_step_function([2.0, 0.0], [1.0, 1.0])
        assert np.allclose(sf.breakpoints, [1.0])

    def test_invalid_step_data(self):
        with pytest.raises(ParameterError):
            SingularFunction(np.array([1.0, 2.0]), np.array([1.0, 2.0]))  # increasing values
        with pytest.raises(ParameterError):
            SingularFunction(np.array([2.0, 1.0]), np.array([2.0, 1.0]))  # decreasing breaks
        with pytest.raises(ParameterError):
            decreasing_step_function([1.0], [-1.0])


def _near_tie_chain(rng, n, spacing):
    """n values 1, 1 - spacing, 1 - 2 spacing, ... (relative), in random order."""
    return rng.permutation(1.0 - spacing * np.arange(n)) * rng.choice([1.0, 3.7e-5, 2.5e8])


def _step_inputs():
    rng = np.random.default_rng(60)
    cases = {
        "empty": [],
        "all_zeros": [0.0, 0.0, 0.0],
        "single": [2.5],
        "single_zero": [0.0],
        "zeros_among_values": [0.0, 3.0, 0.0, 1.0, 3.0],
        "exact_duplicates": [2.0] * 9 + [1.0] * 20,
        "duplicate_pairs": np.repeat(rng.random(12), 2),
        "tie_chain_within_tolerance": 1.0 - 1e-13 * np.arange(8),
        "tie_chain_across_tolerance": 1.0 - 4e-13 * np.arange(12),
        "two_tie_chains": np.concatenate([2.0 - 7e-13 * np.arange(9), 1.0 - 3e-13 * np.arange(9), [0.0]]),
    }
    for i in range(12):
        cases[f"random_chain_{i}"] = _near_tie_chain(rng, int(rng.integers(2, 40)), rng.choice([1e-13, 5e-13, 2e-12]))
    for i in range(12):
        values = rng.choice([0.0, 1.0, 1.0 - 6e-13, 1.0 - 1.2e-12, 0.5, rng.random()], size=int(rng.integers(1, 30)))
        cases[f"random_mix_{i}"] = values
    return {
        name: (np.asarray(v, dtype=float), rng.random(len(v)) * rng.choice([1e-3, 1.0, 7.0], len(v)) + 1e-3)
        for name, v in cases.items()
    }


STEP_INPUTS = _step_inputs()


class TestStepFunctionOracle:
    """The vectorized merge against the value-by-value loop in conftest, bit for bit."""

    @pytest.mark.parametrize("name", list(STEP_INPUTS))
    def test_bit_equal_to_sequential_merge(self, name):
        values, weights = STEP_INPUTS[name]
        sf = decreasing_step_function(values, weights)
        breakpoints, steps = reference_decreasing_step_function(values, weights)
        assert np.array_equal(sf.breakpoints, breakpoints)
        assert np.array_equal(sf.values, steps)

    def test_chain_across_tolerance_splits(self):
        # each value is within 1e-12 of its neighbour, but not of the first of its step
        sf = decreasing_step_function(1.0 - 4e-13 * np.arange(12), np.ones(12))
        assert 1 < len(sf.values) < 12


# the algebras of the batched-norm tests: Z8 (commutative), the duals of S3
# and Q8 (1x1 and 2x2 blocks), M4 (one 4x4 block), a mixed algebra with
# blocks of every kind and a random one
BATCH_ALGEBRAS = {
    "Z8": resolve_instance("Z8").source,
    "S3_dual": resolve_instance("S3").dual,
    "Q8_dual": resolve_instance("Q8").dual,
    "M4": TracialAlgebra([4], [1.0]),
    "mixed": TracialAlgebra([1, 3, 2, 1, 2], [0.5, 1.25, 0.3, 2.0, 0.3]),
    "random": random_algebra(np.random.default_rng(66), max_blocks=5, max_dim=4),
}


def _batch(alg):
    """Elements of several ensembles, with the zero and identity elements, as elements and as rows."""
    elems = [alg.zero(), alg.identity()] + [
        random_element(alg, np.random.SeedSequence((61, i)), kind)
        for i, kind in enumerate(["gaussian", "hermitian", "sparse", "rank_one"] * 3)
    ]
    return elems, np.array([x.row for x in elems])


class TestBatchedNorms:
    """Each batched norm, row by row, equals its per-element function bit for bit,
    in the batch's order and reversed."""

    @pytest.mark.parametrize("name", list(BATCH_ALGEBRAS))
    @pytest.mark.parametrize("p", [0.5, 1.0, 1.5, 2.0, 3.0, np.inf])
    def test_lp_norms(self, name, p):
        alg = BATCH_ALGEBRAS[name]
        elems, z = _batch(alg)
        want = [lp_norm(x, p) for x in elems]
        assert lp_norms(alg, z, p).tolist() == want
        assert lp_norms(alg, z[::-1], p).tolist() == want[::-1]

    @pytest.mark.parametrize("name", list(BATCH_ALGEBRAS))
    @pytest.mark.parametrize("p, q", [(1.5, 3.0), (2.0, 1.0), (0.7, 0.4), (3.0, np.inf), (1.2, np.inf)])
    def test_lorentz_norms(self, name, p, q):
        alg = BATCH_ALGEBRAS[name]
        elems, z = _batch(alg)
        want = [lorentz_norm(x, p, q) for x in elems]
        assert lorentz_norms(alg, z, p, q).tolist() == want
        assert lorentz_norms(alg, z[::-1], p, q).tolist() == want[::-1]
        assert [lorentz_norm_of_step(singular_function(x), p, q) for x in elems] == want

    @pytest.mark.parametrize("name", list(BATCH_ALGEBRAS))
    def test_singular_functions(self, name):
        alg = BATCH_ALGEBRAS[name]
        elems, z = _batch(alg)
        for got, x in zip(singular_functions(alg, z), elems):
            want = singular_function(x)
            assert np.array_equal(got.breakpoints, want.breakpoints)
            assert np.array_equal(got.values, want.values)

    @pytest.mark.parametrize("name", list(BATCH_ALGEBRAS))
    @pytest.mark.parametrize("s", [0.0, 0.5, 1.0, 2.0])
    def test_distribution_functions(self, name, s):
        alg = BATCH_ALGEBRAS[name]
        elems, z = _batch(alg)
        assert distribution_functions(alg, z, s).tolist() == [distribution_function(x, s) for x in elems]

    def test_rows_must_fit_the_algebra(self):
        alg = BATCH_ALGEBRAS["S3_dual"]
        with pytest.raises(ShapeMismatchError):
            lp_norms(alg, np.zeros((2, alg.complex_dim + 1)), 2.0)
        with pytest.raises(ShapeMismatchError):
            lorentz_norms(alg, np.zeros(alg.complex_dim), 2.0, 1.0)


class TestSpectrum2x2:
    @pytest.mark.parametrize("name", ["S3_dual", "Q8_dual", "mixed", "random"])
    def test_agrees_with_lapack(self, name):
        # relative to each block's largest singular value: LAPACK's smaller one
        # is itself only that accurate
        alg = BATCH_ALGEBRAS[name]
        z = _batch(alg)[1][2:]
        ops = _BlockOps(alg)
        sv = ops.singular_values(z)[0]
        got = sv[:, ops.n1 : ops.n1 + ops.n2].reshape(len(z), -1, 2)
        offsets = [alg.block_offset(k) for k, n in enumerate(alg.dims) if n == 2]
        blocks = np.stack([z[:, o : o + 4].reshape(len(z), 2, 2) for o in offsets], axis=1)
        want = np.linalg.svd(blocks, compute_uv=False)
        assert np.all(np.abs(got - want) <= 1e-15 * want[..., :1])


class TestBlockOpsGrouping:
    """Blocks of one size go through one stacked call, with the bits of a per-block loop."""

    ALG = TracialAlgebra((3, 1, 4, 3, 2, 3, 4), np.exp(np.random.default_rng(71).uniform(-1.0, 1.0, 7)))

    def _rows(self):
        rng = np.random.default_rng(72)
        d = self.ALG.complex_dim
        return (rng.standard_normal((5, d)) + 1j * rng.standard_normal((5, d))) / np.sqrt(2.0)

    def _blocks(self, z):
        """(k, n, (S, n, n) block) of every block, in block order."""
        for k, n in enumerate(self.ALG.dims):
            o = self.ALG.block_offset(k)
            yield k, n, z[:, o : o + n * n].reshape(len(z), n, n)

    def _loop_spectrum(self, z, vectors=False):
        """Singular values block by block, 1x1 first, then 2x2, then larger, each in block order.

        LAPACK's singular values can differ in the last bit with and without vectors.
        """
        blocks = list(self._blocks(z))
        parts = [np.abs(b[:, 0, :1]) for _, n, b in blocks if n == 1]
        parts += [_spectrum2(b.reshape(len(z), 1, 4))[0][:, 0] for _, n, b in blocks if n == 2]
        parts += [np.linalg.svd(b)[1] if vectors else np.linalg.svd(b, compute_uv=False) for _, n, b in blocks if n > 2]
        return np.concatenate(parts, axis=1)

    def _loop_direction(self, z, g):
        """U diag(g) V* block by block, ``g`` laid out like the singular values."""
        out = np.empty_like(z)
        cols = np.cumsum([0] + [1] * self.ALG.dims.count(1) + [2] * self.ALG.dims.count(2)
                         + [n for n in self.ALG.dims if n > 2])
        order = ([k for k, n in enumerate(self.ALG.dims) if n == 1] + [k for k, n in enumerate(self.ALG.dims) if n == 2]
                 + [k for k, n in enumerate(self.ALG.dims) if n > 2])
        blocks = {k: (n, b) for k, n, b in self._blocks(z)}
        for j, k in enumerate(order):
            n, b = blocks[k]
            o = self.ALG.block_offset(k)
            gk = g[:, cols[j] : cols[j + 1]]
            if n == 1:
                mag = np.abs(b[:, 0, :1])
                out[:, o : o + 1] = b[:, 0, :1] * np.divide(gk, mag, out=np.zeros_like(mag), where=mag > 0.0)
            elif n == 2:
                y = b.reshape(len(z), 1, 4)
                out[:, o : o + 4] = _direction2(y, gk[:, None, :], _spectrum2(y))[:, 0]
            else:
                u, _, vh = np.linalg.svd(b)
                out[:, o : o + n * n] = ((u * gk[:, None, :]) @ vh).reshape(len(z), -1)
        return out

    def test_layout(self):
        ops = _BlockOps(self.ALG)
        assert ops.block_index.tolist() == [1, 4, 4, 0, 0, 0, 2, 2, 2, 2, 3, 3, 3, 5, 5, 5, 6, 6, 6, 6]
        assert ops.wts.tolist() == [self.ALG.weights[k] for k in ops.block_index]

    @pytest.mark.parametrize("vectors", [False, True])
    def test_spectrum(self, vectors, monkeypatch):
        z = self._rows()
        svd = np.linalg.svd
        calls = []

        def counted(a, *args, **kwargs):
            calls.append(a.shape)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        sv, data = _BlockOps(self.ALG).spectrum(z, vectors=vectors)
        monkeypatch.undo()
        # one call per size above 2: three 3x3 blocks and two 4x4 ones
        assert calls == [(5, 3, 3, 3), (5, 2, 4, 4)]
        assert np.array_equal(sv, self._loop_spectrum(z, vectors))
        if vectors:
            for (u, vh), n in zip(zip(data[-4::2], data[-3::2]), (3, 4)):
                want = [svd(b) for _, m, b in self._blocks(z) if m == n]
                assert np.array_equal(u, np.stack([w[0] for w in want], axis=1))
                assert np.array_equal(vh, np.stack([w[2] for w in want], axis=1))

    def test_direction(self):
        z = self._rows()
        ops = _BlockOps(self.ALG)
        sv, data = ops.spectrum(z, vectors=True)
        g = sv**0.7
        assert np.array_equal(ops.direction(z, g, data), self._loop_direction(z, g))

    @pytest.mark.parametrize("q", [1.0, 1.5, 3.0, np.inf])
    def test_schatten_direction(self, q):
        z = self._rows()
        g = _BlockOps.powers(self._loop_spectrum(z, vectors=True), q)
        assert np.array_equal(_BlockOps(self.ALG).schatten_direction(z, q), self._loop_direction(z, g))

    def test_product(self):
        z = self._rows()
        a, b = z, z[::-1]
        want = np.empty_like(a)
        for k, n in enumerate(self.ALG.dims):
            o = self.ALG.block_offset(k)
            x = a[:, o : o + n * n].reshape(len(a), n, n)
            y = b[:, o : o + n * n].reshape(len(b), n, n)
            want[:, o : o + n * n] = (x * y if n == 1 else x @ y).reshape(len(a), -1)
        assert np.array_equal(_BlockOps(self.ALG).product(a, b), want)


class TestDistributionFunction:
    def test_identity_levels(self):
        alg = TracialAlgebra([2], [1.0])
        one = alg.identity()
        assert distribution_function(one, 0.5) == pytest.approx(2.0)
        assert distribution_function(one, 1.0) == 0.0

    def test_diag_3_1(self):
        alg = TracialAlgebra([2], [1.0])
        x = alg.element([np.diag([3.0, 1.0]).astype(complex)])
        assert distribution_function(x, 2.0) == pytest.approx(1.0)

    def test_negative_level_rejected(self):
        alg = TracialAlgebra([1], [1.0])
        with pytest.raises(ParameterError):
            distribution_function(alg.identity(), -0.1)

    def test_matches_mu_inversion(self):
        rng = np.random.default_rng(33)
        alg = random_algebra(rng, max_blocks=2, max_dim=3)
        x = random_element(alg, 3)
        sf = singular_function(x)
        for s in np.linspace(0, lp_norm(x, np.inf) * 1.01, 13):
            lam = distribution_function(x, s)
            # mu at t slightly above lambda_s must be <= s
            if lam < alg.total_weight:
                assert sf(lam + 1e-12) <= s + 1e-10


class TestLpNorm:
    def test_pythagorean(self):
        alg = TracialAlgebra([2], [1.0])
        x = alg.element([np.diag([3.0, 4.0]).astype(complex)])
        assert lp_norm(x, 2) == pytest.approx(5.0)

    def test_weighted_l1_of_identity(self):
        alg = TracialAlgebra([1, 2], [0.5, 2.0])
        assert lp_norm(alg.identity(), 1) == pytest.approx(4.5)

    def test_hilbert_schmidt_identity(self):
        from ncfourier.algebra import trace

        rng = np.random.default_rng(34)
        for i in range(20):
            alg = random_algebra(rng)
            x = random_element(alg, int(rng.integers(2**32)))
            assert lp_norm(x, 2) ** 2 == pytest.approx(
                trace(x.adjoint() * x).real, rel=1e-10
            )

    def test_sup_norm(self):
        alg = TracialAlgebra([2, 1], [0.1, 5.0])
        x = alg.element([np.diag([7.0, 1.0]).astype(complex), np.array([[2.0]])])
        assert lp_norm(x, np.inf) == pytest.approx(7.0)

    def test_invalid_exponent(self):
        alg = TracialAlgebra([1], [1.0])
        with pytest.raises(ParameterError):
            lp_norm(alg.identity(), 0.0)
        with pytest.raises(ParameterError):
            lp_norm(alg.identity(), -2.0)


class TestLorentzNorm:
    def test_weak_norm_diag(self):
        alg = TracialAlgebra([2], [1.0])
        x = alg.element([np.diag([3.0, 1.0]).astype(complex)])
        assert lorentz_norm(x, 2, np.inf) == pytest.approx(3.0)
        assert lorentz_norm(x, 2, np.inf) == pytest.approx(
            oracle_lorentz(x, 2, np.inf), rel=1e-6
        )

    def test_l21_of_identity(self):
        alg = TracialAlgebra([2], [1.0])
        assert lorentz_norm(alg.identity(), 2, 1) == pytest.approx(2.0 * np.sqrt(2.0))

    def test_diagonal_equals_lp(self):
        rng = np.random.default_rng(35)
        for i in range(25):
            alg = random_algebra(rng)
            x = random_element(alg, int(rng.integers(2**32)))
            p = random_exponent(rng)
            assert lorentz_norm(x, p, p) == pytest.approx(lp_norm(x, p), rel=1e-10)

    def test_against_integral_oracle(self):
        rng = np.random.default_rng(36)
        for i in range(25):
            alg = random_algebra(rng, max_blocks=3, max_dim=4)
            x = random_element(alg, int(rng.integers(2**32)))
            p = random_exponent(rng)
            q = random_exponent(rng) if rng.random() < 0.7 else np.inf
            assert lorentz_norm(x, p, q) == pytest.approx(
                oracle_lorentz(x, p, q), rel=1e-6
            )

    def test_scaling(self):
        rng = np.random.default_rng(37)
        alg = random_algebra(rng)
        x = random_element(alg, 9)
        c = -2.5 + 1.0j
        assert lorentz_norm(x * c, 2.5, 3.5) == pytest.approx(
            abs(c) * lorentz_norm(x, 2.5, 3.5), rel=1e-12
        )

    def test_unitary_invariance(self):
        rng = np.random.default_rng(38)
        for i in range(10):
            alg = random_algebra(rng)
            x = random_element(alg, int(rng.integers(2**32)))
            u = random_unitary_element(alg, rng)
            v = random_unitary_element(alg, rng)
            p, q = random_exponent(rng), random_exponent(rng)
            assert lorentz_norm(u * x * v, p, q) == pytest.approx(
                lorentz_norm(x, p, q), rel=1e-10
            )

    def test_zero(self):
        alg = TracialAlgebra([2], [1.0])
        assert lorentz_norm(alg.zero(), 2, 1) == 0.0
        assert lorentz_norm(alg.zero(), 2, np.inf) == 0.0

    def test_step_norm_direct(self):
        sf = decreasing_step_function([3.0, 1.0], [1.0, 1.0])
        assert lorentz_norm_of_step(sf, 2, np.inf) == pytest.approx(3.0)
        with pytest.raises(ParameterError):
            lorentz_norm_of_step(sf, np.inf, 2)


class TestLemmaConstants:
    """The three quantitative lemmas, tested as pure norm statements."""

    def test_submultiplicativity_on_breakpoints(self):
        rng = np.random.default_rng(39)
        for i in range(40):
            alg = random_algebra(rng, max_blocks=3, max_dim=4)
            x = random_element(alg, int(rng.integers(2**32)))
            y = random_element(alg, int(rng.integers(2**32)))
            fx, fy, fxy = singular_function(x), singular_function(y), singular_function(x * y)
            s_grid = np.concatenate([fx.breakpoints / 2, fx.breakpoints])
            t_grid = np.concatenate([fy.breakpoints / 2, fy.breakpoints])
            for s in s_grid:
                for t in t_grid:
                    assert fxy(s + t) <= fx(s) * fy(t) * (1 + 1e-10)

    def test_nesting_constant(self):
        rng = np.random.default_rng(40)
        for i in range(40):
            alg = random_algebra(rng)
            x = random_element(alg, int(rng.integers(2**32)))
            p = random_exponent(rng, 1.01, 5.0)
            q = random_exponent(rng, 1.01, 5.0)
            r = q * random_exponent(rng, 1.05, 4.0)
            if rng.random() < 0.3:
                r = np.inf
            c = (q / p) ** (1.0 / q - (0.0 if np.isinf(r) else 1.0 / r))
            assert lorentz_norm(x, p, r) <= c * lorentz_norm(x, p, q) * (1 + 1e-10)

    def test_weak_holder_constant(self):
        rng = np.random.default_rng(41)
        for i in range(40):
            alg = random_algebra(rng, max_blocks=3, max_dim=4)
            x = random_element(alg, int(rng.integers(2**32)))
            y = random_element(alg, int(rng.integers(2**32)))
            p0 = random_exponent(rng, 1.0, 5.0)
            p1 = random_exponent(rng, 1.0, 5.0)
            q = random_exponent(rng, 1.0, 5.0)
            p = 1.0 / (1.0 / p0 + 1.0 / p1)
            lhs = lorentz_norm(x * y, p, q)
            rhs = (
                2.0 ** (1.0 / p)
                * lorentz_norm(x, p0, np.inf)
                * lorentz_norm(y, p1, q)
            )
            assert lhs <= rhs * (1 + 1e-10)
