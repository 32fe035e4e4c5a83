"""Shared test helpers: independent oracles and random-input generators.

The oracles recompute singular functions and Lorentz functionals directly
from their definitions (dense grids, raw numpy decompositions) without
touching the closed-form production code, so agreement is meaningful.
"""

import math

import numpy as np

from ncfourier.algebra import AlgebraElement, TracialAlgebra, random_element
from ncfourier.linmap import coordinate_weights


# ---------------------------------------------------------------------------
# random structured inputs


def random_algebra(rng, max_blocks=4, max_dim=5) -> TracialAlgebra:
    num = int(rng.integers(1, max_blocks + 1))
    dims = [int(rng.integers(1, max_dim + 1)) for _ in range(num)]
    weights = np.exp(rng.uniform(np.log(0.25), np.log(4.0), size=num))
    return TracialAlgebra(dims, weights)


def reference_random_blocks(dims, seed, ensemble, density=0.25):
    """The blocks of ``random_element``, drawn block by block.

    A Gaussian block is its real part, then its imaginary part; a sparse
    block draws its mask first.  A rank-one element draws its block, then
    the two vectors.
    """
    rng = np.random.default_rng(seed)

    def gaussian(shape):
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)

    if ensemble == "rank_one":
        k = int(rng.integers(len(dims)))
        blocks = [np.zeros((n, n), dtype=complex) for n in dims]
        u, v = gaussian(dims[k]), gaussian(dims[k])
        blocks[k][:, :] = np.outer(u, v.conj())
        return blocks
    blocks = []
    for n in dims:
        if ensemble == "sparse":
            mask = rng.random((n, n)) < density
            blocks.append(gaussian((n, n)) * mask)
            continue
        g = gaussian((n, n))
        blocks.append(g if ensemble == "gaussian" else (g + g.conj().T) / np.sqrt(2.0))
    return blocks


def reference_block_row(fn, *elements) -> np.ndarray:
    """The stacked row of the element whose block k is ``fn`` of the elements' blocks k,
    computed block by block from per-block arrays."""
    blocks = zip(*([b.copy() for b in x.blocks] for x in elements))
    return np.concatenate([np.asarray(fn(*bs), dtype=complex).ravel() for bs in blocks])


def random_exponent(rng, lo=1.0, hi=6.0) -> float:
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


# ---------------------------------------------------------------------------
# oracles


def oracle_weighted_singular_values(x):
    """All singular values of x with their block weights, unsorted.

    Uses numpy's svd per block directly; does not share code with
    ncfourier.lorentz.
    """
    values = []
    weights = []
    for k, block in enumerate(x.blocks):
        s = np.linalg.svd(block, compute_uv=False)
        values.extend(s.tolist())
        weights.extend([x.algebra.weights[k]] * len(s))
    return np.asarray(values), np.asarray(weights)


def oracle_mu(x, t: float, s_grid_size: int = 20000) -> float:
    """mu_t(x) = inf{s > 0 : lambda_s(x) < t} evaluated on a dense s-grid."""
    values, weights = oracle_weighted_singular_values(x)
    top = float(values.max(initial=0.0))
    if top == 0.0:
        return 0.0
    grid = np.linspace(0.0, top * (1.0 + 1e-9), s_grid_size)
    for s in grid:
        # lambda_s(x): total weight of singular values strictly above s
        if float(weights[values > s].sum()) < t:
            return float(s)
    return top


def oracle_lorentz(x, p: float, q: float, points_per_step: int = 4000) -> float:
    """Lorentz norm by numerical integration of the definition.

    Integrates (t^{1/p} mu_t)^q dt/t over each constant piece of the step
    function with the exact antiderivative of t^{q/p - 1}, so the only
    approximation is the singular values themselves; for q = inf takes the
    sup of t^{1/p} mu_t over a dense grid.
    """
    values, weights = oracle_weighted_singular_values(x)
    order = np.argsort(-values)
    values, weights = values[order], weights[order]
    keep = values > 0
    values, weights = values[keep], weights[keep]
    if len(values) == 0:
        return 0.0
    upper = np.cumsum(weights)
    lower = upper - weights
    if np.isinf(q):
        best = 0.0
        for lo, hi, mu in zip(lower, upper, values):
            ts = np.linspace(lo, hi, points_per_step)[1:]
            best = max(best, float(np.max(ts ** (1.0 / p) * mu)))
        return best
    a = q / p
    total = 0.0
    for lo, hi, mu in zip(lower, upper, values):
        total += mu**q * (hi**a - lo**a) / a
    return float(total ** (1.0 / q))


def _oracle_blocks(algebra, coords):
    """(weight, block) pairs of a coordinate vector, cut out by hand."""
    for k, n in enumerate(algebra.dims):
        o = algebra.block_offset(k)
        yield algebra.weights[k], np.asarray(coords)[o : o + n * n].reshape(n, n)


def oracle_schatten_norm(algebra, coords, p):
    """Weighted Schatten p-norm of a coordinate vector, by np.linalg.svd per block."""
    total = sum(w * np.sum(np.linalg.svd(b, compute_uv=False) ** p) for w, b in _oracle_blocks(algebra, coords))
    return float(total ** (1.0 / p))


def oracle_duality_direction(algebra, coords, r):
    """Blockwise U diag(s^(r-1)) V* of a coordinate vector, by np.linalg.svd per block."""
    out = []
    for _, b in _oracle_blocks(algebra, coords):
        u, s, vh = np.linalg.svd(b)
        out.append(((u * s ** (r - 1.0)) @ vh).ravel())
    return np.concatenate(out)


def weighted_adjoint_matrix(m) -> np.ndarray:
    """Adjoint of a LinearMap w.r.t. the weighted trace inner products: diag(1/w_d) M^H diag(w_c)."""
    wd = coordinate_weights(m.domain)
    wc = coordinate_weights(m.codomain)
    return (m.matrix * wc[:, None]).conj().T / wd[:, None]


def oracle_stationarity_residual(m, z, p, q):
    """||M* psi_q(Mz) / f^(q-1) - f psi_p(z)||_p' / f at z scaled to unit p-norm, f = ||Mz||_q.

    M* psi_q(Mz) / f^(q-1) is the gradient of ||Mz||_q and psi_p(z) that of
    ||z||_p, so the residual vanishes exactly at the stationary points of
    ||Mz||_q / ||z||_p.  M* is ``weighted_adjoint_matrix(m)``.
    """
    z = np.asarray(z) / oracle_schatten_norm(m.domain, z, p)
    mz = m.matrix @ z
    f = oracle_schatten_norm(m.codomain, mz, q)
    grad = weighted_adjoint_matrix(m) @ oracle_duality_direction(m.codomain, mz, q) / f ** (q - 1.0)
    residual = grad - f * oracle_duality_direction(m.domain, z, p)
    return oracle_schatten_norm(m.domain, residual, p / (p - 1.0)) / f


def reference_decreasing_step_function(values, weights):
    """(breakpoints, values) of ``decreasing_step_function``, value by value.

    In decreasing order (ties in input order) a value joins the current step
    when it is within relative tolerance 1e-12 of the step's first value, and
    starts a new step otherwise; zeros are dropped.
    """
    values = np.asarray(values, dtype=float).ravel()
    weights = np.asarray(weights, dtype=float).ravel()
    order = np.argsort(-values, kind="stable")
    merged_vals: list[float] = []
    merged_wts: list[float] = []
    for v, w in zip(values[order], weights[order]):
        if v == 0.0:
            continue
        if merged_vals and merged_vals[-1] - v <= 1e-12 * merged_vals[-1]:
            merged_wts[-1] += w
        else:
            merged_vals.append(float(v))
            merged_wts.append(float(w))
    return np.cumsum(merged_wts), np.asarray(merged_vals)


def oracle_entry_lorentz(entries, r: float, w: float) -> float:
    """Lorentz norm of a plain sequence under counting measure."""
    mags = np.sort(np.abs(np.asarray(entries).ravel()))[::-1]
    mags = mags[mags > 0]
    if len(mags) == 0:
        return 0.0
    k = np.arange(1, len(mags) + 1, dtype=float)
    if np.isinf(w):
        return float(np.max(k ** (1.0 / r) * mags))
    a = w / r
    return float(np.sum(mags**w * (k**a - (k - 1) ** a) / a) ** (1.0 / w))


def left_multiplication_matrix(x) -> np.ndarray:
    """Matrix of y -> x y on stacked coordinates of x's algebra.

    Row-major raveling turns blockwise left multiplication into a block
    diagonal of Kronecker products x_k (x) I_{n_k}.
    """
    alg = x.algebra
    out = np.zeros((alg.complex_dim, alg.complex_dim), dtype=complex)
    for k, b in enumerate(x.blocks):
        o = alg.block_offset(k)
        nn = alg.dims[k] ** 2
        out[o : o + nn, o : o + nn] = np.kron(b, np.eye(alg.dims[k]))
    return out


def reference_dft_matrix(orders) -> np.ndarray:
    """The DFT over Z_{o_1} x ... x Z_{o_d} from its phase table, F[k, g] = conj(chi_k(g)).

    Elements g and characters k are multi-indices in row-major order, and
    chi_k(g) = exp(2 pi i sum_j k_j g_j / o_j).
    """
    n = int(np.prod(orders))
    grids = np.stack(np.meshgrid(*[np.arange(o) for o in orders], indexing="ij"), axis=-1).reshape(n, len(orders))
    phase = np.zeros((n, n))
    for j, o in enumerate(orders):
        phase += np.outer(grids[:, j], grids[:, j]) * (1.0 / o)
    return np.exp(-2j * np.pi * phase)


def forward_matrix(pair) -> np.ndarray:
    """The pair's forward transform as a dense matrix, column g the transform of the g-th unit row."""
    return pair.forward(np.eye(pair.source.complex_dim, dtype=complex)).T


def inverse_matrix(pair) -> np.ndarray:
    """The pair's inverse transform as a dense matrix, column k the inverse of the k-th unit row."""
    return pair.inverse(np.eye(pair.dual.complex_dim, dtype=complex)).T


def random_unitary_element(algebra, rng):
    """Blockwise Haar-ish unitary via QR of a Gaussian block."""
    g = random_element(algebra, int(rng.integers(2**32)), "gaussian")
    blocks = []
    for b in g.blocks:
        qmat, rmat = np.linalg.qr(b)
        d = np.diagonal(rmat)
        phase = d / np.where(np.abs(d) > 0, np.abs(d), 1.0)
        blocks.append(qmat * phase)
    return AlgebraElement(algebra, blocks)


# ---------------------------------------------------------------------------
# reference ascent: Boyd's power iteration restart by restart, one 1-row
# batch each, with the maps applied as dense matrix products


def _reference_value(m, z, q):
    """||M z||_q of the rows of z."""
    from ncfourier.lorentz import _BlockOps

    cod_ops = _BlockOps(m.codomain)
    return cod_ops.value(cod_ops.spectrum(z @ m.matrix.T, vectors=True)[0], q)


def _reference_power_step(m, z, p, q):
    """Boyd's step z -> psi_p'(M* psi_q(Mz)) of the rows of z, at unit p-norm."""
    from ncfourier.lorentz import _TINY, _BlockOps

    dom_ops, cod_ops = _BlockOps(m.domain), _BlockOps(m.codomain)

    def inverse(x):
        return np.where(x > _TINY, 1.0 / np.maximum(x, _TINY), 0.0)[:, None]

    mz = z @ m.matrix.T
    sv, data = cod_ops.spectrum(mz, vectors=True)
    inv = inverse(cod_ops.value(sv, q))
    w = cod_ops.direction(mz, cod_ops.powers(sv * inv, q) * inv, data) @ weighted_adjoint_matrix(m).T
    sv, data = dom_ops.spectrum(w, vectors=True)
    g = dom_ops.powers(sv, np.inf if p == 1.0 else p / (p - 1.0))
    return dom_ops.direction(w, g * inverse(dom_ops.value(g, p)), data)


def reference_estimate_pq_norm(m, p, q, restarts=8, max_iters=200, tol=1e-7, seed=0):
    """``estimate_pq_norm`` restart by restart."""
    from ncfourier.estimator import NormEstimate, _l2_maximizers, _MapStack
    from ncfourier.lorentz import _TINY, _BlockOps

    dom = m.domain
    dom_ops = _BlockOps(dom)
    warm = _l2_maximizers(_MapStack(m.matrix[None], dom, m.codomain, 1), p == q == 2.0)[0]

    n_rest = restarts - 1
    n_rank = n_rest // 2
    inits = [warm]
    weight_order = np.argsort(dom.weights)
    for r in range(n_rank):
        if r < dom.num_blocks:
            atom = dom.basis_element(int(weight_order[r]), 0, 0)
        else:
            atom = random_element(dom, np.random.SeedSequence((seed, 2 * r + 1)), "rank_one")
        inits.append(atom.row)
    for r in range(n_rest - n_rank):
        inits.append(random_element(dom, np.random.SeedSequence((seed, 2 * r + 2)), "gaussian").row)

    best_f, best_z = -1.0, None
    converged = usable = 0
    for z0 in inits:
        z = np.asarray(z0, dtype=complex)[None, :]
        nrm = dom_ops.norm(z, p)[0]
        if not np.isfinite(nrm) or nrm <= _TINY:
            continue
        usable += 1
        z = z * (1.0 / nrm)
        f = _reference_value(m, z, q)[0]
        stopped = False
        if f > _TINY:
            for _ in range(max_iters):
                z_new = _reference_power_step(m, z, p, q)
                f_new = _reference_value(m, z_new, q)[0]
                stopped = not f_new > f or (f_new - f) / f_new < tol
                if f_new > f:
                    z, f = z_new, f_new
                if stopped:
                    break
        converged += stopped
        f = _reference_value(m, z, q)[0] / dom_ops.norm(z, p)[0]
        if f > best_f:
            best_f, best_z = f, z
    return NormEstimate(
        lower_bound=float(max(best_f, 0.0)),
        witness=AlgebraElement.from_row(dom, best_z[0]),
        p=p,
        q=q,
        restarts_used=len(inits),
        converged_fraction=converged / max(usable, 1),
        degenerate=best_f <= 0.0,
    )


def reference_brute_force_pq_norm(m, p, q, samples=100_000, seed=0, refine_steps=200):
    """``brute_force_pq_norm`` with the maps applied as dense matrix products."""
    from ncfourier.estimator import _complex_normals
    from ncfourier.lorentz import _TINY, _BlockOps

    z = _complex_normals(np.random.default_rng(seed), (samples, m.domain.complex_dim))
    nrm = _BlockOps(m.domain).norm(z, p)
    z = z * np.where(nrm > _TINY, 1.0 / np.maximum(nrm, _TINY), 0.0)[:, None]
    best = float(_reference_value(m, z, q).max(initial=0.0))
    for _ in range(refine_steps):
        z = _reference_power_step(m, z, p, q)
        best = max(best, float(_reference_value(m, z, q).max(initial=0.0)))
    return best


# ---------------------------------------------------------------------------
# reference battery checks: one element at a time, each norm by its own call,
# each transform by a matrix-vector product; each returns (max ratio, witness)


def reference_hausdorff_young(pair, p, trials, seed):
    from ncfourier.checks import _worst, conjugate_exponent
    from ncfourier.fourier import fourier
    from ncfourier.lorentz import lp_norm

    pc = conjugate_exponent(p)
    scores = []
    for name, x in reference_source_battery(pair, trials, np.random.default_rng(seed)):
        denom = lp_norm(x, p)
        if denom != 0.0:
            scores.append((name, lp_norm(fourier(pair, x), pc) / denom))
    return _worst(scores)


def reference_real_interpolation(pair, p, trials, seed):
    from ncfourier.checks import _worst, conjugate_exponent
    from ncfourier.fourier import fourier, inverse_fourier
    from ncfourier.lorentz import lorentz_norm, lp_norm

    pc = conjugate_exponent(p)
    rng = np.random.default_rng(seed)

    def scores(battery, transform):
        for name, x in battery:
            denom = lorentz_norm(x, p, pc)
            if denom != 0.0:
                yield name, lp_norm(transform(pair, x), pc) / denom

    fwd = _worst(scores(reference_source_battery(pair, trials, rng), fourier), direction="forward")
    dual_batt = [("identity", pair.dual.identity())] + reference_random_sources(
        pair.dual, max(trials // 2, 1), rng, ("gaussian", "rank_one")
    )
    inv = _worst(scores(dual_batt, inverse_fourier), direction="inverse")
    return fwd if fwd[0] >= inv[0] else inv


def reference_inversion_plancherel(pair, trials, seed):
    """The residuals element by element, each rounded up to the grid by ``math.ceil``."""
    from ncfourier.checks import _RESIDUAL_GRID, _worst
    from ncfourier.fourier import fourier, inverse_fourier
    from ncfourier.lorentz import lp_norm

    scores = []
    for name, x in reference_source_battery(pair, trials, np.random.default_rng(seed)):
        l2 = lp_norm(x, 2)
        fx = fourier(pair, x)
        rt = lp_norm(inverse_fourier(pair, fx) - x, 2)
        pl = abs(lp_norm(fx, 2) - l2)
        scores.append((name, math.ceil(max(rt, pl) / (1.0 + l2) / _RESIDUAL_GRID) * _RESIDUAL_GRID))
    return _worst(scores, key="residual")


def reference_paley(pair, p, trials, seed):
    from ncfourier.checks import _worst, one_sided_exponent
    from ncfourier.fourier import fourier
    from ncfourier.lorentz import lorentz_norm, lp_norm

    s = one_sided_exponent(p)
    rng = np.random.default_rng(seed)
    dual = pair.dual
    min_block = int(np.argmin(dual.weights))
    structured = [("identity", dual.identity()), ("atom_min_weight", dual.basis_element(min_block, 0, 0))]
    a_batt = structured + reference_random_sources(
        dual, max(trials - len(structured), 1), rng, ("gaussian", "rank_one", "sparse")
    )
    scores = []
    for i, (name, a) in enumerate(a_batt):
        x = random_element(pair.source, np.random.SeedSequence((seed, i, 7)))
        weak = lp_norm(a, np.inf) if np.isinf(s) else lorentz_norm(a, s, np.inf)
        denom = weak * lp_norm(x, p)
        if denom != 0.0:
            scores.append((name, lp_norm(a * fourier(pair, x), p) / denom))
    return _worst(scores)


# ---------------------------------------------------------------------------
# reference batteries: the inputs as elements, drawn one by one


def reference_random_sources(algebra, count, rng, ensembles=("gaussian",)):
    """``(name, element)`` pairs of ``checks._random_sources``."""
    out = []
    for i in range(count):
        kind = ensembles[i % len(ensembles)]
        out.append((f"{kind}_{i}", random_element(algebra, np.random.SeedSequence((int(rng.integers(2**32)), i)), kind)))
    return out


def reference_source_battery(pair, trials, rng, decay_betas=(0.5, 1.0, 2.0)):
    """``(name, element)`` pairs of ``checks._source_battery``."""
    src = pair.source

    def point_mass(index):
        vec = np.zeros(src.complex_dim, dtype=complex)
        vec[index] = 1.0
        return AlgebraElement.from_row(src, vec)

    out = [("identity", src.identity()), ("point_mass_e", point_mass(pair.identity_index))]
    if src.is_commutative:
        n = src.num_blocks
        if n > 1:
            out.append(("point_mass_mid", point_mass((pair.identity_index + n // 2) % n)))
        dist = np.minimum(np.arange(n), n - np.arange(n))
        for beta in decay_betas:
            out.append((f"decay_{beta:.3g}", AlgebraElement.from_row(src, (1.0 + dist) ** (-beta))))
        lac = np.zeros(n)
        k = 1
        while k < n:
            lac[k] = 1.0
            k *= 2
        if lac.any():
            out.append(("lacunary", AlgebraElement.from_row(src, lac)))
    return out + reference_random_sources(
        src, max(trials - len(out), 0), rng, ("gaussian", "sparse", "hermitian")
    )


# ---------------------------------------------------------------------------
# reference lemma check: trial by trial, each through its own algebra's
# singular functions


def _reference_interior_grid(mu):
    """Points at fractions 0.05, 0.3 and 0.8 of every step cell of a singular function."""
    left = np.concatenate([[0.0], mu.breakpoints[:-1]])
    widths = mu.breakpoints - left
    fracs = np.array([0.05, 0.3, 0.8])
    return (left[:, None] + widths[:, None] * fracs[None, :]).ravel()


def reference_lemma_constants(trials, seed):
    """``check_lemma_constants`` one trial at a time."""
    from ncfourier.checks import _HARD_TOL, _SUBMULT_TOL, CheckReport
    from ncfourier.lorentz import lorentz_norm_of_step, singular_functions

    rng = np.random.default_rng(seed)
    worst = {"submultiplicativity": 0.0, "nesting": 0.0, "weak_hoelder": 0.0}
    witness = None
    violations = 0
    for case in range(trials):
        nb = int(rng.integers(1, 5))
        dims = [int(rng.integers(1, 6)) for _ in range(nb)]
        weights = np.exp(rng.uniform(np.log(0.25), np.log(4.0), nb))
        alg = TracialAlgebra(dims, weights)
        x = random_element(alg, np.random.SeedSequence((seed, case, 0)))
        y = random_element(alg, np.random.SeedSequence((seed, case, 1)))
        # the product block by block, independent of the element's stacked product
        xy = AlgebraElement(alg, [a @ b for a, b in zip(x.blocks, y.blocks)])
        mu_x, mu_y, mu_xy = singular_functions(alg, np.array([e.row for e in (x, y, xy)]))
        s_grid = _reference_interior_grid(mu_x)
        t_grid = _reference_interior_grid(mu_y)
        lhs = mu_xy(s_grid[:, None] + t_grid[None, :])
        rhs = mu_x(s_grid)[:, None] * mu_y(t_grid)[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(rhs > 0, lhs / np.where(rhs > 0, rhs, 1.0), np.where(lhs > 0, np.inf, 0.0))
        r_sub = float(ratios.max(initial=0.0))

        p = float(np.exp(rng.uniform(np.log(0.5), np.log(4.0))))
        q = float(np.exp(rng.uniform(np.log(0.4), np.log(3.0))))
        r = np.inf if rng.random() < 0.3 else q * float(np.exp(rng.uniform(0.02, 1.5)))
        const = (q / p) ** (1.0 / q - (0.0 if np.isinf(r) else 1.0 / r))
        denom = const * lorentz_norm_of_step(mu_x, p, q)
        r_nest = lorentz_norm_of_step(mu_x, p, r) / denom if denom > 0 else 0.0

        p0 = float(np.exp(rng.uniform(np.log(0.6), np.log(4.0))))
        p1 = float(np.exp(rng.uniform(np.log(0.6), np.log(4.0))))
        ph = 1.0 / (1.0 / p0 + 1.0 / p1)
        denom = 2.0 ** (1.0 / ph) * lorentz_norm_of_step(mu_x, p0, np.inf) * lorentz_norm_of_step(mu_y, p1, np.inf)
        r_hold = lorentz_norm_of_step(mu_xy, ph, np.inf) / denom if denom > 0 else 0.0

        case_worst = {
            "submultiplicativity": (r_sub, 1.0 + _SUBMULT_TOL),
            "nesting": (r_nest, 1.0 + _HARD_TOL),
            "weak_hoelder": (r_hold, 1.0 + _HARD_TOL),
        }
        for fam, (val, thr) in case_worst.items():
            if val > thr:
                violations += 1
                if witness is None or val > witness["ratio"]:
                    witness = {"case": case, "family": fam, "ratio": val, "dims": dims}
            if val > worst[fam]:
                worst[fam] = val

    max_ratio = max(worst.values())
    return CheckReport(
        check="lemma_constants",
        instance=None,
        instance_size=None,
        params={},
        trials=trials,
        seed=seed,
        hard=True,
        passed=violations == 0,
        threshold=1.0 + _HARD_TOL,
        max_ratio=max_ratio,
        empirical_constant=max_ratio,
        witness=witness,
        details={"worst_by_family": worst, "violations": violations},
    )
