"""Shared test helpers: independent oracles and random-input generators.

The oracles recompute singular functions and Lorentz functionals directly
from their definitions (dense grids, raw numpy decompositions) without
touching the closed-form production code, so agreement is meaningful.
"""

import numpy as np

from ncfourier.algebra import TracialAlgebra, random_element
from ncfourier.linmap import stack_complex


# ---------------------------------------------------------------------------
# random structured inputs


def random_algebra(rng, max_blocks=4, max_dim=5) -> TracialAlgebra:
    num = int(rng.integers(1, max_blocks + 1))
    dims = [int(rng.integers(1, max_dim + 1)) for _ in range(num)]
    weights = np.exp(rng.uniform(np.log(0.25), np.log(4.0), size=num))
    return TracialAlgebra(dims, weights)


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


def dense_coords(x) -> np.ndarray:
    """Complex coordinate vector of an element (for linear-map oracles)."""
    return stack_complex(x)


def random_unitary_element(algebra, rng):
    """Blockwise Haar-ish unitary via QR of a Gaussian block."""
    from ncfourier.algebra import AlgebraElement

    g = random_element(algebra, int(rng.integers(2**32)), "gaussian")
    blocks = []
    for b in g.blocks:
        qmat, rmat = np.linalg.qr(b)
        d = np.diagonal(rmat)
        phase = d / np.where(np.abs(d) > 0, np.abs(d), 1.0)
        blocks.append(qmat * phase)
    return AlgebraElement(algebra, blocks)
