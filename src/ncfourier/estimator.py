"""Lower-bound estimation of L_p -> L_q operator norms of linear maps.

The quantity of interest is

    ||M||_{p->q} = sup { ||M x||_q : x in domain, ||x||_p = 1 }

with weighted trace norms on both sides.  Everything here produces certified
lower bounds: the returned value is always the ratio ||M x||_q / ||x||_p at
a concrete witness x, so it can never exceed the true norm.

Three levels of effort:

* :func:`exact_l2_norm` - the p = q = 2 case is a weighted singular value,
  computed exactly.
* :func:`estimate_pq_norm` - projected gradient ascent on the unit p-sphere
  with backtracking line search and a deterministic ladder of restarts
  (Gaussian, rank-one atoms, and the L2 maximizer as warm start).
* :func:`brute_force_pq_norm` - a sampling oracle for tiny domains: at least
  1e5 uniform sphere points, every one polished by fixed-step ascent.  Slow
  and only allowed when the domain has at most 8 real dimensions, but it has
  no tunable convergence knobs, which is the point.

Both ascents are one loop, :func:`_ascent`, run on all starting points at
once as one complex batch of shape (S, D), with the map as a complex
D_cod x D_dom matrix.  Each row keeps its own step and its image Mz, which
the next gradient reuses.  In backtracking mode (the restarts of the
estimator) every row takes the first halving of its step that raises its
value, the halvings of all rows being evaluated together, and leaves the
batch once it converges.  In fixed-step mode (the brute-force samples)
every row takes every step.  Singular values and Schatten gradients of 1x1
and 2x2 blocks are elementwise closed forms on the block entries, so a batch
of them costs a fixed number of array operations, whatever its size, and
commutative algebras never touch LAPACK.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraElement, TracialAlgebra, random_element
from .errors import ParameterError
from .linmap import LinearMap, coordinate_weights, stack_complex, unstack_complex
from .lorentz import lp_norm

__all__ = [
    "NormEstimate",
    "exact_l2_norm",
    "schatten_gradient",
    "estimate_pq_norm",
    "brute_force_pq_norm",
]

_TINY = 1e-300
# singular values this far (relatively) below the block's largest are
# treated as exactly zero inside gradient formulas
_SV_FLOOR = 1e-100


@dataclass
class NormEstimate:
    """A certified lower bound for ||M||_{p->q} with its witness."""

    lower_bound: float
    witness: AlgebraElement
    p: float
    q: float
    restarts_used: int
    converged_fraction: float
    degenerate: bool = False

    def certificate_ratio(self, m: LinearMap) -> float:
        """Recompute ||M(witness)||_q / ||witness||_p from scratch."""
        denom = lp_norm(self.witness, self.p)
        if denom == 0.0:
            return 0.0
        return lp_norm(m.apply(self.witness), self.q) / denom


# ---------------------------------------------------------------------------
# batched blockwise norms and Schatten gradients


def _spectrum2(y: np.ndarray):
    """Closed-form spectral data of 2x2 blocks, ``y[..., :] = (a, b, c, d)`` row-major.

    The Gram matrix y* y is [[h00, h01], [conj(h01), h11]] with
    h00 = |a|^2 + |c|^2, h11 = |b|^2 + |d|^2 and h01 = conj(a) b + conj(c) d;
    its eigenvalues are mean +- radius, radius = hypot(delta, |h01|) with
    delta = (h00 - h11) / 2.  Returns (sv, delta, radius, h01), where
    sv[..., :] = (s1, s2) are the singular values, s1 >= s2.  s2 is
    |det y| / s1: sqrt(mean - radius) would lose half the digits of a small
    singular value to cancellation.
    """
    a, b, c, d = (y[..., i] for i in range(4))
    sq = np.abs(y) ** 2
    h00 = sq[..., 0] + sq[..., 2]
    h11 = sq[..., 1] + sq[..., 3]
    h01 = np.conj(a) * b + np.conj(c) * d
    delta = 0.5 * (h00 - h11)
    radius = np.hypot(delta, np.abs(h01))
    s1 = np.sqrt(0.5 * (h00 + h11) + radius)
    # |det y| <= s1^2 underflows to 0 wherever s1 < _TINY
    s2 = np.abs(a * d - b * c) / np.maximum(s1, _TINY)
    return np.stack([s1, s2], axis=-1), delta, radius, h01


def _as_slice(idx: np.ndarray):
    """``idx`` as a slice when it is a run of consecutive indices, so that
    indexing with it takes a view instead of a copy."""
    if idx.size and np.array_equal(idx, np.arange(idx[0], idx[0] + idx.size)):
        return slice(int(idx[0]), int(idx[0]) + idx.size)
    return idx


class _BlockOps:
    """Vectorized singular values / Schatten gradients for one algebra.

    Operates on batches of stacked complex coordinates, shape (S, D).
    Blocks are grouped by size: 1x1 entries are pure elementwise work, 2x2
    blocks are elementwise closed forms on their four entries (see
    :func:`_spectrum2`), not stacked 2x2 matrix products, and anything larger
    goes through batched LAPACK.
    """

    def __init__(self, algebra: TracialAlgebra):
        self.algebra = algebra
        idx1, wts1 = [], []
        idx2, wts2 = [], []
        big = []
        for k, (n, w) in enumerate(zip(algebra.dims, algebra.weights)):
            o = algebra.block_offset(k)
            if n == 1:
                idx1.append(o)
                wts1.append(w)
            elif n == 2:
                idx2.append(np.arange(o, o + 4))
                wts2.append(w)
            else:
                big.append((o, n, w))
        self.idx1 = _as_slice(np.asarray(idx1, dtype=int))
        self.wts1 = np.asarray(wts1, dtype=float)
        self.idx2 = _as_slice(np.ravel(idx2).astype(int))
        self.wts2 = np.asarray(wts2, dtype=float)
        self.big = big

    def singular_values(self, z: np.ndarray):
        """Per-row singular values and their weights; z has shape (S, D)."""
        parts = []
        wparts = []
        s_count = z.shape[0]
        if self.wts1.size:
            parts.append(np.abs(z[:, self.idx1]))
            wparts.append(self.wts1)
        if self.wts2.size:
            sv, *_ = _spectrum2(z[:, self.idx2].reshape(s_count, -1, 4))
            parts.append(sv.reshape(s_count, -1))
            wparts.append(np.repeat(self.wts2, 2))
        for o, n, w in self.big:
            y = z[:, o : o + n * n].reshape(s_count, n, n)
            sv = np.linalg.svd(y, compute_uv=False)
            parts.append(sv)
            wparts.append(np.full(n, w))
        if len(parts) == 1:
            return parts[0], wparts[0]
        return np.concatenate(parts, axis=1), np.concatenate(wparts)

    def norm(self, z: np.ndarray, p: float) -> np.ndarray:
        sv, wts = self.singular_values(z)
        if np.isinf(p):
            return sv.max(axis=1)
        return (sv**p @ wts) ** (1.0 / p)

    def schatten_direction(self, z: np.ndarray, q: float) -> np.ndarray:
        """Blockwise U diag(s^(q-1)) V* of each row (gradient numerator)."""
        s_count = z.shape[0]
        g = np.zeros_like(z)
        if self.wts1.size:
            v = z[:, self.idx1]
            mag = np.abs(v)
            with np.errstate(divide="ignore", invalid="ignore"):
                scaled = np.where(mag > _TINY, v * mag ** (q - 2.0), 0.0)
            g[:, self.idx1] = scaled
        if self.wts2.size:
            y = z[:, self.idx2].reshape(s_count, -1, 4)
            sv, delta, radius, h01 = _spectrum2(y)
            with np.errstate(divide="ignore"):
                t = np.where(sv > _SV_FLOOR * np.maximum(sv[..., :1], _TINY), sv ** (q - 2.0), 0.0)
            # U diag(s^(q-1)) V* = y P with P = t2 I + (t1 - t2) (h - s2^2 I) / (2 radius),
            # the second term being the projection on the top eigenvector of h = y* y;
            # it vanishes where radius = 0, where h is a multiple of I
            t2 = t[..., 1]
            dt = t[..., 0] - t2
            den = np.where(radius > 0.0, 2.0 * radius, 1.0)
            p01 = dt * (h01 / den)
            p_row0 = np.stack([t2 + dt * ((radius + delta) / den), p01], axis=-1)
            p_row1 = np.stack([np.conj(p01), t2 + dt * ((radius - delta) / den)], axis=-1)
            y = y.reshape(s_count, -1, 2, 2)
            gy = y[..., :1] * p_row0[..., None, :] + y[..., 1:] * p_row1[..., None, :]
            g[:, self.idx2] = gy.reshape(s_count, -1)
        for o, n, _ in self.big:
            y = z[:, o : o + n * n].reshape(s_count, n, n)
            u, sv, vh = np.linalg.svd(y)
            gy = (u * sv[..., None, :] ** (q - 1.0)) @ vh
            g[:, o : o + n * n] = gy.reshape(s_count, -1)
        return g


def schatten_gradient(x: AlgebraElement, q: float) -> AlgebraElement:
    """Gradient of y -> ||y||_q at x w.r.t. the weighted inner product Re trace(y* x).

    Blockwise U diag(sigma^(q-1)) V* / ||x||_q^(q-1).  Requires finite
    q > 1 and x != 0.
    """
    if not (1.0 < q < np.inf):
        raise ParameterError(f"Schatten gradient needs finite q > 1, got {q}")
    nrm = lp_norm(x, q)
    if nrm == 0.0:
        raise ParameterError("Schatten gradient is undefined at the zero element")
    blocks = []
    for b in x.blocks:
        u, sv, vh = np.linalg.svd(b)
        blocks.append((u * sv ** (q - 1.0)) @ vh)
    g = AlgebraElement(x.algebra, blocks)
    return g * (nrm ** (1.0 - q))


# ---------------------------------------------------------------------------
# exact L2 and warm starts


def _weighted_matrix(m: LinearMap) -> np.ndarray:
    sqrt_wd = np.sqrt(coordinate_weights(m.domain))
    sqrt_wc = np.sqrt(coordinate_weights(m.codomain))
    return sqrt_wc[:, None] * m.matrix / sqrt_wd[None, :]


def exact_l2_norm(m: LinearMap) -> float:
    """||M||_{2->2} with weighted norms: top singular value of D_c M D_d^{-1}."""
    a = _weighted_matrix(m)
    return float(np.linalg.svd(a, compute_uv=False)[0])


def _complex_normals(rng, shape) -> np.ndarray:
    """Complex Gaussian points: 2D real normals per point, read as ``r[:D] + 1j r[D:]``."""
    r = rng.standard_normal(shape[:-1] + (2 * shape[-1],))
    return r[..., : shape[-1]] + 1j * r[..., shape[-1] :]


def _l2_maximizer(m: LinearMap, exact: bool):
    """(sigma, domain coords of a unit-L2 near-maximizer)."""
    a = _weighted_matrix(m)
    sqrt_wd = np.sqrt(coordinate_weights(m.domain))
    if exact:
        _, svals, vh = np.linalg.svd(a)
        v = vh[0].conj()
        sigma = float(svals[0])
    else:
        v = _complex_normals(np.random.default_rng(0x5EED), (a.shape[1],))
        gram = a.conj().T @ a
        for _ in range(40):
            v = gram @ v
            nrm = np.linalg.norm(v)
            if nrm <= _TINY:
                break
            v = v / nrm
        sigma = float(np.linalg.norm(a @ v))
    return sigma, v / sqrt_wd


# ---------------------------------------------------------------------------
# ascent

# the backtracking line search tries the steps step * 2^-k for k < _HALVINGS
_HALVINGS = 50


def _check_exponents(p: float, q: float) -> None:
    if not (1.0 <= p < np.inf and 1.0 <= q < np.inf):
        raise ParameterError(
            f"norm estimation supports finite exponents >= 1, got p={p}, q={q}"
        )


def _backtrack(evaluate, old, new, k, steps, g) -> None:
    """Line search for the rows whose full step did not raise their value (k < 0).

    ``old`` is (points, values) before the full step, ``new`` (points,
    images, values) after it.  Each such row tries steps 2^-k for
    k = 1, ..., 49 and moves to the first candidate that beats its old value;
    the halvings of all rows still searching are evaluated together, in
    chunks of 2, 4, 8, ... of them.  A row that none improves gets back its
    old point and value, with k = -1 (and a stale image: such rows stop).
    ``new`` and ``k`` are updated in place.
    """
    z, f = old
    d = z.shape[1]
    pending = np.flatnonzero(k < 0)
    lo = 1
    while pending.size and lo < _HALVINGS:
        ks = np.arange(lo, min(2 * lo + 1, _HALVINGS))
        t = steps[pending, None] * 0.5**ks
        cand = z[pending, None, :] + t[..., None] * g[pending, None, :]
        cz, cmz, cf = evaluate(cand.reshape(-1, d))
        better = cf.reshape(t.shape) > f[pending, None]
        hit = better.any(axis=1)
        first = better.argmax(axis=1)[hit]
        pick = np.flatnonzero(hit) * ks.size + first
        rows = pending[hit]
        k[rows] = ks[first]
        for a, c in zip(new, (cz, cmz, cf)):
            a[rows] = c[pick]
        pending = pending[~hit]
        lo = ks[-1] + 1
    new[0][pending], new[2][pending] = z[pending], f[pending]


def _ascent(
    m: LinearMap, dom_ops: _BlockOps, p: float, q: float, z: np.ndarray, step: float, iters: int, tol: float | None = None
):
    """Projected gradient ascent of ||Mz||_q on the unit p-sphere, from every row of z at once.

    ``dom_ops`` is ``_BlockOps(m.domain)``, which the caller may have used
    already.  ``z`` is overwritten.  Its rows are first scaled to unit
    p-norm; a row whose p-norm vanishes becomes zero with value 0.  A step
    moves a row along the gradient of ||Mz||_q / ||z||_p and scales it back
    to the sphere; the image Mz of the new point gives the next gradient.

    * Fixed-step mode (``tol`` None): every row takes all ``iters`` steps of
      length ``step``.
    * Backtracking mode (``tol`` given): each row of value above 1e-300
      starts with step ``step``.  In each of at most ``iters`` iterations it
      moves to the first of step 2^-k, k = 0, ..., 49, that raises its value
      (k > 0 through :func:`_backtrack`) and doubles that step.  It stops,
      converged, when no halving improves or its relative gain falls below
      ``tol``.

    Returns per row: the last point, the best value along the path (the last
    one in backtracking mode, where values only grow) and whether the row
    stopped before ``iters`` iterations.
    """
    cod_ops = _BlockOps(m.codomain)
    mt = m.matrix.T
    adj_t = m.weighted_adjoint_matrix().T

    def evaluate(cand):
        """Rows of ``cand`` scaled in place to unit p-norm (zero where it vanishes), images, values."""
        nrm = dom_ops.norm(cand, p)
        good = nrm > _TINY
        np.divide(cand, np.maximum(nrm, _TINY)[:, None], out=cand)
        np.copyto(cand, 0.0, where=~good[:, None])
        mz = cand @ mt
        return cand, mz, np.where(good, cod_ops.norm(mz, q), 0.0)

    z, mz, f = evaluate(z)
    n = f.size
    converged = np.zeros(n, dtype=bool)
    # the rows still ascending: their ids, points, images, values, best values and steps
    ids, best, steps = np.arange(n), f, np.full(n, float(step))
    left = []  # (ids, points, values) of the rows that have left
    if tol is not None and not np.all(f > _TINY):
        idle = f <= _TINY
        left.append((ids[idle], z[idle], f[idle]))
        ids, z, mz, f, best, steps = (a[~idle] for a in (ids, z, mz, f, best, steps))
    for _ in range(iters):
        if not ids.size:
            break
        g = cod_ops.schatten_direction(mz, q)
        del mz  # not needed past the gradient; brute force batches have 1e5 rows
        with np.errstate(divide="ignore", invalid="ignore"):
            g = np.where(f[:, None] > _TINY, g / np.maximum(f, _TINY)[:, None] ** (q - 1.0), 0.0)
        g = g @ adj_t
        if tol is None:  # every row moves, in place
            g *= step
            z += g
            z, mz, f = evaluate(z)
            np.maximum(best, f, out=best)
            continue
        z_new, mz, f_new = evaluate(z + steps[:, None] * g)
        k = np.where(f_new > f, 0, -1)
        if k.min() < 0:
            _backtrack(evaluate, (z, f), (z_new, mz, f_new), k, steps, g)
        gain = (f_new - f) / np.maximum(f_new, _TINY)
        stop = (k < 0) | (gain < tol)
        steps = 2.0 * (steps * 0.5**k)  # rows with k = -1 stop here
        z, f = z_new, f_new
        best = f
        if stop.any():
            converged[ids[stop]] = True
            left.append((ids[stop], z[stop], f[stop]))
            ids, z, mz, f, best, steps = (a[~stop] for a in (ids, z, mz, f, best, steps))
    if not left:  # every row is still here, in order
        return z, best, converged
    left.append((ids, z, best))
    ids, z, f = (np.concatenate(parts) for parts in zip(*left))
    order = np.argsort(ids)
    return z[order], f[order], converged


def estimate_pq_norm(
    m: LinearMap,
    p: float,
    q: float,
    restarts: int = 8,
    max_iters: int = 200,
    tol: float = 1e-7,
    seed: int = 0,
) -> NormEstimate:
    """Certified lower bound for ||M||_{p->q} by multi-start gradient ascent.

    Deterministic: restart r draws from SeedSequence((seed, r)).  The restart
    ladder is the exact L2 maximizer (when p = q = 2) or a power-method
    approximation of it, followed half by Gaussian elements and half by
    rank-one elements; the first rank-one starts are matrix units placed in
    blocks of ascending weight, where extremizers of weighted-norm problems
    like to live.  All restarts ascend together in backtracking mode.
    """
    _check_exponents(p, q)
    if restarts < 1:
        raise ParameterError(f"need at least one restart, got {restarts}")
    if max_iters < 1 or tol <= 0:
        raise ParameterError("max_iters must be >= 1 and tol > 0")

    dom = m.domain
    sigma, warm = _l2_maximizer(m, exact=(p == 2.0 and q == 2.0))

    n_rest = restarts - 1
    n_rank = n_rest // 2
    n_gauss = n_rest - n_rank
    inits = [warm]
    weight_order = np.argsort(dom.weights)
    for r in range(n_rank):
        if r < dom.num_blocks:
            atom = dom.basis_element(int(weight_order[r]), 0, 0)
        else:
            atom = random_element(dom, np.random.SeedSequence((seed, 2 * r + 1)), "rank_one")
        inits.append(stack_complex(atom))
    for r in range(n_gauss):
        elem = random_element(dom, np.random.SeedSequence((seed, 2 * r + 2)), "gaussian")
        inits.append(stack_complex(elem))

    z = np.array(inits, dtype=complex)
    dom_ops = _BlockOps(dom)
    nrm = dom_ops.norm(z, p)
    usable = np.isfinite(nrm) & (nrm > _TINY)
    z, f, converged = _ascent(m, dom_ops, p, q, z[usable], 1.0 / max(sigma, 1e-12), max_iters, tol)
    if f.size:
        best = int(np.argmax(f))
        best_z, best_f = z[best], float(f[best])
    else:
        best_z, best_f = np.zeros(dom.complex_dim, dtype=complex), 0.0
        best_z[0] = 1.0
    return NormEstimate(
        lower_bound=max(best_f, 0.0),
        witness=unstack_complex(dom, best_z),
        p=p,
        q=q,
        restarts_used=len(inits),
        converged_fraction=int(converged.sum()) / max(f.size, 1),
        degenerate=best_f <= 0.0,
    )


def brute_force_pq_norm(
    m: LinearMap,
    p: float,
    q: float,
    samples: int = 100_000,
    seed: int = 0,
    refine_steps: int = 200,
) -> float:
    """Sampling oracle for ||M||_{p->q} on domains of at most 8 real dimensions.

    Draws uniform points on the Euclidean sphere (at least 1e5 of them),
    renormalizes to the unit p-sphere, and polishes every sample with
    ``refine_steps`` steps of the ascent's fixed-step mode, returning the
    best ratio seen anywhere along the way.
    """
    _check_exponents(p, q)
    if m.domain.real_dim > 8:
        raise ParameterError(
            f"brute force is restricted to domains with at most 8 real "
            f"dimensions, got {m.domain.real_dim}"
        )
    if samples < 100_000:
        raise ParameterError(f"need at least 1e5 samples, got {samples}")

    sigma, _ = _l2_maximizer(m, exact=False)
    z = _complex_normals(np.random.default_rng(seed), (samples, m.domain.complex_dim))
    _, best, _ = _ascent(m, _BlockOps(m.domain), p, q, z, 0.5 / max(sigma, 1e-12), refine_steps)
    return float(best.max(initial=0.0))
