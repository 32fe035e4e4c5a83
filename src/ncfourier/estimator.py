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
  :func:`estimate_pq_norms` does the same for many maps with one domain and
  one codomain, such as the symbols of one check, all in one ascent.
* :func:`brute_force_pq_norm` - a sampling oracle for tiny domains: at least
  1e5 uniform sphere points, every one polished by fixed-step ascent.  Slow
  and only allowed when the domain has at most 8 real dimensions, but it has
  no tunable convergence knobs, which is the point.

Both ascents are one engine, :func:`_ascent`.  It runs on a stack of T maps,
complex D_cod x D_dom matrices in one (T, D_cod, D_dom) array, and on all
their starting points at once, as one complex batch of rows of length
D_dom; each row belongs to one map.  An estimate is the case T = 1, whose
stack is a view of its matrix, and brute force is the fixed-step mode of
that case.  A batch of maps holds at most ``_BATCH_BYTES`` of matrices and
rows, so long lists of maps ascend in several batches.

Each row keeps its own step, its image Mz and the spectral data behind its
value, from which the next gradient is built.  In backtracking mode (the
restarts of the estimators) every row takes the first halving of its step
that raises its value, the halvings of all rows being evaluated together,
with images by linearity; a row leaves the batch when no halving improves
or its relative gain falls below the tolerance, and at the end every
value is recomputed at its point by a product, so that it is certified.
In fixed-step mode (the brute-force samples) every row takes every step.
Products, reductions and warm starts are done map by map or row by row,
so a map's estimate has the same bits in any batch.  Norms, singular values
and Schatten gradients come from the package's one block-spectrum kernel,
``lorentz._BlockOps``: on 1x1 and 2x2 blocks they are elementwise closed
forms on the block entries, so a batch of them costs a fixed number of
array operations, whatever its size, and commutative algebras never touch
LAPACK.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .algebra import AlgebraElement, TracialAlgebra, random_element
from .errors import ParameterError, ShapeMismatchError
from .linmap import LinearMap, coordinate_weights, stack_complex, unstack_complex
from .lorentz import _TINY, _block_ops, _BlockOps, lp_norm

__all__ = [
    "NormEstimate",
    "exact_l2_norm",
    "schatten_gradient",
    "estimate_pq_norm",
    "estimate_pq_norms",
    "brute_force_pq_norm",
]

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
# Schatten gradients


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
    g = _block_ops(x.algebra).schatten_direction(stack_complex(x)[None], q)[0]
    return unstack_complex(x.algebra, g * (nrm ** (1.0 - q)))


# ---------------------------------------------------------------------------
# stacks of maps, exact L2 and warm starts

# What one batch of estimate_pq_norms may hold: the matrices of its maps with
# a point and an image per restart, and the candidates of one chunk of a line
# search.  Results do not depend on it.
_BATCH_BYTES = 1 << 19


class _MapStack:
    """T complex C x D matrices that share a domain and a codomain, as one (T, C, D) array.

    The rows of a batch are tagged with slots t * R + r, row r of the R that
    map t owns.  A product scatters the rows into a zero (T * R, D) block,
    multiplies each map's R rows at once and gathers the slots back, so that
    every row is multiplied in the same R-row product whatever the other rows
    are, and its bits do not depend on the batch.  Rows that fill every slot,
    in order, are multiplied as they are.
    """

    def __init__(self, mats: np.ndarray, domain: TracialAlgebra, codomain: TracialAlgebra, rows_per_map: int):
        self.mats = mats
        self.domain = domain
        self.codomain = codomain
        self.rows_per_map = rows_per_map
        self.wd = coordinate_weights(domain)
        self.wc = coordinate_weights(codomain)

    def _product(self, rows: np.ndarray, slots: np.ndarray, mats: np.ndarray) -> np.ndarray:
        size = len(mats) * self.rows_per_map
        block = rows
        if len(rows) < size:
            block = np.zeros((size, rows.shape[1]), dtype=complex)
            block[slots] = rows
        out = (block.reshape(len(mats), self.rows_per_map, -1) @ mats).reshape(size, -1)
        return out if block is rows else out[slots]

    def apply(self, z: np.ndarray, slots: np.ndarray) -> np.ndarray:
        """Images M_t z of rows in domain coordinates."""
        return self._product(z, slots, self.mats.transpose(0, 2, 1))

    def adjoint(self, y: np.ndarray, slots: np.ndarray) -> np.ndarray:
        """diag(1/w_d) M_t^H diag(w_c) y of rows in codomain coordinates, the
        weighted adjoint, as conj(conj(w_c y) M_t) / w_d.  ``y`` is overwritten."""
        np.multiply(y, self.wc, out=y)
        out = self._product(np.conjugate(y, out=y), slots, self.mats)
        np.conjugate(out, out=out)
        out /= self.wd
        return out


def _weighted(mats: np.ndarray, domain: TracialAlgebra, codomain: TracialAlgebra) -> np.ndarray:
    """D_c M D_d^{-1} of each matrix, the square roots of the coordinate weights on the diagonals."""
    return np.sqrt(coordinate_weights(codomain))[:, None] * mats / np.sqrt(coordinate_weights(domain))


def exact_l2_norm(m: LinearMap) -> float:
    """||M||_{2->2} with weighted norms: top singular value of D_c M D_d^{-1}."""
    a = _weighted(m.matrix, m.domain, m.codomain)
    return float(np.linalg.svd(a, compute_uv=False)[0])


def _complex_normals(rng, shape) -> np.ndarray:
    """Complex Gaussian points: 2D real normals per point, read as ``r[:D] + 1j r[D:]``."""
    r = rng.standard_normal(shape[:-1] + (2 * shape[-1],))
    return r[..., : shape[-1]] + 1j * r[..., shape[-1] :]


def _l2_maximizers(maps: _MapStack, exact: bool):
    """(sigma, domain coords of a unit-L2 near-maximizer) of every map of a stack.

    Both are the top singular pair of the weighted matrix D_c M D_d^{-1}: by
    an SVD, one map at a time, when ``exact``; otherwise by 40 power steps
    v <- A* A v, made of products with the stack itself, so that no map is
    copied.
    """
    sqrt_wd, sqrt_wc = np.sqrt(maps.wd), np.sqrt(maps.wc)
    if exact:
        sigma = np.empty(len(maps.mats))
        v = np.empty((len(maps.mats), maps.domain.complex_dim), dtype=complex)
        for i, mat in enumerate(maps.mats):
            _, s, vh = np.linalg.svd(_weighted(mat, maps.domain, maps.codomain))
            sigma[i], v[i] = s[0], vh[0].conj()
        return sigma, v / sqrt_wd
    mt = maps.mats.transpose(0, 2, 1)

    def weighted(v):  # A v, each map on its own row
        return (v[:, None, :] / sqrt_wd @ mt)[:, 0] * sqrt_wc

    v = np.tile(_complex_normals(np.random.default_rng(0x5EED), (maps.domain.complex_dim,)), (len(mt), 1))
    live = np.ones(len(mt), dtype=bool)  # a map whose power iterate vanishes stops there
    for _ in range(40):
        w = np.conj(np.conj(weighted(v) * sqrt_wc)[:, None, :] @ maps.mats)[:, 0] / sqrt_wd
        nrm = np.linalg.norm(w, axis=1)
        v = np.where(live[:, None], w, v)
        live &= nrm > _TINY
        if not live.any():
            break
        v = np.where(live[:, None], v / np.maximum(nrm, _TINY)[:, None], v)
    return np.linalg.norm(weighted(v), axis=1), v / sqrt_wd


# ---------------------------------------------------------------------------
# ascent

# the backtracking line search tries the steps step * 2^-k for k < _HALVINGS
_HALVINGS = 50


def _check_exponents(p: float, q: float) -> None:
    if not (1.0 <= p < np.inf and 1.0 <= q < np.inf):
        raise ParameterError(
            f"norm estimation supports finite exponents >= 1, got p={p}, q={q}"
        )


def _backtrack(evaluate, old, new, k, steps, g, images_of) -> None:
    """Line search for the rows whose full step did not raise their value (k < 0).

    ``old`` and ``new`` are the rows' states (points, images, values, then the
    block data of the images) before and after the full step along ``g``, and
    ``images_of(rows)`` returns M g for an array of row indices.  Each such
    row tries the steps 2^-k for k = 1, ..., 49 and moves to the first
    candidate that beats its old value.  A candidate's image comes from
    linearity, M(z + t g) = Mz + t Mg, so no map is applied to it.  The
    halvings of all rows still searching are evaluated together, in chunks
    of 2, 4, 8, ... of them, cut so that the points and images of a chunk
    take at most a quarter of _BATCH_BYTES (their evaluation makes about as
    many temporaries again).  A row that none improves gets back its old point
    and value, with k = -1 (and a stale image: such rows stop).  ``new`` and
    ``k`` are updated in place.
    """
    z, mz, f = old[:3]
    d, c = z.shape[1], mz.shape[1]
    cap = max(1, _BATCH_BYTES // (4 * z.itemsize * (d + c)))
    pending = np.flatnonzero(k < 0)
    mg = images_of(pending)
    lo = 1
    while pending.size and lo < _HALVINGS:
        ks = np.arange(lo, lo + min(lo + 1, _HALVINGS - lo, max(1, cap // pending.size)))
        t = (steps[pending, None] * 0.5**ks)[..., None]
        cand = z[pending, None, :] + t * g[pending, None, :]
        images = mz[pending, None, :] + t * mg[:, None, :]
        found = evaluate(cand.reshape(-1, d), images=images.reshape(-1, c))
        better = found[2].reshape(t.shape[:2]) > f[pending, None]
        hit = better.any(axis=1)
        first = better.argmax(axis=1)[hit]
        pick = np.flatnonzero(hit) * ks.size + first
        rows = pending[hit]
        k[rows] = ks[first]
        for a, b in zip(new, found):
            a[rows] = b[pick]
        pending, mg = pending[~hit], mg[~hit]
        lo = ks[-1] + 1
    new[0][pending], new[2][pending] = z[pending], f[pending]


def _ascent(
    maps: _MapStack,
    slots: np.ndarray,
    dom_ops: _BlockOps,
    p: float,
    q: float,
    z: np.ndarray,
    steps: float | np.ndarray,
    iters: int,
    tol: float | None = None,
):
    """Projected gradient ascent of ||M_t z||_q on the unit p-sphere, from every row of z at once.

    Row i belongs to slot ``slots[i]`` of ``maps`` (increasing), so to map
    ``slots[i] // maps.rows_per_map``.
    ``dom_ops`` is ``_BlockOps(maps.domain)``, which the caller may have used
    already.  ``z`` is overwritten.  Its rows are first scaled to unit
    p-norm; a row whose p-norm vanishes becomes zero with value 0.  A step
    moves a row along the gradient of ||Mz||_q / ||z||_p and scales it back
    to the sphere.  The image Mz of the new point and the spectral data
    that gave its value give the next gradient.

    * Fixed-step mode (``tol`` None): every row takes all ``iters`` steps of
      length ``steps``, a number.
    * Backtracking mode (``tol`` given): each row of value above 1e-300 takes
      at most ``iters`` steps, the first of length ``steps[i]`` for row i.
      In each it moves to the first of its step
      times 2^-k, k = 0, ..., 49, that raises its value (k > 0 through
      :func:`_backtrack`) and doubles that step.  It stops, converged, when
      no halving improves or its relative gain falls below ``tol``.

    Returns per row: the last point, the best value along the path (the last
    one in backtracking mode, where values only grow, recomputed at the
    point by a product, since a halving finds it by linearity) and whether
    the row stopped before ``iters`` iterations.
    """
    cod_ops = _BlockOps(maps.codomain)

    def evaluate(cand, at=None, images=None):
        """Rows of ``cand`` scaled in place to unit p-norm (zero where it vanishes), their images,
        values and block data.  ``images`` are the images of the unscaled rows, scaled in place
        too, when the caller has them; otherwise they are products at the slots ``at``."""
        nrm = dom_ops.norm(cand, p)
        good = nrm > _TINY
        scale = np.maximum(nrm, _TINY)[:, None]
        np.divide(cand, scale, out=cand)
        np.copyto(cand, 0.0, where=~good[:, None])
        if images is None:
            images = maps.apply(cand, at)
        else:
            np.divide(images, scale, out=images)
            np.copyto(images, 0.0, where=~good[:, None])
        sv, data = cod_ops.spectrum(images)
        return (cand, images, np.where(good, cod_ops.value(sv, q), 0.0)) + data

    state = evaluate(z, slots)
    n = len(z)
    converged = np.zeros(n, dtype=bool)
    # the rows still ascending: their ids, slots, states (points, images,
    # values, block data) and steps, and the best values of fixed-step mode
    ids, at, best = np.arange(n), slots, state[2]
    left = []  # (ids, points) of the rows that have left
    if tol is not None and not np.all(best > _TINY):
        idle = best <= _TINY
        left.append((ids[idle], state[0][idle]))
        ids, at, steps = ids[~idle], at[~idle], steps[~idle]
        state = tuple(a[~idle] for a in state)
    for _ in range(iters):
        if not ids.size:
            break
        z, mz, f, *data = state
        g = cod_ops.schatten_direction(mz, q, data)
        g /= np.maximum(f, _TINY)[:, None] ** (q - 1.0)
        np.copyto(g, 0.0, where=(f <= _TINY)[:, None])
        g = maps.adjoint(g, at)
        if tol is None:  # every row moves, in place
            del state, mz, data  # brute force batches have 1e5 rows
            g *= steps
            z += g
            state = evaluate(z, slots)
            np.maximum(best, state[2], out=best)
            continue
        new = evaluate(z + steps[:, None] * g, at)
        k = np.where(new[2] > f, 0, -1)
        if k.min() < 0:
            _backtrack(evaluate, state, new, k, steps, g, lambda rows: maps.apply(g[rows], at[rows]))
        gain = (new[2] - f) / np.maximum(new[2], _TINY)
        stop = (k < 0) | (gain < tol)
        steps = 2.0 * (steps * 0.5**k)  # rows with k = -1 stop here
        state = new
        if stop.any():
            converged[ids[stop]] = True
            left.append((ids[stop], state[0][stop]))
            ids, at, steps = ids[~stop], at[~stop], steps[~stop]
            state = tuple(a[~stop] for a in state)
    if tol is None:
        return state[0], best, converged
    left.append((ids, state[0]))
    ids, z = (np.concatenate(parts) for parts in zip(*left))
    z = z[np.argsort(ids)]
    return z, cod_ops.norm(maps.apply(z, slots), q), converged


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
    return next(estimate_pq_norms([m], p, q, [seed], restarts, max_iters, tol))


def estimate_pq_norms(
    maps,
    p: float,
    q: float,
    seeds,
    restarts: int = 8,
    max_iters: int = 200,
    tol: float = 1e-7,
) -> Iterator[NormEstimate]:
    """:func:`estimate_pq_norm` of every map with its seed, for maps that share a domain and a codomain.

    ``maps`` is any iterable of LinearMaps, one per seed.  Both it and the
    returned iterator of estimates run a batch at a time: each batch copies
    its maps into one stack and ascends from all their restarts at once, so
    a generator of maps, read as the estimates are, holds no more than one
    batch of maps and estimates.  Each map's estimate is the one
    :func:`estimate_pq_norm` returns for it, whatever the other maps.
    """
    _check_exponents(p, q)
    if restarts < 1:
        raise ParameterError(f"need at least one restart, got {restarts}")
    if max_iters < 1 or tol <= 0:
        raise ParameterError("max_iters must be >= 1 and tol > 0")
    return _estimates(iter(maps), p, q, [int(s) for s in seeds], restarts, max_iters, tol)


def _estimates(maps, p, q, seeds, restarts, max_iters, tol):
    """The estimates of :func:`estimate_pq_norms`, a batch at a time."""
    done = 0
    while done < len(seeds):
        stack = _next_stack(maps, len(seeds) - done, restarts)
        count = len(stack.mats)
        yield from _estimate_stack(stack, p, q, seeds[done : done + count], max_iters, tol)
        del stack  # before the next batch is copied
        done += count
    if next(maps, None) is not None:
        raise ParameterError(f"more maps than the {len(seeds)} seeds")


def _next_stack(maps, count: int, restarts: int) -> _MapStack:
    """The next batch of at most ``count`` maps, copied into one stack of at most _BATCH_BYTES."""
    first = next(maps, None)
    if first is None:
        raise ParameterError("fewer maps than seeds")
    dom, cod = first.domain, first.codomain
    per_map = first.matrix.itemsize * (first.matrix.size + restarts * (dom.complex_dim + cod.complex_dim))
    count = min(count, max(1, _BATCH_BYTES // per_map))
    if count == 1:
        return _MapStack(first.matrix[None], dom, cod, restarts)
    mats = np.empty((count,) + first.matrix.shape, dtype=complex)
    mats[0] = first.matrix
    for i in range(1, count):
        m = next(maps, None)
        if m is None:
            raise ParameterError("fewer maps than seeds")
        if not (m.domain.matches(dom) and m.codomain.matches(cod)):
            raise ShapeMismatchError("maps estimated together must share a domain and a codomain")
        mats[i] = m.matrix
    return _MapStack(mats, dom, cod, restarts)


def _estimate_stack(maps: _MapStack, p: float, q: float, seeds: list[int], max_iters: int, tol: float):
    """The estimates of the maps of one stack, one seed each, from one ascent of all their restarts."""
    t, r = len(maps.mats), maps.rows_per_map
    dom = maps.domain
    sigma, warm = _l2_maximizers(maps, exact=(p == 2.0 and q == 2.0))
    z = np.empty((t, r, dom.complex_dim), dtype=complex)
    z[:, 0] = warm
    n_rank = (r - 1) // 2
    weight_order = np.argsort(dom.weights)
    for j in range(min(n_rank, dom.num_blocks)):  # matrix units, the same for every map
        z[:, 1 + j] = stack_complex(dom.basis_element(int(weight_order[j]), 0, 0))
    for i, seed in enumerate(seeds):
        for j in range(dom.num_blocks, n_rank):
            z[i, 1 + j] = stack_complex(random_element(dom, np.random.SeedSequence((seed, 2 * j + 1)), "rank_one"))
        for j in range(r - 1 - n_rank):
            elem = random_element(dom, np.random.SeedSequence((seed, 2 * j + 2)), "gaussian")
            z[i, 1 + n_rank + j] = stack_complex(elem)
    z = z.reshape(t * r, -1)
    dom_ops = _BlockOps(dom)
    nrm = dom_ops.norm(z, p)
    slots = np.flatnonzero(np.isfinite(nrm) & (nrm > _TINY))
    owner = slots // r
    steps = 1.0 / np.maximum(sigma, 1e-12)
    z[slots], values, converged = _ascent(maps, slots, dom_ops, p, q, z[slots], steps[owner], max_iters, tol)
    f = np.full(t * r, -np.inf)  # the values of the slots, -inf for unusable starts
    f[slots] = values
    best = np.arange(t) * r + f.reshape(t, r).argmax(axis=1)  # the first best slot of each map
    used = np.bincount(owner, minlength=t)
    done = np.bincount(owner, weights=converged, minlength=t)
    out = []
    for i, b in enumerate(best):
        if f[b] > -np.inf:  # a copy, so that the witness does not keep the whole batch alive
            best_z, best_f = z[b].copy(), float(f[b])
        else:
            best_z, best_f = np.zeros(dom.complex_dim, dtype=complex), 0.0
            best_z[0] = 1.0
        out.append(
            NormEstimate(
                lower_bound=max(best_f, 0.0),
                witness=unstack_complex(dom, best_z),
                p=p,
                q=q,
                restarts_used=r,
                converged_fraction=int(done[i]) / max(int(used[i]), 1),
                degenerate=best_f <= 0.0,
            )
        )
    return out


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

    maps = _MapStack(m.matrix[None], m.domain, m.codomain, samples)
    sigma, _ = _l2_maximizers(maps, exact=False)
    z = _complex_normals(np.random.default_rng(seed), (samples, m.domain.complex_dim))
    step = 0.5 / max(float(sigma[0]), 1e-12)
    _, best, _ = _ascent(maps, np.arange(samples), _BlockOps(m.domain), p, q, z, step, refine_steps)
    return float(best.max(initial=0.0))
