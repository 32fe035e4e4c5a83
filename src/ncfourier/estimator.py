"""Lower-bound estimation of L_p -> L_q operator norms of linear maps.

The quantity of interest is

    ||M||_{p->q} = sup { ||M x||_q : x in domain, ||x||_p = 1 }

with weighted trace norms on both sides.  Everything here produces certified
lower bounds: the returned value is always the ratio ||M x||_q / ||x||_p at
a concrete witness x, so it can never exceed the true norm.

Three levels of effort:

* :func:`exact_l2_norm` - the p = q = 2 case is a weighted singular value,
  computed exactly.
* :func:`estimate_pq_norm` - Boyd's power iteration on the unit p-sphere
  from a deterministic ladder of restarts (Gaussian, rank-one atoms, and the
  L2 maximizer as warm start).  :func:`estimate_pq_norms` does the same for
  many maps with one domain and one codomain, such as the symbols of one
  check, all in one batch.
* :func:`brute_force_pq_norm` - a sampling oracle for tiny domains: at least
  1e5 uniform sphere points, every one polished by the same iteration.  Slow
  and only allowed when the domain has at most 8 real dimensions, but it has
  no convergence test, which is the point.

Both run one engine, :func:`_ascent`.  It runs on a stack of T maps that
share a domain and a codomain, and on all their starting points at once, as
one complex batch of rows of length D_dom; each row belongs to one map.
Multipliers held as their symbol (``linmap.Diagonal``: the values v of a
map diagonal in a unitary basis B, the transform of its pair) are stacked
as their (T, D) values with the one basis they share, and a product with a
batch of rows is ``B(B^{-1} z * v[owner])``, the weighted adjoint the same
with conj(v); no D x D matrix is built.  Every other map is stacked as its
D_cod x D_dom matrix, in one (T, D_cod, D_dom) array.  An estimate
is the case T = 1.  A batch of maps holds at most ``_BATCH_BYTES`` of
matrices or values and rows, so long lists of maps ascend in several
batches, and so do the samples of brute force, which always multiplies by
the matrix: its domains have at most four coordinates.

A step is Boyd's power step for l_p norms (D. W. Boyd, "The power method
for l^p norms", Linear Algebra Appl. 9, 1974; N. J. Higham, "Estimating the
matrix p-norm", Numer. Math. 62, 1992), carried over to weighted Schatten
norms by duality: z <- psi_p'(M* psi_q(Mz)), scaled to unit p-norm, where
psi_r is the duality direction U diag(s^(r-1)) V* of L_r and M* the weighted
adjoint.  By Hoelder's inequality the value ||Mz||_q never falls, so the
step needs no step size and no line search, and its fixed points are the
stationary points of ||Mz||_q / ||z||_p.  An estimate's row stops when its
value stops rising; a brute-force row takes every step.  Every estimate is
recomputed at its point by a product, so that it is certified.  Products,
reductions and warm starts are done map by map or row by row, so a map's
estimate has the same bits in any batch.  Norms, singular values and
duality directions come from the package's one block-spectrum kernel,
``lorentz._BlockOps``: on 1x1 and 2x2 blocks they are elementwise closed
forms on the block entries, so a batch of them costs a fixed number of
array operations, whatever its size, and commutative algebras never touch
LAPACK.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .algebra import AlgebraElement, TracialAlgebra, random_row
from .errors import ParameterError, ShapeMismatchError
from .linmap import LinearMap, coordinate_weights, diagonal_product
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
    g = _block_ops(x.algebra).schatten_direction(x.row[None], q)[0]
    return AlgebraElement.from_row(x.algebra, g * (nrm ** (1.0 - q)))


# ---------------------------------------------------------------------------
# stacks of maps, exact L2 and warm starts

# What one batch of estimate_pq_norms may hold: the matrices of its maps with
# a point and an image per restart; and one batch of brute-force samples: a
# point and an image per sample.  Results do not depend on it.
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

    def __len__(self) -> int:
        return len(self.mats)

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


class _DiagonalStack:
    """T maps diagonal in one unitary basis (``linmap.Diagonal``), as their (T, D) values.

    Domain and codomain are one algebra, and the weighted adjoint of a map
    is the map with the conjugate values.  The rows of a batch are tagged
    with slots as in :class:`_MapStack`; a row is multiplied by the values
    of the map that owns it, on its own, so its bits do not depend on the
    batch.
    """

    def __init__(self, values: np.ndarray, basis, algebra: TracialAlgebra, rows_per_map: int):
        self.values = values
        self.basis = basis
        self.domain = self.codomain = algebra
        self.rows_per_map = rows_per_map
        self.wd = coordinate_weights(algebra)

    def __len__(self) -> int:
        return len(self.values)

    def apply(self, z: np.ndarray, slots: np.ndarray) -> np.ndarray:
        """Images M_t z of rows in domain coordinates."""
        return diagonal_product(self.values[slots // self.rows_per_map], self.basis, z)

    def adjoint(self, y: np.ndarray, slots: np.ndarray) -> np.ndarray:
        """Weighted adjoints M_t* y of rows in codomain coordinates: the product with conj(v)."""
        return diagonal_product(self.values[slots // self.rows_per_map].conj(), self.basis, y)

    def l2_maximizers(self, start: np.ndarray, exact: bool) -> np.ndarray:
        """:func:`_l2_maximizers` of the maps, in their basis B, where M* M is B diag(|v|^2) B^{-1}.

        Exact: the basis vector B e_g of the largest |v_g|.  Otherwise the
        40 power steps from ``start`` in one: B ((|v| / max |v|)^80 B^{-1} start).
        """
        mags = np.abs(self.values)
        if exact:
            u = np.zeros(self.values.shape, dtype=complex)
            u[np.arange(len(u)), mags.argmax(axis=1)] = 1.0
        else:
            u = self.basis.inverse(start) * (mags * _inverse(mags.max(axis=1))[:, None]) ** 80
        v = self.basis.forward(u)
        return v * _inverse(np.sqrt(np.einsum("ij,j->i", np.abs(v) ** 2, self.wd)))[:, None]


def _weighted(mats: np.ndarray, domain: TracialAlgebra, codomain: TracialAlgebra) -> np.ndarray:
    """D_c M D_d^{-1} of each matrix, the square roots of the coordinate weights on the diagonals."""
    return np.sqrt(coordinate_weights(codomain))[:, None] * mats / np.sqrt(coordinate_weights(domain))


def exact_l2_norm(m: LinearMap) -> float:
    """||M||_{2->2} with weighted norms: top singular value of D_c M D_d^{-1}.

    For a map held as its symbol it is the largest |value|: the basis is
    unitary.
    """
    if m.diagonal is not None:
        return float(np.abs(m.diagonal.values).max())
    a = _weighted(m.matrix, m.domain, m.codomain)
    return float(np.linalg.svd(a, compute_uv=False)[0])


def _complex_normals(rng, shape) -> np.ndarray:
    """Complex Gaussian points: 2D real normals per point, read as ``r[:D] + 1j r[D:]``."""
    r = rng.standard_normal(shape[:-1] + (2 * shape[-1],))
    return r[..., : shape[-1]] + 1j * r[..., shape[-1] :]


def _l2_maximizers(maps, exact: bool) -> np.ndarray:
    """Domain coords of a unit-L2 near-maximizer of every map of a stack.

    It is the top right singular vector of the weighted matrix
    D_c M D_d^{-1}: by an SVD, one map at a time, when ``exact``; otherwise
    by 40 power steps v <- M* M v with the weighted adjoint, made of
    products with the stack itself, so that no map is copied.  Diagonal
    maps take both in their basis (:meth:`_DiagonalStack.l2_maximizers`).
    """
    t = len(maps)
    start = _complex_normals(np.random.default_rng(0x5EED), (maps.domain.complex_dim,))
    if isinstance(maps, _DiagonalStack):
        return maps.l2_maximizers(start, exact)
    if exact:
        v = np.empty((t, maps.domain.complex_dim), dtype=complex)
        for i, mat in enumerate(maps.mats):
            v[i] = np.linalg.svd(_weighted(mat, maps.domain, maps.codomain))[2][0].conj()
        return v / np.sqrt(maps.wd)
    one_each, rows = _MapStack(maps.mats, maps.domain, maps.codomain, 1), np.arange(t)
    v = np.tile(start, (t, 1))
    for _ in range(40):
        v = one_each.adjoint(one_each.apply(v, rows), rows)
        v *= _inverse(np.sqrt(np.einsum("ij,j->i", np.abs(v) ** 2, maps.wd)))[:, None]
    return v


# ---------------------------------------------------------------------------
# ascent


def _check_exponents(p: float, q: float) -> None:
    if not (1.0 <= p < np.inf and 1.0 <= q < np.inf):
        raise ParameterError(
            f"norm estimation supports finite exponents >= 1, got p={p}, q={q}"
        )


def _ascent(
    maps: _MapStack | _DiagonalStack,
    slots: np.ndarray,
    dom_ops: _BlockOps,
    p: float,
    q: float,
    z: np.ndarray,
    iters: int,
    tol: float | None = None,
):
    """Boyd's power iteration for ||M_t z||_q on the unit p-sphere, from every row of z at once.

    Row i belongs to slot ``slots[i]`` of ``maps`` (increasing), so to map
    ``slots[i] // maps.rows_per_map``.  ``dom_ops`` is
    ``_block_ops(maps.domain)``, the domain's cached kernel.
    ``z`` is overwritten.  Its rows are first scaled to unit p-norm; a row
    whose p-norm vanishes becomes zero with value 0.  A step is
    z <- psi_p'(M* psi_q(Mz)) at unit p-norm (see the module docstring);
    for p = 1, psi_inf(w) is U diag([s == max s]) V* over the row's largest
    singular values.  The p-norm of psi_p'(w) is read from the spectrum of
    w, so a step takes one spectrum on each side.

    * Brute force (``tol`` None): every row takes all ``iters`` steps.
    * Estimates (``tol`` given): each row of value above 1e-300 takes at
      most ``iters`` steps.  It stops, converged, when its value does not
      rise (it keeps its previous point) or rises by less than ``tol``
      relatively.

    Returns per row: the last point, the best value along the path (for
    estimates the last one, recomputed at the point by a product, so that it
    is certified) and whether the row stopped before ``iters`` steps.
    """
    cod_ops = _block_ops(maps.codomain)
    p_dual = np.inf if p == 1.0 else p / (p - 1.0)

    def image(z, at):
        """Images of the rows, their q-norms and the spectra behind them."""
        mz = maps.apply(z, at)
        sv, data = cod_ops.spectrum(mz, vectors=True)
        return mz, cod_ops.value(sv, q), sv, data

    def step(at, mz, f, sv, data):
        """The next points, psi_p'(M* psi_q(Mz)) at unit p-norm, from the images and their spectra."""
        inv = _inverse(f)[:, None]
        # psi_q(Mz) / ||Mz||_q^q, whose weighted adjoint w has dual norm at least 1
        w = maps.adjoint(cod_ops.direction(mz, cod_ops.powers(sv * inv, q) * inv, data), at)
        sv, data = dom_ops.spectrum(w, vectors=True)
        g = dom_ops.powers(sv, p_dual)
        return dom_ops.direction(w, g * _inverse(dom_ops.value(g, p))[:, None], data)

    z *= _inverse(dom_ops.norm(z, p))[:, None]
    mz, f, sv, data = image(z, slots)
    converged = np.zeros(len(z), dtype=bool)
    if tol is None:
        best = f.copy()
        for _ in range(iters):
            z = step(slots, mz, f, sv, data)
            mz, f, sv, data = image(z, slots)
            np.maximum(best, f, out=best)
        return z, best, converged
    # the rows still ascending: their ids, slots and states (points, images,
    # values, singular values and block data)
    ids, at = np.arange(len(z)), slots
    state = (z, mz, f, sv, data)
    left = []  # (ids, points) of the rows that have left
    stop = f <= _TINY  # these leave at once, unconverged
    for i in range(iters + 1):
        if stop.any():
            left.append((ids[stop], state[0][stop]))
            ids, at = ids[~stop], at[~stop]
            state = tuple(a[~stop] for a in state[:4]) + (tuple(a[~stop] for a in state[4]),)
        if i == iters or not ids.size:
            break
        z, _, f = state[:3]
        new = step(at, *state[1:])
        state = (new,) + image(new, at)
        rise = state[2] > f
        stop = ~rise | ((state[2] - f) / np.maximum(state[2], _TINY) < tol)
        converged[ids[stop]] = True
        new[~rise] = z[~rise]  # a row whose value does not rise keeps its point
    left.append((ids, state[0]))
    ids, z = (np.concatenate(parts) for parts in zip(*left))
    z = z[np.argsort(ids)]
    return z, cod_ops.norm(maps.apply(z, slots), q) * _inverse(dom_ops.norm(z, p)), converged


def _inverse(x: np.ndarray) -> np.ndarray:
    """1 / x, with 0 where x <= 1e-300."""
    return np.where(x > _TINY, 1.0 / np.maximum(x, _TINY), 0.0)


def estimate_pq_norm(
    m: LinearMap,
    p: float,
    q: float,
    restarts: int = 8,
    max_iters: int = 200,
    tol: float = 1e-7,
    seed: int = 0,
) -> NormEstimate:
    """Certified lower bound for ||M||_{p->q} by a multi-start power iteration.

    Deterministic: restart r draws from SeedSequence((seed, r)).  The restart
    ladder is the exact L2 maximizer (when p = q = 2) or a power-method
    approximation of it, followed half by Gaussian elements and half by
    rank-one elements; the first rank-one starts are matrix units placed in
    blocks of ascending weight, where extremizers of weighted-norm problems
    like to live.  All restarts iterate together (see :func:`_ascent`), each
    for at most ``max_iters`` steps: a restart stops, converged, when its
    value does not rise or rises by less than ``tol`` relatively.  p = 1 is
    handled exactly: a step goes to the rank-one point of the largest
    singular value of M* psi_q(Mz).
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
    done, carried = 0, None
    while done < len(seeds):
        first = carried if carried is not None else next(maps, None)
        if first is None:
            raise ParameterError("fewer maps than seeds")
        stack, carried = _next_stack(first, maps, len(seeds) - done, restarts)
        count = len(stack)
        yield from _estimate_stack(stack, p, q, seeds[done : done + count], max_iters, tol)
        del stack  # before the next batch is copied
        done += count
    if next(maps, None) is not None:
        raise ParameterError(f"more maps than the {len(seeds)} seeds")


def _form(m: LinearMap):
    """The form a map is stacked in, "matrix" or the basis of its values, and what a stack holds of it."""
    return ("matrix", m.matrix) if m.diagonal is None else (m.diagonal.basis, m.diagonal.values)


def _map_bytes(m: LinearMap, restarts: int) -> int:
    """Bytes one map takes in a batch: its matrix or values, and a point and an image per restart."""
    held = _form(m)[1]
    return held.itemsize * (held.size + restarts * (m.domain.complex_dim + m.codomain.complex_dim))


def _next_stack(first: LinearMap, maps, count: int, restarts: int):
    """The next batch of at most ``count`` maps, from ``first`` on, copied into one stack of at most _BATCH_BYTES.

    A batch holds maps of one form (see :func:`_form`).  Returns the stack
    and the map that ended the batch by its form, None if no map did.
    """
    dom, cod = first.domain, first.codomain
    form, first_held = _form(first)
    count = min(count, max(1, _BATCH_BYTES // _map_bytes(first, restarts)))
    held = first_held[None]
    if count > 1:
        held = np.empty((count,) + first_held.shape, dtype=complex)
        held[0] = first_held
    carried = None
    for i in range(1, count):
        m = next(maps, None)
        if m is None:
            raise ParameterError("fewer maps than seeds")
        if not (m.domain.matches(dom) and m.codomain.matches(cod)):
            raise ShapeMismatchError("maps estimated together must share a domain and a codomain")
        m_form, m_held = _form(m)
        if m_form != form:
            held, carried = held[:i], m
            break
        held[i] = m_held
    if form == "matrix":
        return _MapStack(held, dom, cod, restarts), carried
    return _DiagonalStack(held, form, dom, restarts), carried


def _estimate_stack(maps, p: float, q: float, seeds: list[int], max_iters: int, tol: float):
    """The estimates of the maps of one stack, one seed each, from one ascent of all their restarts."""
    t, r = len(maps), maps.rows_per_map
    dom = maps.domain
    z = np.empty((t, r, dom.complex_dim), dtype=complex)
    z[:, 0] = _l2_maximizers(maps, exact=(p == 2.0 and q == 2.0))
    n_rank = (r - 1) // 2
    weight_order = np.argsort(dom.weights)
    for j in range(min(n_rank, dom.num_blocks)):  # matrix units, the same for every map
        z[:, 1 + j] = 0.0
        z[:, 1 + j, dom.block_offset(int(weight_order[j]))] = 1.0
    for i, seed in enumerate(seeds):
        for j in range(dom.num_blocks, n_rank):
            z[i, 1 + j] = random_row(dom, np.random.SeedSequence((seed, 2 * j + 1)), "rank_one")
        for j in range(r - 1 - n_rank):
            z[i, 1 + n_rank + j] = random_row(dom, np.random.SeedSequence((seed, 2 * j + 2)), "gaussian")
    z = z.reshape(t * r, -1)
    dom_ops = _block_ops(dom)
    nrm = dom_ops.norm(z, p)
    slots = np.flatnonzero(np.isfinite(nrm) & (nrm > _TINY))
    owner = slots // r
    z[slots], values, converged = _ascent(maps, slots, dom_ops, p, q, z[slots], max_iters, tol)
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
                witness=AlgebraElement.from_row(dom, best_z),
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
    ``refine_steps`` steps of the estimator's power iteration, with no
    convergence test, returning the best ratio seen anywhere along the way.
    """
    _check_exponents(p, q)
    if m.domain.real_dim > 8:
        raise ParameterError(
            f"brute force is restricted to domains with at most 8 real "
            f"dimensions, got {m.domain.real_dim}"
        )
    if samples < 100_000:
        raise ParameterError(f"need at least 1e5 samples, got {samples}")

    dim = m.domain.complex_dim
    z = np.empty((samples, dim), dtype=complex)  # every sample, filled a batch at a time
    # independent samples, in batches of points and images small enough to stay in cache
    rows = max(1, _BATCH_BYTES // (z.itemsize * (dim + m.codomain.complex_dim)))
    # a batch's normals, drawn from the one stream into this buffer and read as in _complex_normals
    normals = np.empty((min(rows, samples), 2 * dim))
    rng = np.random.default_rng(seed)
    dom_ops = _block_ops(m.domain)
    best = 0.0
    for start in range(0, samples, rows):
        batch = z[start : start + rows]
        r = rng.standard_normal(out=normals[: len(batch)])
        batch.real, batch.imag = r[:, :dim], r[:, dim:]
        maps = _MapStack(m.matrix[None], m.domain, m.codomain, len(batch))
        best = max(best, float(_ascent(maps, np.arange(len(batch)), dom_ops, p, q, batch, refine_steps)[1].max()))
    return best
