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

Both run one engine, :func:`_ascent`.  It runs on one ``LinearMap`` and on
all its starting points at once, as one complex batch of rows of length
D_dom, and multiplies them by the map's ``rows`` and ``adjoint_rows``.
Multipliers held as their symbol (``linmap.Diagonal``: the values v of a map
diagonal in a unitary basis B, the transform of its pair) are batched T at a
time, as one diagonal map with their (T, D) values and the one basis they
share; each row carries the index of the map that owns it, and a product
with a batch of rows is ``B(B^{-1} z * v[owner])``, the weighted adjoint the
same with conj(v); no D x D matrix is built.  :func:`estimate_pq_norms` reads
its maps once, in order: a multiplier joins the batch while it shares the
batch's basis and the batch holds at most ``_BATCH_BYTES`` of values and
rows.  A dense map ascends alone, on its D_cod x D_dom matrix and weighted
adjoint, and either product is one product with all its rows.  So does brute
force, which always multiplies by the matrix (its domains have at most four
coordinates), on batches of samples of at most ``_BATCH_BYTES``.

A step is Boyd's power step for l_p norms (D. W. Boyd, "The power method for
l^p norms", Linear Algebra Appl. 9, 1974; N. J. Higham, "Estimating the
matrix p-norm", Numer. Math. 62, 1992), carried over to weighted Schatten
norms by duality: z <- psi_p'(M* psi_q(Mz)), scaled to unit p-norm, where
psi_r is the duality direction U diag(s^(r-1)) V* of L_r and M* the weighted
adjoint.  By Hoelder's inequality the value ||Mz||_q never falls, so the
step needs no step size and no line search, and its fixed points are the
stationary points of ||Mz||_q / ||z||_p.  Each half-step is one call of the
package's block kernel, ``lorentz._BlockOps.duality``, which gives the power
sum ||x||_r^r of each row with its direction psi_r(x), scaled by a factor
of that sum: r = q for the image, scaled by 1 / ||Mz||_q^q, and r = p' for
the step, scaled to unit p-norm.  At r = 2 and 4, and at r = 3 on 1x1 and
2x2 blocks, both are products of the blocks and their Gram matrices, with
no singular values; every exponent pair the campaigns run steps with 2, 3
or 4, and a computed p' within 4 ulps of an integer, such as 4/3's
4.000000000000001, is taken as that integer.  Other exponents, and r = 3 on
an algebra with blocks above 2x2, take the spectrum: on 2x2 blocks by
elementwise closed forms, on larger ones by one batched LAPACK SVD per size.  Between steps a row
carries its point, its value and the direction psi_q(Mz) / ||Mz||_q^q of its
image.  An estimate's row stops when its value stops rising, and its point
is written back in its place; a brute-force row takes every step.

Scale is set once, at the entry.  A value has degree 1 in the map and a
step's direction degree 0, so an estimate and brute force ascend on each
map scaled by an exact power of two, 2^-e M, and scale the values back by
2^e; the witnesses do not change.  e is the package's one scale rule
(``lorentz._exponents``), with no window: it brings the map's largest
|value| or |entry| into [1/2, 1), so the estimates of 2^k M are 2^k times
those of M, bit for bit, at every k.  Points have unit p-norm, so every
image the ascent forms has a size near 1, and the norms' roots are taken
of power sums in [2^-16, 2^16] (see the ``lorentz`` module).  Every estimate
is recomputed at its point as ||Mz||_q / ||z||_p from the spectra at the
exact p and q, so that it is certified, with no cutoff: a value is 0 only
where the image is 0.  Products, reductions, scales and warm starts are done
map by map or row by row, so a map's estimate has the same bits in any
batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .algebra import AlgebraElement, TracialAlgebra, random_row
from .errors import ParameterError, ShapeMismatchError
from .linmap import LinearMap, _diagonal, coordinate_weights
from .lorentz import _TINY, _block_ops, _BlockOps, _exponents, lp_norm

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
    x = x * np.ldexp(1.0, -_exponents(np.abs(x.row).max()))  # of degree 0: taken at 2^-e x
    nrm = lp_norm(x, q)
    if nrm == 0.0:
        raise ParameterError("Schatten gradient is undefined at the zero element")
    g = _block_ops(x.algebra).duality(x.row[None], q, lambda total: np.full_like(total, nrm ** (1.0 - q)))[1]
    return AlgebraElement.from_row(x.algebra, g[0])


# ---------------------------------------------------------------------------
# exact L2 and warm starts

# What one batch of estimate_pq_norms may hold: the values of its multipliers
# with a point and an image per restart (a dense map ascends alone); and one
# batch of brute-force samples: a point and an image per sample.  Results do
# not depend on it.
_BATCH_BYTES = 1 << 19


def _weighted(mat: np.ndarray, domain: TracialAlgebra, codomain: TracialAlgebra) -> np.ndarray:
    """D_c M D_d^{-1}, the square roots of the coordinate weights on the diagonals."""
    return np.sqrt(coordinate_weights(codomain))[:, None] * mat / np.sqrt(coordinate_weights(domain))


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


def _l2_maximizers(maps: LinearMap, exact: bool) -> np.ndarray:
    """Domain coords of a unit-L2 near-maximizer of every map of a batch, one row per map.

    It is the top right singular vector of the weighted matrix
    D_c M D_d^{-1}.  A dense map, which ascends alone, takes it by one SVD
    when ``exact``; otherwise by 40 steps of :func:`_ascent` at p = q = 2 on
    one row, where Boyd's step is the power method v <- M* M v at unit
    L2 norm.  A batch of multipliers takes both in its basis
    (:func:`_diagonal_l2_maximizers`).
    """
    start = _complex_normals(np.random.default_rng(0x5EED), (maps.domain.complex_dim,))
    if maps.diagonal is not None:
        return _diagonal_l2_maximizers(*maps.diagonal, coordinate_weights(maps.domain), start, exact)
    if exact:
        v = np.linalg.svd(_weighted(maps.matrix, maps.domain, maps.codomain))[2][:1].conj()
        return v / np.sqrt(coordinate_weights(maps.domain))
    return _ascent(maps, None, _block_ops(maps.domain), 2.0, 2.0, start[None], 40)[0]


def _diagonal_l2_maximizers(values: np.ndarray, basis, wd: np.ndarray, start: np.ndarray, exact: bool) -> np.ndarray:
    """:func:`_l2_maximizers` of the maps with values (T, D) in the basis B, where M* M is
    B diag(|v|^2) B^{-1}; ``wd`` is the coordinate weights.

    Exact: the basis vector B e_g of the largest |v_g|.  Otherwise the
    40 power steps from ``start`` in one: B ((|v| / max |v|)^80 B^{-1} start).
    """
    mags = np.abs(values)
    if exact:
        u = np.zeros(values.shape, dtype=complex)
        u[np.arange(len(u)), mags.argmax(axis=1)] = 1.0
    else:
        u = basis.inverse(start) * (mags * _inverse(mags.max(axis=1))[:, None]) ** 80
    v = basis.forward(u)
    return v * _inverse(np.sqrt(np.einsum("ij,j->i", np.abs(v) ** 2, wd)))[:, None]


# ---------------------------------------------------------------------------
# ascent


def _check_exponents(p: float, q: float) -> None:
    if not (1.0 <= p < np.inf and 1.0 <= q < np.inf):
        raise ParameterError(
            f"norm estimation supports finite exponents >= 1, got p={p}, q={q}"
        )


def _check_counts(**counts) -> None:
    """Each count, given as (value, least), must be an integer of at least ``least``."""
    for name, (value, least) in counts.items():
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
            raise ParameterError(f"{name} must be an integer >= {least}, got {value!r}")


def _ascent(
    maps: LinearMap,
    owner: np.ndarray | None,
    dom_ops: _BlockOps,
    p: float,
    q: float,
    z: np.ndarray,
    iters: int,
    tol: float | None = None,
):
    """Boyd's power iteration for ||M_t z||_q on the unit p-sphere, from every row of z at once.

    Row i belongs to map ``owner[i]`` of ``maps`` (a dense map owns every
    row and reads no ``owner``).  ``dom_ops`` is ``_block_ops(maps.domain)``.
    ``z`` is overwritten.  Its rows are first scaled to unit p-norm; a row
    whose p-norm vanishes becomes zero with value 0.  A step is
    z <- psi_p'(M* psi_q(Mz)) at unit p-norm (see the module docstring);
    for p = 1, psi_inf(w) is U diag([s == max s]) V* over the row's largest
    singular values.  Each half-step is one :meth:`_BlockOps.duality` call,
    which gives a power sum and a direction: the image's, at r = q, gives
    ||Mz||_q^q and the direction scaled by its inverse; the step's, at
    r = p', gives ||w||_p'^p' = ||psi_p'(w)||_p^p and the direction scaled
    to unit p-norm.  Between steps a row's state is its point, its value
    and its image's direction.  An image whose power sum is at most 1e-300
    has value 0 and direction 0.

    * Brute force (``tol`` None): every row takes all ``iters`` steps.
    * Estimates (``tol`` given): each row of nonzero value takes at
      most ``iters`` steps.  It stops, converged, when its value does not
      rise (it keeps its previous point) or rises by less than ``tol``
      relatively.  A row that stops is written back into ``z`` in its
      place, and so are the rows still running after ``iters`` steps.

    Returns per row: the last point, the best value along the path (for
    estimates the last one, recomputed at the point as ||Mz||_q / ||z||_p
    from the spectra at the exact p and q, so that it is certified) and
    whether the row stopped before ``iters`` steps.
    """
    cod_ops = _block_ops(maps.codomain)
    p_dual = np.inf if p == 1.0 else p / (p - 1.0)

    def image(z, at):
        """The images' q-norms f and directions psi_q(Mz) / f^q, whose weighted
        adjoints have dual norm at least 1; both 0 where f^q <= 1e-300."""
        total, d = cod_ops.duality(maps.rows(z, at), q, _inverse)
        return np.where(total > _TINY, total, 0.0) ** (1.0 / q), d

    def step(at, d):
        """The next points, psi_p'(M* d) at unit p-norm, from the directions d of the images:
        ||psi_p'(w)||_p is the p-th root of the power sum of w at p'."""
        return dom_ops.duality(maps.adjoint_rows(d, at), p_dual, lambda total: _inverse(total ** (1.0 / p)))[1]

    z *= _inverse(dom_ops.norm(z, p))[:, None]
    f, d = image(z, owner)
    converged = np.zeros(len(z), dtype=bool)
    if tol is None:
        best = f.copy()
        for _ in range(iters):
            z = step(owner, d)
            f, d = image(z, owner)
            np.maximum(best, f, out=best)
        return z, best, converged
    # the rows still ascending: their ids, owners and states (points, values and image directions)
    ids, at, state = np.arange(len(z)), owner, (z, f, d)
    stop = f == 0.0  # these stop at once, unconverged
    for i in range(iters + 1):
        if stop.any():
            z[ids[stop]] = state[0][stop]
            ids, at = ids[~stop], at[~stop]
            state = tuple(a[~stop] for a in state)
        if i == iters or not ids.size:
            break
        point, f, d = state
        new = step(at, d)
        state = (new,) + image(new, at)
        rise = state[1] > f
        stop = ~rise | ((state[1] - f) / np.maximum(state[1], _TINY) < tol)
        converged[ids[stop]] = True
        new[~rise] = point[~rise]  # a row whose value does not rise keeps its point
    z[ids] = state[0]
    return z, cod_ops.norm(maps.rows(z, owner), q) * _inverse(dom_ops.norm(z, p)), converged


def _scaled(maps: LinearMap):
    """The batch of the maps 2^-e M, e by the scale rule (:func:`lorentz._exponents`) of each
    multiplier's largest |value| or the dense map's largest |entry|, and e, one per map."""
    if maps.diagonal is None:
        e = _exponents(np.abs(maps.matrix).max(keepdims=True).ravel())
        return LinearMap(maps.domain, maps.codomain, maps.matrix * np.ldexp(1.0, -e[0])), e
    values, basis = maps.diagonal
    e = _exponents(np.abs(values).max(axis=1))
    return _diagonal(maps.domain, values * np.ldexp(1.0, -e)[:, None], basis), e


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
    returned iterator of estimates run a batch at a time, one dense map or
    a run of multipliers (see :func:`_estimates`), which ascends from all
    its restarts at once, so a generator of maps, read as the estimates
    are, holds no more than one batch of maps and estimates, and one map.
    Each map's estimate is the one :func:`estimate_pq_norm` returns for it,
    whatever the other maps.
    """
    _check_exponents(p, q)
    _check_counts(restarts=(restarts, 1), max_iters=(max_iters, 1))
    if not tol > 0:
        raise ParameterError(f"tol must be > 0, got {tol}")
    return _estimates(maps, p, q, [int(s) for s in seeds], restarts, max_iters, tol)


def _estimates(maps, p, q, seeds, restarts, max_iters, tol):
    """The estimates of :func:`estimate_pq_norms`, a batch at a time, from one pass over the maps.

    Each map is checked against the first as it is read.  A multiplier joins
    the batch while it shares the batch's basis and the batch fits
    ``_BATCH_BYTES``; a dense map ascends alone.
    """
    maps, first, held, start = iter(maps), None, [], 0
    for i in range(len(seeds)):
        m = next(maps, None)
        if m is None:
            raise ParameterError("fewer maps than seeds")
        first = first or m
        if not (m.domain.matches(first.domain) and m.codomain.matches(first.codomain)):
            raise ShapeMismatchError("maps estimated together must share a domain and a codomain")
        if held and not (
            None not in (m.diagonal, held[0].diagonal)
            and m.diagonal.basis == held[0].diagonal.basis
            and (len(held) + 1) * _map_bytes(m, restarts) <= _BATCH_BYTES
        ):
            yield from _estimate_stack(_stack(held), p, q, seeds[start:i], restarts, max_iters, tol)
            held, start = [], i
        held.append(m)
    if held:
        yield from _estimate_stack(_stack(held), p, q, seeds[start:], restarts, max_iters, tol)
    if next(maps, None) is not None:
        raise ParameterError(f"more maps than the {len(seeds)} seeds")


def _map_bytes(m: LinearMap, restarts: int) -> int:
    """Bytes one multiplier takes in a batch: its values, and a point and an image per restart."""
    values = m.diagonal.values
    return values.itemsize * (values.size + restarts * (m.domain.complex_dim + m.codomain.complex_dim))


def _stack(maps: list[LinearMap]) -> LinearMap:
    """The map a batch ascends on: its one dense map, or its multipliers of one basis as one
    diagonal map with their (T, D) values."""
    first = maps[0]
    if first.diagonal is None:
        return first
    return _diagonal(first.domain, np.stack([m.diagonal.values for m in maps]), first.diagonal.basis)


def _estimate_stack(maps: LinearMap, p: float, q: float, seeds: list[int], restarts: int, max_iters: int, tol: float):
    """The estimates of the maps of one batch (:func:`_stack`), one seed each, from one ascent of
    all their restarts on the maps :func:`_scaled`, whose values are scaled back."""
    maps, e = _scaled(maps)
    t, r = len(seeds), restarts
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
    usable = np.flatnonzero(np.isfinite(nrm) & (nrm > _TINY))
    owner = usable // r
    z[usable], values, converged = _ascent(maps, owner, dom_ops, p, q, z[usable], max_iters, tol)
    f = np.full(t * r, -np.inf)  # the values of the rows, scaled back, -inf for unusable starts
    f[usable] = np.ldexp(values, e[owner])
    best = np.arange(t) * r + f.reshape(t, r).argmax(axis=1)  # the first best row of each map
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
    The samples ascend on the map scaled as an estimate's is (:func:`_scaled`).

    They ascend on the map's matrix even where the map is held as its
    symbol: on these domains of at most four coordinates a product with the
    matrix is cheaper than one through the basis.  Ten steps on a batch of
    4096 rows take 5.9-6.4 ms on Z4's matrix against 16.2-16.4 ms through
    its FFT basis, and 9.2-9.6 ms on M2's against 10.4-11.0 ms through the
    identity basis, where the cost is gathering each row's values (Xeon,
    OpenBLAS on one thread, minimum to median of 7).
    """
    _check_exponents(p, q)
    if m.domain.real_dim > 8:
        raise ParameterError(
            f"brute force is restricted to domains with at most 8 real "
            f"dimensions, got {m.domain.real_dim}"
        )
    _check_counts(samples=(samples, 0), refine_steps=(refine_steps, 0))
    if samples < 100_000:
        raise ParameterError(f"need at least 1e5 samples, got {samples}")

    dim = m.domain.complex_dim
    # every sample, filled a batch at a time.  Streaming the batches through one reused buffer cuts
    # the oracle's peak RSS by 6 MB but takes 25k-42k minor faults a round, against 0-25: this array,
    # once freed, raises glibc's dynamic mmap and trim thresholds, so batch temporaries stop faulting.
    z = np.empty((samples, dim), dtype=complex)
    # independent samples, in batches of points and images small enough to stay in cache
    rows = max(1, _BATCH_BYTES // (z.itemsize * (dim + m.codomain.complex_dim)))
    # a batch's normals, drawn from the one stream into this buffer and read as in _complex_normals
    normals = np.empty((min(rows, samples), 2 * dim))
    rng = np.random.default_rng(seed)
    dom_ops = _block_ops(m.domain)
    maps, e = _scaled(LinearMap(m.domain, m.codomain, m.matrix))
    best = 0.0
    for start in range(0, samples, rows):
        batch = z[start : start + rows]
        r = rng.standard_normal(out=normals[: len(batch)])
        batch.real, batch.imag = r[:, :dim], r[:, dim:]
        best = max(best, float(_ascent(maps, None, dom_ops, p, q, batch, refine_steps)[1].max()))
    return float(np.ldexp(best, e[0]))
