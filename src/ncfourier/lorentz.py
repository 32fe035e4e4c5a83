"""Block spectra, decreasing rearrangements and Lorentz functionals.

For an element x of a weighted block algebra the generalized singular-value
function is the decreasing rearrangement of the singular values of the
blocks, each carrying its block's trace weight as mass:

    mu(t, x) = inf { s > 0 : lambda(s, x) < t },
    lambda(s, x) = trace of the spectral projection of |x| above s
                 = sum of block weights over singular values > s.

In this finite model mu is a right-continuous decreasing step function with
at most sum_k n_k steps, represented exactly by its breakpoints.  On top of
it sit the Lorentz functionals

    ||x||_{p,q} = ( integral_0^inf (t^{1/p} mu(t,x))^q dt/t )^{1/q},
    ||x||_{p,inf} = sup_t t^{1/p} mu(t,x),

evaluated in closed form on the steps; ||x||_{p,p} is the usual trace
p-norm, computed directly by :func:`lp_norm`.

This module holds the package's one block-spectrum kernel, :class:`_BlockOps`.
It works on batches of S elements in stacked complex coordinates, an (S, D)
array: singular values of 1x1 blocks are |z|, those of 2x2 blocks closed
forms on their four entries (:func:`_spectrum2`), and only larger blocks go
through LAPACK, the blocks of each size in one batched call.  The estimator
ascends with it, and every functional here is built on it in a batched form
(:func:`lp_norms`, :func:`lorentz_norms`, :func:`singular_functions`,
:func:`distribution_functions`) whose S = 1 case is the per-element
function.  A row's result does not depend on the other rows of its batch,
bit for bit, and a block's singular values do not depend on the other
blocks of its algebra.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraElement, TracialAlgebra
from .errors import ParameterError, ShapeMismatchError

__all__ = [
    "SingularFunction",
    "decreasing_step_function",
    "singular_function",
    "singular_functions",
    "distribution_function",
    "distribution_functions",
    "lp_norm",
    "lp_norms",
    "lorentz_norm",
    "lorentz_norms",
    "lorentz_norm_of_step",
]

# relative tolerance below which adjacent singular values are merged into
# one step (their masses add)
_MERGE_RTOL = 1e-12

_TINY = 1e-300
# singular values this far (relatively) below the row's largest are treated
# as exactly zero in the L_1 duality direction U V*
_SV_FLOOR = 1e-100


# ---------------------------------------------------------------------------
# batched block spectra


def _spectrum2(y: np.ndarray):
    """Closed-form spectral data of 2x2 blocks, ``y[..., :] = (a, b, c, d)`` row-major.

    The Gram matrix y* y is [[h00, h01], [conj(h01), h11]] with
    h00 = |a|^2 + |c|^2, h11 = |b|^2 + |d|^2 and h01 = conj(a) b + conj(c) d;
    its eigenvalues are mean +- radius, radius = hypot(delta, |h01|) with
    delta = (h00 - h11) / 2.  Returns (sv, delta, radius, h01, det), where
    sv[..., :] = (s1, s2) are the singular values, s1 >= s2, and det = ad - bc.
    s2 is |det| / s1: sqrt(mean - radius) would lose half the digits of a
    small singular value to cancellation.
    """
    a, b, c, d = (y[..., i] for i in range(4))
    sq = np.abs(y) ** 2
    h00 = sq[..., 0] + sq[..., 2]
    h11 = sq[..., 1] + sq[..., 3]
    h01 = np.conj(a) * b + np.conj(c) * d
    delta = 0.5 * (h00 - h11)
    radius = np.hypot(delta, np.abs(h01))
    s1 = np.sqrt(0.5 * (h00 + h11) + radius)
    det = a * d - b * c
    # |det y| <= s1^2 underflows to 0 wherever s1 < _TINY
    s2 = np.abs(det) / np.maximum(s1, _TINY)
    return np.stack([s1, s2], axis=-1), delta, radius, h01, det


def _direction2(y: np.ndarray, g: np.ndarray, data) -> np.ndarray:
    """U diag(g1, g2) V* of 2x2 blocks ``y`` (..., 4), from the data of :func:`_spectrum2`.

    It is g1 E1 + g2 E2 with E_i = u_i v_i*, where
    E1 = y (h - s2^2 I) / (s1 (s1^2 - s2^2)), h - s2^2 I = 2 radius times the
    projection on the top eigenvector of h = y* y, and E2 = (K - s2 E1) / s1
    with K = adj(y)* det/|det| = U diag(s2, s1) V*.  Both are accurate to
    rounding whatever s2 / s1; a form built on g2 / s2 would cancel terms
    of size g1 (s1 / s2)^(2 - q) for g = s^(q-1), q < 2.  Where radius = 0,
    y is s1 times a unitary, K = y and E1 drops out.
    """
    sv, delta, radius, h01, det = data
    s1, s2 = sv[..., 0], sv[..., 1]
    g1, g2 = g[..., 0], g[..., 1]
    inv = 1.0 / np.maximum(s1, _TINY)
    c1 = (g1 - g2 * s2 * inv) * inv
    half = np.divide(0.5, radius, out=np.zeros_like(radius), where=radius > 0.0)
    # det / |det| part by part: numpy divides a complex number by a subnormal
    # real one through its reciprocal, which overflows
    mag = np.abs(det)
    re, im = (np.divide(part, mag, out=np.zeros_like(mag), where=mag > 0.0) for part in (det.real, det.imag))
    c2 = (re + 1j * im) * (g2 * inv)
    # out = c1 y (h - s2^2 I) / (2 radius) + c2 adj(y)*, entry by entry;
    # adj(y)* of (a, b, c, d) is (conj d, -conj c, -conj b, conj a)
    p00 = c1 * ((radius + delta) * half)
    p11 = c1 * ((radius - delta) * half)
    p01 = c1 * (half * h01)
    p10 = np.conj(p01)
    yc = np.conj(y)
    out = np.empty_like(y)
    for k, (i, pi, pj, adj) in enumerate(((0, p00, p10, c2), (0, p01, p11, -c2), (2, p00, p10, -c2), (2, p01, p11, c2))):
        o = out[..., k]
        np.multiply(y[..., i], pi, out=o)
        o += y[..., i + 1] * pj
        o += adj * yc[..., 3 - k]
    return out


def _as_slice(idx: np.ndarray):
    """Strictly increasing indices ``idx`` as a slice when they are a run of
    consecutive ones, so that indexing with them takes a view instead of a copy."""
    if idx.size and idx[-1] - idx[0] == idx.size - 1:
        return slice(int(idx[0]), int(idx[0]) + idx.size)
    return idx


class _BlockOps:
    """Vectorized singular values / Schatten directions for one algebra.

    Operates on batches of stacked complex coordinates, shape (S, D).
    Blocks are grouped by size: 1x1 entries are pure elementwise work, 2x2
    blocks are elementwise closed forms on their four entries (see
    :func:`_spectrum2` and :func:`_direction2`), not stacked 2x2 matrix
    products, and the blocks of each larger size go through one batched
    LAPACK call.  Singular values are laid out 1x1 entries first, then the
    2x2 blocks, then the larger blocks, each part in block order; ``wts``
    holds their block weights and ``block_index`` their blocks.
    """

    def __init__(self, algebra: TracialAlgebra):
        self.algebra = algebra
        dims = algebra.dims
        offsets = [algebra.block_offset(k) for k in range(algebra.num_blocks)]
        ones = [k for k, n in enumerate(dims) if n == 1]
        twos = [k for k, n in enumerate(dims) if n == 2]
        big = [k for k, n in enumerate(dims) if n > 2]
        self.block_index = np.array(ones + [k for k in twos for _ in range(2)] + [k for k in big for _ in range(dims[k])])
        self.wts = np.asarray(algebra.weights)[self.block_index]
        self.n1, self.n2 = len(ones), 2 * len(twos)
        self.idx1 = _as_slice(np.array([offsets[k] for k in ones], dtype=int))
        self.idx2 = _as_slice(np.array([offsets[k] + i for k in twos for i in range(4)], dtype=int))
        # (n, block count, coordinate indices, singular value columns) per size n > 2
        first_col = dict(zip(big, np.cumsum([self.n1 + self.n2] + [dims[k] for k in big]).tolist()))
        self.big = []
        for n in dict.fromkeys(dims[k] for k in big):
            ks = [k for k in big if dims[k] == n]
            idx = np.array([offsets[k] + i for k in ks for i in range(n * n)])
            cols = np.array([first_col[k] + i for k in ks for i in range(n)])
            self.big.append((n, len(ks), _as_slice(idx), _as_slice(cols)))

    def spectrum(self, z: np.ndarray, vectors: bool = False):
        """Per-row singular values, in the order of ``self.wts``, and the block data
        :meth:`direction` builds on; z has shape (S, D).

        The data are |z| on the 1x1 entries and the five arrays of
        :func:`_spectrum2` on the 2x2 blocks.  Each size of larger blocks
        adds (U, V*) of their SVD, shape (S, blocks, n, n), when ``vectors``,
        and nothing otherwise.
        """
        s_count = z.shape[0]
        parts = []  # (singular value columns, values)
        data = ()
        if self.n1:
            mag = np.abs(z[:, self.idx1])
            parts.append((slice(0, self.n1), mag))
            data += (mag,)
        if self.n2:
            spec2 = _spectrum2(z[:, self.idx2].reshape(s_count, -1, 4))
            parts.append((slice(self.n1, self.n1 + self.n2), spec2[0].reshape(s_count, -1)))
            data += spec2
        for n, m, idx, cols in self.big:
            y = z[:, idx].reshape(s_count, m, n, n)
            if vectors:
                u, sv, vh = np.linalg.svd(y)
                data += (u, vh)
            else:
                sv = np.linalg.svd(y, compute_uv=False)
            parts.append((cols, sv.reshape(s_count, -1)))
        if len(parts) == 1:
            return parts[0][1], data
        sv = np.empty((s_count, self.wts.size))
        for cols, values in parts:
            sv[:, cols] = values
        return sv, data

    def singular_values(self, z: np.ndarray):
        """Per-row singular values and their weights; z has shape (S, D)."""
        return self.spectrum(z)[0], self.wts

    def value(self, sv: np.ndarray, p: float) -> np.ndarray:
        """Per-row p-norms from the singular values of :meth:`spectrum`.

        Each row is summed on its own (not by a BLAS matrix-vector product,
        whose bits for one row depend on the others), so a row's value does
        not depend on the batch it is in.
        """
        if np.isinf(p):
            return sv.max(axis=1)
        return np.einsum("ij,j->i", sv**p, self.wts) ** (1.0 / p)

    def norm(self, z: np.ndarray, p: float) -> np.ndarray:
        return self.value(self.spectrum(z)[0], p)

    def product(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Blockwise matrix products a_k b_k of paired rows of a and b, shape (S, D).

        1x1 blocks multiply elementwise; the last bit of that can differ
        from a 1x1 matrix product with ``@``.
        """
        s_count = a.shape[0]
        out = np.empty(a.shape, dtype=complex)
        if self.n1:
            out[:, self.idx1] = a[:, self.idx1] * b[:, self.idx1]
        blocks = [(self.idx2, 2)] if self.n2 else []
        for idx, n in blocks + [(idx, n) for n, _, idx, _ in self.big]:
            shape = (s_count, -1, n, n)
            out[:, idx] = (a[:, idx].reshape(shape) @ b[:, idx].reshape(shape)).reshape(s_count, -1)
        return out

    @staticmethod
    def powers(sv: np.ndarray, r: float) -> np.ndarray:
        """The singular values of the duality direction of L_r, 1 <= r <= inf, per row.

        s^(r-1) for 1 < r < inf; for r = 1, 1 on the singular values above
        _SV_FLOOR times the row's largest; for r = inf, 1 on the row's
        largest (nonzero) singular values; 0 elsewhere.  The L_r' norm of
        U diag(g) V*, r' = r / (r - 1), is then ``value(g, r')``.
        """
        if r > 1.0 and np.isfinite(r):
            return sv ** (r - 1.0)
        top = sv.max(axis=1, keepdims=True)
        if r == 1.0:
            return (sv > _SV_FLOOR * top).astype(float)
        return ((sv == top) & (sv > 0.0)).astype(float)

    def direction(self, z: np.ndarray, g: np.ndarray, data: tuple) -> np.ndarray:
        """Blockwise U diag(g) V* of each row, ``g`` laid out like the singular values.

        ``data`` is the block data of :meth:`spectrum` for the same rows, with
        vectors when the algebra has blocks larger than 2x2.
        """
        s_count = z.shape[0]
        out = np.empty_like(z)
        n1, n2 = self.n1, self.n2
        if n1:
            mag, *data = data
            out[:, self.idx1] = z[:, self.idx1] * np.divide(g[:, :n1], mag, out=np.zeros_like(mag), where=mag > 0.0)
        if n2:
            spec2, data = data[:5], data[5:]
            g2 = g[:, n1 : n1 + n2].reshape(s_count, -1, 2)
            out[:, self.idx2] = _direction2(z[:, self.idx2].reshape(s_count, -1, 4), g2, spec2).reshape(s_count, -1)
        for (n, m, idx, cols), u, vh in zip(self.big, data[::2], data[1::2]):
            gk = g[:, cols].reshape(s_count, m, 1, n)
            out[:, idx] = ((u * gk) @ vh).reshape(s_count, -1)
        return out

    def schatten_direction(self, z: np.ndarray, q: float) -> np.ndarray:
        """Blockwise U diag(s^(q-1)) V* of each row (gradient numerator)."""
        sv, data = self.spectrum(z, vectors=True)
        return self.direction(z, self.powers(sv, q), data)


# one kernel per algebra: the checks and the per-element functions use each
# algebra's kernel many times
@functools.lru_cache(maxsize=128)
def _block_ops(algebra: TracialAlgebra) -> _BlockOps:
    return _BlockOps(algebra)


def _rows(algebra: TracialAlgebra, z) -> np.ndarray:
    """``z`` as an (S, D) complex array of stacked coordinates of the algebra."""
    z = np.asarray(z, dtype=complex)
    if z.ndim != 2 or z.shape[1] != algebra.complex_dim:
        raise ShapeMismatchError(f"rows of shape {z.shape} for an algebra of {algebra.complex_dim} coordinates")
    return z


# ---------------------------------------------------------------------------
# step functions


@dataclass(frozen=True)
class SingularFunction:
    """A decreasing step function on (0, infinity), zero beyond its support.

    ``breakpoints`` is strictly increasing, ``values`` strictly decreasing
    and positive; the function equals ``values[i]`` on
    ``(breakpoints[i-1], breakpoints[i]]`` (with breakpoints[-1] = 0) and 0
    beyond ``breakpoints[-1]``.  Both arrays may be empty (the zero element).
    """

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if bp.shape != vals.shape or bp.ndim != 1:
            raise ParameterError("breakpoints and values must be equal-length 1d")
        if bp.size:
            if not np.all(np.diff(bp) > 0) or bp[0] <= 0:
                raise ParameterError("breakpoints must be positive and increasing")
            if not np.all(np.diff(vals) < 0) or vals[-1] <= 0:
                raise ParameterError("values must be strictly decreasing and positive")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)

    @property
    def support(self) -> float:
        """Total mass carried, i.e. where the function drops to zero."""
        return float(self.breakpoints[-1]) if self.breakpoints.size else 0.0

    def __call__(self, t):
        """Evaluate at t > 0 (scalar or array)."""
        t = np.asarray(t, dtype=float)
        if np.any(t <= 0):
            raise ParameterError("singular functions are defined for t > 0")
        if self.values.size == 0:
            out = np.zeros(t.shape)
            return float(out) if out.ndim == 0 else out
        idx = np.searchsorted(self.breakpoints, t, side="left")
        padded = np.concatenate([self.values, [0.0]])
        out = padded[idx]
        return float(out) if out.ndim == 0 else out

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"({t:.6g}, {v:.6g})" for t, v in zip(self.breakpoints, self.values)
        )
        return f"SingularFunction([{pairs}])"


def _steps(values: np.ndarray, weights: np.ndarray):
    """The rearrangement steps of every row of nonnegative ``values`` (S, n).

    ``weights`` are the masses of the columns: (n,), the same in every row,
    or (S, n), one row of masses per row of values.
    The rule is sequential: in decreasing order (ties in input order) a value
    joins the current step when it is within relative tolerance 1e-12 of the
    step's first value, and starts a new step otherwise; zeros are dropped.
    It is applied at once to the runs of neighbouring near-ties whose span is
    within the tolerance, each of which is a single step, and value by value
    only inside a run whose span exceeds it.  A step's mass is the running
    sum of its weights in that order.

    Returns (breakpoints, values, counts): (S, G) arrays holding the steps of
    row i in their first counts[i] columns, then zero values, and breakpoints
    that stay at the row's support.
    """
    s_count, n = values.shape
    order = np.argsort(-values, axis=1, kind="stable")
    v = np.take_along_axis(values, order, axis=1).ravel()
    w = np.take_along_axis(np.broadcast_to(weights, values.shape), order, axis=1).ravel()
    # values are sorted decreasing, so the nonzero ones of a row are its first ones
    pos = np.flatnonzero(v)
    v, w = v[pos], w[pos]
    start = np.ones(v.size, dtype=bool)
    start[1:] = (v[:-1] - v[1:] > _MERGE_RTOL * v[:-1]) | (pos[1:] % n == 0)
    head = np.maximum.accumulate(np.where(start, np.arange(v.size), 0))
    first = v[head]
    for h in np.unique(head[first - v > _MERGE_RTOL * first]):
        # a run of near-ties that spans more than the tolerance
        f, j = v[h], h + 1
        while j < v.size and not start[j]:
            if f - v[j] > _MERGE_RTOL * f:
                start[j], f = True, v[j]
            j += 1
    heads = np.flatnonzero(start)
    mass = w[heads]
    lens = np.diff(np.append(heads, v.size))
    multi = np.flatnonzero(lens > 1)
    for k in range(1, int(lens.max(initial=1))):
        multi = multi[lens[multi] > k]
        mass[multi] += w[heads[multi] + k]
    row = pos[heads] // n
    counts = np.bincount(row, minlength=s_count)
    col = np.arange(heads.size) - (np.cumsum(counts) - counts)[row]
    width = int(counts.max(initial=0))
    breakpoints = np.zeros((s_count, width))
    steps = np.zeros((s_count, width))
    breakpoints[row, col] = mass
    steps[row, col] = v[heads]
    np.cumsum(breakpoints, axis=1, out=breakpoints)
    return breakpoints, steps, counts


def decreasing_step_function(values, weights) -> SingularFunction:
    """Build the rearrangement step function of weighted nonnegative values.

    Each ``values[i]`` contributes a step of mass ``weights[i]``.  Values
    equal up to relative tolerance 1e-12 merge into a single step whose mass
    is the sum; zeros are dropped (the function vanishes beyond its support
    either way).
    """
    values = np.asarray(values, dtype=float).ravel()
    weights = np.asarray(weights, dtype=float).ravel()
    if values.shape != weights.shape:
        raise ParameterError("values and weights must have matching length")
    if np.any(values < 0):
        raise ParameterError("singular values must be nonnegative")
    if np.any(weights <= 0):
        raise ParameterError("weights must be strictly positive")
    breakpoints, steps, _ = _steps(values[None], weights)
    return SingularFunction(breakpoints[0], steps[0])


def singular_functions(algebra: TracialAlgebra, z) -> list[SingularFunction]:
    """Generalized singular-value functions of the rows of z, stacked coordinates (S, D)."""
    ops = _block_ops(algebra)
    breakpoints, steps, counts = _steps(ops.spectrum(_rows(algebra, z))[0], ops.wts)
    return [SingularFunction(b[:c], s[:c]) for b, s, c in zip(breakpoints, steps, counts)]


def singular_function(x: AlgebraElement) -> SingularFunction:
    """Generalized singular-value function of x as an exact step function."""
    return singular_functions(x.algebra, x.row[None])[0]


def distribution_functions(algebra: TracialAlgebra, z, s: float) -> np.ndarray:
    """Trace mass of the spectral projection of |x| above level s >= 0, for every row x of z."""
    if s < 0:
        raise ParameterError(f"level must be nonnegative, got {s}")
    ops = _block_ops(algebra)
    above = ops.spectrum(_rows(algebra, z))[0] > s
    return np.einsum("ij,j->i", above.astype(float), ops.wts)


def distribution_function(x: AlgebraElement, s: float) -> float:
    """Trace mass of the spectral projection of |x| above level s >= 0."""
    return float(distribution_functions(x.algebra, x.row[None], s)[0])


# ---------------------------------------------------------------------------
# norms


def lp_norms(algebra: TracialAlgebra, z, p: float) -> np.ndarray:
    """Trace p-(quasi)norms of the rows of z, stacked coordinates (S, D), for 0 < p <= inf.

    p = inf gives the operator norm (largest singular value).
    """
    if not p > 0:
        raise ParameterError(f"p must be positive, got {p}")
    return _block_ops(algebra).norm(_rows(algebra, z), p)


def lp_norm(x: AlgebraElement, p: float) -> float:
    """Trace p-(quasi)norm for 0 < p <= inf.

    p = inf gives the operator norm (largest singular value).
    """
    return float(lp_norms(x.algebra, x.row[None], p)[0])


def _check_lorentz_indices(p: float, q: float) -> None:
    if not (np.isfinite(p) and p > 0):
        raise ParameterError(f"first Lorentz index must be finite positive, got {p}")
    if not q > 0:
        raise ParameterError(f"second Lorentz index must be positive, got {q}")


def _lorentz(breakpoints: np.ndarray, steps: np.ndarray, p, q) -> np.ndarray:
    """Closed-form Lorentz (p,q)-functionals of the step rows of :func:`_steps`.

    ``p`` and ``q`` are numbers, or (S, 1) columns with one index per row;
    q is infinite in every row or in none.  A row is summed in order, by a
    running sum, so that its zero padding leaves its bits alone.
    """
    if not steps.shape[1]:
        return np.zeros(len(steps))
    if np.all(np.isinf(q)):
        return np.max(breakpoints ** (1.0 / p) * steps, axis=1)
    e = q / p
    increments = breakpoints**e
    increments[:, 1:] -= breakpoints[:, :-1] ** e
    terms = steps**q * (p / q) * increments
    return (np.cumsum(terms, axis=1)[:, -1:] ** (1.0 / q))[:, 0]


def lorentz_norm_of_step(mu: SingularFunction, p: float, q: float) -> float:
    """Closed-form Lorentz (p,q)-functional of a decreasing step function."""
    _check_lorentz_indices(p, q)
    return float(_lorentz(mu.breakpoints[None], mu.values[None], p, q)[0])


def lorentz_norms(algebra: TracialAlgebra, z, p: float, q: float) -> np.ndarray:
    """Lorentz (p,q)-(quasi)norms of the rows of z, stacked coordinates (S, D).

    p finite, 0 < q <= inf; see :func:`lorentz_norm`.
    """
    _check_lorentz_indices(p, q)
    ops = _block_ops(algebra)
    breakpoints, steps, _ = _steps(ops.spectrum(_rows(algebra, z))[0], ops.wts)
    return _lorentz(breakpoints, steps, p, q)


def lorentz_norm(x: AlgebraElement, p: float, q: float) -> float:
    """Lorentz (p,q)-(quasi)norm of a block element; p finite, 0 < q <= inf.

    q = p reproduces :func:`lp_norm`; q = inf is the weak norm
    sup_t t^(1/p) mu(t, x).
    """
    return float(lorentz_norms(x.algebra, x.row[None], p, q)[0])
