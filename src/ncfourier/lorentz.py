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
array.  It groups the blocks by size once, in one table, and each of its
methods loops once over the groups: singular values of 1x1 blocks are |z|,
those of 2x2 blocks closed forms on their four entries (:func:`_spectrum2`),
and only larger blocks go through LAPACK, one batched call per size.  A
spectrum comes with one entry of block data per group, on which the duality
direction is built.  The estimator's half-steps take power sums and duality
directions in one call, :meth:`_BlockOps.duality`, with no spectrum where
they are products of the blocks y and their Gram matrices h = y* y: at
r = 2 (sum w ||y||_F^2 and y) and r = 4 (sum w ||h||_F^2 and y h) on every
block, and at r = 3 on 1x1 blocks (|z|^3 and z |z|) and 2x2 blocks
(sigma (tr h - m) and y (h + m I) / sigma, m = |det y|, sigma = s1 + s2),
when every block of the algebra has one.  An exponent within 4 ulps of 2,
3 or 4 is taken as that integer.  The estimator ascends with the kernel,
and every functional here is built on it in a batched form
(:func:`lp_norms`, :func:`lorentz_norms`, :func:`singular_functions`,
:func:`distribution_functions`) whose S = 1 case is the per-element
function.  A row's result does not depend on the other rows of its batch,
bit for bit, and a block's singular values do not depend on the other
blocks of its algebra.

Scale follows one rule, :func:`_exponents`, with no window.  Every norm
is homogeneous, so a quantity is taken at 2^-e times its input, e the
exponent that brings the input's largest magnitude into [1/2, 1), and
scaled back by 2^e; a power of two moves no bit.  The rule scales each map
an estimate ascends on and the element a Schatten gradient is taken at
(see the ``estimator`` module), and the rows whose power sum leaves
[2^-16, 2^16] in :meth:`_BlockOps.value` and the Lorentz sums: a root
x^(1/p), taken with 1/p rounded, is off by about |ln x| / p times 2^-53,
so every root is taken of a sum near 1, and 2^k z has 2^k times the norms
of z to a few ulps.  2x2 blocks whose largest entry leaves
[2^-451, 2^450) are scaled before their Gram entries are formed; the
others are skipped, as their squares stay in range.
"""

from __future__ import annotations

import functools
import math
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
# the scale rule


def _exponents(top: np.ndarray) -> np.ndarray:
    """The package's one scale rule: per entry of ``top``, the largest magnitude of a
    row, block or map, the exponent e that brings it into [1/2, 1) by the exact
    power of two 2^-e.  e >= -1022 keeps 2^-e a double; it takes subnormal
    magnitudes to 2^-52 and above.  Zero, infinite and NaN magnitudes have e = 0.
    """
    return np.maximum(np.frexp(top)[1], -1022)


# ---------------------------------------------------------------------------
# batched block spectra


def _gram2(y: np.ndarray, mag: np.ndarray):
    """h00, h11 and h01 of the Gram matrices y* y = [[h00, h01], [conj(h01), h11]] of 2x2 blocks
    ``y[..., :] = (a, b, c, d)``: h00 = |a|^2 + |c|^2, h11 = |b|^2 + |d|^2, h01 = conj(a) b + conj(c) d.
    ``mag`` is |y|, which is squared in place."""
    a, b, c, d = (y[..., i] for i in range(4))
    sq = mag
    sq *= sq
    return sq[..., 0] + sq[..., 2], sq[..., 1] + sq[..., 3], np.conj(a) * b + np.conj(c) * d


def _spectrum2(y: np.ndarray):
    """Singular values of 2x2 blocks ``y[..., :] = (a, b, c, d)``, row-major, and the data
    :func:`_direction2` builds on.

    A block whose largest entry leaves [2^-451, 2^450) is scaled by 2^-e, e
    by :func:`_exponents` of that entry, and its singular values are scaled
    back: the Gram entries, squares of the entries, would leave the double
    range (blocks of size 1e-160 or 1e160).  Other blocks, whose squares
    stay in range, are not scaled, which saves the pass.  The
    eigenvalues of the Gram matrix (:func:`_gram2`) are mean +- radius,
    radius = hypot(delta, |h01|) with delta = (h00 - h11) / 2.  Returns sv,
    sv[..., :] = (s1, s2) with s1 >= s2, and the data
    (y, sv, delta, radius, h01, det) of the scaled blocks, det = ad - bc.
    s2 is |det| / s1: sqrt(mean - radius) would lose half the digits of a
    small singular value to cancellation.  s1 and s2 are written into one
    preallocated array.
    """
    mag = np.abs(y)
    top = np.maximum(np.maximum(mag[..., 0], mag[..., 1]), np.maximum(mag[..., 2], mag[..., 3]))
    e = None
    if top.size and (top.min() < 2.0**-451 or top.max() >= 2.0**450):
        e = np.where((top >= 2.0**-451) & (top < 2.0**450), 0, _exponents(top))
        y = y * np.ldexp(1.0, -e)[..., None]
        mag = np.abs(y)
    h00, h11, h01 = _gram2(y, mag)
    delta = 0.5 * (h00 - h11)
    # radius as the modulus of delta + i |h01|, which numpy takes several times faster than hypot
    pair = np.empty(delta.shape, dtype=complex)
    pair.real, pair.imag = delta, np.abs(h01)
    radius = np.abs(pair)
    sv = np.empty(y.shape[:-1] + (2,))
    s1 = np.sqrt(0.5 * (h00 + h11) + radius, out=sv[..., 0])
    det = y[..., 0] * y[..., 3] - y[..., 1] * y[..., 2]
    # |det y| <= s1^2 underflows to 0 wherever s1 < _TINY
    np.divide(np.abs(det), np.maximum(s1, _TINY), out=sv[..., 1])
    return (sv if e is None else np.ldexp(sv, e[..., None])), (y, sv, delta, radius, h01, det)


def _direction2(g: np.ndarray, data) -> np.ndarray:
    """U diag(g1, g2) V* of 2x2 blocks, from the data of :func:`_spectrum2`; ``g`` (..., 2).

    It is g1 E1 + g2 E2 with E_i = u_i v_i*, which do not depend on the
    blocks' scale, so they are taken on the scaled blocks of the data.
    E1 = y (h - s2^2 I) / (s1 (s1^2 - s2^2)), h - s2^2 I = 2 radius times the
    projection on the top eigenvector of h = y* y, and E2 = (K - s2 E1) / s1
    with K = adj(y)* det/|det| = U diag(s2, s1) V*.  Both are accurate to
    rounding whatever s2 / s1; a form built on g2 / s2 would cancel terms
    of size g1 (s1 / s2)^(2 - q) for g = s^(q-1), q < 2.  Where radius = 0,
    y is s1 times a unitary, K = y and E1 drops out.  The projection's
    entries (at most 1) and the unit phase det/|det| are formed before they
    are scaled.  The outputs accumulate in place.
    """
    y, sv, delta, radius, h01, det = data
    s1, s2 = sv[..., 0], sv[..., 1]
    inv = 1.0 / np.maximum(s1, _TINY)
    scale2 = g[..., 1] * inv
    c1 = (g[..., 0] - scale2 * s2) * inv
    # the projection's entries have degree 0 in (radius, delta, h01), and |delta|, |h01| <= radius:
    # a subnormal radius, whose 1 / (2 radius) would overflow, is taken with all three times 2^64
    sub = radius < 2.0**-1022
    if sub.any():
        k = np.where(sub, 2.0**64, 1.0)
        radius, delta, h01 = radius * k, delta * k, h01 * k
    # 1 / (2 radius); where radius = 0 any finite value serves, as radius +- delta and h01 vanish
    half = 0.5 / (radius + (radius == 0.0))
    # det / |det| part by part: numpy divides a complex number by a subnormal
    # real one through its reciprocal, which overflows; det = 0 gives 0
    mag = np.abs(det)
    mag += mag == 0.0
    c2 = np.empty_like(det)
    for part, c2_part in ((det.real, c2.real), (det.imag, c2.imag)):
        np.multiply(np.divide(part, mag, out=c2_part), scale2, out=c2_part)
    # out = c1 y (h - s2^2 I) / (2 radius) + c2 adj(y)*, entry by entry;
    # adj(y)* of (a, b, c, d) is (conj d, -conj c, -conj b, conj a)
    p00, p11, p01 = (((radius + delta) * half) * c1, ((radius - delta) * half) * c1, (h01 * half) * c1)
    out, tmp = _times_hermitian2(y, p00, p11, p01)
    yc = np.conj(y)
    for k, sign in enumerate((np.add, np.subtract, np.subtract, np.add)):
        sign(out[..., k], np.multiply(yc[..., 3 - k], c2, out=tmp), out=out[..., k])
    return out


def _times_hermitian2(y: np.ndarray, p00: np.ndarray, p11: np.ndarray, p01: np.ndarray):
    """y P of 2x2 blocks y (..., 4) and Hermitian P = [[p00, p01], [conj(p01), p11]], p00 and
    p11 real, and a scratch array of one entry per block."""
    p10 = np.conj(p01)
    out, tmp = np.empty_like(y), np.empty(y.shape[:-1], dtype=complex)
    # no complex product is taken in place: numpy rounds one with the length of the array
    for k, (i, pi, pj) in enumerate(((0, p00, p10), (0, p01, p11), (2, p00, p10), (2, p01, p11))):
        o = np.multiply(y[..., i], pi, out=out[..., k])
        o += np.multiply(y[..., i + 1], pj, out=tmp)
    return out, tmp


def _integer_exponent(r: float) -> float:
    """r, or the integer 2, 3 or 4 when r lies within 4 ulps of it, as 4/3's computed dual 4.000000000000001 does."""
    for k in (2.0, 3.0, 4.0):
        if abs(r - k) <= 4.0 * math.ulp(k):
            return k
    return r


def _closed_form(n: int, r: float) -> bool:
    """Whether the L_r duality map of n x n blocks is a product of the block and its Gram matrix."""
    return r in (2.0, 4.0) or (r == 3.0 and n <= 2)


def _abs2(x: np.ndarray) -> np.ndarray:
    return x.real * x.real + x.imag * x.imag


def _integer_sums(n: int, y: np.ndarray, r: float):
    """Per-block power sums tr h^(r/2) = ||y||_r^r of a group's blocks y, h = y* y, where
    :func:`_closed_form` holds, and the data of their duality direction; y is (S, m) for 1x1
    blocks, (S, m, 4) for 2x2 and (S, m, n, n) above."""
    if n == 1:  # the data are |z|^(r-2)
        if r == 3.0:
            mag = np.abs(y)
            return mag * mag * mag, mag
        sq = _abs2(y)
        return (sq if r == 2.0 else sq * sq), sq
    if n == 2:
        h00, h11, h01 = _gram2(y, np.abs(y))
        if r == 2.0:
            return h00 + h11, None
        if r == 4.0:
            return h00 * h00 + h11 * h11 + 2.0 * _abs2(h01), (h00, h11, h01, None)
        # h^(1/2) = (h + m I) / sigma, m = |det y| = s1 s2 and sigma = sqrt(tr h + 2m) = s1 + s2;
        # m <= tr h / 2, so tr h^(3/2) = sigma (tr h - m) does not cancel
        m = np.abs(y[..., 0] * y[..., 3] - y[..., 1] * y[..., 2])
        t = h00 + h11
        sigma = np.sqrt(t + 2.0 * m)
        return sigma * (t - m), (h00 + m, h11 + m, h01, sigma)
    s_count, m = y.shape[:2]
    if r == 2.0:
        return _abs2(y).reshape(s_count, m, -1).sum(axis=-1), None
    h = np.conj(np.swapaxes(y, -1, -2)) @ y
    return _abs2(h).reshape(s_count, m, -1).sum(axis=-1), h


def _integer_direction(n: int, r: float, y: np.ndarray, data, c: np.ndarray) -> np.ndarray:
    """psi_r(y) c of the blocks of :func:`_integer_sums`, from their data; c (S,) scales each row.

    The scale goes into the real coefficients of each block, |z|^(r-2) or
    the entries of h^((r-2)/2), before they multiply the block.  At r = 3 on
    2x2 blocks the entries of h + m I are divided by sigma first: c / sigma
    would leave the double range for blocks of size 1e-80.
    """
    if r == 2.0:  # psi_2(y) = y
        return y * c.reshape((-1,) + (1,) * (y.ndim - 1))
    if n == 1:
        data *= c[:, None]
        return y * data
    if n == 2:
        p00, p11, p01, sigma = data
        if sigma is not None:
            inv = 1.0 / (sigma + (sigma == 0.0))
            p00 *= inv
            p11 *= inv
            p01 = p01 * inv
        k = c[:, None]
        return _times_hermitian2(y, np.multiply(p00, k, out=p00), np.multiply(p11, k, out=p11), p01 * k)[0]
    return y @ (data * c[:, None, None, None])


def _as_slice(idx: np.ndarray):
    """Strictly increasing indices ``idx`` as a slice when they are a run of
    consecutive ones, so that indexing with them takes a view instead of a copy."""
    if idx.size and idx[-1] - idx[0] == idx.size - 1:
        return slice(int(idx[0]), int(idx[0]) + idx.size)
    return idx


def _put(out, where, values: np.ndarray) -> np.ndarray:
    """``values`` written into ``out[:, where]``; with no ``out`` (one group) they are the rows, not a copy."""
    if out is None:
        return values
    out[:, where] = values
    return out


class _BlockOps:
    """Vectorized singular values, power sums and duality directions for one algebra.

    Operates on batches of stacked complex coordinates, shape (S, D).  The
    kind of each block is decided once, in ``groups``: one entry
    (n, block count, coordinate indices, singular value columns, block
    weights) per block size, 1x1 first, then 2x2, then the larger sizes in
    order of first appearance.  Every method loops once over the groups:
    1x1 entries are pure elementwise work, 2x2 blocks elementwise closed
    forms on their four entries (see :func:`_spectrum2` and
    :func:`_direction2`), not stacked 2x2 matrix products, and the blocks of
    each larger size go through one batched LAPACK call.  Singular values
    are laid out group by group, each group in block order; ``wts`` holds
    their block weights and ``block_index`` their blocks.

    :meth:`duality` gives the power sums ||y||_r^r and the duality
    directions psi_r(y) = U diag(s^(r-1)) V* of a batch, which are
    products of y and h = y* y at the exponents of :func:`_closed_form`:

    * r = 2: ||y||_F^2 and y, for every block size;
    * r = 4: ||h||_F^2 and y h, for every block size;
    * r = 3 on 1x1 blocks z: |z|^3 and z |z|;
    * r = 3 on 2x2 blocks: sigma (tr h - m) and y (h + m I) / sigma, with
      m = |det y| and sigma = sqrt(tr h + 2m) = s1 + s2.

    An r within 4 ulps of 2, 3 or 4 is taken as that integer.  Where a
    block size of the algebra has no closed form at r (r = 3 on blocks
    above 2x2, and every other exponent), the method takes the spectrum
    with its singular vectors.
    """

    def __init__(self, algebra: TracialAlgebra):
        dims = algebra.dims
        order = sorted(range(len(dims)), key=lambda k: min(dims[k], 3))  # stable: each kind in block order
        self.block_index = np.array([k for k in order for _ in range(dims[k])])
        self.wts = np.asarray(algebra.weights)[self.block_index]
        sizes = np.asarray(dims)[self.block_index]
        self.groups = []
        for n in dict.fromkeys(dims[k] for k in order):
            ks = [k for k in order if dims[k] == n]
            idx = np.array([algebra.block_offset(k) + i for k in ks for i in range(n * n)])
            cols = _as_slice(np.flatnonzero(sizes == n))
            self.groups.append((n, len(ks), _as_slice(idx), cols, np.asarray(algebra.weights)[ks]))

    @staticmethod
    def _blocks(z: np.ndarray, n: int, m: int, idx) -> np.ndarray:
        """The blocks of one group of the rows z: (S, m) for 1x1, (S, m, 4) for 2x2 and (S, m, n, n) above."""
        shape = {1: (m,), 2: (m, 4)}.get(n, (m, n, n))
        return z[:, idx].reshape((z.shape[0],) + shape)

    def spectrum(self, z: np.ndarray, vectors: bool = False):
        """Per-row singular values, in the order of ``self.wts``, and the block data
        :meth:`direction` builds on, one entry per group; z has shape (S, D).

        A group's data are |z| for 1x1 blocks and the data of
        :func:`_spectrum2` for 2x2 blocks.  For a larger size they are
        (U, V*) of the blocks' SVD, shape (S, blocks, n, n), when ``vectors``,
        and () otherwise.
        """
        s_count = z.shape[0]
        sv, data = None if len(self.groups) == 1 else np.empty((s_count, self.wts.size)), []
        for n, m, idx, cols, _ in self.groups:
            y = self._blocks(z, n, m, idx)
            if n == 1:
                values = block_data = np.abs(y)
            elif n == 2:
                values, block_data = _spectrum2(y)
            elif vectors:
                u, values, vh = np.linalg.svd(y)
                block_data = (u, vh)
            else:
                values, block_data = np.linalg.svd(y, compute_uv=False), ()
            data.append(block_data)
            sv = _put(sv, cols, values.reshape(s_count, -1))
        return sv, data

    def value(self, sv: np.ndarray, p: float) -> np.ndarray:
        """Per-row p-norms from the singular values of :meth:`spectrum`.

        Each row is summed on its own (not by a BLAS matrix-vector product,
        whose bits for one row depend on the others), so a row's value does
        not depend on the batch it is in.  A row whose power sum sum w s^p
        leaves [2^-16, 2^16] is summed again at s 2^-e, e by
        :func:`_exponents` of its largest singular value, and its norm is
        scaled back by 2^e; the other rows keep their bits.  So every root
        is taken of a sum near 1, unless e is already 0.
        """
        if np.isinf(p):
            return sv.max(axis=1)
        with np.errstate(over="ignore"):
            total = np.einsum("ij,j->i", sv**p, self.wts)
        out = total ** (1.0 / p)
        bad = np.flatnonzero(~((total >= 2.0**-16) & (total <= 2.0**16)))
        e = _exponents(sv[bad].max(axis=1))
        if e.any():
            out[bad] = np.ldexp(self.value(np.ldexp(sv[bad], -e[:, None]), p), e)
        return out

    def norm(self, z: np.ndarray, p: float) -> np.ndarray:
        return self.value(self.spectrum(z)[0], p)

    def product(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Blockwise matrix products a_k b_k of paired rows of a and b, shape (S, D).

        1x1 blocks multiply elementwise; the last bit of that can differ
        from a 1x1 matrix product with ``@``.
        """
        s_count = a.shape[0]
        out = None if len(self.groups) == 1 else np.empty(a.shape, dtype=complex)
        for n, m, idx, _, _ in self.groups:
            x, y = (c[:, idx].reshape(s_count, m, n, n) for c in (a, b))
            out = _put(out, idx, (x * y if n == 1 else x @ y).reshape(s_count, -1))
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

    def direction(self, z: np.ndarray, g: np.ndarray, data: list) -> np.ndarray:
        """Blockwise U diag(g) V* of each row, ``g`` laid out like the singular values.

        ``data`` is the block data of :meth:`spectrum` for the same rows, with
        vectors when the algebra has blocks larger than 2x2.
        """
        s_count = z.shape[0]
        out = None if len(self.groups) == 1 else np.empty_like(z)
        for (n, m, idx, cols, _), block_data in zip(self.groups, data):
            if n == 1:
                # z g / |z|; where z = 0 any finite ratio serves
                values = z[:, idx] * (g[:, cols] / (block_data + (block_data == 0.0)))
            elif n == 2:
                values = _direction2(g[:, cols].reshape(s_count, m, 2), block_data)
            else:
                u, vh = block_data
                values = (u * g[:, cols].reshape(s_count, m, 1, n)) @ vh
            out = _put(out, idx, values.reshape(s_count, -1))
        return out

    def duality(self, z: np.ndarray, r: float, scale):
        """Per-row power sums S and duality directions psi_r(y) scale(S) of the rows y of z, 1 <= r <= inf.

        S = ||y||_r^r = sum w s^r for finite r; for r = inf, where psi_inf(y)
        is 1 on the row's largest singular values, S = sum w g is the L_1
        norm of psi_inf(y).  So for every r > 1, S^(1/r') is the L_r' norm of
        psi_r(y), r' = r / (r - 1).  ``scale`` maps the (S,) power sums to
        one real factor per row, which the direction is built with.  At an
        exponent where every block size has a closed form (:func:`_closed_form`,
        after :func:`_integer_exponent`) the blocks take them, with no
        spectrum; otherwise this is :meth:`spectrum` with vectors,
        :meth:`powers` and :meth:`direction`.
        """
        r = _integer_exponent(r)
        if not all(_closed_form(n, r) for n, *_ in self.groups):
            sv, data = self.spectrum(z, vectors=True)
            g = self.powers(sv, r)
            total = np.einsum("ij,j->i", g if np.isinf(r) else sv if r == 1.0 else sv * g, self.wts)
            return total, self.direction(z, g * scale(total)[:, None], data)
        total, parts = None, []
        for n, m, idx, _, w in self.groups:
            y = self._blocks(z, n, m, idx)
            sums, data = _integer_sums(n, y, r)
            part = np.einsum("ij,j->i", sums, w)
            total = part if total is None else total + part
            parts.append((y, data))
        c = scale(total)
        out = None if len(self.groups) == 1 else np.empty_like(z)
        for (n, _, idx, _, _), (y, data) in zip(self.groups, parts):
            out = _put(out, idx, _integer_direction(n, r, y, data, c).reshape(len(z), -1))
        return total, out


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
    running sum, so that its zero padding leaves its bits alone.  A row
    whose sum leaves [2^-16, 2^16] is summed again at steps scaled by 2^-e,
    e by :func:`_exponents` of its first step, the largest, and its value
    is scaled back by 2^e.
    """
    if not steps.shape[1]:
        return np.zeros(len(steps))
    if np.all(np.isinf(q)):
        return np.max(breakpoints ** (1.0 / p) * steps, axis=1)
    ratio = q / p
    increments = breakpoints**ratio
    increments[:, 1:] -= breakpoints[:, :-1] ** ratio
    with np.errstate(over="ignore"):
        total = np.cumsum(steps**q * (p / q) * increments, axis=1)[:, -1:]
    out = (total ** (1.0 / q))[:, 0]
    bad = np.flatnonzero(~((total[:, 0] >= 2.0**-16) & (total[:, 0] <= 2.0**16)))
    e = _exponents(steps[bad, 0])
    if e.any():
        pb, qb = (a[bad] if np.ndim(a) else a for a in (p, q))  # those rows' indices, or the one pair
        out[bad] = np.ldexp(_lorentz(breakpoints[bad], np.ldexp(steps[bad], -e[:, None]), pb, qb), e)
    return out


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
