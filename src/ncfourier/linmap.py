"""Complex-linear maps between block algebras in stacked coordinates.

Coordinates of an element: blocks raveled row-major in block order into a
complex vector of length D (:func:`stack_complex`).  A linear map acts on
these coordinates as a complex ``D_cod x D_dom`` matrix; every map the
package builds (Fourier transforms, Fourier and Schur multipliers) is
complex-linear.

A map holds one of two forms.  A dense map holds its matrix.  A map that is
diagonal in a known basis (:func:`diagonal_map`) holds only its D values
and the basis: either the stacked coordinates themselves (Schur
multipliers) or the DFT over the factor orders of a finite abelian group,
so that a product with it is ``values * z`` or ``fft(values * ifft(z))``
(:func:`diagonal_product`, after Cooley and Tukey, 1965).  The DFT basis is
the transform of the pairs from ``fourier.build_finite_abelian``, which
apply it with the same :func:`from_basis` and :func:`to_basis`, so their
Fourier multipliers are diagonal in it.  Its ``matrix`` is derived on
first use.

The weighted trace inner products Re trace(y* x) on domain and codomain are
diagonal in these coordinates; :meth:`LinearMap.weighted_adjoint_matrix`
returns the adjoint with respect to them, which is what the power iteration
for norm ratios needs.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import numpy as np

from .algebra import AlgebraElement, TracialAlgebra
from .errors import ShapeMismatchError

__all__ = [
    "stack_complex",
    "unstack_complex",
    "coordinate_weights",
    "LinearMap",
    "identity_map",
]


def stack_complex(x: AlgebraElement) -> np.ndarray:
    """Complex coordinate vector of an element (blocks raveled row-major)."""
    return np.concatenate([b.ravel() for b in x.blocks])


def unstack_complex(algebra: TracialAlgebra, vec: np.ndarray) -> AlgebraElement:
    """Inverse of :func:`stack_complex`."""
    vec = np.asarray(vec, dtype=complex).ravel()
    if vec.size != algebra.complex_dim:
        raise ShapeMismatchError(
            f"vector has {vec.size} complex coordinates, algebra has "
            f"{algebra.complex_dim}"
        )
    blocks = []
    for k, n in enumerate(algebra.dims):
        o = algebra.block_offset(k)
        blocks.append(vec[o : o + n * n].reshape(n, n))
    return AlgebraElement(algebra, blocks)


def coordinate_weights(algebra: TracialAlgebra) -> np.ndarray:
    """Per-coordinate weights of the trace inner product Re trace(y* x).

    Entry (i,j) of block k has weight w_k, so
    ``<x, y> = Re sum weights * conj(coords(y)) * coords(x)``.
    """
    return np.repeat(algebra.weights, np.square(algebra.dims))


class Diagonal(NamedTuple):
    """The values of a map diagonal in a known basis, and the basis.

    ``orders`` is None for the stacked coordinates, or the factor orders
    (o_1, ..., o_d) for the DFT over Z_{o_1} x ... x Z_{o_d}, whose
    elements are the coordinates in row-major order.
    """

    values: np.ndarray  # complex, shape (D,)
    orders: tuple[int, ...] | None


def _dft(orders: tuple[int, ...], rows: np.ndarray, transform) -> np.ndarray:
    """``transform`` (np.fft.fft or ifft) along each factor axis of the rows, read as arrays of shape ``orders``."""
    z = rows.reshape(rows.shape[:-1] + orders)
    for axis in range(-len(orders), 0):
        z = transform(z, axis=axis)
    return z.reshape(rows.shape)


def from_basis(orders: tuple[int, ...] | None, rows: np.ndarray) -> np.ndarray:
    """Stacked coordinates of the rows given in the basis ``orders``: B u, with B = F the DFT."""
    return rows if orders is None else _dft(orders, rows, np.fft.fft)


def to_basis(orders: tuple[int, ...] | None, rows: np.ndarray) -> np.ndarray:
    """The rows in the basis ``orders``: B^{-1} z, the inverse of :func:`from_basis`."""
    return rows if orders is None else _dft(orders, rows, np.fft.ifft)


def diagonal_product(orders: tuple[int, ...] | None, values: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Images of the rows (S, D) under the map with these diagonal values in the basis ``orders``.

    ``values * rows`` in the stacked coordinates, and
    ``fft(values * ifft(rows))`` with the d-dimensional DFT of each row
    otherwise.  ``values`` is one row (D,) for every row, or one row per
    row.  Each row is transformed on its own, so its image has the same
    bits in any batch.
    """
    if orders is None:
        return values * rows
    z = to_basis(orders, rows)
    z *= values
    return from_basis(orders, z)


class LinearMap:
    """A complex-linear map between two block algebras in stacked coordinates.

    Built from its matrix, complex of shape (codomain.complex_dim,
    domain.complex_dim).  Maps built by :func:`diagonal_map` carry their
    :class:`Diagonal` form in ``diagonal`` (None for dense maps) and derive
    ``matrix`` when it is first read.
    """

    diagonal: Diagonal | None = None

    def __init__(self, domain: TracialAlgebra, codomain: TracialAlgebra, matrix: np.ndarray):
        m = np.asarray(matrix, dtype=complex)
        want = (codomain.complex_dim, domain.complex_dim)
        if m.shape != want:
            raise ShapeMismatchError(
                f"matrix shape {m.shape} does not match (codomain, domain) "
                f"complex dims {want}"
            )
        self.domain = domain
        self.codomain = codomain
        self.matrix = m

    @cached_property
    def matrix(self) -> np.ndarray:
        values, orders = self.diagonal
        return np.ascontiguousarray(diagonal_product(orders, values, np.eye(len(values), dtype=complex)).T)

    def apply(self, x: AlgebraElement) -> AlgebraElement:
        if not x.algebra.matches(self.domain):
            raise ShapeMismatchError(
                f"element of {x.algebra} fed to map with domain {self.domain}"
            )
        if self.diagonal is None:
            return unstack_complex(self.codomain, self.matrix @ stack_complex(x))
        values, orders = self.diagonal
        return unstack_complex(self.codomain, diagonal_product(orders, values, stack_complex(x)[None])[0])

    def weighted_adjoint_matrix(self) -> np.ndarray:
        """Adjoint w.r.t. the weighted trace inner products: diag(1/w_d) M^H diag(w_c)."""
        wd = coordinate_weights(self.domain)
        wc = coordinate_weights(self.codomain)
        return (self.matrix * wc[:, None]).conj().T / wd[:, None]

    def compose(self, other: "LinearMap") -> "LinearMap":
        """self after other."""
        if not other.codomain.matches(self.domain):
            raise ShapeMismatchError("composition domains do not match")
        if self.diagonal is not None and other.diagonal is not None and self.diagonal.orders == other.diagonal.orders:
            return diagonal_map(self.domain, self.diagonal.values * other.diagonal.values, self.diagonal.orders)
        return LinearMap(other.domain, self.codomain, self.matrix @ other.matrix)

    def scaled(self, c: float) -> "LinearMap":
        if self.diagonal is not None:
            return diagonal_map(self.domain, c * self.diagonal.values, self.diagonal.orders)
        return LinearMap(self.domain, self.codomain, c * self.matrix)


def diagonal_map(algebra: TracialAlgebra, values: np.ndarray, orders: tuple[int, ...] | None = None) -> LinearMap:
    """The map on ``algebra`` diagonal in the basis ``orders`` (see :class:`Diagonal`) with these values.

    The algebra's coordinate weights must be uniform: then the DFT basis is
    orthogonal for the weighted inner product, and the weighted adjoint is
    the map with the conjugate values.
    """
    values = np.asarray(values, dtype=complex).ravel()
    if values.size != algebra.complex_dim or (orders is not None and int(np.prod(orders)) != values.size):
        raise ShapeMismatchError(
            f"{values.size} diagonal values for an algebra of {algebra.complex_dim} "
            f"coordinates in the basis {orders}"
        )
    if len(set(algebra.weights)) > 1:
        raise ShapeMismatchError("diagonal maps need uniform coordinate weights")
    m = LinearMap.__new__(LinearMap)
    m.domain = m.codomain = algebra
    m.diagonal = Diagonal(values, None if orders is None else tuple(int(o) for o in orders))
    return m


def identity_map(algebra: TracialAlgebra) -> LinearMap:
    return LinearMap(algebra, algebra, np.eye(algebra.complex_dim))
