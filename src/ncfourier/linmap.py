"""Complex-linear maps between block algebras in stacked coordinates.

An element is its row ``x.row`` of D complex coordinates: its blocks
raveled row-major, in block order (see ``algebra``).  A linear map acts on
these coordinates as a complex ``D_cod x D_dom`` matrix; every map the
package builds (Fourier transforms, Fourier and Schur multipliers) is
complex-linear.

A map holds one of two forms.  A dense map holds its matrix.  A multiplier
holds its symbol: a map diagonal in a unitary basis B (:func:`diagonal_map`)
keeps only its D values and B, a transform object with ``forward`` and
``inverse`` on stacked rows, so that a product with it is
``B(B^{-1} z * values)`` (:func:`diagonal_product`).  The bases are the
transforms of the Fourier pairs (``fourier.DFT`` by FFT, ``DenseTransform``
by its matrix) and the identity for Schur maps.  Its ``matrix`` is derived
on first use.

The weighted trace inner products Re trace(y* x) on domain and codomain are
diagonal in these coordinates (:func:`coordinate_weights`); the power
iteration for norm ratios uses the adjoint with respect to them.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import numpy as np

from .algebra import AlgebraElement, TracialAlgebra
from .errors import ShapeMismatchError

__all__ = [
    "coordinate_weights",
    "LinearMap",
]


def coordinate_weights(algebra: TracialAlgebra) -> np.ndarray:
    """Per-coordinate weights of the trace inner product Re trace(y* x).

    Entry (i,j) of block k has weight w_k, so
    ``<x, y> = Re sum weights * conj(coords(y)) * coords(x)``.
    """
    return np.repeat(algebra.weights, np.square(algebra.dims))


class Diagonal(NamedTuple):
    """The values of a map diagonal in a known basis, and the basis.

    The basis is a transform B with ``forward`` (B u) and ``inverse``
    (B^{-1} z) on stacks (S, D) of rows and its source dimension ``dim``,
    unitary from L2 of a commutative algebra of ``dim`` points onto L2 of
    the map's algebra: the transform of a Fourier pair, or the identity for
    Schur maps.
    """

    values: np.ndarray  # complex, shape (D,)
    basis: object


def diagonal_product(values: np.ndarray, basis, rows: np.ndarray) -> np.ndarray:
    """Images of the rows (S, D) under the map with these diagonal values in ``basis``: B (B^{-1} rows * values).

    ``values`` is one row (D,) for every row, or one row per row.  A basis
    maps each row on its own, so a row's image has the same bits in any
    batch.  The identity basis skips its transforms and multiplies
    ``values * rows``, the order of the entrywise Schur product (the
    operands of a complex product do not commute bit for bit).
    """
    if basis.kind == "identity":
        return values * rows
    return basis.forward(basis.inverse(rows) * values)


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
        return np.ascontiguousarray(diagonal_product(*self.diagonal, np.eye(self.domain.complex_dim, dtype=complex)).T)

    def apply(self, x: AlgebraElement) -> AlgebraElement:
        if not x.algebra.matches(self.domain):
            raise ShapeMismatchError(
                f"element of {x.algebra} fed to map with domain {self.domain}"
            )
        if self.diagonal is None:
            return AlgebraElement.from_row(self.codomain, self.matrix @ x.row)
        return AlgebraElement.from_row(self.codomain, diagonal_product(*self.diagonal, x.row[None])[0])


def diagonal_map(algebra: TracialAlgebra, values: np.ndarray, basis) -> LinearMap:
    """The map on ``algebra`` diagonal in ``basis`` (see :class:`Diagonal`) with these values.

    The basis is unitary from a commutative algebra, so the weighted adjoint
    of the map is the map with the conjugate values.
    """
    values = np.asarray(values, dtype=complex).ravel()
    if not values.size == basis.dim == algebra.complex_dim:
        raise ShapeMismatchError(
            f"{values.size} diagonal values for an algebra of {algebra.complex_dim} "
            f"coordinates in a basis of {basis.dim}"
        )
    m = LinearMap.__new__(LinearMap)
    m.domain = m.codomain = algebra
    m.diagonal = Diagonal(values, basis)
    return m
