"""Linear maps between block algebras in explicit real coordinates.

Coordinates of an element: blocks raveled row-major in block order into a
complex vector of length D, then split into a real vector of length 2D as
``[Re; Im]``.  A linear map is a real ``(2 D_cod) x (2 D_dom)`` matrix acting
on these coordinates, which accommodates maps that are only real-linear
(conjugations, real parts); complex-linear maps embed via
:meth:`LinearMap.from_complex`.

The weighted trace inner products on domain and codomain are diagonal in
these coordinates; :meth:`LinearMap.weighted_adjoint_matrix` returns the
adjoint with respect to them, which is what gradient ascent on norm ratios
needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraElement, TracialAlgebra
from .errors import ShapeMismatchError

__all__ = [
    "stack_complex",
    "unstack_complex",
    "real_from_complex",
    "complex_from_real",
    "real_matrix_from_complex",
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


def real_from_complex(vec: np.ndarray) -> np.ndarray:
    vec = np.asarray(vec, dtype=complex)
    return np.concatenate([vec.real, vec.imag], axis=0)


def complex_from_real(vec: np.ndarray) -> np.ndarray:
    vec = np.asarray(vec, dtype=float)
    d = vec.shape[0] // 2
    return vec[:d] + 1j * vec[d:]


def real_matrix_from_complex(cmat: np.ndarray) -> np.ndarray:
    """Real representation [[Re, -Im], [Im, Re]] of a complex-linear matrix."""
    cmat = np.asarray(cmat, dtype=complex)
    re, im = cmat.real, cmat.imag
    top = np.concatenate([re, -im], axis=1)
    bot = np.concatenate([im, re], axis=1)
    return np.concatenate([top, bot], axis=0)


def coordinate_weights(algebra: TracialAlgebra) -> np.ndarray:
    """Real-coordinate weights of the trace inner product Re trace(y* x).

    Entry (i,j) of block k contributes weight w_k to both its real and
    imaginary coordinate, so ``<x, y> = sum weights * coords(x) * coords(y)``.
    """
    per_complex = np.concatenate(
        [np.full(n * n, w) for n, w in zip(algebra.dims, algebra.weights)]
    )
    return np.concatenate([per_complex, per_complex])


@dataclass(frozen=True)
class LinearMap:
    """A real-linear map between two block algebras in real coordinates."""

    domain: TracialAlgebra
    codomain: TracialAlgebra
    matrix: np.ndarray  # float, shape (codomain.real_dim, domain.real_dim)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        want = (self.codomain.real_dim, self.domain.real_dim)
        if m.shape != want:
            raise ShapeMismatchError(
                f"matrix shape {m.shape} does not match (codomain, domain) "
                f"real dims {want}"
            )
        object.__setattr__(self, "matrix", m)

    @classmethod
    def from_complex(
        cls,
        domain: TracialAlgebra,
        codomain: TracialAlgebra,
        cmat: np.ndarray,
    ) -> "LinearMap":
        cmat = np.asarray(cmat, dtype=complex)
        want = (codomain.complex_dim, domain.complex_dim)
        if cmat.shape != want:
            raise ShapeMismatchError(
                f"complex matrix shape {cmat.shape} does not match "
                f"(codomain, domain) complex dims {want}"
            )
        return cls(domain, codomain, real_matrix_from_complex(cmat))

    def apply(self, x: AlgebraElement) -> AlgebraElement:
        if not x.algebra.matches(self.domain):
            raise ShapeMismatchError(
                f"element of {x.algebra} fed to map with domain {self.domain}"
            )
        zr = self.matrix @ real_from_complex(stack_complex(x))
        return unstack_complex(self.codomain, complex_from_real(zr))

    def weighted_adjoint_matrix(self) -> np.ndarray:
        """Adjoint w.r.t. the weighted trace inner products on both sides."""
        wd = coordinate_weights(self.domain)
        wc = coordinate_weights(self.codomain)
        return (self.matrix * wc[:, None]).T / wd[:, None]

    def compose(self, other: "LinearMap") -> "LinearMap":
        """self after other."""
        if not other.codomain.matches(self.domain):
            raise ShapeMismatchError("composition domains do not match")
        return LinearMap(other.domain, self.codomain, self.matrix @ other.matrix)

    def scaled(self, c: float) -> "LinearMap":
        return LinearMap(self.domain, self.codomain, c * self.matrix)


def identity_map(algebra: TracialAlgebra) -> LinearMap:
    return LinearMap(algebra, algebra, np.eye(algebra.real_dim))
