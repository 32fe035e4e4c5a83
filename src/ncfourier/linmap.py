"""Complex-linear maps between block algebras in stacked coordinates.

Coordinates of an element: blocks raveled row-major in block order into a
complex vector of length D (:func:`stack_complex`).  A linear map is a
complex ``D_cod x D_dom`` matrix acting on these coordinates; every map the
package builds (Fourier transforms, Fourier and Schur multipliers) is
complex-linear.

The weighted trace inner products Re trace(y* x) on domain and codomain are
diagonal in these coordinates; :meth:`LinearMap.weighted_adjoint_matrix`
returns the adjoint with respect to them, which is what the power iteration
for norm ratios needs.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class LinearMap:
    """A complex-linear map between two block algebras in stacked coordinates."""

    domain: TracialAlgebra
    codomain: TracialAlgebra
    matrix: np.ndarray  # complex, shape (codomain.complex_dim, domain.complex_dim)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        want = (self.codomain.complex_dim, self.domain.complex_dim)
        if m.shape != want:
            raise ShapeMismatchError(
                f"matrix shape {m.shape} does not match (codomain, domain) "
                f"complex dims {want}"
            )
        object.__setattr__(self, "matrix", m)

    def apply(self, x: AlgebraElement) -> AlgebraElement:
        if not x.algebra.matches(self.domain):
            raise ShapeMismatchError(
                f"element of {x.algebra} fed to map with domain {self.domain}"
            )
        return unstack_complex(self.codomain, self.matrix @ stack_complex(x))

    def weighted_adjoint_matrix(self) -> np.ndarray:
        """Adjoint w.r.t. the weighted trace inner products: diag(1/w_d) M^H diag(w_c)."""
        wd = coordinate_weights(self.domain)
        wc = coordinate_weights(self.codomain)
        return (self.matrix * wc[:, None]).conj().T / wd[:, None]

    def compose(self, other: "LinearMap") -> "LinearMap":
        """self after other."""
        if not other.codomain.matches(self.domain):
            raise ShapeMismatchError("composition domains do not match")
        return LinearMap(other.domain, self.codomain, self.matrix @ other.matrix)

    def scaled(self, c: float) -> "LinearMap":
        return LinearMap(self.domain, self.codomain, c * self.matrix)


def identity_map(algebra: TracialAlgebra) -> LinearMap:
    return LinearMap(algebra, algebra, np.eye(algebra.complex_dim))
