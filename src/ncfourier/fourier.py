"""Fourier transforms between a source algebra and its dual block algebra.

Two constructions ship, both normalized so the transform is unitary from
L2(source) to L2(dual) and contractive from L1(source) to L-infinity(dual):

* :func:`build_finite_abelian` - functions on a finite abelian group
  ``Z_{o_1} x ... x Z_{o_d}`` with counting measure; the dual is again
  commutative with every weight ``1/N`` (N the group order) and the
  transform evaluates against conjugated characters,
  ``F(f)(chi) = sum_g f(g) conj(chi(g))``.

* :func:`build_group_vna` - the group operator algebra of a finite
  (generally nonabelian) group presented by its Fourier side: the source is
  functions on the group (one 1x1 block per element, weight 1, so that the
  basis delta_g plays the role of the group unitaries with
  trace(delta_g) = [g = e]), and the dual is one matrix block per
  irreducible representation pi with weight dim(pi)/|G|.  The transform is
  F(f)_pi = sum_g f(g) pi(g).

A pair holds its transform as an operator on stacked coordinates:
``pair.forward(rows)`` and ``pair.inverse(rows)`` map a stack (S, D) of rows,
each row on its own.  Abelian pairs apply the DFT by FFT both ways
(:class:`DFT`, after Cooley and Tukey, 1965) with no D x D table.  Group
pairs hold the dense forward matrix and invert it by the inversion formula
(:class:`DenseTransform`), so the round trip F^{-1} F stays independent of
the isometry.  Schur pairs (``schur.schur_pair``) use the identity.  A
multiplier F x F^{-1} is held as the symbol's values with the transform as
their basis (``linmap.diagonal_map``); only a fault-injected pair
(:func:`perturb_fourier_matrix`) or a noncommutative source gets a dense
matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .algebra import AlgebraElement, TracialAlgebra
from .errors import ParameterError, ShapeMismatchError
from .groups import FiniteGroupData, validate_group_data
from .linmap import LinearMap, coordinate_weights, diagonal_map, stack_complex, unstack_complex
from .lorentz import _block_ops

__all__ = [
    "DFT",
    "DenseTransform",
    "IdentityTransform",
    "PerturbedTransform",
    "QuantumGroupPair",
    "build_finite_abelian",
    "build_group_vna",
    "fourier",
    "inverse_fourier",
    "multiplier_map",
    "perturb_fourier_matrix",
]


@dataclass(frozen=True)
class DFT:
    """The DFT over Z_{o_1} x ... x Z_{o_d}, F[k, g] = conj(chi_k(g)), by FFT both ways.

    Elements g and characters k are multi-indices in row-major order, and
    chi_k(g) = exp(2 pi i sum_j k_j g_j / o_j).
    """

    orders: tuple[int, ...]
    kind = "dft"

    @property
    def dim(self) -> int:
        return math.prod(self.orders)

    def forward(self, rows: np.ndarray) -> np.ndarray:
        return self._along_factors(rows, np.fft.fft)

    def inverse(self, rows: np.ndarray) -> np.ndarray:
        return self._along_factors(rows, np.fft.ifft)

    def _along_factors(self, rows: np.ndarray, transform) -> np.ndarray:
        """``transform`` (np.fft.fft or ifft) along each factor axis of the rows, read as arrays of shape ``orders``."""
        z = rows.reshape(rows.shape[:-1] + self.orders)
        for axis in range(-len(self.orders), 0):
            z = transform(z, axis=axis)
        return z.reshape(rows.shape)


@dataclass(frozen=True, eq=False)
class DenseTransform:
    """A transform unitary from L2(source) to L2(dual), held as its matrix (D_dual, D_source).

    The inverse is the weighted adjoint diag(1/w_source) F^H diag(w_dual),
    with the coordinate weights of the two algebras; for a group algebra this
    is the inversion formula f(g) = sum_pi (d_pi/|G|) tr(pi(g)* F_pi).  Each
    row is one vector-matrix product, so its bits do not depend on the batch.
    """

    matrix: np.ndarray
    source_weights: np.ndarray
    dual_weights: np.ndarray
    kind = "dense"

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def forward(self, rows: np.ndarray) -> np.ndarray:
        return (rows[..., None, :] @ self.matrix.T)[..., 0, :]

    def inverse(self, rows: np.ndarray) -> np.ndarray:
        return ((rows * self.dual_weights)[..., None, :] @ self.matrix.conj())[..., 0, :] / self.source_weights


@dataclass(frozen=True)
class IdentityTransform:
    """The identity on ``dim`` stacked coordinates, both ways."""

    dim: int
    kind = "identity"

    def forward(self, rows: np.ndarray) -> np.ndarray:
        return rows

    def inverse(self, rows: np.ndarray) -> np.ndarray:
        return rows


@dataclass(frozen=True)
class PerturbedTransform:
    """``base`` with output coordinate 0 of the forward transform scaled by ``1 + scale``, and ``base``'s inverse."""

    base: DFT | DenseTransform | IdentityTransform
    scale: float
    kind = "perturbed"

    def forward(self, rows: np.ndarray) -> np.ndarray:
        out = self.base.forward(rows).copy()  # the identity returns its input
        out[..., 0] *= 1.0 + self.scale
        return out

    def inverse(self, rows: np.ndarray) -> np.ndarray:
        return self.base.inverse(rows)


@dataclass(frozen=True)
class QuantumGroupPair:
    """A source algebra, its Fourier-dual algebra, and the transform between them.

    ``transform`` maps stacked source coordinates to stacked dual ones
    (``forward``) and back (``inverse``), on stacks (S, D) of rows; its
    ``kind`` ("dft", "dense", "identity" or "perturbed") and the source's
    commutativity decide the form of the pair's multipliers.
    ``identity_index`` is the source coordinate of the group identity, where
    point masses with known transforms sit.
    """

    name: str
    source: TracialAlgebra
    dual: TracialAlgebra
    transform: DFT | DenseTransform | IdentityTransform | PerturbedTransform
    identity_index: int = 0

    def __post_init__(self):
        if self.source.complex_dim != self.dual.complex_dim:
            raise ShapeMismatchError(
                f"transform must be square on stacked coordinates, got source dimension "
                f"{self.source.complex_dim} and dual dimension {self.dual.complex_dim}"
            )

    @property
    def size(self) -> float:
        """Instance size used for scaling ladders: total source weight."""
        return self.source.total_weight

    def forward(self, rows: np.ndarray) -> np.ndarray:
        """Stacked dual coordinates of the transforms of the source rows (S, D)."""
        return self.transform.forward(rows)

    def inverse(self, rows: np.ndarray) -> np.ndarray:
        """Stacked source coordinates of the inverse transforms of the dual rows (S, D)."""
        return self.transform.inverse(rows)


def build_finite_abelian(orders: Sequence[int], name: str | None = None) -> QuantumGroupPair:
    """Pair for the finite abelian group Z_{o_1} x ... x Z_{o_d}."""
    orders = tuple(int(o) for o in orders)
    if len(orders) == 0 or any(o < 1 for o in orders):
        raise ParameterError(f"factor orders must be positive integers, got {orders}")
    n = int(np.prod(orders))
    source = TracialAlgebra([1] * n, [1.0] * n)
    dual = TracialAlgebra([1] * n, [1.0 / n] * n)
    if name is None:
        name = "x".join(f"Z{o}" for o in orders)
    return QuantumGroupPair(name, source, dual, DFT(orders))


def build_group_vna(data: FiniteGroupData, name: str | None = None) -> QuantumGroupPair:
    """Pair for the operator algebra of a finite group given its irrep data."""
    validate_group_data(data)
    n = data.order
    source = TracialAlgebra([1] * n, [1.0] * n)
    dims = data.irrep_dims
    dual = TracialAlgebra(list(dims), [d / n for d in dims])
    # column g of the transform is the stacked blocks (pi(g))_pi
    fmat = np.concatenate([rep.reshape(n, -1).T for rep in data.irreps]).astype(complex)
    transform = DenseTransform(fmat, coordinate_weights(source), coordinate_weights(dual))
    return QuantumGroupPair(name or data.name, source, dual, transform, identity_index=data.identity)


def fourier(pair: QuantumGroupPair, x: AlgebraElement) -> AlgebraElement:
    """Transform a source element to the dual algebra."""
    if not x.algebra.matches(pair.source):
        raise ShapeMismatchError("fourier: element does not live on the source algebra")
    return unstack_complex(pair.dual, pair.forward(stack_complex(x)[None])[0])


def inverse_fourier(pair: QuantumGroupPair, a: AlgebraElement) -> AlgebraElement:
    """Transform a dual element back to the source algebra."""
    if not a.algebra.matches(pair.dual):
        raise ShapeMismatchError(
            "inverse_fourier: element does not live on the dual algebra"
        )
    return unstack_complex(pair.source, pair.inverse(stack_complex(a)[None])[0])


def multiplier_map(pair: QuantumGroupPair, symbol: AlgebraElement) -> LinearMap:
    """The dual-side map a -> F(symbol * F^{-1}(a)) as a LinearMap.

    The symbol lives on the source algebra; for commutative sources this is
    the pointwise multiplier with those symbol values, held as the values in
    the basis F when F is unitary (every transform but a fault-injected
    one).  Otherwise it is the dense matrix F (symbol) F^{-1}.
    """
    if not symbol.algebra.matches(pair.source):
        raise ShapeMismatchError("multiplier symbol must live on the source algebra")
    return _multiplier_map(pair, stack_complex(symbol))


def _multiplier_map(pair: QuantumGroupPair, values: np.ndarray) -> LinearMap:
    """:func:`multiplier_map` of the symbol with stacked coordinates ``values``, shape (D,)."""
    if pair.source.is_commutative and pair.transform.kind != "perturbed":
        return diagonal_map(pair.dual, values, pair.transform)
    # column j is F(symbol F^{-1} e_j), the symbol acting by left multiplication
    inverses = pair.inverse(np.eye(pair.dual.complex_dim, dtype=complex))
    images = _block_ops(pair.source).product(np.broadcast_to(values, inverses.shape), inverses)
    return LinearMap(pair.dual, pair.dual, pair.forward(images).T)


def perturb_fourier_matrix(pair: QuantumGroupPair, scale: float) -> QuantumGroupPair:
    """Deliberately corrupt the transform (for fault-injection campaigns).

    The forward transform's output coordinate 0 is multiplied by
    ``1 + scale`` while the inverse is left untouched, so both the unitarity
    and the round-trip invariants fail by about ``scale``.  The copy's
    transform is of kind "perturbed", so its multipliers are dense matrices
    built from the corrupted forward transform, and carry the fault.
    """
    return replace(pair, name=f"{pair.name}!fault", transform=PerturbedTransform(pair.transform, float(scale)))
