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

Both directions are stored as explicit complex matrices on stacked
coordinates, so a transform is one matvec.  Multipliers are built by
conjugating a pointwise (left-multiplication) action on the source through
the transform: :func:`multiplier_map`.  On a pair from
:func:`build_finite_abelian` the transform is the DFT over the factor
orders, so a multiplier is diagonal in that basis and is built as its
symbol values, applied by FFT (``linmap.diagonal_map``); every other pair,
a fault-injected one included, gives the dense matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .algebra import AlgebraElement, TracialAlgebra
from .errors import ParameterError, ShapeMismatchError
from .groups import FiniteGroupData, validate_group_data
from .linmap import LinearMap, diagonal_map, stack_complex, unstack_complex

__all__ = [
    "QuantumGroupPair",
    "build_finite_abelian",
    "build_group_vna",
    "fourier",
    "inverse_fourier",
    "multiplier_map",
    "perturb_fourier_matrix",
]


@dataclass(frozen=True)
class QuantumGroupPair:
    """A source algebra, its Fourier-dual algebra, and the transform between them.

    ``fourier_matrix`` maps stacked source coordinates to stacked dual
    coordinates; ``inverse_matrix`` is its inverse, stored explicitly so a
    deliberately corrupted transform (for fault-injection runs) keeps a
    consistent object shape while failing the round-trip checks.
    ``identity_index`` is the source coordinate of the group identity, where
    point masses with known transforms sit.  ``dft_orders`` marks a pair
    whose ``fourier_matrix`` is the DFT over these factor orders; only
    :func:`build_finite_abelian` sets it, and ``dataclasses.replace`` clears
    it, so a pair with a replaced transform is never taken for the DFT.
    """

    name: str
    source: TracialAlgebra
    dual: TracialAlgebra
    fourier_matrix: np.ndarray
    inverse_matrix: np.ndarray
    identity_index: int = 0
    dft_orders: tuple[int, ...] | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        f = np.asarray(self.fourier_matrix, dtype=complex)
        finv = np.asarray(self.inverse_matrix, dtype=complex)
        want = (self.dual.complex_dim, self.source.complex_dim)
        if f.shape != want:
            raise ShapeMismatchError(
                f"fourier matrix shape {f.shape}, expected {want}"
            )
        if finv.shape != want[::-1]:
            raise ShapeMismatchError(
                f"inverse matrix shape {finv.shape}, expected {want[::-1]}"
            )
        object.__setattr__(self, "fourier_matrix", f)
        object.__setattr__(self, "inverse_matrix", finv)

    @property
    def size(self) -> float:
        """Instance size used for scaling ladders: total source weight."""
        return self.source.total_weight


def _checked_pair(name, source, dual, fmat, identity_index=0) -> QuantumGroupPair:
    fmat = np.asarray(fmat, dtype=complex)
    if fmat.shape[0] != fmat.shape[1]:
        raise ShapeMismatchError(
            f"transform must be square on stacked coordinates, got {fmat.shape}"
        )
    # fail fast on a structurally broken construction; the analytic
    # invariants (isometry, contraction) are exercised by the checks layer
    finv = np.linalg.inv(fmat)
    return QuantumGroupPair(
        name=name,
        source=source,
        dual=dual,
        fourier_matrix=fmat,
        inverse_matrix=finv,
        identity_index=identity_index,
    )


def build_finite_abelian(orders: Sequence[int], name: str | None = None) -> QuantumGroupPair:
    """Pair for the finite abelian group Z_{o_1} x ... x Z_{o_d}."""
    orders = tuple(int(o) for o in orders)
    if len(orders) == 0 or any(o < 1 for o in orders):
        raise ParameterError(f"factor orders must be positive integers, got {orders}")
    n = int(np.prod(orders))
    source = TracialAlgebra([1] * n, [1.0] * n)
    dual = TracialAlgebra([1] * n, [1.0 / n] * n)
    # element g <-> multi-index (g_1, ..., g_d) in row-major order; same for
    # characters k.  chi_k(g) = exp(2 pi i sum_j k_j g_j / o_j).
    grids = np.stack(
        np.meshgrid(*[np.arange(o) for o in orders], indexing="ij"), axis=-1
    ).reshape(n, len(orders))
    phase = np.zeros((n, n))
    for j, o in enumerate(orders):
        phase += np.outer(grids[:, j], grids[:, j]) * (1.0 / o)
    fmat = np.exp(-2j * np.pi * phase)  # F[k, g] = conj(chi_k(g))
    if name is None:
        name = "x".join(f"Z{o}" for o in orders)
    pair = _checked_pair(name, source, dual, fmat, identity_index=0)
    object.__setattr__(pair, "dft_orders", orders)
    return pair


def build_group_vna(data: FiniteGroupData, name: str | None = None) -> QuantumGroupPair:
    """Pair for the operator algebra of a finite group given its irrep data."""
    validate_group_data(data)
    n = data.order
    source = TracialAlgebra([1] * n, [1.0] * n)
    dims = data.irrep_dims
    dual = TracialAlgebra(list(dims), [d / n for d in dims])
    # column g of the transform is the stacked blocks (pi(g))_pi
    fmat = np.concatenate([rep.reshape(n, -1).T for rep in data.irreps])
    return _checked_pair(
        name or data.name, source, dual, fmat, identity_index=data.identity
    )


def fourier(pair: QuantumGroupPair, x: AlgebraElement) -> AlgebraElement:
    """Transform a source element to the dual algebra."""
    if not x.algebra.matches(pair.source):
        raise ShapeMismatchError("fourier: element does not live on the source algebra")
    return unstack_complex(pair.dual, pair.fourier_matrix @ stack_complex(x))


def inverse_fourier(pair: QuantumGroupPair, a: AlgebraElement) -> AlgebraElement:
    """Transform a dual element back to the source algebra."""
    if not a.algebra.matches(pair.dual):
        raise ShapeMismatchError(
            "inverse_fourier: element does not live on the dual algebra"
        )
    return unstack_complex(pair.source, pair.inverse_matrix @ stack_complex(a))


def multiplier_map(pair: QuantumGroupPair, symbol: AlgebraElement) -> LinearMap:
    """The dual-side map a -> F(symbol * F^{-1}(a)) as a LinearMap.

    The symbol lives on the source algebra; for commutative sources this is
    the pointwise multiplier with those symbol values.  On a DFT pair (see
    :class:`QuantumGroupPair`) the map is diagonal in the DFT basis with the
    symbol's values; otherwise it is the dense matrix F (symbol) F^{-1}.
    """
    if not symbol.algebra.matches(pair.source):
        raise ShapeMismatchError("multiplier symbol must live on the source algebra")
    return _multiplier_map(pair, stack_complex(symbol))


def _multiplier_map(pair: QuantumGroupPair, values: np.ndarray) -> LinearMap:
    """:func:`multiplier_map` of the symbol with stacked coordinates ``values``, shape (D,)."""
    if pair.dft_orders is not None:
        return diagonal_map(pair.dual, values, pair.dft_orders)
    # left multiplication by the symbol's block x_k maps the rows of F^{-1}
    # that hold source block k, read as n_k x (n_k D) matrices, to x_k times
    # them (a row scaling for 1x1 blocks)
    alg = pair.source
    rows = np.empty_like(pair.inverse_matrix)
    for k, n in enumerate(alg.dims):
        o = alg.block_offset(k)
        block_rows = pair.inverse_matrix[o : o + n * n]
        rows[o : o + n * n] = (values[o : o + n * n].reshape(n, n) @ block_rows.reshape(n, -1)).reshape(block_rows.shape)
    return LinearMap(pair.dual, pair.dual, pair.fourier_matrix @ rows)


def perturb_fourier_matrix(pair: QuantumGroupPair, scale: float) -> QuantumGroupPair:
    """Deliberately corrupt the transform (for fault-injection campaigns).

    The first row of the Fourier matrix is multiplied by ``1 + scale`` while
    the stored inverse is left untouched, so both the unitarity and the
    round-trip invariants fail by about ``scale``.  The copy is no DFT
    pair (``replace`` clears ``dft_orders``), so its multipliers are built
    from the corrupted matrix and carry the fault.
    """
    f = pair.fourier_matrix.copy()
    f[0, :] *= 1.0 + scale
    return replace(pair, name=f"{pair.name}!fault", fourier_matrix=f)
