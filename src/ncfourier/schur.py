"""Schur (entrywise) multipliers on Schatten classes.

A symbol is an n x n complex matrix ``a``; the Schur multiplier sends
``x -> a * x`` entrywise on M_n with weight 1, whose L_p norms are plain
Schatten norms.  It is the Fourier multiplier of the entries of ``a`` on
:func:`schur_pair`, whose transform is the identity (unitary: the
Hilbert-Schmidt norm is the l_2 norm of the entries).  So, like every
multiplier, it is held as its n^2 values, and a product with it is
entrywise.  :func:`symbol_sequence_norm` reads the entries as a sequence
under counting measure, the pair's source.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .algebra import TracialAlgebra
from .errors import ParameterError
from .fourier import IdentityTransform, QuantumGroupPair, _multiplier_map
from .linmap import LinearMap
from .lorentz import lorentz_norms

__all__ = [
    "SchurSymbol",
    "schatten_algebra",
    "schur_map",
    "schur_pair",
    "symbol_sequence_norm",
]


def schatten_algebra(n: int) -> TracialAlgebra:
    """M_n with the unnormalized trace: L_p is the Schatten p-class."""
    if n < 1:
        raise ParameterError(f"matrix size must be positive, got {n}")
    return TracialAlgebra([n], [1.0])


@functools.lru_cache(maxsize=64)
def schur_pair(n: int) -> QuantumGroupPair:
    """The pair "M<n>" whose multipliers are the Schur multipliers on M_n.

    Source: the n^2 entries in row-major order, points of weight 1.  Dual:
    :func:`schatten_algebra`.  Transform: the identity on stacked coordinates.
    The pair is frozen, so one is built per size and shared by every call.
    """
    dual = schatten_algebra(n)
    return QuantumGroupPair(f"M{n}", TracialAlgebra([1] * (n * n), [1.0] * (n * n)), dual, IdentityTransform(n * n))


@dataclass(frozen=True)
class SchurSymbol:
    """An entrywise multiplier symbol: a finite complex matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.matrix, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise ParameterError(f"symbol must be a square matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a.view(float))):
            raise ParameterError("symbol entries must be finite")
        object.__setattr__(self, "matrix", a)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def _as_symbol(a) -> SchurSymbol:
    return a if isinstance(a, SchurSymbol) else SchurSymbol(np.asarray(a))


def schur_map(a) -> LinearMap:
    """The map x -> a * x (entrywise) on M_n: the multiplier of the entries of ``a`` on :func:`schur_pair`."""
    sym = _as_symbol(a)
    return _multiplier_map(schur_pair(sym.n), sym.matrix.ravel())


def symbol_sequence_norm(a, p: float, q: float | None = None) -> float:
    """Little-Lorentz (p,q) norm of the entries of a symbol under counting measure.

    ``q`` defaults to ``p`` (the plain entrywise p-norm); ``q = inf`` gives
    the weak norm sup_k k^(1/p) a*_k over the decreasing rearrangement a*.
    It is ``lorentz_norms`` on the source of :func:`schur_pair`.
    """
    sym = _as_symbol(a)
    return float(lorentz_norms(schur_pair(sym.n).source, sym.matrix.ravel()[None], p, p if q is None else q)[0])
