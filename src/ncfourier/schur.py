"""Schur (entrywise) multipliers on Schatten classes.

A symbol is an n x n complex matrix ``a``; the Schur multiplier sends
``x -> a * x`` entrywise.  The carrying algebra is the single matrix block
M_n with weight 1, so L_p norms are plain Schatten norms and the multiplier
is diagonal in stacked coordinates: it is held as its n^2 values
(``linmap.diagonal_map``), and a product with it is entrywise.

Symbols are also read as sequences of n^2 entries with counting measure;
:func:`symbol_sequence_norm` evaluates their little-Lorentz norms through
the same step-function machinery used for spectra.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import TracialAlgebra
from .errors import ParameterError
from .linmap import LinearMap, diagonal_map
from .lorentz import decreasing_step_function, lorentz_norm_of_step

__all__ = [
    "SchurSymbol",
    "schatten_algebra",
    "schur_map",
    "symbol_sequence_norm",
]


def schatten_algebra(n: int) -> TracialAlgebra:
    """M_n with the unnormalized trace: L_p is the Schatten p-class."""
    if n < 1:
        raise ParameterError(f"matrix size must be positive, got {n}")
    return TracialAlgebra([n], [1.0])


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
    """The map x -> a * x (entrywise) on M_n, diagonal in stacked coordinates."""
    sym = _as_symbol(a)
    return diagonal_map(schatten_algebra(sym.n), sym.matrix.ravel())


def symbol_sequence_norm(a, p: float, q: float | None = None) -> float:
    """Little-Lorentz (p,q) norm of the entries of a symbol under counting measure.

    ``q`` defaults to ``p`` (the plain entrywise p-norm); ``q = inf`` gives
    the weak norm sup_k k^(1/p) a*_k over the decreasing rearrangement a*.
    """
    sym = _as_symbol(a)
    if q is None:
        q = p
    vals = np.abs(sym.matrix.ravel())
    mu = decreasing_step_function(vals, np.ones_like(vals))
    return lorentz_norm_of_step(mu, p, q)
