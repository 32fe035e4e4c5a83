"""Weighted block-matrix model of a finite tracial algebra.

The objects here are finite direct sums of complex matrix blocks

    A = M_{n_1} ⊕ M_{n_2} ⊕ ... ⊕ M_{n_m}

carried by a :class:`TracialAlgebra` together with strictly positive block
weights ``w_1, ..., w_m``.  The trace of an element ``x = (x_1, ..., x_m)``
is the weighted sum of matrix traces

    trace(x) = sum_k w_k * Tr(x_k),

which is positive, faithful and tracial.  Two degenerate shapes cover the
classical cases: all blocks 1x1 gives functions on a finite set with a
weighted counting measure, and a single block with weight 1 gives plain
matrices with the unnormalized trace.  Mixed shapes are what the Fourier
duals of nonabelian groups look like, and everything downstream (spectral
step functions, Lorentz functionals, operator-norm estimation) is written
against this one model.

An element is one complex row of length ``complex_dim`` = sum_k n_k^2, its
stacked coordinates: the blocks raveled row-major, in block order, the
layout in which every kernel of the package measures and maps elements.
The row is its only storage; ``x.blocks`` are views of it.  Elements are
immutable by convention, with arithmetic operators working on the row:
``x * y`` is blockwise matrix multiplication, ``x + y`` addition, and
scalars act on every coordinate.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import ParameterError, ShapeMismatchError, NumericsError

__all__ = [
    "TracialAlgebra",
    "AlgebraElement",
    "trace",
    "modulus",
    "random_element",
    "random_row",
    "RANDOM_ENSEMBLES",
]

# Eigenvalues of x*x more negative than this (relative to the largest one)
# indicate a bug rather than roundoff; anything above is clamped to zero.
_PSD_CLAMP = -1e-12


@dataclass(frozen=True)
class TracialAlgebra:
    """Direct sum of matrix blocks with strictly positive trace weights.

    Parameters
    ----------
    dims:
        Block sizes ``(n_1, ..., n_m)``, each a positive integer.
    weights:
        Trace weights ``(w_1, ..., w_m)``, each strictly positive and finite.
    """

    dims: tuple[int, ...]
    weights: tuple[float, ...]

    def __init__(self, dims: Sequence[int], weights: Sequence[float]):
        dims = tuple(int(n) for n in dims)
        weights = tuple(float(w) for w in weights)
        if len(dims) == 0:
            raise ParameterError("algebra needs at least one block")
        if len(dims) != len(weights):
            raise ParameterError(
                f"{len(dims)} block dims but {len(weights)} weights"
            )
        if any(n < 1 for n in dims):
            raise ParameterError(f"block dims must be positive, got {dims}")
        if not all(math.isfinite(w) and w > 0 for w in weights):
            raise ParameterError(
                f"trace weights must be strictly positive and finite, got {weights}"
            )
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "weights", weights)
        # offsets of each block inside the stacked complex coordinate vector
        offsets = tuple(itertools.accumulate((n * n for n in dims), initial=0))
        object.__setattr__(self, "_offsets", offsets)

    @property
    def num_blocks(self) -> int:
        return len(self.dims)

    @property
    def complex_dim(self) -> int:
        """Number of complex coordinates, sum of n_k^2."""
        return self._offsets[-1]

    @property
    def real_dim(self) -> int:
        """Number of real coordinates, twice :attr:`complex_dim`."""
        return 2 * self.complex_dim

    @property
    def total_weight(self) -> float:
        """trace(1), the total mass of the trace."""
        return float(sum(w * n for w, n in zip(self.weights, self.dims)))

    @property
    def is_commutative(self) -> bool:
        return all(n == 1 for n in self.dims)

    def block_offset(self, k: int) -> int:
        return self._offsets[k]

    def matches(self, other: "TracialAlgebra") -> bool:
        """Same block structure and the same trace weights, up to relative tolerance 1e-5."""
        if self is other:
            return True
        if self.dims != other.dims:
            return False
        return self.weights == other.weights or bool(np.allclose(self.weights, other.weights, atol=0.0))

    def zero(self) -> "AlgebraElement":
        return AlgebraElement.from_row(self, np.zeros(self.complex_dim, dtype=complex))

    def identity(self) -> "AlgebraElement":
        row = self.zero().row
        transpose = _layout(self.dims)[2]
        row[transpose == np.arange(transpose.size)] = 1.0  # the diagonal: coordinates their own transposes
        return AlgebraElement.from_row(self, row)

    def element(self, blocks: Iterable[np.ndarray]) -> "AlgebraElement":
        return AlgebraElement(self, blocks)

    def basis_element(self, block: int, row: int = 0, col: int = 0) -> "AlgebraElement":
        """Matrix unit: 1 in entry (row, col) of one block, zero elsewhere."""
        x = self.zero()
        x.blocks[block][row, col] = 1.0
        return x

    def __repr__(self) -> str:
        return f"TracialAlgebra(dims={list(self.dims)}, weights={list(self.weights)})"


class AlgebraElement:
    """One element of a :class:`TracialAlgebra`, stored as its stacked row.

    ``row`` is the element's only storage: its complex coordinates, blocks
    raveled row-major in block order.  ``blocks`` returns fresh (n, n) views
    of it on each access, so a write through them lands in the row.
    Arithmetic works on the row, stays inside the parent algebra and raises
    :class:`ShapeMismatchError` when operands disagree.
    """

    __slots__ = ("algebra", "row")

    def __init__(self, algebra: TracialAlgebra, blocks: Iterable[np.ndarray]):
        blocks = tuple(np.asarray(b, dtype=complex) for b in blocks)
        if len(blocks) != algebra.num_blocks:
            raise ShapeMismatchError(
                f"expected {algebra.num_blocks} blocks, got {len(blocks)}"
            )
        for k, (b, n) in enumerate(zip(blocks, algebra.dims)):
            if b.shape != (n, n):
                raise ShapeMismatchError(
                    f"block {k} has shape {b.shape}, algebra expects {(n, n)}"
                )
        self.algebra = algebra
        self.row = np.concatenate([b.ravel() for b in blocks])

    @classmethod
    def from_row(cls, algebra: TracialAlgebra, row: np.ndarray) -> "AlgebraElement":
        """The element with stacked coordinates ``row``, shape (D,); a contiguous
        complex row is wrapped without a copy."""
        row = np.ascontiguousarray(row, dtype=complex)
        if row.shape != (algebra.complex_dim,):
            raise ShapeMismatchError(
                f"row of shape {row.shape} for an algebra of {algebra.complex_dim} coordinates"
            )
        x = cls.__new__(cls)
        x.algebra = algebra
        x.row = row
        return x

    @property
    def blocks(self) -> tuple[np.ndarray, ...]:
        """The blocks, as (n, n) views of the row."""
        alg = self.algebra
        return tuple(self.row[o : o + n * n].reshape(n, n) for o, n in zip(alg._offsets, alg.dims))

    # -- arithmetic ------------------------------------------------------

    def _check_same(self, other: "AlgebraElement") -> None:
        if not self.algebra.matches(other.algebra):
            raise ShapeMismatchError(
                f"elements of {self.algebra} and {other.algebra} do not combine"
            )

    def _new(self, row: np.ndarray) -> "AlgebraElement":
        return AlgebraElement.from_row(self.algebra, row)

    def __add__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._check_same(other)
        return self._new(self.row + other.row)

    def __sub__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._check_same(other)
        return self._new(self.row - other.row)

    def __neg__(self):
        return self._new(-self.row)

    def __mul__(self, other):
        """Blockwise matrix product, or scaling by a complex number.

        Every block goes through ``@``, 1x1 blocks too, in one stacked
        product per block size, which has the bits of one ``@`` per block;
        on a 1x1 block ``@`` can differ in the last bit from the elementwise
        product of ``lorentz._BlockOps.product``.
        """
        if isinstance(other, AlgebraElement):
            self._check_same(other)
            dims = np.asarray(self.algebra.dims)
            offsets = np.asarray(self.algebra._offsets[:-1])
            x, y = self.row, other.row
            out = np.empty_like(x)
            for n in np.unique(dims):
                idx = (offsets[dims == n][:, None] + np.arange(n * n)).ravel()
                out[idx] = (x[idx].reshape(-1, n, n) @ y[idx].reshape(-1, n, n)).ravel()
            return self._new(out)
        if isinstance(other, (int, float, complex, np.number)):
            return self._new(self.row * other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex, np.number)):
            return self._new(other * self.row)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, float, complex, np.number)):
            return self._new(self.row / other)
        return NotImplemented

    def adjoint(self) -> "AlgebraElement":
        """Blockwise conjugate transpose: the conjugate of each coordinate's transpose."""
        return self._new(np.conj(self.row[_layout(self.algebra.dims)[2]]))

    def copy(self) -> "AlgebraElement":
        return self._new(self.row.copy())

    def is_zero(self, tol: float = 0.0) -> bool:
        return bool(np.max(np.abs(self.row)) <= tol)

    def allclose(self, other: "AlgebraElement", rtol=1e-10, atol=1e-12) -> bool:
        self._check_same(other)
        return bool(np.allclose(self.row, other.row, rtol=rtol, atol=atol))

    def __repr__(self) -> str:
        return (
            f"AlgebraElement(dims={list(self.algebra.dims)}, "
            f"max_abs={np.max(np.abs(self.row)):.4g})"
        )


def trace(x: AlgebraElement) -> complex:
    """Weighted trace: sum_k w_k * Tr(x_k)."""
    return complex(
        sum(w * np.trace(b) for w, b in zip(x.algebra.weights, x.blocks))
    )


def modulus(x: AlgebraElement) -> AlgebraElement:
    """|x| = (x* x)^(1/2), computed blockwise.

    Each block uses the Hermitian eigendecomposition of ``x_k* x_k``;
    eigenvalues within ``-1e-12`` (relative) of zero are clamped to zero
    before the square root.  Raises :class:`NumericsError` if the
    eigensolver fails on some block.
    """
    out = []
    for k, b in enumerate(x.blocks):
        gram = b.conj().T @ b
        try:
            vals, vecs = np.linalg.eigh(gram)
        except np.linalg.LinAlgError as exc:
            raise NumericsError(
                f"eigendecomposition failed on block {k}: {exc}"
            ) from exc
        scale = max(float(vals[-1]), 0.0) if vals.size else 0.0
        floor = _PSD_CLAMP * max(scale, 1.0)
        vals = np.where(vals >= floor, np.maximum(vals, 0.0), vals)
        if np.any(vals < 0):
            raise NumericsError(
                f"block {k} Gram matrix has eigenvalue {vals.min():.3e} "
                "below the clamping window; input is not a valid element"
            )
        root = (vecs * np.sqrt(vals)) @ vecs.conj().T
        out.append(root)
    return AlgebraElement(x.algebra, out)


def _gaussian(rng: np.random.Generator, n: int) -> np.ndarray:
    """Standard complex Gaussian entries, E|z|^2 = 1."""
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)


@functools.lru_cache(maxsize=1024)
def _layout(dims: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index maps of the stacked coordinates of an algebra with blocks ``dims``.

    Returns where the real and the imaginary part of every coordinate sit in
    one draw of 2D normals, which reads the stream in the order of one
    :func:`_gaussian` call per block (the block's real parts, then its
    imaginary parts), and the coordinate of its transpose, entry (j, i) of
    its block, which the adjoint and the identity read.
    """
    sizes = np.square(dims)
    n = np.repeat(dims, sizes)
    start = np.repeat(np.cumsum(sizes) - sizes, sizes)  # the offset of each coordinate's block
    within = np.arange(n.size) - start
    real = start + np.arange(n.size)
    return real, real + n * n, start + (within % n) * n + within // n


def _random_gaussian(algebra, rng):
    real, imag, _ = _layout(algebra.dims)
    r = rng.standard_normal(2 * algebra.complex_dim)
    return (r[real] + 1j * r[imag]) / np.sqrt(2.0)


def _random_hermitian(algebra, rng):
    g = _random_gaussian(algebra, rng)
    return (g + np.conj(g)[_layout(algebra.dims)[2]]) / np.sqrt(2.0)


def _random_sparse(algebra, rng, density):
    blocks = []
    for n in algebra.dims:
        mask = rng.random((n, n)) < density
        blocks.append((_gaussian(rng, n) * mask).ravel())
    return np.concatenate(blocks)


def _random_rank_one(algebra, rng):
    # choose the block first so the draw count elsewhere never shifts it
    k = int(rng.integers(algebra.num_blocks))
    row = np.zeros(algebra.complex_dim, dtype=complex)
    n, o = algebra.dims[k], algebra.block_offset(k)
    u = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)
    v = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)
    row[o : o + n * n] = np.outer(u, v.conj()).ravel()
    return row


RANDOM_ENSEMBLES = ("gaussian", "hermitian", "sparse", "rank_one")


def random_row(
    algebra: TracialAlgebra,
    seed,
    ensemble: str = "gaussian",
    density: float = 0.25,
) -> np.ndarray:
    """The stacked complex coordinates (blocks raveled row-major, in block
    order) of :func:`random_element` with the same arguments, drawn without
    building the element.

    Ensembles: ``gaussian`` (iid standard complex Gaussian entries),
    ``hermitian`` (Gaussian symmetrized, self-adjoint), ``sparse``
    (Gaussian entries kept with probability ``density``), ``rank_one``
    (a single rank-one block, the others zero).
    """
    rng = np.random.default_rng(seed)
    if ensemble == "gaussian":
        return _random_gaussian(algebra, rng)
    if ensemble == "hermitian":
        return _random_hermitian(algebra, rng)
    if ensemble == "sparse":
        if not 0.0 < density <= 1.0:
            raise ParameterError(f"density must be in (0, 1], got {density}")
        return _random_sparse(algebra, rng, density)
    if ensemble == "rank_one":
        return _random_rank_one(algebra, rng)
    raise ParameterError(
        f"unknown ensemble {ensemble!r}; choose from {RANDOM_ENSEMBLES}"
    )


def random_element(
    algebra: TracialAlgebra,
    seed,
    ensemble: str = "gaussian",
    density: float = 0.25,
) -> AlgebraElement:
    """Draw a random element; identical seed and parameters give identical output.

    The ensembles are those of :func:`random_row`, whose row the element wraps.
    """
    return AlgebraElement.from_row(algebra, random_row(algebra, seed, ensemble, density))
