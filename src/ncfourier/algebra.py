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

Elements are immutable-by-convention wrappers around a tuple of complex
ndarrays, one per block, with arithmetic operators doing blockwise work:
``x * y`` is blockwise matrix multiplication, ``x + y`` blockwise addition,
scalars act on every block.
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
        return AlgebraElement(
            self, [np.zeros((n, n), dtype=complex) for n in self.dims]
        )

    def identity(self) -> "AlgebraElement":
        return AlgebraElement(self, [np.eye(n, dtype=complex) for n in self.dims])

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
    """One element of a :class:`TracialAlgebra`, stored blockwise.

    Blocks are complex ndarrays.  Arithmetic stays inside the parent algebra
    and raises :class:`ShapeMismatchError` when operands disagree.
    """

    __slots__ = ("algebra", "blocks")

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
        self.blocks = blocks

    # -- arithmetic ------------------------------------------------------

    def _check_same(self, other: "AlgebraElement") -> None:
        if not self.algebra.matches(other.algebra):
            raise ShapeMismatchError(
                f"elements of {self.algebra} and {other.algebra} do not combine"
            )

    def __add__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._check_same(other)
        return AlgebraElement(
            self.algebra, [a + b for a, b in zip(self.blocks, other.blocks)]
        )

    def __sub__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._check_same(other)
        return AlgebraElement(
            self.algebra, [a - b for a, b in zip(self.blocks, other.blocks)]
        )

    def __neg__(self):
        return AlgebraElement(self.algebra, [-a for a in self.blocks])

    def __mul__(self, other):
        """Blockwise matrix product, or scaling by a complex number."""
        if isinstance(other, AlgebraElement):
            self._check_same(other)
            return AlgebraElement(
                self.algebra, [a @ b for a, b in zip(self.blocks, other.blocks)]
            )
        if isinstance(other, (int, float, complex, np.number)):
            return AlgebraElement(self.algebra, [a * other for a in self.blocks])
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex, np.number)):
            return AlgebraElement(self.algebra, [other * a for a in self.blocks])
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, float, complex, np.number)):
            return AlgebraElement(self.algebra, [a / other for a in self.blocks])
        return NotImplemented

    def adjoint(self) -> "AlgebraElement":
        return AlgebraElement(self.algebra, [a.conj().T for a in self.blocks])

    def copy(self) -> "AlgebraElement":
        return AlgebraElement(self.algebra, [a.copy() for a in self.blocks])

    def is_zero(self, tol: float = 0.0) -> bool:
        return all(np.max(np.abs(b)) <= tol if b.size else True for b in self.blocks)

    def allclose(self, other: "AlgebraElement", rtol=1e-10, atol=1e-12) -> bool:
        self._check_same(other)
        return all(
            np.allclose(a, b, rtol=rtol, atol=atol)
            for a, b in zip(self.blocks, other.blocks)
        )

    def __repr__(self) -> str:
        return (
            f"AlgebraElement(dims={list(self.algebra.dims)}, "
            f"max_abs={max(np.max(np.abs(b)) for b in self.blocks):.4g})"
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
def _gaussian_layout(dims: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where the parts of each stacked coordinate sit in one draw of 2D normals.

    The draw reads the stream in the order of one :func:`_gaussian` call
    per block: the block's real parts, then its imaginary parts.  Returns the
    positions of the real and the imaginary parts of every coordinate, and
    the coordinate of its transpose, entry (j, i) of its block.
    """
    sizes = np.square(dims)
    n = np.repeat(dims, sizes)
    start = np.repeat(np.cumsum(sizes) - sizes, sizes)  # the offset of each coordinate's block
    within = np.arange(n.size) - start
    real = start + np.arange(n.size)
    return real, real + n * n, start + (within % n) * n + within // n


def _random_gaussian(algebra, rng):
    real, imag, _ = _gaussian_layout(algebra.dims)
    r = rng.standard_normal(2 * algebra.complex_dim)
    return (r[real] + 1j * r[imag]) / np.sqrt(2.0)


def _random_hermitian(algebra, rng):
    g = _random_gaussian(algebra, rng)
    return (g + np.conj(g)[_gaussian_layout(algebra.dims)[2]]) / np.sqrt(2.0)


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

    The ensembles are those of :func:`random_row`, whose row holds the
    element's blocks.
    """
    row = random_row(algebra, seed, ensemble, density)
    return AlgebraElement(algebra, [row[o : o + n * n].reshape(n, n) for o, n in zip(algebra._offsets, algebra.dims)])
