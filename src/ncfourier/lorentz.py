"""Decreasing rearrangements and Lorentz functionals for block elements.

For an element x of a weighted block algebra the generalized singular-value
function is the decreasing rearrangement of the singular values of the
blocks, each carrying its block's trace weight as mass:

    mu(t, x) = inf { s > 0 : lambda(s, x) < t },
    lambda(s, x) = trace of the spectral projection of |x| above s
                 = sum of block weights over singular values > s.

In this finite model mu is a right-continuous decreasing step function with
at most sum_k n_k steps, represented exactly by its breakpoints.  On top of
it sit the Lorentz functionals

    ||x||_{p,q} = ( integral_0^inf (t^{1/p} mu(t,x))^q dt/t )^{1/q},
    ||x||_{p,inf} = sup_t t^{1/p} mu(t,x),

evaluated in closed form on the steps; ||x||_{p,p} is the usual trace
p-norm, computed directly by :func:`lp_norm`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraElement
from .errors import ParameterError

__all__ = [
    "SingularFunction",
    "decreasing_step_function",
    "singular_function",
    "distribution_function",
    "lp_norm",
    "lorentz_norm",
    "lorentz_norm_of_step",
]

# relative tolerance below which adjacent singular values are merged into
# one step (their masses add)
_MERGE_RTOL = 1e-12


@dataclass(frozen=True)
class SingularFunction:
    """A decreasing step function on (0, infinity), zero beyond its support.

    ``breakpoints`` is strictly increasing, ``values`` strictly decreasing
    and positive; the function equals ``values[i]`` on
    ``(breakpoints[i-1], breakpoints[i]]`` (with breakpoints[-1] = 0) and 0
    beyond ``breakpoints[-1]``.  Both arrays may be empty (the zero element).
    """

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if bp.shape != vals.shape or bp.ndim != 1:
            raise ParameterError("breakpoints and values must be equal-length 1d")
        if bp.size:
            if not np.all(np.diff(bp) > 0) or bp[0] <= 0:
                raise ParameterError("breakpoints must be positive and increasing")
            if not np.all(np.diff(vals) < 0) or vals[-1] <= 0:
                raise ParameterError("values must be strictly decreasing and positive")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)

    @property
    def support(self) -> float:
        """Total mass carried, i.e. where the function drops to zero."""
        return float(self.breakpoints[-1]) if self.breakpoints.size else 0.0

    def __call__(self, t):
        """Evaluate at t > 0 (scalar or array)."""
        t = np.asarray(t, dtype=float)
        if np.any(t <= 0):
            raise ParameterError("singular functions are defined for t > 0")
        if self.values.size == 0:
            out = np.zeros(t.shape)
            return float(out) if out.ndim == 0 else out
        idx = np.searchsorted(self.breakpoints, t, side="left")
        padded = np.concatenate([self.values, [0.0]])
        out = padded[idx]
        return float(out) if out.ndim == 0 else out

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"({t:.6g}, {v:.6g})" for t, v in zip(self.breakpoints, self.values)
        )
        return f"SingularFunction([{pairs}])"


def decreasing_step_function(values, weights) -> SingularFunction:
    """Build the rearrangement step function of weighted nonnegative values.

    Each ``values[i]`` contributes a step of mass ``weights[i]``.  Values
    equal up to relative tolerance 1e-12 merge into a single step whose mass
    is the sum; zeros are dropped (the function vanishes beyond its support
    either way).
    """
    values = np.asarray(values, dtype=float).ravel()
    weights = np.asarray(weights, dtype=float).ravel()
    if values.shape != weights.shape:
        raise ParameterError("values and weights must have matching length")
    if np.any(values < 0):
        raise ParameterError("singular values must be nonnegative")
    if np.any(weights <= 0):
        raise ParameterError("weights must be strictly positive")
    order = np.argsort(-values, kind="stable")
    values = values[order]
    weights = weights[order]

    merged_vals: list[float] = []
    merged_wts: list[float] = []
    for v, w in zip(values, weights):
        if v == 0.0:
            continue
        if merged_vals and merged_vals[-1] - v <= _MERGE_RTOL * merged_vals[-1]:
            merged_wts[-1] += w
        else:
            merged_vals.append(float(v))
            merged_wts.append(float(w))
    breakpoints = np.cumsum(merged_wts)
    return SingularFunction(np.asarray(breakpoints), np.asarray(merged_vals))


@functools.lru_cache(maxsize=64)
def _size_groups(dims: tuple[int, ...]):
    """Per distinct block size: the blocks of that size and the slots of their values in block order."""
    starts = np.cumsum(dims) - dims
    groups = []
    for n in sorted(set(dims)):
        ks = tuple(k for k, d in enumerate(dims) if d == n)
        groups.append((ks, (starts[list(ks), None] + np.arange(n)).ravel()))
    return tuple(groups)


def _singular_values(x: AlgebraElement):
    """All block singular values with their block weights, unsorted.

    One batched SVD per distinct block size; the values come back in block
    order, each block's in descending order.
    """
    dims = x.algebra.dims
    vals = np.empty(sum(dims))
    for ks, slots in _size_groups(dims):
        vals[slots] = np.linalg.svd(np.stack([x.blocks[k] for k in ks]), compute_uv=False).ravel()
    return vals, np.repeat(x.algebra.weights, dims)


def singular_function(x: AlgebraElement) -> SingularFunction:
    """Generalized singular-value function of x as an exact step function."""
    vals, wts = _singular_values(x)
    return decreasing_step_function(vals, wts)


def distribution_function(x: AlgebraElement, s: float) -> float:
    """Trace mass of the spectral projection of |x| above level s >= 0."""
    if s < 0:
        raise ParameterError(f"level must be nonnegative, got {s}")
    vals, wts = _singular_values(x)
    return float(np.sum(wts[vals > s]))


def lp_norm(x: AlgebraElement, p: float) -> float:
    """Trace p-(quasi)norm for 0 < p <= inf.

    p = inf gives the operator norm (largest singular value).
    """
    if not p > 0:
        raise ParameterError(f"p must be positive, got {p}")
    vals, wts = _singular_values(x)
    if np.isinf(p):
        return float(np.max(vals)) if vals.size else 0.0
    return float(np.sum(wts * vals**p) ** (1.0 / p))


def lorentz_norm_of_step(mu: SingularFunction, p: float, q: float) -> float:
    """Closed-form Lorentz (p,q)-functional of a decreasing step function."""
    if not (np.isfinite(p) and p > 0):
        raise ParameterError(f"first Lorentz index must be finite positive, got {p}")
    if not q > 0:
        raise ParameterError(f"second Lorentz index must be positive, got {q}")
    if mu.values.size == 0:
        return 0.0
    if np.isinf(q):
        return float(np.max(mu.breakpoints ** (1.0 / p) * mu.values))
    edges = np.concatenate([[0.0], mu.breakpoints])
    e = q / p
    increments = edges[1:] ** e - edges[:-1] ** e
    total = np.sum(mu.values**q * (p / q) * increments)
    return float(total ** (1.0 / q))


def lorentz_norm(x: AlgebraElement, p: float, q: float) -> float:
    """Lorentz (p,q)-(quasi)norm of a block element; p finite, 0 < q <= inf.

    q = p reproduces :func:`lp_norm`; q = inf is the weak norm
    sup_t t^(1/p) mu(t, x).
    """
    return lorentz_norm_of_step(singular_function(x), p, q)
