"""Randomized and structured verification checks for the norm inequalities.

Every check draws its randomness from an explicit integer seed, evaluates a
battery of structured plus random inputs, and returns a :class:`CheckReport`
carrying the worst observed ratio, the decision, and enough context to
regenerate the run.  Two kinds of verdicts coexist:

* hard checks test inequalities with known constant 1 (up to floating-point
  slack); any ratio above the threshold is a failure;
* monitored checks track empirical constants for inequalities whose sharp
  constants are not pinned down; they always "pass" individually, and
  boundedness is judged at the campaign level by fitting the log-log slope
  of the worst ratio against instance size (a bounded constant shows up as
  slope close to zero).

Exponent bookkeeping used throughout: the conjugate exponent p' with
1/p + 1/p' = 1; the difference exponent r with 1/r = 1/p - 1/q for p <= q;
the one-sided exponent s with 1/s = 2/p - 1 for p <= 2; and the symmetric
exponent p* with 1/p* = |1/2 - 1/p|.

The check registry :data:`CHECKS` states each check's parameter rules once:
the type and range of every parameter and the preconditions across them.  A
campaign config is validated against it before anything runs
(:class:`ConfigError`), and each check function tests the same entry when it
is called (:class:`ParameterError`).  Defaults are stated once too, in the
function's signature, which the registry reads.
"""

from __future__ import annotations

import inspect
import math
import numbers
import operator
import sys
from dataclasses import dataclass, field, fields
from fractions import Fraction

import numpy as np

from .algebra import AlgebraElement, TracialAlgebra, random_row
from .errors import ConfigError, ParameterError
from .estimator import estimate_pq_norms
from .fourier import QuantumGroupPair, _multiplier_map
from .lorentz import (
    _block_ops,
    _BlockOps,
    _lorentz,
    _steps,
    decreasing_step_function,
    lorentz_norm_of_step,
    lorentz_norms,
    lp_norms,
)
from .schur import schur_pair
from .torus import cosine_profile, riemann_lp

__all__ = [
    "CheckReport",
    "conjugate_exponent",
    "difference_exponent",
    "one_sided_exponent",
    "symmetric_exponent",
    "loglog_slope",
    "check_lemma_constants",
    "check_hausdorff_young",
    "check_real_interpolation",
    "check_inversion_plancherel",
    "check_multiplier_bound",
    "check_paley",
    "check_schur_bound",
    "sharpness_experiment",
    "endpoint_experiment",
    "growth_symbol_check",
    "DEFAULT_ESTIMATOR",
    "CHECKS",
]

_HARD_TOL = 1e-9
_LR_TOL = 1e-6  # the hard L_r clause of multiplier_bound and schur_bound
_SUBMULT_TOL = 1e-10
_RESIDUAL_TOL = 1e-10
# inversion_plancherel rounds its residuals up to multiples of this before
# taking the max: on an exact transform they are rounding errors of about
# 1e-16 whose order moves with any change in the arithmetic, so the report
# reads one grid step, an upper bound, at the battery's first input
_RESIDUAL_GRID = 1e-13


@dataclass
class CheckReport:
    """Outcome of one check run, serializable and regenerable from its seed."""

    check: str
    instance: str | None
    instance_size: float | None
    params: dict
    trials: int
    seed: int
    hard: bool
    passed: bool
    threshold: float | None
    max_ratio: float | None
    empirical_constant: float | None
    witness: dict | None = None
    series: list[dict] | None = None
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        def conv(v):
            if isinstance(v, (np.bool_, bool)):
                return bool(v)
            if isinstance(v, (np.floating, float)):
                return float(v)
            if isinstance(v, (np.integer, int)):
                return int(v)
            if isinstance(v, dict):
                return {k: conv(x) for k, x in v.items()}
            if isinstance(v, (list, tuple)):
                return [conv(x) for x in v]
            return v

        return conv({f.name: getattr(self, f.name) for f in fields(self)})


# ---------------------------------------------------------------------------
# exponent arithmetic


def conjugate_exponent(p: float) -> float:
    if not 1.0 <= p <= np.inf:
        raise ParameterError(f"conjugate exponent needs p in [1, inf], got {p}")
    if p == 1.0:
        return np.inf
    if np.isinf(p):
        return 1.0
    return p / (p - 1.0)


def difference_exponent(p: float, q: float) -> float:
    """r with 1/r = 1/p - 1/q, for p <= q (r = inf when they agree)."""
    if not (0 < p <= q):
        raise ParameterError(f"need 0 < p <= q, got p={p}, q={q}")
    if p == q:
        return np.inf
    inv = 1.0 / p - (0.0 if np.isinf(q) else 1.0 / q)
    return 1.0 / inv


def one_sided_exponent(p: float) -> float:
    """s with 1/s = 2/p - 1, for 1 <= p <= 2 (s = inf at p = 2)."""
    if not 1.0 <= p <= 2.0:
        raise ParameterError(f"need 1 <= p <= 2, got {p}")
    inv = 2.0 / p - 1.0
    return np.inf if inv == 0.0 else 1.0 / inv


def symmetric_exponent(p: float) -> float:
    """p* with 1/p* = |1/2 - 1/p| (p* = inf at p = 2)."""
    if not 1.0 <= p <= np.inf:
        raise ParameterError(f"need p in [1, inf], got {p}")
    inv = abs(0.5 - (0.0 if np.isinf(p) else 1.0 / p))
    return np.inf if inv == 0.0 else 1.0 / inv


def loglog_slope(sizes, values) -> float:
    """Least-squares slope of log(values) against log(sizes)."""
    sizes = np.asarray(sizes, dtype=float)
    values = np.asarray(values, dtype=float)
    keep = (sizes > 0) & (values > 0)
    if keep.sum() < 2:
        raise ParameterError("slope needs at least two positive points")
    x = np.log(sizes[keep])
    y = np.log(values[keep])
    x = x - x.mean()
    denom = float(x @ x)
    if denom == 0.0:
        raise ParameterError("slope needs at least two distinct sizes")
    return float(x @ (y - y.mean()) / denom)


# ---------------------------------------------------------------------------
# shared input batteries


_DEFAULT_DECAY = (0.5, 1.0, 2.0)


def _source_battery(
    pair: QuantumGroupPair,
    trials: int,
    rng,
    decay_betas: tuple = _DEFAULT_DECAY,
) -> tuple[list[str], np.ndarray]:
    """Structured plus random source elements, at least `trials` in total:
    their names and the (S, D) rows of their stacked coordinates.

    `decay_betas` sets the exponents of the radially decaying profiles
    (1 + dist)^(-beta); callers testing an inequality with a critical decay
    index pass exponents strictly inside the relevant sequence space, since
    boundary profiles converge to their limiting ratio too slowly to read a
    trend off small instances.
    """
    src = pair.source
    names = ["identity", "point_mass_e"]
    # a point mass is a unit row: 1 at its coordinate, 0 elsewhere
    rows = [src.identity().row, np.eye(1, src.complex_dim, pair.identity_index, dtype=complex)[0]]
    if src.is_commutative:
        n = src.num_blocks
        if n > 1:
            names.append("point_mass_mid")
            rows.append(np.eye(1, n, (pair.identity_index + n // 2) % n, dtype=complex)[0])
        dist = np.minimum(np.arange(n), n - np.arange(n))
        for beta in decay_betas:
            names.append(f"decay_{beta:.3g}")
            rows.append(((1.0 + dist) ** (-beta)).astype(complex))
        lac = np.zeros(n, dtype=complex)
        k = 1
        while k < n:
            lac[k] = 1.0
            k *= 2
        if lac.any():
            names.append("lacunary")
            rows.append(lac)
    random_names, random_rows = _random_sources(src, max(trials - len(names), 0), rng, ("gaussian", "sparse", "hermitian"))
    return names + random_names, np.concatenate([np.array(rows), random_rows])


def _random_sources(algebra: TracialAlgebra, count: int, rng, ensembles=("gaussian",)) -> tuple[list[str], np.ndarray]:
    """``count`` random elements, cycling through ``ensembles``: their names and rows (count, D)."""
    kinds = [ensembles[i % len(ensembles)] for i in range(count)]
    rows = np.empty((count, algebra.complex_dim), dtype=complex)
    for i, kind in enumerate(kinds):
        rows[i] = random_row(algebra, np.random.SeedSequence((int(rng.integers(2**32)), i)), kind)
    return [f"{kind}_{i}" for i, kind in enumerate(kinds)], rows


def _worst(scores, key: str = "ratio", **tag) -> tuple[float, dict | None]:
    """Largest of the ``(input name, score)`` pairs and its witness ``{**tag, "input", key}``.

    Only a score above 0 and strictly above every earlier one counts, so a tie
    keeps the first input; ``(0.0, None)`` when no score is positive.
    """
    best, witness = 0.0, None
    for name, score in scores:
        if score > best:
            best, witness = score, {**tag, "input": name, key: score}
    return best, witness


def _ratios(names, numerators, denominators):
    """``(name, numerator / denominator)`` over a battery, skipping zero denominators."""
    for name, num, denom in zip(names, numerators, denominators):
        if denom != 0.0:
            yield name, num / denom


# ---------------------------------------------------------------------------
# hard structural checks


# trials whose spectra the lemma check takes in one kernel call; a chunk's
# submultiplicativity test compares at most 20 x 20 cell pairs of x and y
# against at most 20 breakpoints of xy per trial
_LEMMA_CHUNK = 32
# the coordinates of the largest algebra a lemma trial draws: 4 blocks of size 5
_LEMMA_COORDINATES = 4 * 5 * 5


def _lemma_ratios(algebras: list[TracialAlgebra], exponents: np.ndarray, seed: int, first_case: int) -> np.ndarray:
    """The three lemma ratios of a chunk of trials, (trials, 3), from one spectrum call.

    The chunk is read as the direct sum of its trials' algebras.  Blocks are
    independent, so each trial's singular values keep their bits; they are
    then split back into one row per trial and element (x, y and xy), with
    per-row weights, padded with zeros that the steps drop.
    """
    count = len(algebras)
    chunk = TracialAlgebra([n for a in algebras for n in a.dims], [w for a in algebras for w in a.weights])
    x, y = (
        np.concatenate([random_row(alg, np.random.SeedSequence((seed, first_case + i, k))) for i, alg in enumerate(algebras)])
        for k in (0, 1)
    )
    ops = _BlockOps(chunk)  # one-off algebra: kept out of the kernel cache
    xy = AlgebraElement.from_row(chunk, x) * AlgebraElement.from_row(chunk, y)
    sv = ops.spectrum(np.array([x, y, xy.row]))[0]
    # the columns of each trial's singular values, in its own algebra's order
    owner = np.repeat(np.arange(count), [a.num_blocks for a in algebras])[ops.block_index]
    order = np.argsort(owner, kind="stable")
    sizes = np.bincount(owner, minlength=count)
    cols = np.full((count, sizes.max()), owner.size)  # padding reads the zero column
    cols[owner[order], np.arange(owner.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)] = order
    values = np.concatenate([sv, np.zeros((3, 1))], axis=1)[:, cols].reshape(3 * count, -1)
    weights = np.tile(np.append(ops.wts, 1.0)[cols], (3, 1))
    breakpoints, steps, counts = _steps(values, weights)
    (bx, by, bxy), (vx, vy, vxy) = breakpoints.reshape(3, count, -1), steps.reshape(3, count, -1)

    # mu(s + t, xy) <= mu(s, x) mu(t, y) on every pair of cells of x and y.  On a
    # pair the right side is constant and the left does not rise with s + t, so
    # the largest ratio is at the smallest sum, 5% into each cell.  Inside a
    # cell, not at its breakpoints: the breakpoints of x, y and xy are rounded
    # sums of the same weights, and a point on a jump could land an ulp on
    # either side of it.
    lx, ly = (np.concatenate([np.zeros((count, 1)), b[:, :-1]], axis=1) for b in (bx, by))
    u = (lx + 0.05 * (bx - lx))[:, :, None] + (ly + 0.05 * (by - ly))[:, None, :]
    # mu(u, xy): its step at the number of its breakpoints below u, 0 past its support
    below = (bxy[:, None, None, :] < u[..., None]).sum(axis=3)
    lhs = np.concatenate([vxy, np.zeros((count, 1))], axis=1)[np.arange(count)[:, None, None], below]
    rhs = vx[:, :, None] * vy[:, None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(rhs > 0, lhs / np.where(rhs > 0, rhs, 1.0), np.where(lhs > 0, np.inf, 0.0))
    cell = np.arange(bx.shape[1])
    real = (cell < counts[:count, None])[:, :, None] & (cell < counts[count : 2 * count, None])[:, None, :]
    r_sub = ratios.max(axis=(1, 2), initial=0.0, where=real)

    # ||x||_{p,r} <= const ||x||_{p,q} and ||xy||_{ph,inf} <= hoelder ||x||_{p0,inf} ||y||_{p1,inf}
    p, q, r, const, p0, p1, ph, hoelder = exponents.T[:, :, None]  # one column each
    finite = np.isfinite(r[:, 0])
    lr = np.empty(count)
    lr[finite] = _lorentz(bx[finite], vx[finite], p[finite], r[finite])
    lr[~finite] = _lorentz(bx[~finite], vx[~finite], p[~finite], np.inf)
    denom = const[:, 0] * _lorentz(bx, vx, p, q)
    r_nest = np.where(denom > 0, lr / np.where(denom > 0, denom, 1.0), 0.0)

    denom = hoelder[:, 0] * _lorentz(bx, vx, p0, np.inf) * _lorentz(by, vy, p1, np.inf)
    r_hold = np.where(denom > 0, _lorentz(bxy, vxy, ph, np.inf) / np.where(denom > 0, denom, 1.0), 0.0)
    return np.stack([r_sub, r_nest, r_hold], axis=1)


def check_lemma_constants(trials: int = 1000, seed: int = 0) -> CheckReport:
    """Pointwise submultiplicativity, Lorentz nesting, and weak Hoelder bounds.

    Random algebras (1 to 4 blocks of size 1 to 5, log-uniform weights) and
    random Gaussian pairs (x, y).  Three inequality families with explicit
    constants are checked on every draw:

    * mu(s + t, xy) <= mu(s, x) mu(t, y) on every pair of step cells of x
      and y, at the pair's smallest sum s + t (where its ratio is largest),
      tolerance 1 + 1e-10;
    * ||x||_{p,r} <= (q/p)^(1/q - 1/r) ||x||_{p,q} for q < r, tol 1 + 1e-9;
    * ||xy||_{p,inf} <= 2^(1/p) ||x||_{p0,inf} ||y||_{p1,inf} with
      1/p = 1/p0 + 1/p1, tolerance 1 + 1e-9.

    Trials run in chunks of ``_LEMMA_CHUNK``, each chunk's spectra in one
    kernel call.  A trial's draws come from its own streams and its values
    do not depend on its chunk, bit for bit.
    """
    _check_params("lemma_constants", trials=trials)
    rng = np.random.default_rng(seed)
    algebras, exponents = [], []
    for _ in range(trials):
        nb = int(rng.integers(1, 5))
        dims = [int(rng.integers(1, 6)) for _ in range(nb)]
        weights = np.exp(rng.uniform(np.log(0.25), np.log(4.0), nb))
        p = float(np.exp(rng.uniform(np.log(0.5), np.log(4.0))))
        q = float(np.exp(rng.uniform(np.log(0.4), np.log(3.0))))
        r = np.inf if rng.random() < 0.3 else q * float(np.exp(rng.uniform(0.02, 1.5)))
        p0 = float(np.exp(rng.uniform(np.log(0.6), np.log(4.0))))
        p1 = float(np.exp(rng.uniform(np.log(0.6), np.log(4.0))))
        ph = 1.0 / (1.0 / p0 + 1.0 / p1)
        # the constants as Python float powers: numpy's array power can differ in the last bit
        const = (q / p) ** (1.0 / q - (0.0 if np.isinf(r) else 1.0 / r))
        algebras.append(TracialAlgebra(dims, weights))
        exponents.append((p, q, r, const, p0, p1, ph, 2.0 ** (1.0 / ph)))
    exponents = np.array(exponents)
    ratios = np.concatenate(
        [
            _lemma_ratios(algebras[start : start + _LEMMA_CHUNK], exponents[start : start + _LEMMA_CHUNK], seed, start)
            for start in range(0, trials, _LEMMA_CHUNK)
        ]
    ).tolist()

    thresholds = {"submultiplicativity": 1.0 + _SUBMULT_TOL, "nesting": 1.0 + _HARD_TOL, "weak_hoelder": 1.0 + _HARD_TOL}
    worst = dict.fromkeys(thresholds, 0.0)
    witness = None
    violations = 0
    for case, case_ratios in enumerate(ratios):
        for (fam, thr), val in zip(thresholds.items(), case_ratios):
            if val > thr:
                violations += 1
                if witness is None or val > witness["ratio"]:
                    witness = {"case": case, "family": fam, "ratio": val, "dims": list(algebras[case].dims)}
            if val > worst[fam]:
                worst[fam] = val
    max_ratio = max(worst.values())
    return CheckReport(
        check="lemma_constants",
        instance=None,
        instance_size=None,
        params={},
        trials=trials,
        seed=seed,
        hard=True,
        passed=violations == 0,
        threshold=1.0 + _HARD_TOL,
        max_ratio=max_ratio,
        empirical_constant=max_ratio,
        witness=witness,
        details={"worst_by_family": worst, "violations": violations},
    )


def check_hausdorff_young(pair: QuantumGroupPair, p: float, trials: int = 1000, seed: int = 0) -> CheckReport:
    """||F x||_{p'} <= ||x||_p on the pair, for 1 <= p <= 2 (constant 1, hard)."""
    _check_params("hausdorff_young", pair, p=p, trials=trials)
    pc = conjugate_exponent(p)
    rng = np.random.default_rng(seed)
    names, z = _source_battery(pair, trials, rng)
    max_ratio, witness = _worst(
        _ratios(names, lp_norms(pair.dual, pair.forward(z), pc), lp_norms(pair.source, z, p))
    )
    return CheckReport(
        check="hausdorff_young",
        instance=pair.name,
        instance_size=pair.size,
        params={"p": p, "p_conjugate": pc},
        trials=len(names),
        seed=seed,
        hard=True,
        passed=max_ratio <= 1.0 + _HARD_TOL,
        threshold=1.0 + _HARD_TOL,
        max_ratio=max_ratio,
        empirical_constant=max_ratio,
        witness=witness,
    )


def check_real_interpolation(pair: QuantumGroupPair, p: float, trials: int = 500, seed: int = 0) -> CheckReport:
    """Lorentz-refined transform bounds in both directions (monitored).

    Tracks the empirical constants in
    ``||F x||_{p'} <= c ||x||_{L_{p,p'}}`` (forward) and
    ``||F^{-1} a||_{p'} <= c ||a||_{L_{p,p'}}`` (inverse) for 1 < p < 2.
    The Lorentz space on the right is strictly larger than L_p, so these
    sharpen the plain transform bound at the price of a constant, which is
    what gets recorded.
    """
    _check_params("real_interpolation", pair, p=p, trials=trials)
    pc = conjugate_exponent(p)
    rng = np.random.default_rng(seed)
    names, z = _source_battery(pair, trials, rng)
    fwd_max, fwd_witness = _worst(
        _ratios(names, lp_norms(pair.dual, pair.forward(z), pc), lorentz_norms(pair.source, z, p, pc)),
        direction="forward",
    )
    dual_names, a = _random_sources(pair.dual, max(trials // 2, 1), rng, ("gaussian", "rank_one"))
    dual_names = ["identity"] + dual_names
    a = np.concatenate([pair.dual.identity().row[None], a])
    inv_max, inv_witness = _worst(
        _ratios(dual_names, lp_norms(pair.source, pair.inverse(a), pc), lorentz_norms(pair.dual, a, p, pc)),
        direction="inverse",
    )
    max_ratio = max(fwd_max, inv_max)
    witness = fwd_witness if fwd_max >= inv_max else inv_witness
    return CheckReport(
        check="real_interpolation",
        instance=pair.name,
        instance_size=pair.size,
        params={"p": p, "p_conjugate": pc},
        trials=len(names) + len(dual_names),
        seed=seed,
        hard=False,
        passed=True,
        threshold=None,
        max_ratio=max_ratio,
        empirical_constant=max_ratio,
        witness=witness,
        details={"forward_constant": fwd_max, "inverse_constant": inv_max},
    )


def check_inversion_plancherel(pair: QuantumGroupPair, trials: int = 1000, seed: int = 0) -> CheckReport:
    """Round trip F^{-1}(F x) = x and isometry ||F x||_2 = ||x||_2 (hard).

    The residual of an input is the larger of the two defects over
    1 + ||x||_2, rounded up to a multiple of ``_RESIDUAL_GRID``; the witness
    is the first input at the largest residual.
    """
    _check_params("inversion_plancherel", pair, trials=trials)
    rng = np.random.default_rng(seed)
    names, z = _source_battery(pair, trials, rng)
    fz = pair.forward(z)
    l2 = lp_norms(pair.source, z, 2)
    round_trip = lp_norms(pair.source, pair.inverse(fz) - z, 2)
    plancherel = np.abs(lp_norms(pair.dual, fz, 2) - l2)
    residuals = np.ceil(np.maximum(round_trip, plancherel) / (1.0 + l2) / _RESIDUAL_GRID) * _RESIDUAL_GRID
    worst, witness = _worst(zip(names, residuals), key="residual")
    return CheckReport(
        check="inversion_plancherel",
        instance=pair.name,
        instance_size=pair.size,
        params={},
        trials=len(names),
        seed=seed,
        hard=True,
        passed=worst <= _RESIDUAL_TOL,
        threshold=_RESIDUAL_TOL,
        max_ratio=worst,
        empirical_constant=None,
        witness=witness,
    )


# ---------------------------------------------------------------------------
# multiplier checks (estimator-backed)


def _bound_series(pair: QuantumGroupPair, names, z: np.ndarray, p: float, q: float, rng, opts: dict):
    """Estimates of the multipliers of a battery: symbols ``names`` with rows ``z`` on the pair's source.

    Returns a series row per symbol of nonzero weak L_r norm, 1/r = 1/p - 1/q:
    the estimate of ||m_x||_{p->q}, the weak L_r and L_r norms, the weak
    ratio, and how far the estimate can be trusted (the share of restarts
    that converged, and whether every restart found only 0).  Then the
    largest weak and L_r ratios with their witnesses (:func:`_worst`).  Each
    kept symbol draws its estimator seed from ``rng``, in battery order.
    """
    r = difference_exponent(p, q)
    weak_norms = lp_norms(pair.source, z, np.inf) if np.isinf(r) else lorentz_norms(pair.source, z, r, np.inf)
    lr_norms = lp_norms(pair.source, z, r)
    # (name, symbol row, weak norm, L_r norm, estimator seed) of the symbols with a nonzero weak norm
    kept = [
        (name, sym, weak, lr, int(rng.integers(2**62)))
        for name, sym, weak, lr in zip(names, z, weak_norms, lr_norms)
        if weak != 0.0
    ]
    maps = (_multiplier_map(pair, sym) for _, sym, *_ in kept)
    estimates = estimate_pq_norms(maps, p, q, [s for *_, s in kept], **opts)
    series = [
        {"input": name, "estimate": est.lower_bound, "weak_norm": weak, "lr_norm": lr,
         "ratio": est.lower_bound / weak, "converged_fraction": est.converged_fraction, "degenerate": est.degenerate}
        for (name, _, weak, lr, _), est in zip(kept, estimates)
    ]
    lr_ratios = ((row["input"], row["estimate"] / row["lr_norm"]) for row in series)
    return series, _worst((row["input"], row["ratio"]) for row in series), _worst(lr_ratios, key="lr_ratio")


def check_multiplier_bound(
    pair: QuantumGroupPair,
    p: float,
    q: float,
    trials: int = 100,
    seed: int = 0,
    estimator: dict | None = None,
) -> CheckReport:
    """Estimated ||m_phi||_{p->q} against the weak L_r norm of the symbol.

    For each symbol phi in the battery the ratio
    ``estimate(||m_phi||_{p->q}) / ||phi||_{L_{r,inf}(source)}`` is recorded,
    with 1/r = 1/p - 1/q.  Its sharp constant is not pinned, so this ratio is
    monitored: boundedness is judged from the slope of the max ratio across
    an instance ladder.  The identity symbol's ratio is reported separately
    (its exact value is 1 for these pairs).

    Hard clause (constant 1) for p <= 2 <= q: the estimate never exceeds the
    strong norm ||phi||_{L_r(source)}, by Hausdorff-Young and Holder,
    ||F(phi F^{-1}a)||_q <= ||phi F^{-1}a||_{q'} <= ||phi||_r ||F^{-1}a||_{p'}
    <= ||phi||_r ||a||_p.  For other exponents the check is monitored only.
    The witness is the input of the largest weak-norm ratio, or of the
    largest L_r ratio when the hard clause fails: many inputs attain the
    L_r ratio 1 up to rounding, so its maximizer is not a stable name.
    """
    _check_params("multiplier_bound", pair, p=p, q=q, trials=trials, estimator=estimator)
    r = difference_exponent(p, q)
    opts = {**DEFAULT_ESTIMATOR, **(estimator or {})}
    rng = np.random.default_rng(seed)
    # Decay exponents strictly inside l_r: a profile exactly on the weak-l_r
    # boundary approaches its limiting ratio so slowly that ladders over
    # moderate sizes read as growth; that regime is probed separately by
    # sharpness_experiment.
    betas = _DEFAULT_DECAY if np.isinf(r) else (1.5 / r, 3.0 / r, 6.0 / r)
    names, z = _source_battery(pair, trials, rng, decay_betas=betas)
    hard = p <= 2.0 <= q
    series, (max_ratio, witness), (max_lr_ratio, lr_witness) = _bound_series(pair, names, z, p, q, rng, opts)
    identity_ratio = next((row["ratio"] for row in series if row["input"] == "identity"), None)
    details = {"identity_ratio": identity_ratio, "estimator": opts}
    passed = True
    if hard:
        details["max_lr_ratio"] = max_lr_ratio
        passed = max_lr_ratio <= 1.0 + _LR_TOL
        witness = witness if passed else lr_witness
    else:  # the L_r norm is reported for the hard clause only
        for row in series:
            del row["lr_norm"]
    return CheckReport(
        check="multiplier_bound",
        instance=pair.name,
        instance_size=pair.size,
        params={"p": p, "q": q, "r": None if np.isinf(r) else r},
        trials=len(series),
        seed=seed,
        hard=hard,
        passed=passed,
        threshold=1.0 + _LR_TOL if hard else None,
        max_ratio=max_ratio,
        empirical_constant=max_ratio,
        witness=witness,
        series=series,
        details=details,
    )


def check_paley(pair: QuantumGroupPair, p: float, trials: int = 1000, seed: int = 0) -> CheckReport:
    """One-sided inequality ||a F(x)||_p <= c ||a||_{L_{s,inf}} ||x||_p, 1/s = 2/p - 1.

    At p = 2 the weak norm degenerates to the operator norm and the
    inequality holds with constant 1 (hard); for 1 <= p < 2 the constant is
    monitored.
    """
    _check_params("paley", pair, p=p, trials=trials)
    s = one_sided_exponent(p)
    hard = bool(np.isinf(s))
    rng = np.random.default_rng(seed)
    dual = pair.dual
    min_block = int(np.argmin(dual.weights))
    random_names, a = _random_sources(dual, max(trials - 2, 1), rng, ("gaussian", "rank_one", "sparse"))
    names = ["identity", "atom_min_weight"] + random_names
    a = np.concatenate([[dual.identity().row, dual.basis_element(min_block).row], a])
    # row i: the source element paired with the i-th symbol
    x = np.array([random_row(pair.source, np.random.SeedSequence((seed, i, 7))) for i in range(len(a))])
    weak = lp_norms(dual, a, np.inf) if np.isinf(s) else lorentz_norms(dual, a, s, np.inf)
    images = _block_ops(dual).product(a, pair.forward(x))
    max_ratio, witness = _worst(_ratios(names, lp_norms(dual, images, p), weak * lp_norms(pair.source, x, p)))
    return CheckReport(
        check="paley",
        instance=pair.name,
        instance_size=pair.size,
        params={"p": p, "s": None if np.isinf(s) else s},
        trials=len(names),
        seed=seed,
        hard=hard,
        passed=(max_ratio <= 1.0 + _HARD_TOL) if hard else True,
        threshold=(1.0 + _HARD_TOL) if hard else None,
        max_ratio=max_ratio,
        empirical_constant=max_ratio,
        witness=witness,
    )


def _schur_battery(n: int, trials: int, rng) -> tuple[list[str], np.ndarray]:
    """Structured plus random n x n symbols, at least ``trials`` in total: their names and their entries as rows (S, n^2)."""
    idx = np.arange(n)
    dist = np.abs(idx[:, None] - idx[None, :])
    atom = np.zeros((n, n))
    atom[0, 0] = 1.0
    names = ["atom_11", "all_ones", "diagonal", "alternating"] + [f"band_decay_{beta}" for beta in (0.5, 1.0, 2.0)]
    symbols = [atom, np.ones((n, n)), np.eye(n), (-1.0) ** (idx[:, None] + idx[None, :])]
    symbols += [(1.0 + dist) ** (-beta) for beta in (0.5, 1.0, 2.0)]
    i = 0
    while len(names) < trials:
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if i % 2:
            g = g * (rng.random((n, n)) < 0.3)
        names.append(f"random_{i}")
        symbols.append(g / np.sqrt(2.0))
        i += 1
    return names, np.array(symbols, dtype=complex).reshape(len(names), n * n)


def check_schur_bound(
    n: int,
    p: float,
    q: float,
    trials: int = 100,
    seed: int = 0,
    estimator: dict | None = None,
) -> CheckReport:
    """Entrywise multipliers S_p -> S_q against entry sequence norms.

    The multipliers are those of :func:`schur.schur_pair`, estimated like
    :func:`check_multiplier_bound`'s.  Hard clause (constant 1): the
    estimated norm never exceeds the plain little-l_r norm of the symbol
    entries, 1/r = 1/p - 1/q, for p <= 2 <= q; the witness is the input of
    the largest L_r ratio.  Monitored clause: the ratio against the weak
    l_{r,inf} norm, whose sharp constant is what the campaign ladders track.
    """
    _check_params("schur_bound", n, p=p, q=q, trials=trials, estimator=estimator)
    pair = schur_pair(n)  # raises for n < 1
    r = difference_exponent(p, q)
    opts = {**DEFAULT_ESTIMATOR, **(estimator or {})}
    rng = np.random.default_rng(seed)
    names, z = _schur_battery(n, trials, rng)
    series, (max_weak_ratio, _), (max_lr_ratio, witness) = _bound_series(pair, names, z, p, q, rng, opts)
    return CheckReport(
        check="schur_bound",
        instance=f"M{n}",
        instance_size=float(n),
        params={"p": p, "q": q, "r": None if np.isinf(r) else r},
        trials=len(series),
        seed=seed,
        hard=True,
        passed=max_lr_ratio <= 1.0 + _LR_TOL,
        threshold=1.0 + _LR_TOL,
        max_ratio=max_weak_ratio,
        empirical_constant=max_weak_ratio,
        witness=witness,
        series=series,
        details={"max_lr_ratio": max_lr_ratio, "estimator": opts},
    )


# ---------------------------------------------------------------------------
# scaling experiments on the discretized circle


def sharpness_experiment(
    p: float,
    q: float,
    n_list,
    s_factor: float = 1.25,
    m: int | None = None,
    seed: int = 0,
    growth_factor: float = 0.8,
) -> CheckReport:
    """Power-decay profiles showing the weak symbol norm cannot be improved.

    With 1/r = 1/p - 1/q and s = s_factor * r > r, the symbol
    phi(n) = n^(-1/s) has finite weak L_r norm scale while the profile with
    amplitudes a_n = n^(1/p - 1 - alpha), alpha = 1/r - 1/s, makes the ratio
    ||m_phi f_N||_q / ||f_N||_p grow like (log N)^(1/q).  The verdict
    requires the measured ratios to be strictly increasing and to grow by at
    least ``growth_factor`` times the predicted log factor across the list.
    """
    _check_params("sharpness", p=p, q=q, n_list=n_list, s_factor=s_factor, m=m, growth_factor=growth_factor)
    n_list = [int(n) for n in n_list]
    if m is None:
        m = 4 * n_list[-1]
    r = difference_exponent(p, q)
    s = s_factor * r
    alpha = 1.0 / r - 1.0 / s
    series = []
    ratios = []
    for n in n_list:
        freqs = np.arange(1, n + 1)
        amps = freqs ** (1.0 / p - 1.0 - alpha)
        symbol = freqs ** (-1.0 / s)
        f_vals = cosine_profile(m, freqs, amps)
        g_vals = cosine_profile(m, freqs, amps * symbol)
        ratio = riemann_lp(g_vals, q) / riemann_lp(f_vals, p)
        ratios.append(ratio)
        series.append({"N": int(n), "ratio": ratio})
    increasing = all(b > a for a, b in zip(ratios, ratios[1:]))
    predicted = (math.log(n_list[-1]) / math.log(n_list[0])) ** (1.0 / q)
    achieved = ratios[-1] / ratios[0]
    passed = increasing and achieved >= growth_factor * predicted
    return CheckReport(
        check="sharpness",
        instance=None,
        instance_size=None,
        params={"p": p, "q": q, "r": r, "s": s, "alpha": alpha, "m": m, "growth_factor": growth_factor},
        trials=len(n_list),
        seed=seed,
        hard=True,
        passed=passed,
        threshold=growth_factor * predicted,
        max_ratio=achieved,
        empirical_constant=ratios[-1],
        witness=None if passed else {"ratios": ratios},
        series=series,
        details={"strictly_increasing": increasing, "required_growth": growth_factor * predicted},
    )


def endpoint_experiment(
    k_list,
    m: int = 2**20,
    seed: int = 0,
    growth_window: tuple[int, int] = (8, 16),
    min_growth: float = 0.10,
) -> CheckReport:
    """Lacunary endpoint experiment: bounded weak symbol norm, drifting L1 norm.

    For each K the profile h_K = sum_{k<=K} k^(-1/2) cos(2 pi 2^k t) is
    sampled exactly on the M-point grid.  The symbol amplitudes k^(-1/2) at
    the lacunary frequencies have weak l_2 sequence norm exactly 1 for every
    K, while ||h_K||_{L1} creeps upward like sqrt(log K).  The verdict
    requires: weak norms exactly 1, the L2 norms matching the closed form
    (sum_k 1/(2k))^(1/2) to 1e-8, L1 strictly increasing across the growth
    window, and relative L1 growth over the window of at least
    ``min_growth``.  The finite-window growth numbers are calibration
    choices; the measured growth from K=8 to K=16 is just above 10%.
    """
    _check_params("endpoint", k_list=k_list, m=m, growth_window=growth_window, min_growth=min_growth)
    k_list = [int(k) for k in k_list]
    w0, w1 = growth_window
    series = []
    l1_by_k = {}
    weak_ok = True
    l2_err = 0.0
    for k in k_list:
        ks = np.arange(1, k + 1)
        amps = 1.0 / np.sqrt(ks)
        freqs = 2**ks
        vals = cosine_profile(m, freqs, amps)
        l1 = riemann_lp(vals, 1)
        l2 = riemann_lp(vals, 2)
        l2_closed = float(np.sqrt(np.sum(0.5 / ks)))
        mu = decreasing_step_function(amps, np.ones_like(amps))
        weak = lorentz_norm_of_step(mu, 2.0, np.inf)
        weak_ok = weak_ok and (weak == 1.0)
        l2_err = max(l2_err, abs(l2 - l2_closed))
        l1_by_k[k] = l1
        series.append({"K": k, "l1": l1, "l2": l2, "l2_closed_form": l2_closed, "weak_norm": weak})
    window_ks = [k for k in k_list if w0 <= k <= w1]
    window_l1 = [l1_by_k[k] for k in window_ks]
    increasing = all(b > a for a, b in zip(window_l1, window_l1[1:]))
    growth = l1_by_k[w1] / l1_by_k[w0] - 1.0
    passed = weak_ok and l2_err <= 1e-8 and increasing and growth >= min_growth
    return CheckReport(
        check="endpoint",
        instance=None,
        instance_size=None,
        params={"m": m, "growth_window": list(growth_window), "min_growth": min_growth},
        trials=len(k_list),
        seed=seed,
        hard=True,
        passed=passed,
        threshold=min_growth,
        max_ratio=growth,
        empirical_constant=l1_by_k[k_list[-1]],
        witness=None if passed else {"l1_by_k": {str(k): v for k, v in l1_by_k.items()}},
        series=series,
        details={
            "weak_norms_exactly_one": weak_ok,
            "l2_closed_form_error": l2_err,
            "l1_increasing_on_window": increasing,
            "l1_growth_on_window": growth,
        },
    )


def free_group_ball_sizes(num_generators: int, depth: int) -> list[int]:
    """Exact word-metric ball sizes |B_0|, ..., |B_depth| of a free group."""
    if num_generators < 1:
        raise ParameterError(f"need at least one generator, got {num_generators}")
    if depth < 0:
        raise ParameterError(f"depth must be nonnegative, got {depth}")
    ball = 1
    sphere = 1
    balls = [1]
    for k in range(1, depth + 1):
        sphere = 2 * num_generators if k == 1 else sphere * (2 * num_generators - 1)
        ball += sphere
        balls.append(ball)
    return balls


def _growth_ratio(b: int, n: int, m_growth: float, polynomial: bool) -> tuple[float, bool]:
    """|B_n| / g(n), inf past the largest double, and whether it exceeds 1 + 1e-9.

    Exact where g(n) is rational: M^n (a double is a rational) and n^M for
    an integer M, where an n^M above 2^1075 |B_n| is not built (the ratio
    rounds to 0).  n^M for another M is compared in floating point, in
    logarithms where a double overflows.  g(0) = 1 = 1^M.
    """
    m, base = Fraction(m_growth), max(n, 1)
    if polynomial and m.denominator != 1:
        try:
            ratio = b / float(base) ** m_growth
        except OverflowError:  # b or base^M past the double range
            log_ratio = math.log(b) - m_growth * math.log(base)
            ratio = math.exp(log_ratio) if log_ratio < 709.78 else math.inf
        return ratio, ratio > 1.0 + _HARD_TOL
    if polynomial and m.numerator * (base.bit_length() - 1) > b.bit_length() + 1075:
        return 0.0, False
    exact = Fraction(b) / (base**m.numerator if polynomial else m**n)
    return (float(exact) if exact <= sys.float_info.max else math.inf), exact > 1 + Fraction(1, 10**9)


def growth_symbol_check(
    num_generators: int,
    m_growth: float,
    p_star: float,
    depth: int = 8,
    c: float = 1.0,
    ball_sizes=None,
    polynomial: bool = False,
) -> CheckReport:
    """Ball growth against the bound |B_n| <= g(n), exponential or polynomial.

    The word-length symbol phi(g) = C * g(|g|)^(-1/p*) has weak l_{p*} norm
    C * (sup_n |B_n| / g(n))^(1/p*) because its level sets are exactly the
    balls, so the claim "||phi||_{p*,inf} <= C" is the stated ball bound.
    The growth profile is g(n) = M^n by default, or g(n) = n^M (with g(0)=1)
    when ``polynomial`` is set; M is ``m_growth`` in both cases.  Ball sizes
    default to the exact free-group counts for ``num_generators`` generators
    and can be overridden with ``ball_sizes`` for other groups.  Comparisons
    are exact wherever g(n) is rational (see :func:`_growth_ratio`), and a
    ratio or constant past the double range reads inf.  For the
    free-group/exponential case the tail beyond ``depth`` is geometric as
    soon as 2N - 1 < M, which is reported alongside.
    """
    _check_params("growth", num_generators=num_generators, m_growth=m_growth, p_star=p_star, depth=depth, c=c)
    if ball_sizes is None:
        balls = free_group_ball_sizes(num_generators, depth)
    else:
        balls = [int(b) for b in ball_sizes]
        if len(balls) != depth + 1:
            raise ParameterError(f"ball_sizes must have depth + 1 = {depth + 1} entries, got {len(balls)}")
        if balls[0] < 1 or any(a > b for a, b in zip(balls, balls[1:])):
            raise ParameterError("ball_sizes must be nondecreasing with first entry >= 1")
    series = []
    for n, b in enumerate(balls):
        ratio, violated = _growth_ratio(b, n, m_growth, polynomial)
        series.append({"n": n, "ball_size": b, "ratio": ratio, "violated": violated})
    violations = [row["n"] for row in series if row["violated"]]
    max_ratio = max(row["ratio"] for row in series)
    try:
        weak_norm_bound = c * max_ratio ** (1.0 / p_star)
    except OverflowError:
        weak_norm_bound = math.inf
    details = {"profile": "polynomial" if polynomial else "exponential"}
    if ball_sizes is None and not polynomial:
        tail_ratio = (2 * num_generators - 1) / m_growth
        details.update({"tail_ratio": tail_ratio, "tail_geometric": tail_ratio < 1.0})
    return CheckReport(
        check="growth",
        instance=None,
        instance_size=None,
        params={"num_generators": num_generators, "m_growth": m_growth, "p_star": p_star, "depth": depth, "c": c},
        trials=depth + 1,
        seed=0,
        hard=True,
        passed=not violations,
        threshold=1.0 + _HARD_TOL,
        max_ratio=max_ratio,
        empirical_constant=weak_norm_bound,
        witness=None if not violations else {"violated_radii": violations},
        series=series,
        details=details,
    )


# ---------------------------------------------------------------------------
# check registry


# JSON gives int, float or bool, a direct call any number; bool is not a number here.
# A number lies in a double's range and an integer fits an index, as numpy needs
_TYPE_TESTS = {
    "integer": lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool) and abs(v) <= sys.maxsize,
    "number": lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool) and abs(v) <= sys.float_info.max,
    "string": lambda v: type(v) is str and v != "",
    "object": lambda v: type(v) is dict,
    "instance": lambda v: type(v) is dict or type(v) is str and v != "",
}
# the largest torus grid of the scaling experiments, endpoint's default, and the
# largest sharpness frequency count, whose derived grid 4 max(n_list) fits it
_MAX_GRID = 1 << 20
_MAX_FREQUENCIES = _MAX_GRID // 4
# every precondition a registry entry may name: the parameters it reads and
# the test of their values
_REQUIREMENTS = {
    "p <= q": (("p", "q"), operator.le),
    "p < q": (("p", "q"), operator.lt),
    "growth_window in k_list": (("growth_window", "k_list"), lambda w, k: set(w) <= set(k)),
    "2 max(n_list) < m": (("n_list", "m"), lambda n, m: 2 * max(n) < m),
    "2^max(k_list) <= m/4": (("k_list", "m"), lambda k, m: 2 ** max(k) <= m // 4),
}


@dataclass(frozen=True)
class Param:
    """One accepted key of a config object or check: its type, whether required, and its range.

    ``type`` names a test in :data:`_TYPE_TESTS`: ``"number"`` (a real
    number within the range of a double), ``"integer"`` (at most
    ``sys.maxsize`` in absolute value), ``"string"`` (non-empty),
    ``"object"`` or ``"instance"`` (a string or an object); with ``length =
    (min, max)`` (max None: unbounded) the value is a list or tuple of that
    many such entries, strictly increasing if ``increasing``.
    ``lo``/``hi`` bound the value, or each list entry; ``open`` makes both
    bounds strict.
    """

    type: str = "number"
    required: bool = True
    lo: float = -math.inf
    hi: float = math.inf
    open: bool = False
    length: tuple[int, int | None] | None = None
    increasing: bool = False

    def kind(self) -> str:
        if self.length is None:
            return f"{'an' if self.type[0] in 'aeiou' else 'a'} {self.type}"
        lo, hi = self.length
        order = ", strictly increasing" if self.increasing else ""
        return f"a list of {lo if lo == hi else f'>= {lo}'} {self.type}s{order}"

    def bounds(self, key: str) -> str:
        """The range as an inequality in ``key`` (``key[i]`` for a list), bounds written exactly; '' if unbounded."""
        symbol = key if self.length is None else f"{key}[i]"
        op = "<" if self.open else "<="
        lo = f"{self.lo} {op} " if self.lo > -math.inf else ""
        hi = f" {op} {self.hi}" if self.hi < math.inf else ""
        return f"{lo}{symbol}{hi}" if lo or hi else ""

    def validate(self, where: str, key: str, value) -> None:
        """Raise ConfigError, its message led by ``where`` (as "check 'x': parameter"), unless valid."""
        items = [value] if self.length is None else value
        min_len, max_len = self.length or (1, 1)
        typed = isinstance(items, (list, tuple)) and all(map(_TYPE_TESTS[self.type], items))
        ordered = typed and (not self.increasing or all(a < b for a, b in zip(items, items[1:])))
        if not ordered or not min_len <= len(items) <= (max_len or len(items)):
            raise ConfigError(f"{where} {key!r} must be {self.kind()}, got {value!r}")
        inside = operator.lt if self.open else operator.le
        if self.bounds(key) and not all(inside(self.lo, v) and inside(v, self.hi) for v in items):
            raise ConfigError(f"{where} {key!r}={value!r} outside allowed range {self.bounds(key)}")


@dataclass(frozen=True)
class CheckEntry:
    """The rules of one check's parameters, and how the runner calls it.

    ``function`` names the check in this module; the runner looks it up at
    call time, so a wrapper installed on the module sees every call.  It
    gets the resolved instance (``instance`` is ``"pair"``, ``"matrix"`` or
    None), the params, and ``trials``, ``seed`` and ``estimator`` where its
    signature takes them.  ``params`` gives the rule of every parameter a
    config may set; ``requires`` lists preconditions from
    :data:`_REQUIREMENTS`, such as ``"p <= q"`` or ``"growth_window in
    k_list"`` (every entry of one list is in the other).  ``defaults`` holds
    the function's keyword defaults, read from its signature when the
    registry is built: a precondition on an optional parameter that a config
    leaves out is tested with its default, and not at all where the default
    is None (a value the function derives from the others).
    """

    function: str
    instance: str | None = None
    params: dict[str, Param] = field(default_factory=dict)
    requires: tuple[str, ...] = ()
    defaults: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # read at import: a tracer later rebinds the name to a wrapper that shows no signature
        parameters = inspect.signature(globals()[self.function]).parameters.values()
        object.__setattr__(self, "defaults", {p.name: p.default for p in parameters if p.default is not p.empty})


# estimator settings used by campaign checks unless a config overrides them,
# and the rules of the settings a config or a direct call may give
DEFAULT_ESTIMATOR = {"restarts": 6, "max_iters": 80, "tol": 1e-7}
_ESTIMATOR_KEYS = {
    "restarts": Param("integer", required=False, lo=1),
    "max_iters": Param("integer", required=False, lo=1),
    "tol": Param(required=False, lo=0, open=True),
}
# the keys of each entry of a config's checks; a direct call meets its trials rule too
_CHECK_KEYS = {
    "check": Param("string"),
    "instance": Param("instance", required=False),
    "params": Param("object", required=False),
    "trials": Param("integer", required=False, lo=1),
    "ladder": Param("string", required=False),
}

CHECKS: dict[str, CheckEntry] = {
    "lemma_constants": CheckEntry("check_lemma_constants"),
    "hausdorff_young": CheckEntry("check_hausdorff_young", "pair", {"p": Param(lo=1, hi=2)}),
    "real_interpolation": CheckEntry("check_real_interpolation", "pair", {"p": Param(lo=1, hi=2, open=True)}),
    "inversion_plancherel": CheckEntry("check_inversion_plancherel", "pair"),
    "multiplier_bound": CheckEntry(
        "check_multiplier_bound", "pair", {"p": Param(lo=1), "q": Param(lo=1)}, requires=("p <= q",)
    ),
    "paley": CheckEntry("check_paley", "pair", {"p": Param(lo=1, hi=2)}),
    "schur_bound": CheckEntry("check_schur_bound", "matrix", {"p": Param(lo=1, hi=2), "q": Param(lo=2)}),
    "sharpness": CheckEntry(
        "sharpness_experiment",
        params={
            "p": Param(lo=1),
            "q": Param(),
            "n_list": Param("integer", lo=2, hi=_MAX_FREQUENCIES, length=(3, None), increasing=True),
            "s_factor": Param(required=False, lo=1, open=True),
            "m": Param("integer", required=False, hi=_MAX_GRID),
            "growth_factor": Param(required=False),
        },
        requires=("p < q", "2 max(n_list) < m"),
    ),
    "endpoint": CheckEntry(
        "endpoint_experiment",
        params={
            "k_list": Param("integer", lo=1, length=(1, None), increasing=True),
            "m": Param("integer", required=False, hi=_MAX_GRID),
            "growth_window": Param("integer", required=False, length=(2, 2), increasing=True),
            "min_growth": Param(required=False),
        },
        requires=("growth_window in k_list", "2^max(k_list) <= m/4"),
    ),
    "growth": CheckEntry(
        "growth_symbol_check",
        params={
            "num_generators": Param("integer", lo=1),
            "m_growth": Param(lo=0, open=True),
            "p_star": Param(lo=0, open=True),
            "depth": Param("integer", required=False, lo=1, hi=200),  # |B_200| fits json's 4300 digits
            "c": Param(required=False, lo=0, open=True),
        },
    ),
}


def _validate_object(doc, table: dict[str, Param], where: str, noun: str = "key") -> None:
    """Raise ConfigError, led by ``where``, unless ``doc`` is an object with valid keys from ``table``."""
    if type(doc) is not dict:
        raise ConfigError(f"{where} must be an object, got {doc!r}")
    extra = set(doc) - set(table)
    if extra:
        raise ConfigError(f"{where} does not accept {noun}s {sorted(extra)}; allowed: {sorted(table)}")
    for key, param in table.items():
        if key in doc:
            param.validate(f"{where}: {noun}", key, doc[key])
        elif param.required:
            raise ConfigError(f"{where} needs {noun} {key!r}")


def _validate_params(where: str, entry: CheckEntry, params: dict) -> None:
    """Raise ConfigError, led by ``where``, unless ``params`` meet every rule of ``entry``."""
    _validate_object(params, entry.params, where, "parameter")
    values = {key: entry.defaults[key] for key in entry.params if entry.defaults.get(key) is not None}
    values.update(params)
    for rule in entry.requires:
        names, test = _REQUIREMENTS[rule]
        if all(n in values for n in names) and not test(*(values[n] for n in names)):
            got = ", ".join(f"{n}={values[n]!r}" + ("" if n in params else " (default)") for n in names)
            raise ConfigError(f"{where}: need {rule}, got {got}")


# rows x coordinates a check may hold at once: its trials, or its estimator's restarts, each a
# row of its instance's source coordinates (of the largest algebra a lemma trial draws, for
# lemma_constants).  2^24 complex numbers take 256 MiB.  The largest use in the campaigns, tests
# and demos is the lemma check's 10,000 trials of at most 100 coordinates; a Z4096 check at the
# default 1000 trials takes 4,096,000.
_MAX_ROW_COORDINATES = 1 << 24


def _check_rows(where: str, entry: CheckEntry, instance, trials=None, estimator=None) -> None:
    """Raise ConfigError, led by ``where``, where a check's trials (given or its default), or its
    estimator's restarts, times the coordinates of a row exceed ``_MAX_ROW_COORDINATES``.

    ``instance`` is the resolved instance: a pair, a matrix size n (n^2
    coordinates), or None for the lemma check.
    """
    if instance is None:
        coordinates = _LEMMA_COORDINATES
    else:
        coordinates = instance * instance if isinstance(instance, int) else instance.source.complex_dim
    counts = {"trials": entry.defaults.get("trials") if trials is None else trials}
    if "estimator" in entry.defaults:
        counts["restarts"] = {**DEFAULT_ESTIMATOR, **(estimator or {})}["restarts"]
    for key, rows in counts.items():
        if rows is not None and rows * coordinates > _MAX_ROW_COORDINATES:
            raise ConfigError(f"{where}: {key}={rows} rows of {coordinates} coordinates exceed {_MAX_ROW_COORDINATES} in all")


def _check_params(check: str, instance=None, trials=None, estimator=None, **values) -> None:
    """Raise ParameterError unless ``values`` meet the entry of ``check``; None: derived by the function.

    ``trials`` and ``estimator``, where given, meet the rules a config's
    trial count and estimator settings meet, and the rows they make of
    ``instance``'s coordinates meet :func:`_check_rows`.
    """
    where = f"check {check!r}"
    try:
        _validate_params(where, CHECKS[check], {k: v for k, v in values.items() if v is not None})
        if trials is not None:
            _CHECK_KEYS["trials"].validate(f"{where}: key", "trials", trials)
        if estimator is not None:
            _validate_object(estimator, _ESTIMATOR_KEYS, f"{where}: estimator")
        if trials is not None:
            _check_rows(where, CHECKS[check], instance, trials, estimator)
    except ConfigError as exc:
        raise ParameterError(str(exc)) from exc
