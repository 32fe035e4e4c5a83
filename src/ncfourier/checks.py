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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .algebra import AlgebraElement, TracialAlgebra, random_row
from .errors import ParameterError
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
]

# estimator settings used by campaign checks unless a config overrides them
DEFAULT_ESTIMATOR = {"restarts": 6, "max_iters": 80, "tol": 1e-7}

_HARD_TOL = 1e-9
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

        return conv(
            {
                "check": self.check,
                "instance": self.instance,
                "instance_size": self.instance_size,
                "params": self.params,
                "trials": self.trials,
                "seed": self.seed,
                "hard": self.hard,
                "passed": self.passed,
                "threshold": self.threshold,
                "max_ratio": self.max_ratio,
                "empirical_constant": self.empirical_constant,
                "witness": self.witness,
                "series": self.series,
                "details": self.details,
            }
        )


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
# submultiplicativity test takes 9 x (steps of x) x (steps of y) points per
# trial, at most 3600
_LEMMA_CHUNK = 32


def _interior_points(breakpoints: np.ndarray, counts: np.ndarray):
    """Sample points strictly inside every step cell of the step rows of ``_steps``.

    Returns the points, three per step, row by row and in step order, and
    the row of each.  The rows' zero padding gives none.

    Evaluating exactly at breakpoints is unsafe: the breakpoint ladders of
    x, y and xy are independently rounded cumulative sums of the same
    weights, so a point meant to coincide with a jump can land an ulp on
    either side of it and flip a whole step on one side of an inequality
    only.  The fractions avoid 1/2 and pairs summing to an integer, which
    duplicate weights (blocks of dimension > 1) would otherwise turn into
    exact jump hits again.
    """
    left = np.concatenate([np.zeros((len(breakpoints), 1)), breakpoints[:, :-1]], axis=1)
    widths = breakpoints - left
    fracs = np.array([0.05, 0.3, 0.8])
    points = left[:, :, None] + widths[:, :, None] * fracs
    real = np.broadcast_to((np.arange(breakpoints.shape[1]) < counts[:, None])[:, :, None], points.shape)
    return points[real], np.nonzero(real)[0]


def _step_values(breakpoints: np.ndarray, steps: np.ndarray, rows: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The step rows of ``_steps`` at the points ``t`` > 0, point k on row ``rows[k]``, rows in order.

    A row's value at t is its step at the number of its breakpoints below t,
    and 0 past its support, as :class:`SingularFunction` evaluates it.
    """
    bounds = np.searchsorted(rows, np.arange(len(breakpoints) + 1))
    below = np.concatenate([np.searchsorted(b, t[lo:hi]) for b, lo, hi in zip(breakpoints, bounds[:-1], bounds[1:])])
    return np.concatenate([steps, np.zeros((len(steps), 1))], axis=1)[rows, below]


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

    # mu(s + t, xy) <= mu(s, x) mu(t, y) at interior points of the cells of x and y
    s_points, s_rows = _interior_points(bx, counts[:count])
    t_points, t_rows = _interior_points(by, counts[count : 2 * count])
    # every pair (s, t) of a trial's points, trial by trial
    ns, nt = np.bincount(s_rows, minlength=count), np.bincount(t_rows, minlength=count)
    rows = np.repeat(np.arange(count), ns * nt)
    k = np.arange(rows.size) - np.repeat(np.cumsum(ns * nt) - ns * nt, ns * nt)
    s = s_points[(np.cumsum(ns) - ns)[rows] + k // nt[rows]]
    t = t_points[(np.cumsum(nt) - nt)[rows] + k % nt[rows]]
    lhs = _step_values(bxy, vxy, rows, s + t)
    rhs = _step_values(bx, vx, rows, s) * _step_values(by, vy, rows, t)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(rhs > 0, lhs / np.where(rhs > 0, rhs, 1.0), np.where(lhs > 0, np.inf, 0.0))
    r_sub = np.zeros(count)
    np.maximum.at(r_sub, rows, ratios)

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

    * mu(s + t, xy) <= mu(s, x) mu(t, y) on a grid of interior points of
      both factors' step cells, tolerance 1 + 1e-10;
    * ||x||_{p,r} <= (q/p)^(1/q - 1/r) ||x||_{p,q} for q < r, tol 1 + 1e-9;
    * ||xy||_{p,inf} <= 2^(1/p) ||x||_{p0,inf} ||y||_{p1,inf} with
      1/p = 1/p0 + 1/p1, tolerance 1 + 1e-9.

    Trials run in chunks of ``_LEMMA_CHUNK``, each chunk's spectra in one
    kernel call.  A trial's draws come from its own streams and its values
    do not depend on its chunk, bit for bit.
    """
    if trials < 1:
        raise ParameterError("lemma check needs at least one trial")
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
    if not 1.0 <= p <= 2.0:
        raise ParameterError(f"transform bound needs 1 <= p <= 2, got {p}")
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


def check_real_interpolation(pair: QuantumGroupPair, p: float, trials: int = 1000, seed: int = 0) -> CheckReport:
    """Lorentz-refined transform bounds in both directions (monitored).

    Tracks the empirical constants in
    ``||F x||_{p'} <= c ||x||_{L_{p,p'}}`` (forward) and
    ``||F^{-1} a||_{p'} <= c ||a||_{L_{p,p'}}`` (inverse) for 1 < p < 2.
    The Lorentz space on the right is strictly larger than L_p, so these
    sharpen the plain transform bound at the price of a constant, which is
    what gets recorded.
    """
    if not 1.0 < p < 2.0:
        raise ParameterError(f"refined bound needs 1 < p < 2, got {p}")
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
    if trials < 1:
        raise ParameterError("inversion check needs at least one trial")
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


def _estimator_opts(estimator: dict | None) -> dict:
    opts = dict(DEFAULT_ESTIMATOR)
    if estimator:
        opts.update(estimator)
    return opts


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
    if not (1.0 <= p <= q < np.inf):
        raise ParameterError(f"multiplier bound needs 1 <= p <= q < inf, got ({p}, {q})")
    r = difference_exponent(p, q)
    opts = _estimator_opts(estimator)
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
        passed = max_lr_ratio <= 1.0 + 1e-6
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
        threshold=1.0 + 1e-6 if hard else None,
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
    if not 1.0 <= p <= 2.0:
        raise ParameterError(f"one-sided bound needs 1 <= p <= 2, got {p}")
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
    if not (1.0 <= p <= 2.0 <= q < np.inf):
        raise ParameterError(f"entrywise bound needs 1 <= p <= 2 <= q < inf, got ({p}, {q})")
    pair = schur_pair(n)  # raises for n < 1
    r = difference_exponent(p, q)
    opts = _estimator_opts(estimator)
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
        passed=max_lr_ratio <= 1.0 + 1e-6,
        threshold=1.0 + 1e-6,
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
    if not (1.0 <= p < q < np.inf):
        raise ParameterError(f"sharpness run needs 1 <= p < q < inf, got ({p}, {q})")
    if s_factor <= 1.0:
        raise ParameterError(f"s_factor must exceed 1, got {s_factor}")
    n_list = [int(n) for n in n_list]
    if len(n_list) < 3:
        raise ParameterError("sharpness run needs at least 3 profile degrees")
    if sorted(set(n_list)) != n_list or n_list[0] < 2:
        raise ParameterError("profile degrees must be strictly increasing and >= 2")
    if m is None:
        m = 4 * n_list[-1]
    if 2 * n_list[-1] >= m:
        raise ParameterError(f"grid size {m} is too coarse for degree {n_list[-1]}")
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
    k_list = [int(k) for k in k_list]
    if not k_list or sorted(set(k_list)) != k_list or k_list[0] < 1:
        raise ParameterError("K values must be strictly increasing positive integers")
    if 2 ** k_list[-1] > m // 4:
        raise ParameterError(
            f"grid size {m} is too coarse for K = {k_list[-1]} (need 2^K <= M/4)"
        )
    w0, w1 = growth_window
    if w0 not in k_list or w1 not in k_list or not w0 < w1:
        raise ParameterError(
            f"growth window {growth_window} must be an increasing pair of listed K values"
        )
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


def growth_symbol_check(
    num_generators: int,
    m_growth: float,
    p_star: float,
    depth: int = 8,
    c: float = 1.0,
    tol: float = 1e-9,
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
    use exact rational arithmetic whenever M is an integer.  For the
    free-group/exponential case the tail beyond ``depth`` is geometric as
    soon as 2N - 1 < M, which is reported alongside.
    """
    if depth < 1:
        raise ParameterError(f"depth must be at least 1, got {depth}")
    if not (0 < p_star < np.inf):
        raise ParameterError(f"p_star must be finite positive, got {p_star}")
    if m_growth <= 0 or c <= 0:
        raise ParameterError("growth base M and level C must be positive")
    if ball_sizes is None:
        balls = free_group_ball_sizes(num_generators, depth)
    else:
        balls = [int(b) for b in ball_sizes]
        if len(balls) != depth + 1:
            raise ParameterError(f"ball_sizes must have depth + 1 = {depth + 1} entries, got {len(balls)}")
        if balls[0] < 1 or any(a > b for a, b in zip(balls, balls[1:])):
            raise ParameterError("ball_sizes must be nondecreasing with first entry >= 1")
    exact = float(m_growth).is_integer()
    m_int = int(m_growth) if exact else None

    def bound(n):
        if polynomial:
            if n == 0:
                return 1
            return n**m_int if exact else float(n) ** m_growth
        return m_int**n if exact else m_growth**n

    series = []
    violations = []
    max_ratio = 0.0
    for n, b in enumerate(balls):
        if exact:
            ratio_val = Fraction(b, bound(n))
            violated = ratio_val > 1 + Fraction(1, 10**9)
            ratio = float(ratio_val)
        else:
            ratio = b / bound(n)
            violated = ratio > 1.0 + tol
        max_ratio = max(max_ratio, ratio)
        series.append({"n": n, "ball_size": b, "ratio": ratio, "violated": bool(violated)})
        if violated:
            violations.append(n)
    weak_norm_bound = c * max_ratio ** (1.0 / p_star)
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
        threshold=1.0 + tol,
        max_ratio=max_ratio,
        empirical_constant=weak_norm_bound,
        witness=None if not violations else {"violated_radii": violations},
        series=series,
        details=details,
    )
