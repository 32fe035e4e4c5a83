"""Full-scale acceptance gate, one test per release criterion.

Every test here reruns a whole verification campaign at production scale
and at the final tolerances; the faster unit suites in the other test
modules exist so that failures land somewhere more local first.  Each test
prints exactly one verdict line straight to the terminal (bypassing
pytest's capture) so a complete run reads as a checklist:

    [PASS] criterion  1: Plancherel and inversion ...

The criteria, in order: (1) transform unitarity on every shipped instance,
(2) Hausdorff-Young with constant 1 plus its matrix form and dual,
(3) singular-value and Lorentz-Holder lemma constants, (4) estimator
soundness against the brute-force oracle, the exact L2 norm, and finite
differences, (5) multiplier boundedness ladders with identity calibration,
(6) Paley ladders with the hard p = 2 endpoint, (7) entrywise multiplier
ladders with the hard little-l_r clause, (8) log-growth sharpness of the
weak symbol norm, (9) failure of the L1 endpoint on lacunary profiles,
(10) the free-group growth example, (11) byte-identical regeneration of
the shipped reference campaign and the runner's exit-status contract.

Expected wall time is a few minutes, dominated by criteria 4, 5 and 7.
"""

import json
import sys
from pathlib import Path

import numpy as np

from ncfourier.algebra import random_element, trace
from ncfourier.campaign import load_config, resolve_instance, run_campaign, emit_plot_data
from ncfourier.checks import (
    check_hausdorff_young,
    check_inversion_plancherel,
    check_lemma_constants,
    check_multiplier_bound,
    check_paley,
    check_schur_bound,
    conjugate_exponent,
    endpoint_experiment,
    growth_symbol_check,
    loglog_slope,
    sharpness_experiment,
)
from ncfourier.cli import main as cli_main
from ncfourier.estimator import (
    brute_force_pq_norm,
    estimate_pq_norm,
    exact_l2_norm,
    schatten_gradient,
)
from ncfourier.fourier import multiplier_map
from ncfourier.lorentz import lp_norm
from ncfourier.schur import SchurSymbol, schatten_algebra, schur_map, symbol_sequence_norm

from conftest import random_algebra, reference_lemma_constants

# every instance the package ships with a name
SHIPPED = ("Z2", "Z3", "Z4", "Z8", "Z16", "Z64", "Z2xZ2", "S3", "D4", "Q8")
# the ladder instances used by the boundedness criteria
LADDER = ("Z4", "Z8", "Z16", "Z32", "Z64", "S3", "D4", "Q8")
PAIRS = ((4.0 / 3.0, 4.0), (1.5, 2.0), (2.0, 3.0))
MAX_SLOPE = 0.05


def _verdict(num: int, label: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {label} | {detail}"
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def test_criterion_01_plancherel_inversion():
    worst = 0.0
    ok = True
    for i, name in enumerate(SHIPPED):
        rep = check_inversion_plancherel(resolve_instance(name), trials=1000, seed=101 + i)
        worst = max(worst, rep.max_ratio)
        ok = ok and rep.passed and rep.trials >= 1000
    _verdict(
        1,
        "Plancherel and inversion on all shipped instances",
        ok,
        f"max residual {worst:.3e} <= 1e-10 over {len(SHIPPED)}x1000 elements",
    )


def test_criterion_02_hausdorff_young():
    worst = 0.0
    ok = True
    for i, name in enumerate(SHIPPED):
        pair = resolve_instance(name)
        for j, p in enumerate((1.0, 4.0 / 3.0, 1.5, 2.0)):
            rep = check_hausdorff_young(pair, p, trials=1000, seed=211 + 10 * i + j)
            worst = max(worst, rep.max_ratio)
            ok = ok and rep.passed and rep.trials >= 1000

    def entry_norm(mat, p):
        if np.isinf(p):
            return float(np.max(np.abs(mat)))
        return symbol_sequence_norm(SchurSymbol(mat), p)

    # matrix transform bound and its dual: Schatten p' vs entrywise p
    rng = np.random.default_rng(2026)
    for n in (2, 4, 8):
        alg = schatten_algebra(n)
        for p in (1.0, 4.0 / 3.0, 1.5, 2.0):
            pc = conjugate_exponent(p)
            for _ in range(1000):
                mat = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                x = alg.element([mat])
                fwd = lp_norm(x, pc) / entry_norm(mat, p)
                dual = entry_norm(mat, pc) / lp_norm(x, p)
                worst = max(worst, fwd, dual)
                ok = ok and fwd <= 1.0 + 1e-9 and dual <= 1.0 + 1e-9
    _verdict(
        2,
        "Hausdorff-Young, matrix form, and dual at constant 1",
        ok,
        f"max ratio {worst:.12f} <= 1 + 1e-9",
    )


def test_criterion_03_lemma_constants():
    rep = check_lemma_constants(trials=10_000, seed=331)
    violations = rep.details["violations"]
    # the batched check against the trial-by-trial reference, bit for bit
    same = rep.to_dict() == reference_lemma_constants(10_000, 331).to_dict()
    _verdict(
        3,
        "submultiplicativity, norm comparison, Holder at 10^4 cases",
        rep.passed and violations == 0 and same,
        f"{violations} violations, {'equal to' if same else 'NOT equal to'} the trial-by-trial report, worst by family "
        + ", ".join(f"{k}={v:.10f}" for k, v in rep.details["worst_by_family"].items()),
    )


def test_criterion_04_estimator_soundness():
    ok = True
    details = []

    # maps whose domain is small enough for the sampling oracle
    cases = []
    for i, name in enumerate(("Z2", "Z3", "Z4", "Z2xZ2")):
        pair = resolve_instance(name)
        for j, (kind, sym) in enumerate(
            (("identity", pair.source.identity()), ("random", random_element(pair.source, 401 + i)))
        ):
            cases.append((f"{name}:{kind}", multiplier_map(pair, sym), PAIRS[(2 * i + j) % 3]))
    rng = np.random.default_rng(402)
    for j, (kind, mat) in enumerate(
        (("ones", np.ones((2, 2))), ("random", rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))))
    ):
        cases.append((f"M2:{kind}", schur_map(mat), PAIRS[(2 + j) % 3]))

    worst_frac = np.inf
    worst_l2 = 0.0
    for label, m, (p, q) in cases:
        assert m.domain.real_dim <= 8
        est = estimate_pq_norm(m, p, q, restarts=32, seed=403)
        brute = brute_force_pq_norm(m, p, q, samples=100_000, seed=404)
        frac = est.lower_bound / brute
        worst_frac = min(worst_frac, frac)
        if frac < 0.98:
            ok = False
            details.append(f"{label} ({p:.3g},{q:.3g}) est/brute={frac:.4f}")
        l2 = estimate_pq_norm(m, 2.0, 2.0, restarts=32, seed=405).lower_bound
        exact = exact_l2_norm(m)
        err = abs(l2 - exact) / exact
        worst_l2 = max(worst_l2, err)
        ok = ok and err <= 1e-6

    # gradient of the Schatten q-norm against central differences
    rng = np.random.default_rng(406)
    eps = 1e-5
    worst_fd = 0.0
    q_grid = (1.5, 2.0, 2.5, 3.0, 4.5)
    for i in range(50):
        alg = random_algebra(rng, max_blocks=3, max_dim=3)
        x = random_element(alg, int(rng.integers(2**32)))
        q = q_grid[i % len(q_grid)]
        g = schatten_gradient(x, q)
        for _ in range(20):
            h = random_element(alg, int(rng.integers(2**32)))
            fd = (lp_norm(x + h * eps, q) - lp_norm(x + h * (-eps), q)) / (2 * eps)
            ip = trace(h.adjoint() * g).real
            worst_fd = max(worst_fd, abs(fd - ip))
            ok = ok and abs(fd - ip) <= 1e-5
    _verdict(
        4,
        "estimator vs brute force, exact L2, finite differences",
        ok,
        f"min est/brute {worst_frac:.4f} >= 0.98, L2 err {worst_l2:.2e}, "
        f"FD err {worst_fd:.2e}" + ("; " + "; ".join(details) if details else ""),
    )


def test_criterion_05_multiplier_ladders():
    ok = True
    slopes = []
    worst_identity = 0.0
    for k, (p, q) in enumerate(PAIRS):
        sizes = []
        ratios = []
        for i, name in enumerate(LADDER):
            # zero draws (all-masked sparse symbols) are skipped by the
            # check, so 230 requested keeps >= 200 evaluated
            rep = check_multiplier_bound(resolve_instance(name), p, q, trials=230, seed=511 + 10 * k + i)
            sizes.append(rep.instance_size)
            ratios.append(rep.max_ratio)
            dev = abs(rep.details["identity_ratio"] - 1.0)
            worst_identity = max(worst_identity, dev)
            ok = ok and dev <= 1e-6 and rep.trials >= 200
        slope = loglog_slope(sizes, ratios)
        slopes.append(slope)
        ok = ok and slope <= MAX_SLOPE
    _verdict(
        5,
        "multiplier ratio ladders flat, identity calibrated",
        ok,
        f"slopes {', '.join(f'{s:.4f}' for s in slopes)} <= {MAX_SLOPE}, "
        f"identity dev {worst_identity:.2e} <= 1e-6",
    )


def test_criterion_06_paley_ladders():
    ok = True
    worst_hard = 0.0
    for i, name in enumerate(LADDER):
        rep = check_paley(resolve_instance(name), 2.0, trials=230, seed=611 + i)
        worst_hard = max(worst_hard, rep.max_ratio)
        ok = ok and rep.hard and rep.passed and rep.trials >= 200
    slopes = []
    for k, p in enumerate((4.0 / 3.0, 1.5)):
        sizes = []
        ratios = []
        for i, name in enumerate(LADDER):
            rep = check_paley(resolve_instance(name), p, trials=230, seed=621 + 10 * k + i)
            sizes.append(rep.instance_size)
            ratios.append(rep.max_ratio)
            ok = ok and rep.trials >= 200
        slope = loglog_slope(sizes, ratios)
        slopes.append(slope)
        ok = ok and slope <= MAX_SLOPE
    _verdict(
        6,
        "Paley hard at p=2, ladders flat below",
        ok,
        f"p=2 max ratio {worst_hard:.12f} <= 1 + 1e-9, "
        f"slopes {', '.join(f'{s:.4f}' for s in slopes)} <= {MAX_SLOPE}",
    )


def test_criterion_07_schur_ladders():
    ok = True
    slopes = []
    worst_lr = 0.0
    for k, (p, q) in enumerate(PAIRS):
        sizes = []
        ratios = []
        for i, n in enumerate((2, 4, 8, 16)):
            rep = check_schur_bound(n, p, q, trials=230, seed=711 + 10 * k + i)
            sizes.append(rep.instance_size)
            ratios.append(rep.max_ratio)
            worst_lr = max(worst_lr, rep.details["max_lr_ratio"])
            ok = ok and rep.passed and rep.trials >= 200
        slope = loglog_slope(sizes, ratios)
        slopes.append(slope)
        ok = ok and slope <= MAX_SLOPE
    _verdict(
        7,
        "entrywise multipliers: hard l_r clause, weak ladders flat",
        ok,
        f"max l_r ratio {worst_lr:.12f} <= 1 + 1e-6, "
        f"slopes {', '.join(f'{s:.4f}' for s in slopes)} <= {MAX_SLOPE}",
    )


def test_criterion_08_sharpness():
    rep = sharpness_experiment(4.0 / 3.0, 4.0, [64, 512, 4096], seed=811)
    _verdict(
        8,
        "weak-norm sharpness: ratio grows like the log factor",
        rep.passed,
        f"growth {rep.max_ratio:.4f} >= {rep.threshold:.4f}, ratios "
        + ", ".join(f"{row['ratio']:.4f}" for row in rep.series),
    )


def test_criterion_09_endpoint_failure():
    # the growth floor is calibrated: the lacunary L1 norms gain 10.56%
    # from K = 8 to K = 16 at this resolution, see campaigns in the repo
    rep = endpoint_experiment(list(range(4, 17)), m=2**20, growth_window=(8, 16), min_growth=0.10)
    _verdict(
        9,
        "L1 endpoint failure on lacunary profiles",
        rep.passed,
        f"weak norms exactly 1, L1 growth {rep.details['l1_growth_on_window']:.4f} >= 0.10, "
        f"L2 closed-form err {rep.details['l2_closed_form_error']:.2e} <= 1e-8",
    )


def test_criterion_10_growth_example():
    ok = True
    cells = []
    for n in (2, 3):
        for p_star in (2.0, 4.0):
            for c in (1.0, 10.0):
                rep = growth_symbol_check(n, 2 * n + 1, p_star, depth=8, c=c)
                bad = sum(1 for row in rep.series if row["violated"])
                cells.append(f"N={n},p*={p_star:g},C={c:g}:{'ok' if rep.passed and not bad else 'VIOLATED'}")
                ok = ok and rep.passed and bad == 0
    _verdict(
        10,
        "free-group growth example to depth 8",
        ok,
        "; ".join(cells),
    )


def test_criterion_11_reproducibility(tmp_path):
    repo = Path(__file__).resolve().parents[1]
    reference = repo / "campaigns" / "reference_output"
    config = load_config(repo / "campaigns" / "reference.json")
    out = tmp_path / "regen"
    code, _ = run_campaign(config, out, jobs=2)
    emit_plot_data(out, out / "plots")

    def tree(root):
        return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}

    want = tree(reference)
    got = tree(out)
    identical = code == 0 and want == got
    differing = sorted(set(want) ^ set(got)) + [k for k in sorted(set(want) & set(got)) if want[k] != got[k]]

    # exit-status contract: 1 for a hard failure, 2 for a config error
    fault_cfg = tmp_path / "fault.json"
    fault_cfg.write_text(
        json.dumps(
            {
                "seed": 3,
                "checks": [
                    {
                        "check": "inversion_plancherel",
                        "instance": {"cyclic": 4, "fault_scale": 1e-6},
                        "trials": 10,
                    }
                ],
            }
        )
    )
    fault_code = cli_main(["run", str(fault_cfg), "--out", str(tmp_path / "fault_out")])
    broken_cfg = tmp_path / "broken.json"
    broken_cfg.write_text(json.dumps({"checks": [{"check": "no_such_check"}]}))
    broken_code = cli_main(["run", str(broken_cfg), "--out", str(tmp_path / "broken_out")])
    ok = identical and fault_code == 1 and broken_code == 2
    _verdict(
        11,
        "reference campaign byte-identical, exit codes 0/1/2",
        ok,
        f"{len(want)} files compared"
        + (f", differing: {differing[:4]}" if differing else "")
        + f", fault exit {fault_code}, config-error exit {broken_code}",
    )
