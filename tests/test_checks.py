import json
import math

import numpy as np
import pytest

from ncfourier.checks import (
    check_hausdorff_young,
    check_inversion_plancherel,
    check_lemma_constants,
    check_multiplier_bound,
    check_paley,
    check_real_interpolation,
    check_schur_bound,
    conjugate_exponent,
    difference_exponent,
    endpoint_experiment,
    free_group_ball_sizes,
    growth_symbol_check,
    loglog_slope,
    one_sided_exponent,
    sharpness_experiment,
    symmetric_exponent,
)
from ncfourier.campaign import resolve_instance
from ncfourier.errors import ParameterError
from ncfourier.fourier import build_finite_abelian, build_group_vna, perturb_fourier_matrix
from ncfourier.groups import builtin_group
from ncfourier.linmap import LinearMap
from ncfourier.torus import cosine_profile, riemann_lp

from ncfourier.checks import _random_sources, _source_battery
from ncfourier.lorentz import _block_ops

from conftest import (
    reference_hausdorff_young,
    reference_inversion_plancherel,
    reference_lemma_constants,
    reference_paley,
    reference_random_sources,
    reference_real_interpolation,
    reference_source_battery,
)

FAST_EST = {"restarts": 3, "max_iters": 40, "tol": 1e-6}


class TestExponentHelpers:
    def test_conjugate(self):
        assert conjugate_exponent(1.0) == np.inf
        assert conjugate_exponent(np.inf) == 1.0
        assert conjugate_exponent(2.0) == 2.0
        assert conjugate_exponent(4.0 / 3.0) == pytest.approx(4.0)
        with pytest.raises(ParameterError):
            conjugate_exponent(0.9)

    def test_difference(self):
        assert difference_exponent(4.0 / 3.0, 4.0) == pytest.approx(2.0)
        assert difference_exponent(1.0, 2.0) == pytest.approx(2.0)
        assert difference_exponent(2.0, 2.0) == np.inf
        assert difference_exponent(1.5, np.inf) == pytest.approx(1.5)
        with pytest.raises(ParameterError):
            difference_exponent(3.0, 2.0)
        with pytest.raises(ParameterError):
            difference_exponent(0.0, 2.0)

    def test_one_sided(self):
        assert one_sided_exponent(2.0) == np.inf
        assert one_sided_exponent(1.0) == pytest.approx(1.0)
        assert one_sided_exponent(4.0 / 3.0) == pytest.approx(2.0)
        with pytest.raises(ParameterError):
            one_sided_exponent(2.5)

    def test_symmetric(self):
        assert symmetric_exponent(2.0) == np.inf
        assert symmetric_exponent(1.0) == pytest.approx(2.0)
        assert symmetric_exponent(np.inf) == pytest.approx(2.0)
        assert symmetric_exponent(4.0) == pytest.approx(4.0)

    def test_loglog_slope_exact(self):
        sizes = np.array([4.0, 8.0, 16.0, 64.0])
        values = 3.0 * sizes**0.7
        assert loglog_slope(sizes, values) == pytest.approx(0.7, abs=1e-12)
        assert loglog_slope(sizes, np.full(4, 2.0)) == pytest.approx(0.0, abs=1e-12)

    def test_loglog_slope_errors(self):
        with pytest.raises(ParameterError):
            loglog_slope([2.0], [1.0])
        with pytest.raises(ParameterError):
            loglog_slope([2.0, 2.0], [1.0, 3.0])
        with pytest.raises(ParameterError):
            loglog_slope([2.0, 4.0], [0.0, 0.0])


class TestLemmaConstants:
    def test_small_run_passes(self):
        rep = check_lemma_constants(trials=60, seed=3)
        assert rep.passed
        assert rep.hard
        assert rep.max_ratio <= 1.0 + 1e-9
        assert set(rep.details["worst_by_family"]) == {
            "submultiplicativity",
            "nesting",
            "weak_hoelder",
        }
        assert rep.details["violations"] == 0

    def test_trials_validation(self):
        with pytest.raises(ParameterError):
            check_lemma_constants(trials=0)

    # 45 trials end on a partial chunk
    @pytest.mark.parametrize("trials, seed", [(1, 0), (60, 1), (300, 12345), (45, 2)])
    def test_matches_trial_by_trial_reference(self, trials, seed):
        cached = _block_ops.cache_info().currsize
        got = check_lemma_constants(trials=trials, seed=seed).to_dict()
        assert _block_ops.cache_info().currsize == cached
        assert got == reference_lemma_constants(trials, seed).to_dict()


class TestBatteries:
    """The row batteries keep the names, the order and the bits of the element batteries."""

    @pytest.mark.parametrize("instance", ["Z8", "Z2xZ2", "S3", "D4"])
    @pytest.mark.parametrize("trials", [1, 12, 40])
    def test_source_battery(self, instance, trials):
        pair = resolve_instance(instance)
        for betas in [(0.5, 1.0, 2.0), (0.75, 1.5)]:
            names, rows = _source_battery(pair, trials, np.random.default_rng(trials), betas)
            want = reference_source_battery(pair, trials, np.random.default_rng(trials), betas)
            assert names == [name for name, _ in want]
            assert np.array_equal(rows, np.array([x.row for _, x in want]))

    @pytest.mark.parametrize("instance", ["Z8", "S3"])
    @pytest.mark.parametrize("ensembles", [("gaussian",), ("gaussian", "rank_one"), ("gaussian", "rank_one", "sparse")])
    def test_random_sources(self, instance, ensembles):
        for alg in (resolve_instance(instance).source, resolve_instance(instance).dual):
            names, rows = _random_sources(alg, 7, np.random.default_rng(8), ensembles)
            want = reference_random_sources(alg, 7, np.random.default_rng(8), ensembles)
            assert names == [name for name, _ in want]
            assert np.array_equal(rows, np.array([x.row for _, x in want]))


class TestHausdorffYoung:
    def test_abelian_instance(self):
        rep = check_hausdorff_young(build_finite_abelian([8]), 1.5, trials=40, seed=1)
        assert rep.passed and rep.hard
        assert rep.max_ratio <= 1.0 + 1e-9
        assert rep.params["p_conjugate"] == pytest.approx(3.0)
        assert rep.trials >= 40

    def test_group_instance(self):
        rep = check_hausdorff_young(
            build_group_vna(builtin_group("S3")), 4.0 / 3.0, trials=30, seed=2
        )
        assert rep.passed
        assert rep.instance == "S3"

    def test_p_range(self):
        pair = build_finite_abelian([4])
        with pytest.raises(ParameterError):
            check_hausdorff_young(pair, 2.5)


class TestRealInterpolation:
    def test_point_mass_constant(self):
        # the point-mass ratio is exactly (p'/p)^(1/p'), reached by the battery
        p = 1.5
        pc = 3.0
        rep = check_real_interpolation(build_finite_abelian([4]), p, trials=1, seed=4)
        want = (pc / p) ** (1.0 / pc)
        assert rep.details["forward_constant"] >= want - 1e-9
        assert not rep.hard and rep.passed

    def test_witness_matches_max(self):
        rep = check_real_interpolation(
            build_group_vna(builtin_group("D4")), 1.5, trials=30, seed=5
        )
        assert rep.witness["ratio"] == pytest.approx(rep.max_ratio)
        assert rep.max_ratio == pytest.approx(
            max(rep.details["forward_constant"], rep.details["inverse_constant"])
        )

    def test_p_strictly_interior(self):
        pair = build_finite_abelian([4])
        for bad in (1.0, 2.0):
            with pytest.raises(ParameterError):
                check_real_interpolation(pair, bad)


class TestInversionPlancherel:
    def test_clean_pair(self):
        rep = check_inversion_plancherel(build_finite_abelian([6]), trials=30, seed=6)
        assert rep.passed and rep.hard
        assert rep.max_ratio <= 1e-10

    def test_faulted_pair_fails(self):
        bad = perturb_fourier_matrix(build_finite_abelian([6]), 0.01)
        rep = check_inversion_plancherel(bad, trials=20, seed=7)
        assert not rep.passed
        assert rep.max_ratio > 1e-4
        assert rep.instance.endswith("!fault")


BATTERY_PAIRS = ["Z8", "S3", "Q8"]


def _pair(name):
    return build_finite_abelian([int(name[1:])], name=name) if name[0] == "Z" else build_group_vna(builtin_group(name))


def _same_worst(report, reference, key="ratio", **tol):
    """The batched report and the per-element reference agree on the max and on the witness's value."""
    ref_max, ref_witness = reference
    assert report.max_ratio == pytest.approx(ref_max, **tol)
    assert report.witness[key] == pytest.approx(ref_witness[key], **tol)


class TestBatchedBatteries:
    """Each battery check, which stacks its battery and takes every norm with one
    kernel call, against the same battery one element at a time."""

    @pytest.mark.parametrize("name", BATTERY_PAIRS)
    @pytest.mark.parametrize("p", [1.25, 1.5, 2.0])
    def test_hausdorff_young(self, name, p):
        pair = _pair(name)
        rep = check_hausdorff_young(pair, p, trials=40, seed=3)
        _same_worst(rep, reference_hausdorff_young(pair, p, 40, 3), rel=1e-12)

    @pytest.mark.parametrize("name", BATTERY_PAIRS)
    @pytest.mark.parametrize("p", [1.25, 1.5])
    def test_real_interpolation(self, name, p):
        pair = _pair(name)
        rep = check_real_interpolation(pair, p, trials=40, seed=4)
        _same_worst(rep, reference_real_interpolation(pair, p, 40, 4), rel=1e-12)

    # the residuals are rounding errors, but rounded up to the grid they
    # agree bit for bit, and so does the witness
    @pytest.mark.parametrize("name", BATTERY_PAIRS + ["Z1", "Z5", "D4"])
    def test_inversion_plancherel(self, name):
        pair = _pair(name)
        rep = check_inversion_plancherel(pair, trials=40, seed=5)
        assert (rep.max_ratio, rep.witness) == reference_inversion_plancherel(pair, 40, 5)

    @pytest.mark.parametrize("name", BATTERY_PAIRS)
    @pytest.mark.parametrize("p", [1.25, 2.0])
    def test_paley(self, name, p):
        pair = _pair(name)
        _same_worst(check_paley(pair, p, trials=40, seed=6), reference_paley(pair, p, 40, 6), rel=1e-12)


class TestMultiplierBound:
    def test_l2_to_l2_is_exact(self):
        # at p = q = 2 the multiplier norm equals the sup of the symbol,
        # so every ratio in the battery is at most 1 and the identity hits it
        rep = check_multiplier_bound(
            build_finite_abelian([8]), 2.0, 2.0, trials=10, seed=8, estimator=FAST_EST
        )
        assert rep.max_ratio <= 1.0 + 1e-6
        assert rep.details["identity_ratio"] == pytest.approx(1.0, abs=1e-6)
        assert rep.params["r"] is None
        assert rep.hard and rep.passed
        assert all(row["lr_norm"] == row["weak_norm"] for row in rep.series)

    def test_identity_ratio_off_diagonal(self):
        rep = check_multiplier_bound(
            build_group_vna(builtin_group("S3")),
            4.0 / 3.0,
            4.0,
            trials=8,
            seed=9,
            estimator=FAST_EST,
        )
        assert rep.details["identity_ratio"] == pytest.approx(1.0, abs=1e-6)
        assert rep.params["r"] == pytest.approx(2.0)
        assert rep.hard and rep.passed
        assert rep.details["max_lr_ratio"] <= 1.0 + 1e-6
        assert len(rep.series) == rep.trials

    @pytest.mark.parametrize("p, q", [(2.5, 4.0), (1.2, 1.5)])
    def test_monitored_outside_p_le_2_le_q(self, p, q):
        rep = check_multiplier_bound(build_finite_abelian([4]), p, q, trials=4, seed=9, estimator=FAST_EST)
        assert not rep.hard and rep.passed and rep.threshold is None
        assert "max_lr_ratio" not in rep.details
        assert all("lr_norm" not in row for row in rep.series)

    def test_deterministic(self):
        pair = build_finite_abelian([6])
        a = check_multiplier_bound(pair, 1.5, 3.0, trials=6, seed=10, estimator=FAST_EST)
        b = check_multiplier_bound(pair, 1.5, 3.0, trials=6, seed=10, estimator=FAST_EST)
        assert a.to_dict() == b.to_dict()

    def test_exponent_validation(self):
        pair = build_finite_abelian([4])
        with pytest.raises(ParameterError):
            check_multiplier_bound(pair, 3.0, 2.0)
        with pytest.raises(ParameterError):
            check_multiplier_bound(pair, 2.0, np.inf)


class TestNoDenseMap:
    # multipliers and Schur maps ascend as their symbols: with the dense
    # constructor refused, the bound checks still run and pass
    @pytest.fixture
    def no_dense(self, monkeypatch):
        def refuse(self, *args, **kwargs):
            raise AssertionError("a dense LinearMap was built")

        monkeypatch.setattr(LinearMap, "__init__", refuse)

    @pytest.mark.parametrize("name", ["Z8", "S3"])
    def test_multiplier_bound(self, name, no_dense):
        rep = check_multiplier_bound(resolve_instance(name), 4.0 / 3.0, 4.0, trials=6, seed=15, estimator=FAST_EST)
        assert rep.hard and rep.passed

    def test_schur_bound(self, no_dense):
        rep = check_schur_bound(4, 1.5, 3.0, trials=6, seed=16, estimator=FAST_EST)
        assert rep.hard and rep.passed


class TestPaley:
    def test_p2_is_hard_and_passes(self):
        rep = check_paley(build_finite_abelian([6]), 2.0, trials=40, seed=11)
        assert rep.hard and rep.passed
        assert rep.max_ratio <= 1.0 + 1e-9
        assert rep.params["s"] is None

    def test_interior_p_monitored(self):
        rep = check_paley(build_group_vna(builtin_group("Q8")), 1.5, trials=30, seed=12)
        assert not rep.hard and rep.passed
        assert rep.params["s"] == pytest.approx(3.0)
        assert rep.max_ratio > 0.0

    def test_p_range(self):
        with pytest.raises(ParameterError):
            check_paley(build_finite_abelian([4]), 2.5)


class TestSchurBound:
    def test_small_instance(self):
        rep = check_schur_bound(3, 4.0 / 3.0, 4.0, trials=10, seed=13, estimator=FAST_EST)
        assert rep.hard and rep.passed
        assert rep.details["max_lr_ratio"] <= 1.0 + 1e-6
        assert rep.instance == "M3"
        assert rep.instance_size == 3.0
        names = [row["input"] for row in rep.series]
        assert names[:4] == ["atom_11", "all_ones", "diagonal", "alternating"]

    def test_atom_saturates(self):
        rep = check_schur_bound(2, 4.0 / 3.0, 4.0, trials=7, seed=14, estimator=FAST_EST)
        atom = next(row for row in rep.series if row["input"] == "atom_11")
        assert atom["ratio"] == pytest.approx(1.0, abs=1e-6)
        assert atom["weak_norm"] == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ParameterError):
            check_schur_bound(0, 1.5, 3.0)
        with pytest.raises(ParameterError):
            check_schur_bound(4, 2.5, 3.0)
        with pytest.raises(ParameterError):
            check_schur_bound(4, 1.5, 1.8)


class TestSharpness:
    def test_small_ladder_passes(self):
        rep = sharpness_experiment(4.0 / 3.0, 4.0, [4, 8, 16], m=512, seed=15)
        assert rep.passed and rep.hard
        ratios = [row["ratio"] for row in rep.series]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        assert rep.params["s"] == pytest.approx(1.25 * rep.params["r"])
        assert rep.params["alpha"] > 0

    def test_default_grid(self):
        rep = sharpness_experiment(1.5, 3.0, [4, 8, 16], seed=16)
        assert rep.params["m"] == 64

    def test_validation(self):
        with pytest.raises(ParameterError):
            sharpness_experiment(2.0, 2.0, [4, 8, 16])
        with pytest.raises(ParameterError):
            sharpness_experiment(1.5, 3.0, [4, 8])
        with pytest.raises(ParameterError):
            sharpness_experiment(1.5, 3.0, [8, 4, 16])
        with pytest.raises(ParameterError):
            sharpness_experiment(1.5, 3.0, [4, 8, 16], s_factor=1.0)
        with pytest.raises(ParameterError):
            sharpness_experiment(1.5, 3.0, [4, 8, 256], m=512)


class TestEndpoint:
    def test_calibrated_window_passes(self):
        rep = endpoint_experiment(
            list(range(4, 13)), m=2**14, growth_window=(8, 12), min_growth=0.03
        )
        assert rep.passed and rep.hard
        assert rep.details["weak_norms_exactly_one"] is True
        assert rep.details["l2_closed_form_error"] <= 1e-8
        assert rep.details["l1_growth_on_window"] >= 0.03
        assert all(row["weak_norm"] == 1.0 for row in rep.series)

    def test_small_k_dip_fails_monotonicity(self):
        # l1 dips from K=5 to K=6, so a window across it cannot be increasing
        rep = endpoint_experiment(
            [4, 5, 6, 7], m=2**14, growth_window=(4, 7), min_growth=0.0001
        )
        assert not rep.passed
        assert rep.details["l1_increasing_on_window"] is False

    def test_validation(self):
        with pytest.raises(ParameterError):
            endpoint_experiment([], m=2**14)
        with pytest.raises(ParameterError):
            endpoint_experiment([4, 3, 5], m=2**14)
        with pytest.raises(ParameterError):
            endpoint_experiment([4, 5, 20], m=2**14, growth_window=(4, 5))
        with pytest.raises(ParameterError):
            endpoint_experiment([4, 5, 6], m=2**14, growth_window=(4, 9))


class TestGrowthSymbol:
    def test_free_group_ball_counts(self):
        assert free_group_ball_sizes(2, 4) == [1, 5, 17, 53, 161]
        assert free_group_ball_sizes(1, 4) == [1, 3, 5, 7, 9]
        assert free_group_ball_sizes(3, 2) == [1, 7, 37]

    def test_tight_base_passes(self):
        rep = growth_symbol_check(2, 5, 4.0, depth=6)
        assert rep.passed and rep.hard
        assert rep.max_ratio == 1.0  # |B_1| = 5 = 5^1 exactly
        assert rep.empirical_constant == pytest.approx(1.0)
        assert rep.details["tail_geometric"] is True
        assert rep.details["tail_ratio"] == pytest.approx(0.6)

    def test_loose_base_fails_exactly(self):
        rep = growth_symbol_check(2, 4, 4.0, depth=6)
        assert not rep.passed
        assert rep.witness["violated_radii"] == [1, 2]

    def test_polynomial_profile(self):
        balls = [1] + [n**3 for n in range(1, 9)]
        rep = growth_symbol_check(
            2, 3, 2.0, depth=8, ball_sizes=balls, polynomial=True
        )
        assert rep.passed
        assert rep.max_ratio == 1.0
        assert rep.details["profile"] == "polynomial"
        assert "tail_ratio" not in rep.details

    def test_noninteger_base(self):
        rep = growth_symbol_check(2, 4.5, 4.0, depth=4)
        assert not rep.passed  # 5 > 4.5 at n = 1
        rep2 = growth_symbol_check(2, 5.5, 4.0, depth=4)
        assert rep2.passed

    def test_ratio_past_the_double_range_reads_inf(self):
        # |B_n| of 10^10 generators over 5^n, about (4e9)^n, leaves the double range at n = 33
        rep = growth_symbol_check(10**10, 5, 4.0, depth=40)
        assert not rep.passed and rep.witness["violated_radii"] == list(range(1, 41))
        assert rep.max_ratio == math.inf and rep.empirical_constant == math.inf
        assert rep.series[32]["ratio"] < math.inf and rep.series[33]["ratio"] == math.inf
        assert json.loads(json.dumps(rep.to_dict()))["max_ratio"] == math.inf

    def test_noninteger_base_past_the_double_range_is_exact(self):
        # 1000.5^n overflows a double from n = 103; compared exactly, every
        # ratio past n = 0 is below 1, and the last rounds to 0
        rep = growth_symbol_check(2, 1000.5, 4.0, depth=200)
        assert rep.passed and rep.max_ratio == 1.0
        assert rep.series[1]["ratio"] == 5 / 1000.5 and rep.series[200]["ratio"] == 0.0

    def test_polynomial_bound_past_the_double_range(self):
        # a non-integer M compares in logarithms where |B_n| or n^M leaves the
        # double range; an integer M exactly, without building an n^M that
        # dwarfs |B_n|
        rep = growth_symbol_check(10**10, 2.5, 4.0, depth=40, polynomial=True)
        assert not rep.passed and rep.max_ratio == math.inf
        assert rep.series[2]["ratio"] == pytest.approx((2 * 10**10) ** 2 / 2**2.5, rel=1e-9)
        rep = growth_symbol_check(2, 10**12, 4.0, depth=40, polynomial=True)
        assert rep.witness["violated_radii"] == [1]  # |B_1| = 5 > 1^M
        assert all(row["ratio"] == 0.0 for row in rep.series[2:])
        rep = growth_symbol_check(2, 4, 1e-4, depth=6)  # max ratio 1.25, raised to the 10^4
        assert rep.max_ratio == 1.25 and rep.empirical_constant == math.inf

    def test_validation(self):
        with pytest.raises(ParameterError):
            growth_symbol_check(2, 5, 4.0, depth=0)
        with pytest.raises(ParameterError):
            growth_symbol_check(0, 5, 4.0)
        with pytest.raises(ParameterError):
            growth_symbol_check(2, 0.0, 4.0)
        with pytest.raises(ParameterError):
            growth_symbol_check(2, 5, np.inf)
        with pytest.raises(ParameterError):
            growth_symbol_check(2, 5, 4.0, depth=3, ball_sizes=[1, 5])
        with pytest.raises(ParameterError):
            growth_symbol_check(2, 5, 4.0, depth=2, ball_sizes=[5, 3, 1])


class TestParameterGate:
    """A direct call meets the rules of the check's registry entry, for any Python number."""

    def test_numpy_numbers_and_tuples_pass(self):
        rep = sharpness_experiment(np.float64(1.5), np.int64(3), (np.int64(4), 8, 16), m=np.int64(64))
        assert rep.passed and rep.params["m"] == 64
        rep = endpoint_experiment([4, 5, 6], m=2**10, growth_window=(np.int64(4), 6), min_growth=0.0)
        assert rep.params["growth_window"] == [4, 6]

    def test_bool_is_not_a_number(self):
        with pytest.raises(ParameterError, match="'p' must be a number, got True"):
            check_paley(build_finite_abelian([4]), True)
        with pytest.raises(ParameterError, match="'depth' must be an integer, got True"):
            growth_symbol_check(2, 5, 4.0, depth=True)


class TestTorusProfiles:
    def test_exact_synthesis(self):
        m = 16
        t = np.arange(m) / m
        vals = cosine_profile(m, [0, 3], [0.5, 2.0])
        want = 0.5 + 2.0 * np.cos(2 * np.pi * 3 * t)
        assert np.allclose(vals, want, atol=1e-12)

    def test_l2_riemann_sum_is_exact(self):
        m = 64
        vals = cosine_profile(m, [1, 5, 9], [1.0, 0.5, 0.25])
        want = np.sqrt((1.0 + 0.25 + 0.0625) / 2.0)
        assert riemann_lp(vals, 2) == pytest.approx(want, rel=1e-12)

    def test_sup_norm(self):
        vals = cosine_profile(32, [2], [3.0])
        assert riemann_lp(vals, np.inf) == pytest.approx(3.0)

    def test_degree_cap(self):
        with pytest.raises(ParameterError):
            cosine_profile(16, [8], [1.0])
        with pytest.raises(ParameterError):
            cosine_profile(16, [-1], [1.0])

    def test_distinct_frequencies(self):
        with pytest.raises(ParameterError):
            cosine_profile(16, [3, 3], [1.0, 1.0])

    def test_riemann_validation(self):
        with pytest.raises(ParameterError):
            riemann_lp(np.ones(4), 0.0)
        with pytest.raises(ParameterError):
            cosine_profile(1, [0], [1.0])


class TestReportSerialization:
    def test_json_round_trip(self):
        rep = growth_symbol_check(2, 5, 4.0, depth=4)
        d = rep.to_dict()
        assert isinstance(d["hard"], bool)
        assert isinstance(d["passed"], bool)
        assert isinstance(d["max_ratio"], float)
        assert isinstance(d["series"][0]["ball_size"], int)
        assert isinstance(d["series"][0]["violated"], bool)
        text = json.dumps(d, sort_keys=True)
        assert json.loads(text) == d
