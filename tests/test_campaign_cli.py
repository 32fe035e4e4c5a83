import copy
import inspect
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from ncfourier.campaign import (
    CHECK_DEFAULT_TRIALS,
    CHECKS,
    MAX_BOUNDED_SLOPE,
    CampaignConfig,
    CheckSpec,
    _CHECK_KEYS,
    _CONFIG_KEYS,
    _ESTIMATOR_KEYS,
    _INSTANCE_KEYS,
    _declared_precision,
    _instance_spec,
    diff_outputs,
    emit_plot_data,
    list_instances,
    load_config,
    resolve_instance,
    run_campaign,
)
import ncfourier.checks as checks_mod
from ncfourier.cli import main
from ncfourier.errors import ConfigError, ParameterError
from ncfourier.groups import cyclic_group_data, save_group_file

FAST_ESTIMATOR = {"restarts": 2, "max_iters": 30, "tol": 1e-6}


def _write_config(tmp_path, doc, name="campaign.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def _fast_campaign(seed=11, fault=None):
    instance = "Z4" if fault is None else {"cyclic": 4, "fault_scale": fault}
    return {
        "seed": seed,
        "estimator": FAST_ESTIMATOR,
        "checks": [
            {"check": "inversion_plancherel", "instance": instance, "trials": 5},
            {
                "check": "multiplier_bound",
                "instance": "Z4",
                "params": {"p": 1.5, "q": 3.0},
                "trials": 4,
                "ladder": "lad",
            },
            {
                "check": "multiplier_bound",
                "instance": "Z8",
                "params": {"p": 1.5, "q": 3.0},
                "trials": 4,
                "ladder": "lad",
            },
            {
                "check": "growth",
                "params": {"num_generators": 2, "m_growth": 5, "p_star": 4.0, "depth": 4},
            },
        ],
    }


def _tree_bytes(root: Path) -> dict:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def _set(*path_and_value):
    """A mutation setting doc[k1][k2]... to the last argument."""
    *path, value = path_and_value

    def mutate(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value

    return mutate


def _drop(*path):
    def mutate(doc):
        for key in path[:-1]:
            doc = doc[key]
        del doc[path[-1]]

    return mutate


def _instance(value):
    return _set("checks", 0, "instance", value)


# one mutation of _fast_campaign() per rule of the JSON Schema that once
# checked the shape of a config; each is rejected at load time
_SCHEMA_RULE_CASES = {
    "root_not_object": lambda d: [d],
    "seed_missing": _drop("seed"),
    "seed_negative": _set("seed", -1),
    "seed_string": _set("seed", "11"),
    "seed_bool": _set("seed", True),
    "top_level_extra_key": _set("extra", 1),
    "format_version_2": _set("format_version", 2),
    "estimator_not_object": _set("estimator", [2, 30]),
    "estimator_extra_key": _set("estimator", "step", 0.1),
    "restarts_0": _set("estimator", "restarts", 0),
    "max_iters_0": _set("estimator", "max_iters", 0),
    "tol_0": _set("estimator", "tol", 0),
    "checks_missing": _drop("checks"),
    "checks_empty": _set("checks", []),
    "checks_not_list": _set("checks", {"check": "lemma_constants"}),
    "check_not_object": _set("checks", 0, "inversion_plancherel"),
    "check_name_missing": _drop("checks", 0, "check"),
    "check_name_empty": _set("checks", 0, "check", ""),
    "check_extra_key": _set("checks", 0, "seed", 3),
    "trials_0": _set("checks", 0, "trials", 0),
    "ladder_empty": _set("checks", 1, "ladder", ""),
    "ladder_not_string": _set("checks", 1, "ladder", 7),
    "params_not_object": _set("checks", 1, "params", [1.5, 3.0]),
    "instance_empty_string": _instance(""),
    "instance_empty_object": _instance({}),
    "instance_unknown_key": _instance({"cyclic": 4, "order": 4}),
    "instance_number": _instance(4),
    "instance_list": _instance(["Z4"]),
    "cyclic_0": _instance({"cyclic": 0}),
    "abelian_empty": _instance({"abelian": []}),
    "abelian_entry_0": _instance({"abelian": [2, 0]}),
    "group_not_string": _instance({"group": 8}),
    "matrix_0": _set("checks", 0, {"check": "schur_bound", "instance": {"matrix": 0}, "params": {"p": 1.5, "q": 3.0}}),
    "fault_scale_string": _instance({"cyclic": 4, "fault_scale": "0.01"}),
    "fault_scale_alone": _instance({"fault_scale": 0.01}),
}
# rejected since the registry's Param checks the whole file
_NEW_REJECTION_CASES = {
    "matrix_string_M0": _set("checks", 0, {"check": "schur_bound", "instance": "M0", "params": {"p": 1.5, "q": 3.0}}),
    "seed_1.0": _set("seed", 1.0),
    "trials_5.0": _set("checks", 0, "trials", 5.0),
    "restarts_4.0": _set("estimator", "restarts", 4.0),
    "cyclic_4.0": _instance({"cyclic": 4.0}),
    "tol_nan": _set("estimator", "tol", float("nan")),
    "fault_scale_nan": _instance({"cyclic": 4, "fault_scale": float("nan")}),
}
# JSON integers past the range of a double, which numpy and float() cannot take
_HUGE = 10**400
_PAST_DOUBLE_CASES = {
    "p_past_double": _set("checks", 1, "params", {"p": _HUGE, "q": _HUGE}),
    "q_past_double": _set("checks", 1, "params", "q", _HUGE),
    "schur_q_past_double": _set(
        "checks", 0, {"check": "schur_bound", "instance": "M4", "params": {"p": 1.5, "q": _HUGE}}
    ),
    "m_growth_past_double": _set("checks", 3, "params", "m_growth", _HUGE),
    "p_star_past_double": _set("checks", 3, "params", "p_star", _HUGE),
    "tol_past_double": _set("estimator", "tol", _HUGE),
    "fault_scale_past_double": _instance({"cyclic": 4, "fault_scale": _HUGE}),
    "cyclic_past_index": _instance({"cyclic": _HUGE}),
    "cyclic_string_past_index": _instance(f"Z{_HUGE}"),
}
# integers past 2^63 - 1, an instance name past int()'s 4300-digit limit, and
# a depth whose ball sizes json cannot write
_PAST_INDEX_CASES = {
    "matrix_past_index": _set(
        "checks", 0, {"check": "schur_bound", "instance": {"matrix": _HUGE}, "params": {"p": 1.5, "q": 3.0}}
    ),
    "num_generators_past_index": _set("checks", 3, "params", "num_generators", _HUGE),
    "sharpness_m_past_index": _set(
        "checks", 0, {"check": "sharpness", "params": {"p": 1.5, "q": 3.0, "n_list": [4, 8, 16], "m": _HUGE}}
    ),
    "seed_past_index": _set("seed", 2**63),
    "cyclic_string_past_digit_limit": _instance("Z" + "1" * 5000),
    "depth_past_json_digits": _set("checks", 3, "params", "depth", 10000),
}
# instances past 2^20 source coordinates, which would exhaust memory as they are built
_PAST_COORDINATES_CASES = {
    "cyclic_past_coordinates": _instance({"cyclic": 10**12}),
    "abelian_past_coordinates": _instance({"abelian": [2048, 1024]}),
    "matrix_past_coordinates": _set(
        "checks", 0, {"check": "schur_bound", "instance": {"matrix": 2048}, "params": {"p": 1.5, "q": 3.0}}
    ),
    "cyclic_string_past_coordinates": _instance("Z1099511627776"),
}
# trials or restarts whose rows of coordinates exceed 2^24 in all, which would exhaust memory as
# the check draws its battery or starts its estimates
_PAST_ROWS_CASES = {
    "restarts_past_rows": _set("estimator", "restarts", 10**12),
    "trials_past_rows": _set("checks", 0, {"check": "hausdorff_young", "instance": "Z4", "params": {"p": 1.5},
                                           "trials": 10**12}),
    "default_trials_past_rows": _set("checks", 0, {"check": "hausdorff_young", "instance": {"cyclic": 2**15},
                                                   "params": {"p": 1.5}}),
    "lemma_trials_past_rows": _set("checks", 0, {"check": "lemma_constants", "trials": 10**12}),
    "schur_restarts_past_rows": lambda doc: {
        **doc,
        "estimator": {"restarts": 2**16 + 1},
        "checks": [{"check": "schur_bound", "instance": "M16", "params": {"p": 1.5, "q": 3.0}, "trials": 2}],
    },
}
# torus grids past 2^20 points, which would exhaust memory as they are sampled
_PAST_GRID_CASES = {
    "sharpness_n_list_past_grid": _set(
        "checks", 0, {"check": "sharpness", "params": {"p": 1.5, "q": 3.0, "n_list": [4, 8, 10**12]}}
    ),
    "endpoint_m_past_grid": _set("checks", 0, {"check": "endpoint", "params": {"k_list": [8, 12, 16], "m": 10**15}}),
}


# (check, instance, params, fragment of the message): each breaks a rule of the
# check's registry entry, so load_config rejects it in a config and the check
# function on a direct call
_PARAM_REJECTIONS = [
    ("hausdorff_young", "Z4", {"p": 3.0}, "outside allowed range"),
    ("real_interpolation", "Z4", {"p": 2.0}, "1 < p < 2"),
    ("multiplier_bound", "Z4", {"p": 3.0, "q": 2.0}, "p <= q"),
    ("schur_bound", "M4", {"p": 1.5, "q": 1.8}, "outside allowed range"),
    ("sharpness", None, {"p": 1.5, "q": 3.0, "n_list": [4, 8]}, "n_list"),
    ("growth", None, {"num_generators": 2.5, "m_growth": 5, "p_star": 4.0}, "must be an integer"),
    # malformed types are rejected by the registry, not deep inside the check
    ("sharpness", None, {"p": 1.5, "q": 3.0, "n_list": [4, 8, "x"]}, "'n_list' must be a list of >= 3 integers"),
    ("sharpness", None, {"p": 1.5, "q": 3.0, "n_list": [4, 8, 16], "m": "x"}, "'m' must be an integer"),
    ("sharpness", None, {"p": 1.5, "q": 3.0, "n_list": [4, 8, 16], "s_factor": "x"}, "'s_factor' must be a number"),
    ("endpoint", None, {"k_list": [4, 5, 6], "growth_window": [4]}, "'growth_window' must be a list of 2 integers"),
    ("endpoint", None, {"k_list": [4, 5, 6], "m": "big"}, "'m' must be an integer"),
    ("growth", None, {"num_generators": 2, "m_growth": 5, "p_star": 4.0, "c": "x"}, "'c' must be a number"),
    ("multiplier_bound", "Z4", {"p": 1.5, "q": _HUGE}, "'q' must be a number"),
    ("sharpness", None, {"p": 1.5, "q": 3.0, "n_list": [1, 8, 16]}, r"outside allowed range 2 <= n_list\[i\]"),
    # torus grids of at most 2^20 points, bounds written exactly
    (
        "sharpness", None, {"p": 1.5, "q": 3.0, "n_list": [4, 8, 2**18 + 1]},
        r"'n_list'=\[4, 8, 262145\] outside allowed range 2 <= n_list\[i\] <= 262144$",
    ),
    (
        "sharpness", None, {"p": 1.5, "q": 3.0, "n_list": [4, 8, 16], "m": 2**20 + 1},
        "'m'=1048577 outside allowed range m <= 1048576$",
    ),
    ("endpoint", None, {"k_list": [8, 12, 16], "m": 10**15}, "'m'=1000000000000000 outside allowed range m <= 1048576$"),
    # orderings and memberships the experiments need
    ("sharpness", None, {"p": 1.5, "q": 3.0, "n_list": [8, 4, 16]}, "parameter 'n_list' must be .* strictly increasing"),
    ("endpoint", None, {"k_list": [4, 6, 5]}, "parameter 'k_list' must be .* strictly increasing"),
    (
        "endpoint", None, {"k_list": [4, 5, 6], "growth_window": [6, 4]},
        "parameter 'growth_window' must be .* strictly increasing",
    ),
    ("endpoint", None, {"k_list": [4, 5, 6], "growth_window": [5, 9]}, "need growth_window in k_list"),
    # grid sizes and defaults the experiments need
    (
        "sharpness", None, {"p": 1.5, "q": 3.0, "n_list": [4, 8, 16], "m": 32},
        r"need 2 max\(n_list\) < m, got n_list=\[4, 8, 16\], m=32",
    ),
    (
        "endpoint", None, {"k_list": [8, 16, 19]},
        r"need 2\^max\(k_list\) <= m/4, got k_list=\[8, 16, 19\], m=1048576 \(default\)",
    ),
    (
        "endpoint", None, {"k_list": [4, 5, 6], "m": 64, "growth_window": [4, 6]},
        r"need 2\^max\(k_list\) <= m/4, got k_list=\[4, 5, 6\], m=64",
    ),
    ("endpoint", None, {"k_list": [4, 5, 6]}, r"need growth_window in k_list, got growth_window=\(8, 16\) \(default\)"),
]
# (check, instance, args, fragment): a trial count or estimator settings that a
# config could not give, passed to the check function from Python
_DIRECT_CALL_REJECTIONS = [
    ("lemma_constants", None, {"trials": 2.5}, "'trials' must be an integer"),
    ("lemma_constants", None, {"trials": 0}, "1 <= trials"),
    ("inversion_plancherel", "Z4", {"trials": 0}, "1 <= trials"),
    ("hausdorff_young", "Z4", {"p": 1.5, "trials": 0}, "1 <= trials"),
    ("real_interpolation", "Z4", {"p": 1.5, "trials": True}, "'trials' must be an integer"),
    ("paley", "Z4", {"p": 1.5, "trials": -3}, "1 <= trials"),
    ("multiplier_bound", "Z4", {"p": 1.5, "q": 3.0, "estimator": {"bogus": 1}}, "does not accept keys"),
    ("multiplier_bound", "Z4", {"p": 1.5, "q": 3.0, "estimator": {"tol": float("inf")}}, "'tol' must be a number"),
    ("multiplier_bound", "Z4", {"p": 1.5, "q": 3.0, "estimator": [2, 30]}, "estimator must be an object"),
    ("schur_bound", "M4", {"p": 1.5, "q": 3.0, "estimator": {"restarts": 0}}, "1 <= restarts"),
    ("schur_bound", "M4", {"p": 1.5, "q": 3.0, "trials": 4.0}, "'trials' must be an integer"),
    # rows x coordinates past 2^24, which would exhaust memory as the battery or the estimates start
    ("lemma_constants", None, {"trials": 10**12}, "trials=1000000000000 rows of 100 coordinates exceed 16777216"),
    ("hausdorff_young", "Z4", {"p": 1.5, "trials": 10**12}, "trials=1000000000000 rows of 4 coordinates exceed"),
    ("inversion_plancherel", "Z4096", {"trials": 4097}, "trials=4097 rows of 4096 coordinates exceed 16777216"),
    (
        "multiplier_bound", "Z4", {"p": 1.5, "q": 3.0, "estimator": {"restarts": 10**12}},
        "restarts=1000000000000 rows of 4 coordinates exceed",
    ),
    ("schur_bound", "M16", {"p": 1.5, "q": 3.0, "trials": 2, "estimator": {"restarts": 2**16 + 1}}, "restarts=65537 rows"),
]


def _appending(check, instance, params):
    spec = {"check": check, "params": params} | ({} if instance is None else {"instance": instance})
    return lambda d: d["checks"].append(spec)


class TestLoadConfig:
    def test_valid_config(self, tmp_path):
        cfg = load_config(_write_config(tmp_path, _fast_campaign()))
        assert cfg.seed == 11
        assert len(cfg.checks) == 4
        assert cfg.checks[0].trials == 5
        assert cfg.checks[1].ladder == "lad"
        assert cfg.checks[3].instance is None
        assert cfg.estimator == FAST_ESTIMATOR

    def test_check_seed_derivation(self):
        cfg = CampaignConfig(seed=20260814, checks=(CheckSpec(check="lemma_constants"),))
        want = int(
            np.random.SeedSequence((20260814, 0)).generate_state(1, dtype=np.uint64)[0]
        )
        assert cfg.check_seed(0) == want
        assert cfg.check_seed(1) != cfg.check_seed(0)

    @pytest.mark.parametrize(
        "mutate, fragment",
        [(_appending(check, instance, params), fragment) for check, instance, params, fragment in _PARAM_REJECTIONS]
        + [
            (lambda d: d["checks"].append({"check": "nonsense"}), "unknown check"),
            (
                lambda d: d["checks"].append(
                    {"check": "hausdorff_young", "instance": "Z4", "params": {"p": 1.5, "x": 1}}
                ),
                "does not accept",
            ),
            (
                lambda d: d["checks"].append(
                    {"check": "hausdorff_young", "instance": "Z4", "params": {}}
                ),
                "needs parameter",
            ),
            (
                lambda d: d["checks"].append(
                    {
                        "check": "sharpness",
                        "trials": 5,
                        "params": {"p": 1.5, "q": 3.0, "n_list": [4, 8, 16]},
                    }
                ),
                "does not take a trial count",
            ),
            (
                lambda d: d["checks"].append({"check": "lemma_constants", "instance": "Z4"}),
                "takes no instance",
            ),
            (
                lambda d: d["checks"].append({"check": "paley", "params": {"p": 1.5}}),
                "requires an instance",
            ),
            (
                lambda d: d["checks"].append(
                    {"check": "schur_bound", "instance": "Z4", "params": {"p": 1.5, "q": 3.0}}
                ),
                "matrix instance",
            ),
            (
                lambda d: d["checks"].append(
                    {"check": "paley", "instance": "M4", "params": {"p": 1.5}}
                ),
                "group/abelian instance",
            ),
            (
                lambda d: d["checks"].append(
                    {
                        "check": "inversion_plancherel",
                        "instance": {"cyclic": 4, "group": "S3"},
                    }
                ),
                "exactly one",
            ),
            (
                lambda d: d["checks"].append(
                    {"check": "inversion_plancherel", "instance": "NoSuchGroup"}
                ),
                "cannot resolve",
            ),
        ],
    )
    def test_rejections(self, tmp_path, mutate, fragment):
        doc = _fast_campaign()
        mutate(doc)
        path = _write_config(tmp_path, doc)
        with pytest.raises(ConfigError, match=fragment):
            load_config(path)

    def test_grid_limits_accepted(self, tmp_path):
        doc = _fast_campaign()
        doc["checks"] += [
            {"check": "sharpness", "params": {"p": 1.5, "q": 3.0, "n_list": [4, 8, 16], "m": 33}},
            {"check": "endpoint", "params": {"k_list": [8, 16, 18]}},
            {"check": "endpoint", "params": {"k_list": [4, 5, 6], "m": 256, "growth_window": [4, 6]}},
            # the largest grid and frequency count
            {"check": "sharpness", "params": {"p": 1.5, "q": 3.0, "n_list": [4, 8, 2**18], "m": 2**20}},
            {"check": "endpoint", "params": {"k_list": [8, 16, 18], "m": 2**20}},
        ]
        assert len(load_config(_write_config(tmp_path, doc)).checks) == 9

    @pytest.mark.parametrize(
        "check, instance, params, fragment",
        [pytest.param(*case, id=f"{case[0]}-{case[3]}") for case in _PARAM_REJECTIONS],
    )
    def test_direct_call_meets_the_same_gate(self, check, instance, params, fragment):
        # a check called from Python states its defaults, so none is marked "(default)"
        args = () if instance is None else (resolve_instance(instance),)
        with pytest.raises(ParameterError, match=fragment.replace(r" \(default\)", "")):
            getattr(checks_mod, CHECKS[check].function)(*args, **params)

    @pytest.mark.parametrize(
        "check, instance, params, fragment",
        [pytest.param(*case, id=f"{case[0]}-{case[3]}") for case in _DIRECT_CALL_REJECTIONS],
    )
    def test_direct_call_meets_the_config_rules_of_trials_and_estimator(self, check, instance, params, fragment):
        args = () if instance is None else (resolve_instance(instance),)
        with pytest.raises(ParameterError, match=fragment):
            getattr(checks_mod, CHECKS[check].function)(*args, **params)

    def test_instance_bound_is_on_source_coordinates(self):
        # 2^20 coordinates pass, one more matrix row or cyclic element does not
        assert _instance_spec({"matrix": 1024}, "x")[0] == "matrix"
        assert _instance_spec({"abelian": [1024, 1024]}, "x")[0] == "abelian"
        for spec in ({"matrix": 1025}, {"cyclic": 2**20 + 1}, "Z1048577", {"abelian": [2, 2**19 + 1]}):
            with pytest.raises(ConfigError, match="source coordinates, more than 1048576"):
                _instance_spec(spec, "x")

    def test_rows_budget_is_on_rows_times_coordinates(self, tmp_path):
        # 4096 trials of Z4096's 4096 coordinates are 2^24 and pass; one more trial does not
        for trials, ok in ((4096, True), (4097, False)):
            doc = {"seed": 1, "checks": [{"check": "inversion_plancherel", "instance": "Z4096", "trials": trials}]}
            path = _write_config(tmp_path, doc)
            if ok:
                assert load_config(path).checks[0].trials == trials
            else:
                with pytest.raises(ConfigError, match="trials=4097 rows of 4096 coordinates exceed 16777216"):
                    load_config(path)

    def test_registry_params_are_keywords_of_their_function(self):
        for name, entry in CHECKS.items():
            keywords = inspect.signature(getattr(checks_mod, entry.function)).parameters
            assert set(entry.params) <= set(keywords), name

    def test_schema_rejects_missing_seed(self, tmp_path):
        doc = _fast_campaign()
        del doc["seed"]
        with pytest.raises(ConfigError, match="rejected"):
            load_config(_write_config(tmp_path, doc))

    @pytest.mark.parametrize(
        "mutate",
        [
            pytest.param(m, id=name)
            for name, m in {
                **_SCHEMA_RULE_CASES, **_NEW_REJECTION_CASES, **_PAST_DOUBLE_CASES, **_PAST_INDEX_CASES,
                **_PAST_COORDINATES_CASES, **_PAST_GRID_CASES, **_PAST_ROWS_CASES,
            }.items()
        ],
    )
    def test_malformed_config_rejected_before_any_check(self, tmp_path, capsys, mutate):
        doc = copy.deepcopy(_fast_campaign())  # which shares FAST_ESTIMATOR
        doc = mutate(doc) or doc
        path = _write_config(tmp_path, doc)
        with pytest.raises(ConfigError):
            load_config(path)
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(path)

    def test_integer_past_digit_limit(self, tmp_path, capsys):
        # json.loads refuses an integer of more than 4300 digits with a bare ValueError
        path = tmp_path / "long.json"
        p = "1" + "0" * 5000
        path.write_text('{"seed": 1, "checks": [{"check": "paley", "instance": "Z4", "params": {"p": %s}}]}' % p)
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(path)
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.json")

    def test_large_abelian_instance_loads_quickly(self, tmp_path):
        # load_config builds each instance to validate it; a Z4096 pair holds no D x D tables
        doc = {"seed": 1, "checks": [{"check": "inversion_plancherel", "instance": {"cyclic": 4096}, "trials": 20}]}
        path = _write_config(tmp_path, doc)
        start = time.perf_counter()
        config = load_config(path)
        assert time.perf_counter() - start < 0.5
        assert config.checks[0].instance == {"cyclic": 4096}


class TestResolveInstance:
    def test_strings(self):
        assert resolve_instance("M8") == 8
        pair = resolve_instance("Z6")
        assert pair.name == "Z6"
        assert pair.source.num_blocks == 6
        assert resolve_instance("S3").dual.dims in ((1, 1, 2), (1, 2, 1), (2, 1, 1))

    def test_dicts(self, tmp_path):
        assert resolve_instance({"matrix": 4}) == 4
        assert resolve_instance({"cyclic": 5}).size == 5
        assert resolve_instance({"abelian": [2, 2]}).name == "Z2xZ2"
        assert resolve_instance({"group": "Q8"}).size == 8
        gf = tmp_path / "Z5.json"
        save_group_file(gf, cyclic_group_data(5))
        assert resolve_instance({"group_file": str(gf)}).size == 5

    def test_fault_scale(self):
        pair = resolve_instance({"cyclic": 4, "fault_scale": 0.02})
        assert pair.name == "Z4!fault"

    def test_rejects_garbage(self):
        with pytest.raises(ConfigError):
            resolve_instance([1, 2])
        with pytest.raises(ConfigError):
            resolve_instance({"matrix": 4, "fault_scale": 0.1})


class TestRunCampaign:
    def test_success_and_layout(self, tmp_path):
        cfg = load_config(_write_config(tmp_path, _fast_campaign()))
        code, summary = run_campaign(cfg, tmp_path / "out")
        assert code == 0
        assert summary["all_hard_passed"] is True
        assert summary["num_checks"] == 4
        assert summary["max_bounded_slope"] == MAX_BOUNDED_SLOPE
        for row in summary["checks"]:
            report = tmp_path / "out" / "reports" / row["report"]
            assert report.exists()
            doc = json.loads(report.read_text())
            assert doc["check"] == row["check"]
            assert doc["index"] == row["index"]
        lad = summary["ladders"]["lad"]
        assert lad["sizes"] == [4.0, 8.0]
        assert lad["slope"] is not None
        assert isinstance(lad["bounded"], bool)

    def test_jobs_do_not_change_bytes(self, tmp_path):
        cfg = load_config(_write_config(tmp_path, _fast_campaign()))
        run_campaign(cfg, tmp_path / "serial", jobs=1)
        run_campaign(cfg, tmp_path / "parallel", jobs=2)
        assert _tree_bytes(tmp_path / "serial") == _tree_bytes(tmp_path / "parallel")

    def test_jobs_start_at_most_one_worker_per_check(self, tmp_path, monkeypatch):
        class RecordingPool:
            """Records the pool size it is asked for, and runs the tasks in this process."""

            sizes = []

            def __init__(self, max_workers):
                self.sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        doc = _fast_campaign()
        doc["checks"] = doc["checks"][:2]
        cfg = load_config(_write_config(tmp_path, doc))
        run_campaign(cfg, tmp_path / "serial", jobs=1)
        monkeypatch.setattr("ncfourier.campaign.ProcessPoolExecutor", RecordingPool)
        run_campaign(cfg, tmp_path / "wide", jobs=64)
        assert RecordingPool.sizes == [2]
        assert _tree_bytes(tmp_path / "serial") == _tree_bytes(tmp_path / "wide")

    def test_regeneration_is_identical(self, tmp_path):
        cfg = load_config(_write_config(tmp_path, _fast_campaign()))
        run_campaign(cfg, tmp_path / "a")
        run_campaign(cfg, tmp_path / "b")
        assert _tree_bytes(tmp_path / "a") == _tree_bytes(tmp_path / "b")

    def test_report_floats_at_declared_precision(self, tmp_path):
        cfg = load_config(_write_config(tmp_path, _fast_campaign()))
        _, summary = run_campaign(cfg, tmp_path / "out")
        written = json.loads((tmp_path / "out" / "summary.json").read_text())

        def floats(v):
            if isinstance(v, float):
                yield v
            elif isinstance(v, dict):
                for x in v.values():
                    yield from floats(x)
            elif isinstance(v, list):
                for x in v:
                    yield from floats(x)

        for path in [tmp_path / "out" / "summary.json", *sorted((tmp_path / "out" / "reports").glob("*.json"))]:
            for v in floats(json.loads(path.read_text())):
                assert float(f"{v:.12g}") == v, (path.name, v)
        # certified lower bounds round toward zero, everything else to nearest
        for got, row in zip(written["checks"], summary["checks"]):
            assert got["max_ratio"] <= row["max_ratio"] <= got["max_ratio"] * (1 + 1e-11)
        assert _declared_precision({"estimate": 1.23456789012999, "weak_norm": 1.23456789012999}) == {
            "estimate": 1.23456789012,
            "weak_norm": 1.23456789013,
        }
        assert _declared_precision({"ratio": [-2.00000000000999, 0.0]}) == {"ratio": [-2.0, 0.0]}

    def test_round_down_is_stable_at_one(self):
        # 1 - 1 ulp, 1 and 1 + 2 ulp print alike, never above the computed value
        near_one = [np.nextafter(1.0, 0.0), 1.0, 1.0 + 2 * np.finfo(float).eps]
        assert _declared_precision({"ratio": near_one}) == {"ratio": [0.999999999999] * 3}
        assert _declared_precision({"weak_norm": near_one}) == {"weak_norm": [1.0] * 3}

    def test_seed_changes_results(self, tmp_path):
        base = load_config(_write_config(tmp_path, _fast_campaign(seed=1)))
        other = load_config(_write_config(tmp_path, _fast_campaign(seed=2), "c2.json"))
        run_campaign(base, tmp_path / "s1")
        run_campaign(other, tmp_path / "s2")
        assert (tmp_path / "s1" / "summary.json").read_bytes() != (
            tmp_path / "s2" / "summary.json"
        ).read_bytes()

    def test_fault_injection_exit_contract(self, tmp_path):
        cfg = load_config(_write_config(tmp_path, _fast_campaign(fault=0.01)))
        code, summary = run_campaign(cfg, tmp_path / "out")
        assert code == 1
        assert summary["all_hard_passed"] is False
        assert summary["hard_failures"] == [
            {"index": 0, "check": "inversion_plancherel", "instance": "Z4!fault"}
        ]

    def test_jobs_validation(self, tmp_path):
        cfg = load_config(_write_config(tmp_path, _fast_campaign()))
        with pytest.raises(ConfigError):
            run_campaign(cfg, tmp_path / "out", jobs=0)

    def test_single_point_ladder_has_no_slope(self, tmp_path):
        doc = {
            "seed": 3,
            "estimator": FAST_ESTIMATOR,
            "checks": [
                {
                    "check": "multiplier_bound",
                    "instance": "Z4",
                    "params": {"p": 1.5, "q": 3.0},
                    "trials": 3,
                    "ladder": "solo",
                }
            ],
        }
        cfg = load_config(_write_config(tmp_path, doc))
        _, summary = run_campaign(cfg, tmp_path / "out")
        assert summary["ladders"]["solo"]["slope"] is None
        assert summary["ladders"]["solo"]["bounded"] is None


class TestEmitPlotData:
    def test_tables_and_ladders(self, tmp_path):
        cfg = load_config(_write_config(tmp_path, _fast_campaign()))
        run_campaign(cfg, tmp_path / "out")
        written = emit_plot_data(tmp_path / "out")
        assert "ladder_lad.csv" in written
        assert any(name.startswith("001_multiplier_bound") for name in written)

        ladder = (tmp_path / "out" / "plots" / "ladder_lad.csv").read_text()
        lines = ladder.splitlines()
        assert lines[0] == "size,max_ratio"
        assert lines[1].startswith("4,")
        assert lines[-1].startswith("# slope,")

        series = (tmp_path / "out" / "plots" / "003_growth.csv").read_text()
        rows = series.splitlines()
        assert rows[0] == "ball_size,n,ratio,violated"  # report keys are sorted
        # bools flatten to 0/1; the ratio 1 is a lower bound, nudged below 1 before its round-down
        assert rows[1] == "1,0,0.999999999999,0"

    def test_explicit_out_dir(self, tmp_path):
        cfg = load_config(_write_config(tmp_path, _fast_campaign()))
        run_campaign(cfg, tmp_path / "out")
        emit_plot_data(tmp_path / "out", tmp_path / "elsewhere")
        assert (tmp_path / "elsewhere" / "ladder_lad.csv").exists()

    def test_twelve_digit_floats(self, tmp_path):
        cfg = load_config(_write_config(tmp_path, _fast_campaign()))
        run_campaign(cfg, tmp_path / "out")
        emit_plot_data(tmp_path / "out")
        ladder = (tmp_path / "out" / "plots" / "ladder_lad.csv").read_text()
        value = ladder.splitlines()[1].split(",")[1]
        doc = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert value == f"{doc['ladders']['lad']['max_ratios'][0]:.12g}"

    def test_empty_dir_rejected(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(ConfigError, match="no series"):
            emit_plot_data(tmp_path / "empty")
        with pytest.raises(ConfigError, match="not a directory"):
            emit_plot_data(tmp_path / "nowhere")


class TestListInstances:
    def test_default_catalog(self, monkeypatch):
        from ncfourier.groups import DATA_DIR_ENV

        monkeypatch.delenv(DATA_DIR_ENV, raising=False)
        rows = list_instances()
        names = [r["name"] for r in rows]
        for expected in ["Z2", "Z64", "S3", "D4", "Q8", "Z2xZ2", "M2", "M16"]:
            assert expected in names
        assert all(r["status"] == "ok" for r in rows)

    def test_extra_dir_with_corrupt_file(self, tmp_path):
        good = tmp_path / "Z5.json"
        save_group_file(good, cyclic_group_data(5))
        bad = tmp_path / "broken.json"
        text = good.read_text().replace('"order": 5', '"order": 6')
        bad.write_text(text)
        rows = {r["name"]: r for r in list_instances(tmp_path)}
        assert rows["Z5"]["status"] == "ok"
        assert rows["broken"]["status"].startswith("invalid:")


class TestCliMain:
    def test_run_plot_instances(self, tmp_path, capsys):
        cfg_path = _write_config(tmp_path, _fast_campaign())
        out = tmp_path / "out"
        assert main(["run", str(cfg_path), "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "[ok ] 000 inversion_plancherel" in text
        assert "ladder lad:" in text
        assert "every hard check passed" in text

        assert main(["plot", str(out)]) == 0
        assert "ladder_lad.csv" in capsys.readouterr().out

        assert main(["instances"]) == 0
        listing = capsys.readouterr().out
        assert "Z64" in listing and "Q8" in listing

    def test_run_hard_failure_exit(self, tmp_path, capsys):
        cfg_path = _write_config(tmp_path, _fast_campaign(fault=0.01))
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
        assert "HARD FAILURES: inversion_plancherel[0]" in capsys.readouterr().out

    def test_multiplier_lr_clause_fails_on_fault(self, tmp_path, capsys):
        # the detuned transform scales one dual coordinate by 1.01, so the
        # identity symbol's estimate exceeds its L_r norm by about 1%
        doc = {
            "seed": 5,
            "estimator": FAST_ESTIMATOR,
            "checks": [
                {
                    "check": "multiplier_bound",
                    "instance": {"cyclic": 4, "fault_scale": 0.01},
                    "params": {"p": 1.5, "q": 3.0},
                    "trials": 4,
                }
            ],
        }
        out = tmp_path / "out"
        assert main(["run", str(_write_config(tmp_path, doc)), "--out", str(out)]) == 1
        assert "HARD FAILURES: multiplier_bound[0]" in capsys.readouterr().out
        report = json.loads((out / "reports" / "000_multiplier_bound.json").read_text())
        assert report["hard"] and not report["passed"]
        assert report["details"]["max_lr_ratio"] > 1.009
        assert report["witness"]["lr_ratio"] == report["details"]["max_lr_ratio"]

    def test_growth_past_the_double_range_writes_its_report(self, tmp_path):
        # ball sizes of 10^10 generators outgrow 5^n past the double range: the
        # ratio reads inf and the verdict fails; 1000.5^200 overflows a double,
        # but is compared exactly and holds
        doc = {
            "seed": 3,
            "checks": [
                {"check": "growth", "params": {"num_generators": 10**10, "m_growth": 5, "p_star": 4.0, "depth": 40}},
                {"check": "growth", "params": {"num_generators": 2, "m_growth": 1000.5, "p_star": 4.0, "depth": 200}},
            ],
        }
        out = tmp_path / "out"
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        cmd = [sys.executable, "-m", "ncfourier", "run", str(_write_config(tmp_path, doc)), "--out", str(out)]
        result = subprocess.run(cmd, env=env, capture_output=True, text=True)
        assert result.returncode == 1, result.stderr
        assert "Traceback" not in result.stderr
        assert "HARD FAILURES: growth[0]" in result.stdout
        failed = json.loads((out / "reports" / "000_growth.json").read_text())
        assert not failed["passed"] and failed["max_ratio"] == float("inf")
        assert failed["series"][1]["ratio"] == pytest.approx(4e9) and failed["series"][-1]["ratio"] == float("inf")
        held = json.loads((out / "reports" / "001_growth.json").read_text())
        assert held["passed"] and held["max_ratio"] == pytest.approx(1.0)

    def test_config_error_exit(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "missing.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_param_exits_2_before_any_check(self, tmp_path, capsys):
        doc = _fast_campaign()
        doc["checks"].append({"check": "endpoint", "params": {"k_list": [4, 5, 6], "m": "big"}})
        out = tmp_path / "out"
        assert main(["run", str(_write_config(tmp_path, doc)), "--out", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_plot_error_exit(self, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        assert main(["plot", str(tmp_path / "empty")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_seed_override(self, tmp_path):
        cfg_path = _write_config(tmp_path, _fast_campaign(seed=1))
        main(["run", str(cfg_path), "--out", str(tmp_path / "a")])
        main(["run", str(cfg_path), "--out", str(tmp_path / "b"), "--seed", "99"])
        assert (tmp_path / "a" / "summary.json").read_bytes() != (
            tmp_path / "b" / "summary.json"
        ).read_bytes()
        doc = json.loads((tmp_path / "b" / "summary.json").read_text())
        assert doc["seed"] == 99

    def test_bad_seed_override_exits_2_before_any_check(self, tmp_path, capsys):
        cfg_path = _write_config(tmp_path, _fast_campaign())
        out = tmp_path / "out"
        assert main(["run", str(cfg_path), "--out", str(out), "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'seed'=-1 outside allowed range 0 <= seed" in err
        assert not out.exists()

    def test_jobs_flag_identical_output(self, tmp_path):
        cfg_path = _write_config(tmp_path, _fast_campaign())
        main(["run", str(cfg_path), "--out", str(tmp_path / "j1"), "--jobs", "1"])
        main(["run", str(cfg_path), "--out", str(tmp_path / "j2"), "--jobs", "2"])
        assert _tree_bytes(tmp_path / "j1") == _tree_bytes(tmp_path / "j2")

    def test_timings_sidecar(self, tmp_path):
        # the reference campaign, with and without --timings, at one and two jobs
        repo = Path(__file__).resolve().parents[1]
        config = repo / "campaigns" / "reference.json"
        names = [spec.check for spec in load_config(config).checks]
        for jobs in ("1", "2"):
            plain, timed, sidecar = tmp_path / f"plain{jobs}", tmp_path / f"timed{jobs}", tmp_path / f"t{jobs}.json"
            assert main(["run", str(config), "--out", str(plain), "--jobs", jobs]) == 0
            assert main(["run", str(config), "--out", str(timed), "--jobs", jobs, "--timings", str(sidecar)]) == 0
            assert _tree_bytes(plain) == _tree_bytes(timed)
            doc = json.loads(sidecar.read_text())
            assert doc["jobs"] == int(jobs) and doc["wall_s"] > 0
            assert [(row["index"], row["check"]) for row in doc["checks"]] == list(enumerate(names))
            assert len(doc["checks"]) == 14
            assert all(row["wall_s"] > 0 for row in doc["checks"])
            assert all(0 <= row["build_s"] <= row["wall_s"] for row in doc["checks"])
            assert doc["checks"][1]["instance"] == "Z8"

    def test_timings_inside_out_dir_exits_2(self, tmp_path, capsys):
        cfg_path = _write_config(tmp_path, _fast_campaign())
        out = tmp_path / "out"
        assert main(["run", str(cfg_path), "--out", str(out), "--timings", str(out / "t.json")]) == 2
        assert "outside the output directory" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("where", ["parent", "absolute"])
    def test_group_name_outside_the_data_dir_exits_2(self, tmp_path, where):
        # a group name resolves only to what `ncfourier instances` lists: not to
        # a file reached by a ".." name or an absolute one
        (tmp_path / "sub").mkdir()
        save_group_file(tmp_path / "outside.json", cyclic_group_data(6))
        name = "../outside" if where == "parent" else str(tmp_path / "outside")
        doc = {"seed": 1, "checks": [{"check": "inversion_plancherel", "instance": name, "trials": 5}]}
        out = tmp_path / "out"
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"), "NCFOURIER_DATA_DIR": "sub"}
        cmd = [sys.executable, "-m", "ncfourier", "run", str(_write_config(tmp_path, doc)), "--out", str(out)]
        result = subprocess.run(cmd, env=env, cwd=tmp_path, capture_output=True, text=True)
        assert result.returncode == 2, result.stdout
        assert "error:" in result.stderr and "unknown group" in result.stderr
        assert not out.exists()

    def test_instances_data_dir(self, tmp_path, capsys):
        save_group_file(tmp_path / "Z11.json", cyclic_group_data(11))
        assert main(["instances", "--data-dir", str(tmp_path)]) == 0
        assert "Z11" in capsys.readouterr().out

    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit):
            main([])

    def test_import_loads_no_jsonschema(self):
        # in a fresh interpreter, so that no other test's imports count
        code = "import ncfourier, ncfourier.cli, sys; print(sorted(m for m in sys.modules if m.startswith('jsonschema')))"
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert result.stdout.strip() == "[]"

    def test_check_default_trials_cover_batch_checks(self):
        assert set(CHECK_DEFAULT_TRIALS) == {
            "lemma_constants",
            "hausdorff_young",
            "real_interpolation",
            "inversion_plancherel",
            "multiplier_bound",
            "paley",
            "schur_bound",
        }

    def test_formats_doc_has_registry_table(self):
        def described(table):
            cells = []
            for key, param in table.items():
                bounds = param.bounds(key)
                optional = "" if param.required else " (optional)"
                cells.append(f"`{key}`{optional}: {param.kind()}" + (f", {bounds}" if bounds else ""))
            return cells

        rows = []
        for name, entry in CHECKS.items():
            params = described(entry.params) + list(entry.requires)
            trials = CHECK_DEFAULT_TRIALS.get(name, "—")
            rows.append(f"| `{name}` | {entry.instance or 'none'} | {'; '.join(params) or '—'} | {trials} |")
        instance_keys = {key: param for key, (param, *_) in _INSTANCE_KEYS.items()}
        for name, table in [
            ("top level", _CONFIG_KEYS),
            ("`estimator`", _ESTIMATOR_KEYS),
            ("each entry of `checks`", _CHECK_KEYS),
            ("instance object", instance_keys),
        ]:
            rows.append(f"| {name} | {'; '.join(described(table))} |")
        doc = (Path(__file__).parents[1] / "docs" / "formats.md").read_text()
        missing = [row for row in rows if row not in doc]
        assert not missing, "docs/formats.md lacks these rows:\n" + "\n".join(missing)


class TestDiffOutputs:
    @pytest.fixture(scope="class")
    def tree(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("diff")
        cfg = load_config(_write_config(root, _fast_campaign()))
        run_campaign(cfg, root / "out")
        emit_plot_data(root / "out")
        return root / "out"

    def _copy(self, tree, tmp_path):
        import shutil

        return Path(shutil.copytree(tree, tmp_path / "copy"))

    def test_identical_trees(self, tree, tmp_path, capsys):
        copy = self._copy(tree, tmp_path)
        mismatches, drift = diff_outputs(tree, copy)
        assert mismatches == []
        assert set(drift) == set(_tree_bytes(tree)) and not any(drift.values())
        assert main(["diff", str(tree), str(copy)]) == 0
        assert "structures match" in capsys.readouterr().out

    def test_float_drift_is_measured_not_a_mismatch(self, tree, tmp_path, capsys):
        copy = self._copy(tree, tmp_path)
        report = copy / "reports" / "001_multiplier_bound.json"
        doc = json.loads(report.read_text())
        row = doc["series"][0]
        row["estimate"] = row["estimate"] * (1 + 1e-9)
        report.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        csv = copy / "plots" / "001_multiplier_bound.csv"
        lines = csv.read_text().splitlines()
        cells = lines[1].split(",")
        col = lines[0].split(",").index("estimate")
        cells[col] = "%.12g" % (float(cells[col]) * (1 - 2e-9))
        csv.write_text("\n".join([lines[0], ",".join(cells)] + lines[2:]) + "\n")
        mismatches, drift = diff_outputs(tree, copy)
        assert mismatches == []
        assert drift["reports/001_multiplier_bound.json"] == pytest.approx(1e-9, rel=1e-3)
        assert drift["plots/001_multiplier_bound.csv"] == pytest.approx(2e-9, rel=1e-2)
        assert drift["summary.json"] == 0.0
        assert main(["diff", str(tree), str(copy)]) == 0
        assert "reports/001_multiplier_bound.json  max relative drift 1e-09" in capsys.readouterr().out

    def test_integer_and_float_cells(self):
        from ncfourier.campaign import _csv_tables

        a, b = _csv_tables("n,x\n8,1\n", "n,x\n8,0.999999999999\n")
        assert a == [["n", "x"], ["8", 1.0]] and b == [["n", "x"], ["8", 0.999999999999]]
        a, b = _csv_tables("n\n8\n", "n\n9\n")
        assert a != b

    @pytest.mark.parametrize(
        "edit, fragment",
        [
            (lambda doc: doc.update(passed=not doc["passed"]), "reports/001_multiplier_bound.json/passed: "),
            (lambda doc: doc["series"][0].update(input="other"), "reports/001_multiplier_bound.json/series/0/input: "),
            (lambda doc: doc["series"].pop(), "reports/001_multiplier_bound.json/series: length 7 != 6"),
            (lambda doc: doc.update(extra=1.0), "reports/001_multiplier_bound.json: keys differ: ['extra']"),
            (lambda doc: doc.update(max_ratio=None), "reports/001_multiplier_bound.json/max_ratio: "),
            (lambda doc: doc.update(trials=7.0), "reports/001_multiplier_bound.json/trials: 7 != 7.0"),
        ],
    )
    def test_structure_mismatches(self, tree, tmp_path, capsys, edit, fragment):
        copy = self._copy(tree, tmp_path)
        report = copy / "reports" / "001_multiplier_bound.json"
        doc = json.loads(report.read_text())
        assert doc["trials"] == 7 and len(doc["series"]) == 7
        edit(doc)
        report.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        mismatches, _ = diff_outputs(tree, copy)
        assert len(mismatches) == 1 and mismatches[0].startswith(fragment)
        assert main(["diff", str(tree), str(copy)]) == 1
        assert "MISMATCH " + fragment in capsys.readouterr().out

    def test_file_sets_and_bytes(self, tree, tmp_path):
        copy = self._copy(tree, tmp_path)
        (copy / "plots" / "ladder_lad.csv").unlink()
        (copy / "notes.txt").write_text("x\n")
        (tree / "notes.txt").write_text("y\n")
        (copy / "extra.txt").write_text("z\n")
        try:
            mismatches, _ = diff_outputs(tree, copy)
        finally:
            (tree / "notes.txt").unlink()
        assert mismatches == [
            f"plots/ladder_lad.csv: only in {tree}",
            f"extra.txt: only in {copy}",
            "notes.txt: bytes differ",
        ]

    def test_missing_directory_exits_2(self, tree, tmp_path, capsys):
        assert main(["diff", str(tree), str(tmp_path / "absent")]) == 2
        assert "error:" in capsys.readouterr().err
