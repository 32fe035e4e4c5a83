"""Campaign configuration, execution, and report emission.

A campaign is a JSON file: a master seed, optional estimator settings, and a
list of check specifications.  Configurations are validated before anything
runs, by one kind of rule, :class:`~ncfourier.checks.Param`: tables of the
keys of the file, of its estimator settings, of each check and of an
instance, and the check registry :data:`~ncfourier.checks.CHECKS`, which
the check functions also test on a direct call (known check names, the
instance kind each check needs, every parameter's type and range,
preconditions across parameters); every instance must resolve.  Execution
derives one seed per check from the master seed and the check's position,
so results are independent of `--jobs` and regenerable from the config
alone; reports carry no timestamps or machine-dependent content.

Outputs under the chosen directory:

* ``reports/NNN_<check>.json`` - one report per check;
* ``summary.json`` - pass/fail table, hard failures, and slope verdicts for
  every declared ladder (checks sharing a ``ladder`` label are fit together:
  log max-ratio against log instance size, bounded iff slope <= 0.05);
* ``plots/*.csv`` (via :func:`emit_plot_data`) - one delimited table per
  series-bearing report and per ladder.

Wall times are not deterministic, so they stay out of that tree: on request
:func:`run_campaign` writes them to a sidecar file outside it.

:func:`diff_outputs` compares two such trees: exactly in structure and in
every value that is not a float, by relative drift in the floats.

Every float in these files has 12 significant digits; see
:func:`_declared_precision`.
"""

from __future__ import annotations

import decimal
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import checks as checks_mod
from .checks import (
    CHECKS, _CHECK_KEYS, _ESTIMATOR_KEYS, Param, _check_rows, _validate_object, _validate_params, loglog_slope,
)
from .errors import ConfigError, NcfourierError
from .fourier import build_finite_abelian, build_group_vna, perturb_fourier_matrix
from .groups import available_groups, load_group_file, resolve_group

__all__ = [
    "CheckSpec",
    "CampaignConfig",
    "load_config",
    "resolve_instance",
    "run_campaign",
    "emit_plot_data",
    "diff_outputs",
    "list_instances",
    "MAX_BOUNDED_SLOPE",
    "CHECKS",
    "CHECK_DEFAULT_TRIALS",
]

MAX_BOUNDED_SLOPE = 0.05


@dataclass(frozen=True)
class CheckSpec:
    check: str
    instance: object = None
    params: dict = field(default_factory=dict)
    trials: int | None = None
    ladder: str | None = None


@dataclass(frozen=True)
class CampaignConfig:
    seed: int
    checks: tuple[CheckSpec, ...]
    estimator: dict = field(default_factory=dict)

    def __post_init__(self):
        # also checks a seed given in place of the file's, as by `run --seed`
        _CONFIG_KEYS["seed"].validate("campaign: key", "seed", self.seed)

    def check_seed(self, index: int) -> int:
        return int(
            np.random.SeedSequence((self.seed, index)).generate_state(1, dtype=np.uint64)[0]
        )


CHECK_DEFAULT_TRIALS = {name: e.defaults["trials"] for name, e in CHECKS.items() if "trials" in e.defaults}

# the keys of a campaign file (those of its estimator and of each check are in checks.py)
_CONFIG_KEYS = {
    "format_version": Param("integer", required=False, lo=1, hi=1),
    "seed": Param("integer", lo=0),
    "estimator": Param("object", required=False),
    "checks": Param("object", length=(1, None)),
}
# the keys of an instance object, the builder each names and the source
# coordinates it builds, at most _MAX_COORDINATES (None: bounded by a group
# table): exactly one builder, and a pair may add fault_scale.  "M8", "Z8"
# and "S3" stand for {"matrix": 8}, {"cyclic": 8} and {"group": "S3"}.
_MAX_COORDINATES = 1 << 20
_INSTANCE_KEYS = {
    "cyclic": (Param("integer", required=False, lo=1), lambda n: build_finite_abelian([n]), lambda n: n),
    "abelian": (Param("integer", required=False, lo=1, length=(1, None)), build_finite_abelian, math.prod),
    "group": (Param("string", required=False), lambda name: build_group_vna(resolve_group(name)), None),
    "group_file": (Param("string", required=False), lambda path: build_group_vna(load_group_file(path)), None),
    "matrix": (Param("integer", required=False, lo=1), int, lambda n: n * n),
    "fault_scale": (Param(required=False), None, None),
}


# ---------------------------------------------------------------------------
# validation


def _instance_spec(inst, where: str) -> tuple[str, dict]:
    """The builder key and the object form of a valid instance spec."""
    spec = inst
    if isinstance(inst, str):
        key = {"M": "matrix", "Z": "cyclic"}.get(inst[:1]) if inst[1:].isdigit() else None
        try:
            spec = {key: int(inst[1:])} if key else {"group": inst}
        except ValueError as exc:  # past int()'s digit limit, or digits it does not read
            raise ConfigError(f"{where}: {exc}") from exc
    _validate_object(spec, {key: param for key, (param, *_) in _INSTANCE_KEYS.items()}, where)
    builders = sorted(set(spec) - {"fault_scale"})
    if len(builders) != 1 or builders == ["matrix"] and "fault_scale" in spec:
        names = "/".join(key for key, (_, build, _) in _INSTANCE_KEYS.items() if build)
        raise ConfigError(f"{where} must name exactly one of {names}, and a matrix no fault_scale")
    key, coordinates = builders[0], _INSTANCE_KEYS[builders[0]][2]
    if coordinates and coordinates(spec[key]) > _MAX_COORDINATES:
        raise ConfigError(f"{where} has {coordinates(spec[key])} source coordinates, more than {_MAX_COORDINATES}")
    return key, spec


_INSTANCE_NEEDS = {"pair": "a group/abelian instance", "matrix": "a matrix instance like 'M8'"}
def _check_spec(index: int, item: dict, estimator: dict) -> CheckSpec:
    """One entry of ``checks``, validated; ``estimator`` holds the campaign's estimator settings."""
    where = f"checks[{index}]"
    _validate_object(item, _CHECK_KEYS, where)
    name, inst = item["check"], item.get("instance")
    entry = CHECKS.get(name)
    if entry is None:
        raise ConfigError(f"{where}: unknown check {name!r}; known: {sorted(CHECKS)}")
    if "trials" in item and "trials" not in entry.defaults:
        raise ConfigError(f"{where}: {name!r} does not take a trial count")
    if entry.instance is None and inst is not None:
        raise ConfigError(f"{where}: {name!r} takes no instance, got {inst!r}")
    if entry.instance is not None and inst is None:
        raise ConfigError(f"{where}: {name!r} requires an instance")
    resolved = None
    if inst is not None:
        key, _ = _instance_spec(inst, f"{where}: instance {inst!r}")
        if ("matrix" if key == "matrix" else "pair") != entry.instance:
            raise ConfigError(f"{where}: {name!r} needs {_INSTANCE_NEEDS[entry.instance]}, got {inst!r}")
        # resolve eagerly so a bad group file fails before any check runs
        try:
            resolved = resolve_instance(inst)
        except (NcfourierError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{where}: cannot resolve instance: {exc}") from exc
    params = dict(item.get("params", {}))
    _validate_params(f"{where}: check {name!r}", entry, params)
    _check_rows(where, entry, resolved, item.get("trials"), estimator)
    return CheckSpec(name, inst, params, item.get("trials"), item.get("ladder"))


def load_config(path) -> CampaignConfig:
    """Parse and fully validate a campaign configuration file."""
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, not JSON, or an integer of > 4300 digits
        raise ConfigError(f"cannot read campaign config {path}: {exc}") from exc
    try:
        _validate_object(raw, _CONFIG_KEYS, "top level")
        _validate_object(raw.get("estimator", {}), _ESTIMATOR_KEYS, "estimator")
        checks = tuple(_check_spec(i, item, raw.get("estimator", {})) for i, item in enumerate(raw["checks"]))
    except ConfigError as exc:
        raise ConfigError(f"config {path} rejected: {exc}") from exc
    return CampaignConfig(seed=raw["seed"], checks=checks, estimator=dict(raw.get("estimator", {})))


# ---------------------------------------------------------------------------
# instance resolution


def resolve_instance(inst):
    """Turn an instance spec into a QuantumGroupPair or a matrix size int."""
    key, spec = _instance_spec(inst, f"instance {inst!r}")
    built = _INSTANCE_KEYS[key][1](spec[key])
    fault = spec.get("fault_scale")
    return built if fault is None else perturb_fourier_matrix(built, float(fault))


# ---------------------------------------------------------------------------
# execution


def _run_one(args) -> tuple[dict, dict]:
    """Worker: run one check spec; returns the report dict and its timings.

    The timings are the wall seconds of the whole check (``wall_s``) and of
    building its instance (``build_s``).
    """
    start = time.perf_counter()
    index, spec, seed, estimator = args
    entry = CHECKS[spec.check]
    kwargs = dict(spec.params)
    if spec.trials is not None:
        kwargs["trials"] = spec.trials
    if "seed" in entry.defaults:
        kwargs["seed"] = seed
    if "estimator" in entry.defaults:
        kwargs["estimator"] = estimator
    build_start = time.perf_counter()
    instance = () if spec.instance is None else (resolve_instance(spec.instance),)
    build_s = time.perf_counter() - build_start
    report = getattr(checks_mod, entry.function)(*instance, **kwargs)
    doc = report.to_dict()
    doc["index"] = index
    doc["ladder"] = spec.ladder
    doc["instance_spec"] = spec.instance
    return doc, {"wall_s": time.perf_counter() - start, "build_s": build_s}


# Report floats carry 12 significant digits, so last-ulp differences between
# BLAS builds do not reach the bytes.  Lower bounds (estimates, and ratios
# measured at a concrete input) round toward zero: a printed bound never
# exceeds the computed one.  Before that round-down they are scaled toward
# zero by a few ulps, so that a value that is exactly 1 in theory prints the
# same, 0.999999999999, whether its last bits came out at 1 - 1 ulp, 1 or
# 1 + 2 ulp.  Verdicts are decided on the unrounded values.
_DIGITS = 12
_NUDGE = 1.0 - 2.0**-49  # 8 ulps of 1
_LOWER_BOUND_KEYS = frozenset(
    {"estimate", "ratio", "max_ratio", "max_ratios", "empirical_constant", "max_lr_ratio", "lr_ratio",
     "identity_ratio"}
)
_TOWARD_ZERO = decimal.Context(prec=_DIGITS, rounding=decimal.ROUND_DOWN)


def _declared_precision(v, toward_zero: bool = False):
    """``v`` with every finite float rounded to :data:`_DIGITS` significant digits."""
    if isinstance(v, float):
        if not math.isfinite(v):
            return v
        if toward_zero:
            return float(_TOWARD_ZERO.create_decimal_from_float(v * _NUDGE))
        return float(f"{v:.{_DIGITS}g}")
    if isinstance(v, dict):
        return {k: _declared_precision(x, k in _LOWER_BOUND_KEYS) for k, x in v.items()}
    if isinstance(v, list):
        return [_declared_precision(x, toward_zero) for x in v]
    return v


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(_declared_precision(doc), indent=2, sort_keys=True) + "\n")


def _write_timings(path: Path, results, jobs: int, wall: float) -> None:
    checks = [
        {"index": doc["index"], "check": doc["check"], "instance": doc["instance"], **seconds}
        for doc, seconds in results
    ]
    doc = {"format_version": 1, "jobs": jobs, "wall_s": wall, "checks": checks}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2) + "\n")


def run_campaign(config: CampaignConfig, out_dir, jobs: int = 1, timings=None):
    """Execute every check, write reports and summary; returns (exit_code, summary).

    With ``timings`` (a path outside ``out_dir``), also write the wall seconds
    of the run and of every check there (see docs/formats.md).
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    out = Path(out_dir)
    if timings is not None:
        timings = Path(timings)
        if timings.resolve().is_relative_to(out.resolve()):
            raise ConfigError(f"timings file {timings} must lie outside the output directory {out}")
    start = time.perf_counter()
    reports_dir = out / "reports"
    reports_dir.mkdir(parents=True, exist_ok=True)

    tasks = [
        (i, spec, config.check_seed(i), dict(config.estimator))
        for i, spec in enumerate(config.checks)
    ]

    workers = min(jobs, len(tasks))  # a pool starts all its workers at once
    if workers <= 1:
        results = [_run_one(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_one, tasks))

    rows = []
    ladders: dict[str, list[dict]] = {}
    hard_failures = []
    report_files = []
    for doc, _ in results:
        i = doc["index"]
        fname = f"{i:03d}_{doc['check']}.json"
        _write_json(reports_dir / fname, doc)
        report_files.append(fname)
        row = {
            "index": i,
            "check": doc["check"],
            "instance": doc["instance"],
            "instance_size": doc["instance_size"],
            "hard": doc["hard"],
            "passed": doc["passed"],
            "max_ratio": doc["max_ratio"],
            "report": fname,
        }
        rows.append(row)
        if doc["hard"] and not doc["passed"]:
            hard_failures.append({"index": i, "check": doc["check"], "instance": doc["instance"]})
        if doc.get("ladder"):
            ladders.setdefault(doc["ladder"], []).append(doc)

    ladder_summaries = {}
    for name, docs in sorted(ladders.items()):
        docs = sorted(docs, key=lambda d: (d["instance_size"] or 0, d["index"]))
        sizes = [d["instance_size"] for d in docs]
        ratios = [d["max_ratio"] for d in docs]
        entry = {"sizes": sizes, "max_ratios": ratios}
        usable = [
            (s, r) for s, r in zip(sizes, ratios) if s and r and s > 0 and r > 0
        ]
        if len(usable) >= 2 and len({s for s, _ in usable}) >= 2:
            slope = loglog_slope([s for s, _ in usable], [r for _, r in usable])
            entry["slope"] = slope
            entry["bounded"] = bool(slope <= MAX_BOUNDED_SLOPE)
        else:
            entry["slope"] = None
            entry["bounded"] = None
        ladder_summaries[name] = entry

    summary = {
        "format_version": 1,
        "seed": config.seed,
        "num_checks": len(rows),
        "checks": rows,
        "hard_failures": hard_failures,
        "all_hard_passed": not hard_failures,
        "ladders": ladder_summaries,
        "max_bounded_slope": MAX_BOUNDED_SLOPE,
    }
    _write_json(out / "summary.json", summary)
    if timings is not None:
        _write_timings(timings, results, jobs, time.perf_counter() - start)
    return (0 if not hard_failures else 1), summary


# ---------------------------------------------------------------------------
# plot data


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return f"{v:.{_DIGITS}g}"
    if v is None:
        return ""
    return str(v)


def emit_plot_data(report_dir, out_dir=None) -> list[str]:
    """Write CSV tables for every series-bearing report and ladder.

    Returns the list of files written (relative to the output directory).
    """
    src = Path(report_dir)
    if not src.is_dir():
        raise ConfigError(f"{report_dir} is not a directory")
    out = Path(out_dir) if out_dir is not None else src / "plots"
    out.mkdir(parents=True, exist_ok=True)
    written = []
    reports_dir = src / "reports"
    for rp in sorted(reports_dir.glob("*.json")) if reports_dir.is_dir() else []:
        doc = json.loads(rp.read_text())
        series = doc.get("series")
        if not series:
            continue
        cols = list(series[0].keys())
        lines = [",".join(cols)]
        for row in series:
            lines.append(",".join(_fmt(row.get(c)) for c in cols))
        name = rp.stem + ".csv"
        (out / name).write_text("\n".join(lines) + "\n")
        written.append(name)
    summary_path = src / "summary.json"
    if summary_path.exists():
        summary = json.loads(summary_path.read_text())
        for name, entry in sorted(summary.get("ladders", {}).items()):
            lines = ["size,max_ratio"]
            for s, r in zip(entry["sizes"], entry["max_ratios"]):
                lines.append(f"{_fmt(s)},{_fmt(r)}")
            lines.append("")
            slope = entry.get("slope")
            lines.append(f"# slope,{_fmt(slope)}")
            fname = f"ladder_{name}.csv"
            (out / fname).write_text("\n".join(lines) + "\n")
            written.append(fname)
    if not written:
        raise ConfigError(f"no series or ladders found under {report_dir}")
    return written


# ---------------------------------------------------------------------------
# comparing output trees


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def _csv_tables(text_a: str, text_b: str):
    """Both CSV texts as lists of rows; a pair of numeric cells becomes two floats
    unless both are integer literals (sizes, counts, 0/1 flags)."""
    rows_a, rows_b = ([line.split(",") for line in t.splitlines()] for t in (text_a, text_b))
    for row_a, row_b in zip(rows_a, rows_b):
        for j, (x, y) in enumerate(zip(row_a, row_b)):
            fx, fy = _number(x), _number(y)
            if fx is not None and fy is not None and not (x.lstrip("-").isdigit() and y.lstrip("-").isdigit()):
                row_a[j], row_b[j] = fx, fy
    return rows_a, rows_b


def _drift(a, b, where: str, mismatches: list[str]) -> float:
    """Largest relative difference between the floats of a and b.

    Any other difference (types, keys, lengths, non-float values, a float
    that is not finite) is appended to ``mismatches`` under its path.
    """
    if type(a) is float and type(b) is float and math.isfinite(a) and math.isfinite(b):
        return abs(a - b) / max(abs(a), abs(b)) if a != b else 0.0
    if type(a) is not type(b):
        mismatches.append(f"{where}: {a!r} != {b!r}")
        return 0.0
    if isinstance(a, dict):
        if a.keys() != b.keys():
            mismatches.append(f"{where}: keys differ: {sorted(a.keys() ^ b.keys())}")
        return max((_drift(a[k], b[k], f"{where}/{k}", mismatches) for k in sorted(a.keys() & b.keys())), default=0.0)
    if isinstance(a, list):
        if len(a) != len(b):
            mismatches.append(f"{where}: length {len(a)} != {len(b)}")
        return max((_drift(x, y, f"{where}/{i}", mismatches) for i, (x, y) in enumerate(zip(a, b))), default=0.0)
    if a != b and not (a != a and b != b):  # NaN matches NaN
        mismatches.append(f"{where}: {a!r} != {b!r}")
    return 0.0


def diff_outputs(dir_a, dir_b) -> tuple[list[str], dict[str, float]]:
    """Compare two output trees of ``ncfourier run`` (plus ``ncfourier plot``).

    Returns (mismatches, drift).  ``mismatches`` lists every file present in
    one tree only and, per common file, every difference in JSON or CSV
    structure or in a value that is not a float; other files must be equal
    byte for byte.  ``drift`` maps each common file to the largest relative
    difference |a - b| / max(|a|, |b|) between its floats.  A diagnostic for
    updating a reference tree: it forgives float drift that a byte
    comparison would not.
    """
    roots = [Path(dir_a), Path(dir_b)]
    for root in roots:
        if not root.is_dir():
            raise ConfigError(f"{root} is not a directory")
    names = [{str(f.relative_to(root)) for f in root.rglob("*") if f.is_file()} for root in roots]
    mismatches = [f"{name}: only in {root}" for root, own, other in zip(roots, names, names[::-1])
                  for name in sorted(own - other)]
    drift = {}
    for name in sorted(names[0] & names[1]):
        a, b = (root / name for root in roots)
        try:
            if name.endswith(".json"):
                docs = json.loads(a.read_text()), json.loads(b.read_text())
            elif name.endswith(".csv"):
                docs = _csv_tables(a.read_text(), b.read_text())
            else:
                docs = None, None
                if a.read_bytes() != b.read_bytes():
                    mismatches.append(f"{name}: bytes differ")
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read {name}: {exc}") from exc
        drift[name] = _drift(*docs, name, mismatches)
    return mismatches, drift


# ---------------------------------------------------------------------------
# instance catalog


_DEFAULT_CYCLIC = (2, 3, 4, 8, 16, 64)
_DEFAULT_MATRIX = (2, 4, 8, 16)


def list_instances(data_dir=None) -> list[dict]:
    """Describe every named instance this install can build."""
    rows = []
    for n in _DEFAULT_CYCLIC:
        pair = build_finite_abelian([n], name=f"Z{n}")
        rows.append(
            {
                "name": f"Z{n}",
                "kind": "abelian (parametric: any Z<n>)",
                "size": n,
                "dual_blocks": list(pair.dual.dims),
                "dual_weights": list(pair.dual.weights),
                "status": "ok",
            }
        )
    for name, source in sorted(available_groups(data_dir).items()):
        try:
            pair = build_group_vna(resolve_group(name, data_dir))
            rows.append(
                {
                    "name": name,
                    "kind": f"group ({source})",
                    "size": pair.size,
                    "dual_blocks": list(pair.dual.dims),
                    "dual_weights": list(pair.dual.weights),
                    "status": "ok",
                }
            )
        except NcfourierError as exc:
            rows.append(
                {
                    "name": name,
                    "kind": f"group ({source})",
                    "size": None,
                    "dual_blocks": None,
                    "dual_weights": None,
                    "status": f"invalid: {exc}",
                }
            )
    for n in _DEFAULT_MATRIX:
        rows.append(
            {
                "name": f"M{n}",
                "kind": "matrix (parametric: any M<n>)",
                "size": n,
                "dual_blocks": [n],
                "dual_weights": [1.0],
                "status": "ok",
            }
        )
    return rows
