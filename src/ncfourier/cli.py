"""Command line interface.

Four subcommands:

* ``ncfourier run CONFIG [--out DIR] [--seed N] [--jobs N] [--timings FILE]``
  - execute a campaign; exit status 0 when every hard check passes, 1 when
  some hard check fails, 2 on configuration or data errors.  ``--timings``
  writes the wall seconds of every check to FILE, outside DIR.
* ``ncfourier plot REPORT_DIR [--out DIR]`` - turn the reports of a finished
  campaign into comma-delimited plot tables.
* ``ncfourier instances [--data-dir DIR]`` - list every named instance,
  including group data found in ``--data-dir`` or $NCFOURIER_DATA_DIR, with
  validation status.
* ``ncfourier diff A B`` - compare two output trees: print the largest
  relative float drift per file and every other difference; exit status 0
  when the file sets, structures and non-float values all match, 1 when
  they do not.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .campaign import diff_outputs, emit_plot_data, list_instances, load_config, run_campaign
from .errors import NcfourierError
from .groups import DATA_DIR_ENV


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncfourier",
        description="Verification campaigns for Fourier and Schur multiplier norm bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a campaign configuration")
    p_run.add_argument("config", help="path to a campaign JSON file")
    p_run.add_argument("--out", default="campaign_out", help="output directory (default: %(default)s)")
    p_run.add_argument("--seed", type=int, default=None, help="override the master seed in the config")
    p_run.add_argument("--jobs", type=int, default=1, help="parallel worker processes, at most one per check (default: 1)")
    p_run.add_argument(
        "--timings",
        default=None,
        metavar="FILE",
        help="write per-check wall seconds to FILE, a JSON file outside --out",
    )

    p_plot = sub.add_parser("plot", help="emit CSV plot tables from a report directory")
    p_plot.add_argument("report_dir", help="directory written by `ncfourier run`")
    p_plot.add_argument("--out", default=None, help="where to write tables (default: REPORT_DIR/plots)")

    p_inst = sub.add_parser("instances", help="list named instances and their block structure")
    p_inst.add_argument(
        "--data-dir",
        default=None,
        help=f"extra group-data directory (default: ${DATA_DIR_ENV} if set)",
    )

    p_diff = sub.add_parser("diff", help="compare two output trees: structure exactly, floats by drift")
    p_diff.add_argument("a", help="an output directory of `ncfourier run`")
    p_diff.add_argument("b", help="another one")
    return parser


def _cmd_run(args) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config = replace(config, seed=int(args.seed))
    exit_code, summary = run_campaign(config, args.out, jobs=args.jobs, timings=args.timings)
    for row in summary["checks"]:
        status = "ok " if row["passed"] else "FAIL"
        kind = "hard" if row["hard"] else "mon."
        ratio = "" if row["max_ratio"] is None else f" max_ratio={row['max_ratio']:.6g}"
        print(f"[{status}] {row['index']:03d} {row['check']} ({kind}) {row['instance'] or '-'}{ratio}")
    for name, entry in summary["ladders"].items():
        slope = entry.get("slope")
        if slope is None:
            print(f"ladder {name}: insufficient points for a slope")
        else:
            verdict = "bounded" if entry["bounded"] else "UNBOUNDED?"
            print(f"ladder {name}: slope={slope:.4f} -> {verdict}")
    if summary["all_hard_passed"]:
        print(f"all {summary['num_checks']} checks done; every hard check passed")
    else:
        names = ", ".join(f"{f['check']}[{f['index']}]" for f in summary["hard_failures"])
        print(f"HARD FAILURES: {names}")
    print(f"reports written to {args.out}")
    if args.timings is not None:
        print(f"timings written to {args.timings}")
    return exit_code


def _cmd_plot(args) -> int:
    written = emit_plot_data(args.report_dir, args.out)
    dest = args.out if args.out is not None else f"{args.report_dir}/plots"
    for name in written:
        print(f"wrote {dest}/{name}")
    return 0


def _run_length(items) -> str:
    """Compact display for block lists: [1,1,1,1,2] -> '4x1 + 2'."""
    out = []
    i = 0
    while i < len(items):
        j = i
        while j < len(items) and items[j] == items[i]:
            j += 1
        count = j - i
        out.append(f"{count}x{items[i]}" if count > 1 else f"{items[i]}")
        i = j
    return " + ".join(out)


def _cmd_instances(args) -> int:
    rows = list_instances(args.data_dir)
    for row in rows:
        if row["status"] == "ok":
            blocks = _run_length(row["dual_blocks"])
            weights = _run_length([f"{w:.6g}" for w in row["dual_weights"]])
            print(f"{row['name']:>8}  {row['kind']:<34} dual blocks [{blocks}]  weights [{weights}]")
        else:
            print(f"{row['name']:>8}  {row['kind']:<34} {row['status']}")
    return 0


def _cmd_diff(args) -> int:
    mismatches, drift = diff_outputs(args.a, args.b)
    for name, d in drift.items():
        print(f"{name}  max relative drift {d:.2g}")
    for line in mismatches:
        print(f"MISMATCH {line}")
    if mismatches:
        print(f"{len(mismatches)} mismatches")
        return 1
    print(f"structures match in all {len(drift)} files")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "plot":
            return _cmd_plot(args)
        if args.command == "diff":
            return _cmd_diff(args)
        return _cmd_instances(args)
    except NcfourierError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
