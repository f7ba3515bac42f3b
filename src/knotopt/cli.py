"""Command-line front end.

Subcommands:
  run        catalog experiments, one row per curve and knot count
  solve      optimise a single curve and print the resulting knots
  check      first-order optimality diagnostic at given knot positions
  plot-data  sample a curve and its interpolant to CSV for plotting

The default seed is 42; the environment variable KNOTOPT_SEED overrides it
and an explicit --seed flag wins over both.  Bad input from outside the
program (the seed, knot counts or positions, the catalog file) exits with
an ``error: ...`` message instead of a traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .curves import default_catalog, load_catalog
from .harness import (DEFAULT_KNOT_COUNTS, emit_plot_data, run_catalog,
                      run_experiment, rows_to_csv, rows_to_json)
from .kkt import kkt_check, prop1_test
from .objective import ObjectiveKind
from .pl import KnotVector
from .spg import Backtrack, BbRule, SpgConfig

DEFAULT_SEED = 42

MEASURE_NAMES = [kind.value for kind in ObjectiveKind]


def _default_seed() -> int:
    env = os.environ.get("KNOTOPT_SEED") or str(DEFAULT_SEED)
    try:
        return int(env)
    except ValueError:
        raise SystemExit(f"error: KNOTOPT_SEED must be an integer, "
                         f"got {env!r}") from None


def _count(text: str) -> int:
    """One knot count, an integer of at least 1 (an argparse type)."""
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"knot counts must be integers >= 1, got {text!r}")
    return int(text)


def _knot_vector(entry, text: str) -> KnotVector:
    """Comma-separated knot positions inside the entry's interval."""
    try:
        xs = np.sort(np.array([float(v) for v in text.split(",")]))
        return KnotVector(entry.a, entry.b, xs)
    except ValueError as exc:
        raise SystemExit(f"error: bad knot positions {text!r} for "
                         f"[{entry.a:g}, {entry.b:g}]: {exc}") from None


def _entry(args):
    """The catalog entry named by --curves, from --catalog or the bundled one."""
    try:
        catalog = (default_catalog() if args.catalog is None
                   else load_catalog(args.catalog))
    except (OSError, ValueError) as exc:
        raise SystemExit(f"error: {exc}") from None
    for entry in catalog:
        if entry.name == args.curves:
            return entry
    raise SystemExit(f"error: curve {args.curves!r} not in catalog")


def _config(args) -> SpgConfig:
    seed = args.seed if args.seed is not None else _default_seed()
    try:
        return SpgConfig(rng_seed=seed,
                         bb_rule=BbRule(args.bb),
                         backtrack=Backtrack(args.backtrack))
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None


def _solver_flags(parser):
    parser.add_argument("--seed", type=int, default=None,
                        help=f"RNG seed (default {DEFAULT_SEED}, env KNOTOPT_SEED)")
    parser.add_argument("--bb", choices=[r.value for r in BbRule], default="bb1",
                        help="Barzilai-Borwein step rule")
    parser.add_argument("--backtrack", choices=[m.value for m in Backtrack],
                        default="random", help="line-search shrink rule")


def _cmd_run(args) -> int:
    curves = args.curves.split(",") if args.curves else None
    try:
        rows = run_catalog(catalog_path=args.catalog, curves=curves,
                           knot_counts=args.knots, measure=args.measure,
                           config=_config(args), out_path=args.out,
                           fmt=args.format)
    except KeyError as exc:
        raise SystemExit(f"error: {exc.args[0]}") from None
    except (OSError, ValueError) as exc:   # an unreadable or malformed catalog
        raise SystemExit(f"error: {exc}") from None
    if args.out is None:
        sys.stdout.write(rows_to_csv(rows) if args.format == "csv"
                         else rows_to_json(rows))
    else:
        print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _write_json(record: dict, out: str | None):
    # RFC 8259 JSON has no NaN or Infinity: a failed row's errors become null
    record = json.loads(json.dumps(record), parse_constant=lambda _: None)
    text = json.dumps(record, indent=2, allow_nan=False) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_solve(args) -> int:
    entry = _entry(args)
    row = run_experiment(entry, args.knots, args.measure, _config(args))
    record = {
        "curve": entry.name, "a": entry.a, "b": entry.b, "n_knots": args.knots,
        "measure": row.measure,
        "orig_error": row.orig_error, "spg_error": row.spg_error,
        "reduction_pct": row.reduction_pct, "iterations": row.iterations,
        "termination": row.termination, "status": row.status,
        "knots": row.final_knots.tolist(),
    }
    _write_json(record, args.out)
    return 0


def _cmd_check(args) -> int:
    entry = _entry(args)
    knots = _knot_vector(entry, args.knots)
    kind = ObjectiveKind(args.measure)
    report = kkt_check(entry.curve, knots, kind)
    record = report.to_dict()
    if kind is ObjectiveKind.CONCAVE_AREA:
        try:
            holds, margins = prop1_test(entry.curve, knots)
            record["prop1"] = {"holds": holds, "margins": margins.tolist()}
        except ValueError as exc:
            record["prop1"] = {"holds": None, "note": str(exc)}
    _write_json(record, args.out)
    return 0


def _cmd_plot_data(args) -> int:
    entry = _entry(args)
    spec = args.knots or str(DEFAULT_KNOT_COUNTS[0])
    if spec.strip().isdecimal():
        row = run_experiment(entry, int(spec), args.measure, _config(args))
        if row.status != "ok":
            raise SystemExit(row.status)
        knots = KnotVector(entry.a, entry.b, row.final_knots[1:-1])
    else:
        knots = _knot_vector(entry, spec)
    emit_plot_data(entry.curve, knots, args.out)
    print(f"wrote plot data to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="knotopt",
        description="Optimal knot placement for piecewise-linear approximation")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run catalog experiments")
    run.add_argument("--catalog", default=None, help="catalog CSV (default: bundled)")
    run.add_argument("--curves", default=None, help="comma-separated curve names")
    run.add_argument("--knots", default=DEFAULT_KNOT_COUNTS,
                     type=lambda text: tuple(map(_count, text.split(","))),
                     help="comma-separated knot counts")
    run.add_argument("--measure", choices=MEASURE_NAMES, default="auto")
    run.add_argument("--out", default=None, help="output file path")
    run.add_argument("--format", choices=["csv", "json"], default="csv")
    _solver_flags(run)
    run.set_defaults(func=_cmd_run)

    solve = sub.add_parser("solve", help="optimise knots for one curve")
    solve.add_argument("--catalog", default=None)
    solve.add_argument("--curves", required=True, help="curve name")
    solve.add_argument("--knots", type=_count, default=DEFAULT_KNOT_COUNTS[0],
                       help="number of knots")
    solve.add_argument("--measure", choices=MEASURE_NAMES, default="auto")
    solve.add_argument("--out", default=None)
    _solver_flags(solve)
    solve.set_defaults(func=_cmd_solve)

    check = sub.add_parser("check", help="KKT diagnostic at given knots")
    check.add_argument("--catalog", default=None)
    check.add_argument("--curves", required=True, help="curve name")
    check.add_argument("--knots", required=True,
                       help="comma-separated knot positions")
    check.add_argument("--measure", choices=MEASURE_NAMES, default="concave")
    check.add_argument("--out", default=None)
    check.set_defaults(func=_cmd_check)

    plot = sub.add_parser("plot-data", help="sample curve and interpolant to CSV")
    plot.add_argument("--catalog", default=None)
    plot.add_argument("--curves", required=True, help="curve name")
    plot.add_argument("--knots", default=None,
                      help="knot count (optimised) or comma-separated positions")
    plot.add_argument("--measure", choices=MEASURE_NAMES, default="auto")
    plot.add_argument("--out", required=True)
    _solver_flags(plot)
    plot.set_defaults(func=_cmd_plot_data)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
