"""Command-line front end.

Subcommands:
  run        catalog experiments, one row per curve and knot count
  solve      optimise a single curve and print its result row as JSON
  check      first-order optimality diagnostic at given knot positions
  plot-data  sample a curve and its interpolant to CSV for plotting

Every measure is solved by damped Newton in x, which draws no random
numbers, so no command takes a seed.  Bad input from outside the program
(knot counts or positions, the catalog file, the --out path) exits from
``main`` with an ``error: ...`` message instead of a traceback; so do an
empty catalog, an empty curve name and knots where the gap kernel gives up.
Curve names are stripped.  Every --out file is written whole or not at all.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import asdict

import numpy as np

from .harness import (DEFAULT_KNOT_COUNTS, FORMATS, emit_plot_data,
                      run_catalog, run_experiment, select, write_text)
from .kkt import hessian_phi, kkt_check, prop1_test
from .pl import KnotVector, ObjectiveKind
from .quadrature import QuadratureError

MEASURE_NAMES = [kind.value for kind in ObjectiveKind]


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
        raise ValueError(f"bad knot positions {text!r} for "
                         f"[{entry.a:g}, {entry.b:g}]: {exc}") from None


def _cmd_run(args) -> int:
    curves = None if args.curves is None else args.curves.split(",")
    rows = run_catalog(catalog_path=args.catalog, curves=curves,
                       knot_counts=args.knots, measure=args.measure,
                       out_path=args.out, fmt=args.format)
    if args.out is None:
        sys.stdout.write(FORMATS[args.format](rows))
    else:
        print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _write_json(record: dict, out: str | None):
    # RFC 8259 JSON has no NaN or Infinity: a failed row's errors become null
    record = json.loads(json.dumps(record), parse_constant=lambda _: None)
    text = json.dumps(record, indent=2, allow_nan=False) + "\n"
    if out:
        write_text(text, out)
    else:
        sys.stdout.write(text)


def _cmd_solve(args) -> int:
    [entry] = select(args.catalog, [args.curves])
    row = run_experiment(entry, args.knots, args.measure)
    # the row's columns in order, under the two names this command prints
    renamed = {"curve_name": "curve", "final_knots": "knots"}
    record = {renamed.get(name, name): value for name, value in asdict(row).items()}
    record["knots"] = row.final_knots.tolist()
    _write_json(record, args.out)
    return 0


def _cmd_check(args) -> int:
    [entry] = select(args.catalog, [args.curves])
    knots = _knot_vector(entry, args.knots)
    kind = ObjectiveKind(args.measure)
    report = kkt_check(entry.curve, knots, kind)
    record = report.to_dict()
    record["hessian"] = None
    if kind is ObjectiveKind.CONCAVE_AREA:
        hessian = hessian_phi(entry.curve, knots)
        record["hessian"] = hessian.tolist()
        try:
            holds, margins = prop1_test(report, hessian)
            record["prop1"] = {"holds": holds, "margins": margins.tolist()}
        except ValueError as exc:
            record["prop1"] = {"holds": None, "note": str(exc)}
    _write_json(record, args.out)
    return 0


def _cmd_plot_data(args) -> int:
    [entry] = select(args.catalog, [args.curves])
    spec = args.knots or str(DEFAULT_KNOT_COUNTS[0])
    if spec.strip().isdecimal():
        row = run_experiment(entry, int(spec), args.measure)
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
    # flags that several commands share, each defined once
    catalog = argparse.ArgumentParser(add_help=False)
    catalog.add_argument("--catalog", default=None, help="catalog CSV (default: bundled)")

    run = sub.add_parser("run", parents=[catalog], help="run catalog experiments")
    run.add_argument("--curves", default=None, help="comma-separated curve names")
    run.add_argument("--knots", default=DEFAULT_KNOT_COUNTS,
                     type=lambda text: tuple(map(_count, text.split(","))),
                     help="comma-separated knot counts")
    run.add_argument("--measure", choices=MEASURE_NAMES, default="auto")
    run.add_argument("--out", default=None, help="output file path")
    run.add_argument("--format", choices=FORMATS, default="csv")
    run.set_defaults(func=_cmd_run)

    solve = sub.add_parser("solve", parents=[catalog],
                           help="optimise knots for one curve")
    solve.add_argument("--curves", required=True, help="curve name")
    solve.add_argument("--knots", type=_count, default=DEFAULT_KNOT_COUNTS[0],
                       help="number of knots")
    solve.add_argument("--measure", choices=MEASURE_NAMES, default="auto")
    solve.add_argument("--out", default=None)
    solve.set_defaults(func=_cmd_solve)

    check = sub.add_parser("check", parents=[catalog],
                           help="KKT diagnostic at given knots")
    check.add_argument("--curves", required=True, help="curve name")
    check.add_argument("--knots", required=True,
                       help="comma-separated knot positions")
    check.add_argument("--measure", choices=MEASURE_NAMES, default="concave")
    check.add_argument("--out", default=None)
    check.set_defaults(func=_cmd_check)

    plot = sub.add_parser("plot-data", parents=[catalog],
                          help="sample curve and interpolant to CSV")
    plot.add_argument("--curves", required=True, help="curve name")
    plot.add_argument("--knots", default=None,
                      help="knot count (optimised) or comma-separated positions")
    plot.add_argument("--measure", choices=MEASURE_NAMES, default="auto")
    plot.add_argument("--out", required=True)
    plot.set_defaults(func=_cmd_plot_data)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse takes a list such as -1,0,1 for a flag: join it to --knots or
    # to an abbreviation of it (no other flag starts with --k)
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1].startswith("--k") and "--knots".startswith(argv[i - 1]) \
                and re.match(r"-[\d.]", argv[i]):
            argv[i - 1:i + 1] = [f"--knots={argv[i]}"]
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except KeyError as exc:     # harness.select names the curves it lacks
        raise SystemExit(f"error: {exc.args[0]}") from None
    except (OSError, ValueError, QuadratureError) as exc:
        raise SystemExit(f"error: {exc}") from None


if __name__ == "__main__":
    raise SystemExit(main())
