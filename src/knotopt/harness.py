"""Catalog experiment runner and plot-data export.

``run_catalog`` reproduces the reference experiment layout: every selected
curve is solved for each knot count, starting from equally spaced knots, and
a result row records the baseline (equal-spacing) error, the optimised
error, the reduction percentage, and the solver outcome.

A measure name is the value of an ``ObjectiveKind``, and each cell is one
``spg.solve`` of that kind, which optimises the kind's functional and
reports its own error measure, so baseline and optimised numbers are
directly comparable.  The default ``auto`` measure is the interior
squared-gap metric, the quantity the reference result tables for this
catalog report; ``concave`` and ``general`` select the area and the full
squared-gap objectives.  A cell that fails (for example because the curve is
undefined on its interval) gives a row with NaN errors and an ``error: ...``
status, and the run goes on.

Each cell's solve is damped Newton in x, which draws no random numbers,
so a row is the same whatever else the run holds.  Rows are assembled in
catalog order and all floating-point output is formatted explicitly, so
two runs produce byte-identical files.  A row's reduction percentage is
NaN unless its baseline error is positive.
"""

from __future__ import annotations

import csv
import errno
import io
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .curves import Curve, CurveCatalogEntry, default_catalog, load_catalog
from .pl import KnotVector, ObjectiveKind, build_pl
from .spg import solve

DEFAULT_KNOT_COUNTS = (4, 8)


@dataclass(frozen=True)
class ResultRow:
    curve_name: str
    a: float
    b: float
    n_knots: int
    measure: str
    orig_error: float
    spg_error: float
    reduction_pct: float
    iterations: int
    termination: str
    final_knots: np.ndarray
    status: str = "ok"


def run_experiment(entry: CurveCatalogEntry, n: int, measure: str) -> ResultRow:
    """Solve one (curve, knot count) cell and score it in the given measure."""
    a, b = entry.a, entry.b
    try:
        report = solve(entry.curve, ObjectiveKind(measure), n, a=a, b=b)
        orig, spg_error = report.initial_error, report.final_error
        final = report.final_knots.full()
        iterations = report.iterations
        termination = report.termination.value
        status = "ok"
    except Exception as exc:     # record per-row failures, keep the run going
        orig = spg_error = float("nan")
        final = KnotVector.equally_spaced(a, b, max(n, 0)).full()  # n < 1 fails too
        iterations, termination, status = 0, "Failed", f"error: {exc}"

    # a reduction is only a share of a positive baseline
    reduction = (orig - spg_error) / orig * 100.0 if orig > 0.0 else float("nan")
    return ResultRow(
        curve_name=entry.name, a=a, b=b, n_knots=n, measure=measure,
        orig_error=orig, spg_error=spg_error, reduction_pct=reduction,
        iterations=iterations, termination=termination,
        final_knots=final, status=status,
    )


def select(catalog_path: str | Path | None,
           names: list[str] | None) -> list[CurveCatalogEntry]:
    """Entries ``names`` (all if None) of the catalog file (bundled if None)."""
    catalog = default_catalog() if catalog_path is None else load_catalog(catalog_path)
    if names is None:
        return catalog
    by_name = {entry.name: entry for entry in catalog}
    missing = [name for name in names if name not in by_name]
    if missing:
        raise KeyError(f"curves not in catalog: {', '.join(missing)}")
    return [by_name[name] for name in names]


def run_catalog(catalog_path: str | Path | None = None,
                curves: list[str] | None = None,
                knot_counts: tuple[int, ...] = DEFAULT_KNOT_COUNTS,
                measure: str = "auto",
                config=None,
                out_path: str | Path | None = None,
                fmt: str = "csv") -> list[ResultRow]:
    """Run every selected (curve, knot count) experiment, in catalog order.

    With an output path the table is written as CSV or JSON; the file only
    appears once the whole run has finished, and a path whose directory is
    missing fails before the first cell.  A cell's solve draws no random
    numbers, so a row does not depend on which other curves and knot
    counts are selected, or on their order.  ``config`` is ignored; it
    stays only because perfbench passes it.
    """
    # a bad measure, format or output directory fails before any work
    ObjectiveKind(measure)
    _check_format(fmt)
    if out_path is not None and not Path(out_path).parent.is_dir():
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT),
                                str(out_path))
    rows = [run_experiment(entry, n, measure)
            for entry in select(catalog_path, curves) for n in knot_counts]

    if out_path is not None:
        write_rows(rows, out_path, fmt)
    return rows


# -- serialisation ---------------------------------------------------------

_CSV_FIELDS = ("curve_name", "a", "b", "n_knots", "measure", "orig_error",
               "spg_error", "reduction_pct", "iterations", "termination",
               "status", "final_knots")


def _row_record(row: ResultRow) -> dict:
    return {
        "curve_name": row.curve_name,
        "a": f"{row.a:.6g}",
        "b": f"{row.b:.6g}",
        "n_knots": row.n_knots,
        "measure": row.measure,
        "orig_error": f"{row.orig_error:.6E}",
        "spg_error": f"{row.spg_error:.6E}",
        "reduction_pct": f"{row.reduction_pct:.4f}",
        "iterations": row.iterations,
        "termination": row.termination,
        "status": row.status,
        "final_knots": ";".join(f"{x:.12g}" for x in row.final_knots),
    }


def rows_to_csv(rows: list[ResultRow]) -> str:
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=_CSV_FIELDS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(_row_record(row))
    return buffer.getvalue()


def rows_to_json(rows: list[ResultRow]) -> str:
    return json.dumps([_row_record(row) for row in rows], indent=2) + "\n"


#: the output formats by name, each with the function that renders rows
FORMATS = {"csv": rows_to_csv, "json": rows_to_json}


def _check_format(fmt: str):
    if fmt not in FORMATS:
        raise ValueError(f"format must be {' or '.join(FORMATS)}")


def write_text(text: str, path: str | Path):
    """Write ``text`` to ``path`` whole or not at all, via ``path`` + ".tmp".

    A failure keeps its ``OSError`` type and errno but names ``path``.
    """
    tmp = Path(f"{path}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise type(exc)(exc.errno, exc.strerror, str(path)) from exc
    finally:
        tmp.unlink(missing_ok=True)


def write_rows(rows: list[ResultRow], out_path: str | Path, fmt: str = "csv"):
    _check_format(fmt)
    write_text(FORMATS[fmt](rows), out_path)


PLOT_SAMPLES = 500


def emit_plot_data(curve: Curve, knots: KnotVector, out_path: str | Path):
    """Write (x, f, fhat) samples plus the knot list as CSV.

    500 uniform sample rows tagged "sample" are followed by one "knot" row
    per breakpoint (endpoints included).
    """
    pl = build_pl(curve, knots)
    xs = np.linspace(knots.a, knots.b, PLOT_SAMPLES)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(("kind", "x", "f", "fhat"))
    for x, f, h in zip(xs, curve.value(xs), pl(xs)):
        writer.writerow(("sample", f"{x:.12g}", f"{f:.12g}", f"{h:.12g}"))
    for x in knots.full():
        writer.writerow(("knot", f"{x:.12g}", f"{curve.value(x):.12g}",
                         f"{pl(x):.12g}"))
    write_text(buffer.getvalue(), out_path)
