"""The benchmark's workloads: inputs from a seed, one timed pass, output checks.

Each workload is built from a freshly imported ``knotopt`` module and a seed
(building it is part of the measured set-up), then runs any number of
identical passes.  A pass returns one ``Cell`` per (curve, knot count) solve
with the cell's solve time, its outputs, and a serialised line that must be
byte-identical across the passes of a run.

A pass times its cells with the clock it is given: a ``speed.SpeedMeter``,
which also records the speed probe's time around and inside each cell and
leaves the probes out of the pass's wall time, or a plain ``Stopwatch``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from speed import Stopwatch

# Baseline ("orig") errors of the bundled catalog under the interior
# squared-gap measure with 4 and 8 equally spaced knots: the reference values
# that the acceptance gate also reproduces, copied here so the benchmark
# checks its own output against them.
REFERENCE_ORIG = {
    ("logistic1a", 4): 6.166057e-07, ("logistic1a", 8): 3.901868e-08,
    ("logistic2a", 4): 4.546293e-06, ("logistic2a", 8): 2.704366e-07,
    ("logistic3a", 4): 8.866112e-07, ("logistic3a", 8): 5.594112e-08,
    ("gompertz1a", 4): 3.319009e-04, ("gompertz1a", 8): 3.075644e-05,
    ("weibull1a", 4): 8.351922e-06, ("weibull1a", 8): 4.678674e-07,
    ("weibull2a", 4): 6.853906e-06, ("weibull2a", 8): 7.173659e-06,
    ("weibull3a", 4): 1.647924e-05, ("weibull3a", 8): 1.654462e-06,
    ("logistic1b", 4): 2.287906e-05, ("logistic1b", 8): 2.049227e-06,
    ("logistic2b", 4): 2.232474e-04, ("logistic2b", 8): 1.593240e-05,
    ("logistic3b", 4): 9.481086e-05, ("logistic3b", 8): 7.285415e-06,
    ("gompertz1b", 4): 7.738086e-03, ("gompertz1b", 8): 7.514605e-04,
    ("gompertz2b", 4): 2.285238e-02, ("gompertz2b", 8): 1.720082e-03,
    ("gompertz3b", 4): 2.352946e-02, ("gompertz3b", 8): 1.473251e-03,
    ("weibull1b", 4): 6.166059e-03, ("weibull1b", 8): 4.069463e-04,
    ("weibull2b", 4): 6.091507e-03, ("weibull2b", 8): 1.316705e-03,
    ("arctan1b", 4): 4.205023e-02, ("arctan1b", 8): 1.080821e-02,
    ("arctan2b", 4): 5.327812e-02, ("arctan2b", 8): 2.619283e-03,
    ("arctan3b", 4): 4.515495e-01, ("arctan3b", 8): 4.121905e-02,
    ("algebraic1b", 4): 9.546650e-02, ("algebraic1b", 8): 5.375949e-03,
    ("algebraic2b", 4): 9.546650e-02, ("algebraic2b", 8): 5.375949e-03,
}
REFERENCE_RTOL = 1e-3


@dataclass
class Cell:
    """One solved (curve, knot count) cell of a pass."""

    curve: str
    n: int
    a: float
    b: float
    initial_error: float
    final_error: float
    knots: np.ndarray          # final breakpoints, endpoints included
    seconds: float             # solve time of the cell
    probe_s: float             # mean speed-probe time around it; nan untimed
    line: str                  # serialised output, compared across passes
    problems: list[str]        # failed checks; empty when the cell is right
    in_reduction: bool         # counted in mean_reduction_pct

    @property
    def label(self) -> str:
        return f"{self.curve}/n={self.n}"

    @property
    def reduction_pct(self) -> float:
        if self.initial_error == 0.0:
            return 0.0
        return (self.initial_error - self.final_error) / self.initial_error * 100.0


def common_problems(cell: Cell, min_reduction_pct: float) -> list[str]:
    """Checks every workload applies: no worse than the start, sane knots.

    A cell counted in ``mean_reduction_pct`` must also reduce its error by
    more than the workload's ``min_reduction_pct``.  Both solve paths return
    the start when the result is worse, so "no worse" alone cannot catch a
    solver that stops improving; the floor can.
    """
    problems = []
    if not cell.final_error <= cell.initial_error:
        problems.append(f"final error {cell.final_error:.6e} exceeds initial "
                        f"{cell.initial_error:.6e}")
    elif cell.in_reduction and not cell.reduction_pct > min_reduction_pct:
        problems.append(f"reduction {cell.reduction_pct:.4g} % is not above "
                        f"{min_reduction_pct:g} %")
    xs = cell.knots
    if not np.all(np.isfinite(xs)):
        problems.append("non-finite knots")
    elif xs[0] < cell.a or xs[-1] > cell.b or np.any(np.diff(xs) < 0.0):
        problems.append(f"knots not ordered in [{cell.a:g}, {cell.b:g}]")
    return problems


def concave_on_interval(curve, a: float, b: float) -> bool:
    """f'' <= 0 on a 1001-point grid of [a, b]: the area measure is an L1 error."""
    return bool(np.all(curve.deriv2(np.linspace(a, b, 1001)) <= 0.0))


class CatalogWorkload:
    """``run_catalog`` over a selection of the bundled catalog.

    The per-cell solve time is taken by wrapping ``harness.run_experiment``,
    which ``run_catalog`` calls once per cell, with a clock.
    """

    write_csv = False
    check_reference = False

    def __init__(self, knotopt, seed: int, out_dir: Path):
        self.knotopt = knotopt
        self.config = knotopt.SpgConfig(rng_seed=seed)
        self.out_dir = out_dir
        catalog = knotopt.default_catalog()
        entries = self.select(catalog)
        self.curves = [entry.name for entry in entries]
        # None keeps run_catalog's own default of the whole catalog
        self.selection = self.curves if len(entries) < len(catalog) else None
        self.counted = {entry.name: self.counts_reduction(entry) for entry in entries}

    def select(self, catalog):
        return catalog

    def counts_reduction(self, entry) -> bool:
        return True

    def params(self) -> dict:
        return {"call": "run_catalog", "curves": self.curves,
                "knot_counts": list(self.knot_counts), "measure": self.measure,
                "rng_seed": self.config.rng_seed, "writes_csv": self.write_csv,
                "min_reduction_pct": self.min_reduction_pct}

    def run_pass(self, index: int, clock: Stopwatch
                 ) -> tuple[float, list[Cell]]:
        harness = self.knotopt.harness
        run_experiment = harness.run_experiment
        timings: list[tuple[float, float]] = []

        def timed(*args, **kwargs):
            token = clock.start()
            try:
                return run_experiment(*args, **kwargs)
            finally:
                timings.append(clock.stop(token))

        out = self.out_dir / f"{self.name}-pass{min(index, 1)}.csv" \
            if self.write_csv else None
        harness.run_experiment = timed
        try:
            overhead = clock.overhead
            start = time.perf_counter()
            rows = self.knotopt.run_catalog(
                curves=self.selection, knot_counts=self.knot_counts,
                measure=self.measure, config=self.config, out_path=out)
            wall = time.perf_counter() - start - (clock.overhead - overhead)
        finally:
            harness.run_experiment = run_experiment
        if len(timings) != len(rows):
            raise RuntimeError(f"timed {len(timings)} cells but run_catalog "
                               f"returned {len(rows)} rows")

        text = out.read_text() if out else harness.rows_to_csv(rows)
        lines = text.splitlines()[1:]
        if len(lines) != len(rows):
            raise RuntimeError(f"CSV has {len(lines)} rows, expected {len(rows)}")
        cells = []
        for row, line, (cell_s, probe_s) in zip(rows, lines, timings):
            cell = Cell(curve=row.curve_name, n=row.n_knots, a=row.a, b=row.b,
                        initial_error=row.orig_error, final_error=row.spg_error,
                        knots=np.asarray(row.final_knots, dtype=float),
                        seconds=cell_s, probe_s=probe_s, line=line, problems=[],
                        in_reduction=self.counted[row.curve_name])
            if row.status != "ok":
                cell.problems.append(row.status)
            cell.problems += common_problems(cell, self.min_reduction_pct)
            if self.check_reference:
                expected = REFERENCE_ORIG.get((row.curve_name, row.n_knots))
                if expected is None:
                    cell.problems.append("no reference value")
                elif abs(row.orig_error - expected) > REFERENCE_RTOL * expected:
                    cell.problems.append(f"orig error {row.orig_error:.6e} != "
                                         f"reference {expected:.6e}")
            cells.append(cell)
        return wall, cells


class CatalogAuto(CatalogWorkload):
    """The command-line default: all 20 curves, n in {4, 8}, measure auto."""

    name = "catalog-auto"
    knot_counts = (4, 8)
    measure = "auto"
    write_csv = True
    check_reference = True
    min_passes = 2
    # the acceptance bar of 80 % on the 4-knot concave rows, on every cell;
    # six seeds gave at least 98.2 %
    min_reduction_pct = 80.0


class ConcaveSmall(CatalogWorkload):
    """The concave-flagged rows, n in {4, 8, 16, 32}, closed-form area objective."""

    name = "concave-small"
    knot_counts = (4, 8, 16, 32)
    measure = "concave"
    min_passes = 4
    # every counted cell must improve; logistic3a's are the smallest, ~0.9 %
    min_reduction_pct = 0.0

    def select(self, catalog):
        return [entry for entry in catalog if entry.concave]

    def counts_reduction(self, entry) -> bool:
        return concave_on_interval(entry.curve, entry.a, entry.b)


class ManyKnots:
    """``solve`` plus ``kkt_check`` from seeded random starts, n in {64, 256}."""

    name = "many-knots"
    knot_counts = (64, 256)
    min_passes = 2
    # random starts are far from optimal; six seeds gave at least 63 %
    min_reduction_pct = 50.0

    def __init__(self, knotopt, seed: int, out_dir: Path):
        self.knotopt = knotopt
        self.config = knotopt.SpgConfig(rng_seed=seed)
        self.kind = knotopt.ObjectiveKind.CONCAVE_AREA
        self.inputs = []
        self.curves = []
        for row, entry in enumerate(e for e in knotopt.default_catalog() if e.concave):
            self.curves.append(entry.name)
            counted = concave_on_interval(entry.curve, entry.a, entry.b)
            for n in self.knot_counts:
                rng = np.random.default_rng([seed, row, n])
                xs = np.sort(rng.uniform(entry.a, entry.b, n))
                init = knotopt.KnotVector(entry.a, entry.b, xs)
                self.inputs.append((entry, n, init, counted))

    def params(self) -> dict:
        return {"call": "solve+kkt_check", "objective": self.kind.value,
                "curves": self.curves,
                "knot_counts": list(self.knot_counts),
                "init": "sorted uniform on [a, b], rng([seed, row, n])",
                "rng_seed": self.config.rng_seed,
                "min_reduction_pct": self.min_reduction_pct}

    def run_pass(self, index: int, clock: Stopwatch
                 ) -> tuple[float, list[Cell]]:
        ko = self.knotopt
        results = []
        overhead = clock.overhead
        start = time.perf_counter()
        for entry, n, init, _ in self.inputs:
            token = clock.start()
            try:
                report = ko.solve(entry.curve, self.kind, n, config=self.config,
                                  init=init)
                diag = ko.kkt_check(entry.curve, report.final_knots)
            except Exception as exc:     # the cell fails; the pass goes on
                report, diag = None, exc
            results.append((report, diag, *clock.stop(token)))
        wall = time.perf_counter() - start - (clock.overhead - overhead)

        cells = []
        for (entry, n, _, counted), (report, diag, cell_s, probe_s) \
                in zip(self.inputs, results):
            if report is None:
                error = f"error: {type(diag).__name__}: {diag}"
                cells.append(Cell(curve=entry.name, n=n, a=entry.a, b=entry.b,
                                  initial_error=np.nan, final_error=np.nan,
                                  knots=np.empty(0), seconds=cell_s,
                                  probe_s=probe_s,
                                  line=f"{entry.name},{n},{error}",
                                  problems=[error], in_reduction=False))
                continue
            knots = report.final_knots.full()
            line = (f"{entry.name},{n},{report.initial_error!r},"
                    f"{report.final_error!r},{report.iterations},"
                    f"{report.termination.value},{knots.tobytes().hex()},"
                    f"{diag.stationarity_residual!r}")
            cell = Cell(curve=entry.name, n=n, a=entry.a, b=entry.b,
                        initial_error=report.initial_error,
                        final_error=report.final_error, knots=knots,
                        seconds=cell_s, probe_s=probe_s, line=line, problems=[],
                        in_reduction=counted)
            cell.problems += common_problems(cell, self.min_reduction_pct)
            if not (np.isfinite(diag.stationarity_residual)
                    and np.all(np.isfinite(diag.lam))):
                cell.problems.append("non-finite KKT diagnostic")
            cells.append(cell)
        return wall, cells


WORKLOADS = {w.name: w for w in (CatalogAuto, ConcaveSmall, ManyKnots)}
