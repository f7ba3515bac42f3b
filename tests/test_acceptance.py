"""Acceptance gate: every criterion prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  The
frozen expected numbers are the reference values for the bundled
20-curve catalog with 4 and 8 equally spaced knots.
"""

import hashlib
import time

import numpy as np
import pytest

from knotopt import (KnotVector, ObjectiveKind, Termination, YObjective,
                     error_general, error_interior_squared, project,
                     run_catalog, solve, to_y)

from helpers import (QuadraticCurve, brute_force_cone_projection_batch,
                     fd_gradient_richardson)

# reference "orig error" values: concave rows, equal spacing, 4 and 8 knots
REFERENCE_ORIG_CONCAVE = {
    ("logistic1a", 4): 6.166057e-07, ("logistic1a", 8): 3.901868e-08,
    ("logistic2a", 4): 4.546293e-06, ("logistic2a", 8): 2.704366e-07,
    ("logistic3a", 4): 8.866112e-07, ("logistic3a", 8): 5.594112e-08,
    ("gompertz1a", 4): 3.319009e-04, ("gompertz1a", 8): 3.075644e-05,
    ("weibull1a", 4): 8.351922e-06, ("weibull1a", 8): 4.678674e-07,
    ("weibull2a", 4): 6.853906e-06, ("weibull2a", 8): 7.173659e-06,
    ("weibull3a", 4): 1.647924e-05, ("weibull3a", 8): 1.654462e-06,
}

# reference "orig error" values: the 13 non-concave rows
REFERENCE_ORIG_GENERAL = {
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

# reference optimised-error columns; tracked informationally only (criterion 8)
REFERENCE_SPG_CONCAVE = {
    ("logistic1a", 4): 2.925162e-08, ("logistic1a", 8): 3.061227e-08,
    ("logistic2a", 4): 2.354395e-07, ("logistic2a", 8): 2.204636e-07,
    ("logistic3a", 4): 4.936710e-08, ("logistic3a", 8): 5.129870e-08,
    ("gompertz1a", 4): 1.414356e-05, ("gompertz1a", 8): 2.042979e-05,
    ("weibull1a", 4): 3.460830e-07, ("weibull1a", 8): 3.435558e-07,
    ("weibull2a", 4): 4.671216e-06, ("weibull2a", 8): 2.799612e-06,
    ("weibull3a", 4): 1.160405e-06, ("weibull3a", 8): 1.462703e-06,
}

CONCAVE_NAMES = [name for name, _ in REFERENCE_ORIG_CONCAVE][::2]


@pytest.fixture(scope="module")
def catalog_map():
    from knotopt import default_catalog
    return {entry.name: entry for entry in default_catalog()}


@pytest.fixture(scope="module")
def catalog_run_pair(tmp_path_factory):
    """Two complete auto-measure catalog runs with seed 42, written to CSV."""
    tmp = tmp_path_factory.mktemp("acceptance")
    outs, rows = [], None
    for i in range(2):
        out = tmp / f"catalog_run_{i}.csv"
        rows = run_catalog(out_path=out)
        outs.append(out)
    return rows, outs


def test_criterion_1_concave_baseline_errors(catalog_map):
    start = time.perf_counter()
    worst = 0.0
    for (name, n), expected in REFERENCE_ORIG_CONCAVE.items():
        entry = catalog_map[name]
        knots = KnotVector.equally_spaced(entry.a, entry.b, n)
        value = error_interior_squared(entry.curve, knots)
        worst = max(worst, abs(value - expected) / expected)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-3 and elapsed < 5.0
    print(f"ACCEPTANCE 1 {'PASS' if ok else 'FAIL'}: 14 concave baseline errors, "
          f"worst rel diff {worst:.2e}, {elapsed:.2f} s")
    assert worst <= 1e-3
    assert elapsed < 5.0


def test_criterion_2_general_baseline_errors(catalog_map):
    worst = 0.0
    for (name, n), expected in REFERENCE_ORIG_GENERAL.items():
        entry = catalog_map[name]
        knots = KnotVector.equally_spaced(entry.a, entry.b, n)
        value = error_interior_squared(entry.curve, knots)
        worst = max(worst, abs(value - expected) / expected)
    ok = worst <= 1e-3
    print(f"ACCEPTANCE 2 {'PASS' if ok else 'FAIL'}: 26 non-concave baseline "
          f"errors, worst rel diff {worst:.2e}")
    assert worst <= 1e-3


def test_criterion_3_improvement(catalog_run_pair):
    rows, _ = catalog_run_pair
    concave_rows = [row for row in rows if row.curve_name in CONCAVE_NAMES]
    assert len(concave_rows) == 14
    all_improve = all(row.spg_error <= row.orig_error for row in concave_rows)
    bar_rows = [row for row in concave_rows
                if row.n_knots == 4 and row.curve_name != "weibull2a"]
    assert len(bar_rows) == 6
    min_reduction = min(row.reduction_pct for row in bar_rows)
    weibull2a = next(row for row in concave_rows
                     if row.curve_name == "weibull2a" and row.n_knots == 4)
    ok = all_improve and min_reduction >= 80.0 \
        and weibull2a.spg_error <= weibull2a.orig_error
    print(f"ACCEPTANCE 3 {'PASS' if ok else 'FAIL'}: all 14 concave rows "
          f"improve; min 4-knot reduction {min_reduction:.2f}% (bar 80%), "
          f"weibull2a reduction {weibull2a.reduction_pct:.2f}% (improvement only)")
    assert all_improve
    assert min_reduction >= 80.0


def test_criterion_4_quadratic_hook_exactness():
    curve = QuadraticCurve(-1.0, 0.0, 4.0)
    expected = np.array([0.5, 1.0, 1.5])

    start = time.perf_counter()
    report = solve(curve, ObjectiveKind.CONCAVE_AREA, 3,
                   init=KnotVector(0.0, 2.0, np.array([0.15, 0.25, 0.4])))
    elapsed = time.perf_counter() - start
    deviation = float(np.max(np.abs(report.final_knots.interior - expected)))

    trivial = solve(curve, ObjectiveKind.CONCAVE_AREA, 3, a=0.0, b=2.0)
    ok = (deviation < 1e-6 and report.termination is Termination.STATIONARY
          and report.iterations < 200 and elapsed < 0.1
          and trivial.termination is Termination.STATIONARY
          and trivial.iterations <= 2)
    print(f"ACCEPTANCE 4 {'PASS' if ok else 'FAIL'}: quadratic hook reaches "
          f"even spacing within {deviation:.2e} in {report.iterations} "
          f"iterations ({elapsed * 1e3:.1f} ms), termination "
          f"{report.termination.value}")
    assert deviation < 1e-6
    assert report.termination is Termination.STATIONARY
    assert report.iterations < 200
    assert elapsed < 0.1
    assert trivial.termination is Termination.STATIONARY


def test_criterion_5_gradient_property_suite(catalog_map):
    rng = np.random.default_rng(42)
    failures = 0
    checks = 0
    for entry in catalog_map.values():
        a, b = entry.a, entry.b
        width = b - a
        for kind in ObjectiveKind:
            objective = YObjective(entry.curve, a, b, kind)
            for _ in range(50):
                xs = np.sort(rng.uniform(a + 0.02 * width, b - 0.02 * width,
                                         size=4))
                y = to_y(KnotVector(a, b, xs))
                analytic = objective.grad(y)
                fd = fd_gradient_richardson(objective.value, y,
                                            1e-5 * (1.0 + np.abs(y)))
                for g_an, g_fd in zip(analytic, fd):
                    checks += 1
                    if abs(g_an) >= 1e-3:
                        if abs(g_fd - g_an) > 1e-6 * abs(g_an):
                            failures += 1
                    elif abs(g_fd - g_an) > 1e-9:
                        failures += 1
    ok = failures == 0
    print(f"ACCEPTANCE 5 {'PASS' if ok else 'FAIL'}: {checks} gradient "
          f"components checked across 20 curves x {len(ObjectiveKind)} "
          f"objectives x 50 points, "
          f"{failures} failures")
    assert failures == 0


def test_criterion_6_projection_oracle():
    rng = np.random.default_rng(42)
    worst = 0.0
    for n in range(1, 7):
        V = rng.uniform(-5.0, 5.0, size=(1000, n))
        expected = brute_force_cone_projection_batch(V)
        for v, ref in zip(V, expected):
            out = project(v)
            worst = max(worst, float(np.max(np.abs(out - ref))))
            assert np.array_equal(project(out), out)          # idempotent
            assert out[0] >= 0.0 and np.all(np.diff(out) >= 0.0)  # feasible
    ok = worst <= 1e-9
    print(f"ACCEPTANCE 6 {'PASS' if ok else 'FAIL'}: 6000 projections vs "
          f"brute-force oracle, worst component diff {worst:.2e}")
    assert worst <= 1e-9


def test_criterion_7_determinism(catalog_run_pair):
    _, outs = catalog_run_pair
    digests = [hashlib.sha256(path.read_bytes()).hexdigest() for path in outs]
    ok = digests[0] == digests[1]
    print(f"ACCEPTANCE 7 {'PASS' if ok else 'FAIL'}: two seed-42 catalog runs, "
          f"sha256 {digests[0][:12]}.. vs {digests[1][:12]}..")
    assert digests[0] == digests[1]


def test_criterion_8_reference_optimised_errors_informational(
        catalog_run_pair, catalog_map):
    rows, _ = catalog_run_pair
    by_key = {(row.curve_name, row.n_knots): row for row in rows}
    print("ACCEPTANCE 8 PASS: reference optimised-error columns are tracked "
          "informationally, not asserted (local minima and unspecified "
          "solver settings make them non-binding):")
    for (name, n), reference in REFERENCE_SPG_CONCAVE.items():
        row = by_key[(name, n)]
        assert np.isfinite(row.spg_error)
        assert row.spg_error <= row.orig_error
        print(f"    {name:11s} n={n}: ours {row.spg_error:.6E} vs "
              f"reference {reference:.6E} (orig {row.orig_error:.6E})")
    # the reference tables list the concave rows' baseline twice; under the
    # full squared-gap measure those rows score differently, as expected
    print("    note: concave-row baselines under the full squared-gap "
          "measure differ from the duplicated table values:")
    for name in ("logistic1a", "weibull2a"):
        entry = catalog_map[name]
        knots = KnotVector.equally_spaced(entry.a, entry.b, 4)
        full = error_general(entry.curve, knots)
        listed = REFERENCE_ORIG_CONCAVE[(name, 4)]
        print(f"    {name:11s} n=4: full measure {full:.6E} vs listed "
              f"{listed:.6E} (interior measure reproduces the listed value)")
