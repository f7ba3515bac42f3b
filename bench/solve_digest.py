"""A sha256 over direct solves, to show that a change moved no float.

Solves every row of the bundled catalog under ``auto`` at n = 1, 2, 4, 8,
``general`` at n = 1, 4, 8, 16 and ``concave`` at n = 4, 16, 64 from the
harness's start (equally spaced knots over the row's [a, b]), then
perfbench many-knots' cells at seeds 42, 7 and 11: ``solve`` with the area
kind from sorted uniform knots drawn by ``default_rng([seed, row, n])`` on
the concave-flagged rows, n = 64 and 256.  Each cell gives one line: the
``repr`` of the errors and objectives, the final knots' bytes, the steps,
the termination and the ``kkt_check`` stationarity residual in the cell's
kind, or the error the cell raised.  An area cell (``concave`` and
many-knots) adds the area kind's certificate at its final knots: a
sha256 of ``hessian_phi``'s bytes and one of the verdict and margins'
bytes that ``prop1_test`` reads off the cell's ``kkt_check`` report and
that one matrix, each replaced by the error it raised, if any (a raising
``hessian_phi`` fills both), so the digest also covers the curvature
model that ``kkt`` reads.  The digest
is the sha256 of those lines.  Under it, one sha256 per group of cells
(auto, general, concave and many-knots) shows which kinds a change moved:
the squared kinds' groups can stay bit for bit while the area cells move.
It imports ``knotopt`` from ``src/`` beside this directory.

A squared kind's Newton path follows the last bits of its gaps, and those
depend on the platform's libm and numpy build, so the digest compares two
commits on one machine, not across machines.

    python3 bench/solve_digest.py            # prints the digests and line counts
    python3 bench/solve_digest.py --lines    # also prints every line first
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import knotopt  # noqa: E402

CATALOG_CELLS = {"auto": (1, 2, 4, 8), "general": (1, 4, 8, 16),
                 "concave": (4, 16, 64)}
MANY_KNOTS_SEEDS = (42, 7, 11)
MANY_KNOTS_COUNTS = (64, 256)
GROUPS = ("auto", "general", "concave", "many-knots")


def hashed(compute) -> str:
    """The sha256 of the bytes ``compute()`` returns, or the error it raises."""
    try:
        return hashlib.sha256(compute()).hexdigest()
    except Exception as exc:     # a raising certificate is part of the output too
        return f"error,{type(exc).__name__}: {exc}"


def certificate(curve, knots, kkt) -> str:
    """The hashes of ``hessian_phi`` at ``knots`` and of ``prop1_test`` on
    the cell's area-kind ``kkt`` report and that matrix."""
    try:
        hessian = knotopt.hessian_phi(curve, knots)
    except Exception as exc:     # a raising certificate is part of the output too
        error = f"error,{type(exc).__name__}: {exc}"
        return f"{error},{error}"

    def verdict() -> bytes:
        holds, margins = knotopt.prop1_test(kkt, hessian)
        return bytes([holds]) + margins.tobytes()

    return f"{hashed(hessian.tobytes)},{hashed(verdict)}"


def cell_line(label: str, curve, kind, n: int, **where) -> str:
    try:
        report = knotopt.solve(curve, kind, n, **where)
        kkt = knotopt.kkt_check(curve, report.final_knots, kind)
    except Exception as exc:     # a raising cell is part of the output too
        return f"{label},error,{type(exc).__name__}: {exc}"
    line = (f"{label},{report.initial_error!r},{report.final_error!r},"
            f"{report.initial_objective!r},{report.objective!r},"
            f"{report.final_knots.full().tobytes().hex()},{report.iterations},"
            f"{report.termination.value},{kkt.stationarity_residual!r}")
    if kind is knotopt.ObjectiveKind.CONCAVE_AREA:
        line += f",{certificate(curve, report.final_knots, kkt)}"
    return line


def lines() -> list[str]:
    catalog = knotopt.default_catalog()
    out = []
    for measure, counts in CATALOG_CELLS.items():
        kind = knotopt.ObjectiveKind(measure)
        for entry in catalog:
            for n in counts:
                out.append(cell_line(f"{entry.name},{measure},{n}", entry.curve,
                                     kind, n, a=entry.a, b=entry.b))
    concave = [entry for entry in catalog if entry.concave]
    for seed in MANY_KNOTS_SEEDS:
        for row, entry in enumerate(concave):
            for n in MANY_KNOTS_COUNTS:
                rng = np.random.default_rng([seed, row, n])
                init = knotopt.KnotVector(entry.a, entry.b,
                                          np.sort(rng.uniform(entry.a, entry.b, n)))
                out.append(cell_line(f"{entry.name},many-knots-{seed},{n}",
                                     entry.curve, knotopt.ObjectiveKind.CONCAVE_AREA,
                                     n, init=init))
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--lines", action="store_true",
                        help="print every cell's line before the digest")
    args = parser.parse_args()
    cells = lines()
    if args.lines:
        print("\n".join(cells))
    digest = hashlib.sha256("\n".join(cells).encode()).hexdigest()
    print(f"{digest}  {len(cells)} cells")
    for group in GROUPS:
        # a cell's label is "<row>,<measure or many-knots-<seed>>,<n>"
        part = [cell for cell in cells if cell.split(",")[1].startswith(group)]
        digest = hashlib.sha256("\n".join(part).encode()).hexdigest()
        print(f"{digest}  {len(part)} {group} cells")


if __name__ == "__main__":
    main()
