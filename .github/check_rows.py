"""Check the rows of a `knotopt run` CSV; exit 1 naming the rows that fail.

Usage: python .github/check_rows.py FILE [--stationary]

Every row must have status ok and a reduction_pct within [0, 100].  A nan
reduction passes only on a row whose measure is concave, where a baseline
error at or below 0 leaves no share to report.  With --stationary every
row must also end Stationary.
"""

import csv
import sys


def problems(row: dict, stationary: bool) -> list[str]:
    found = []
    if row["status"] != "ok":
        found.append(f"status {row['status']}")
    if stationary and row["termination"] != "Stationary":
        found.append(f"termination {row['termination']}")
    reduction = row["reduction_pct"]
    if not (reduction == "nan" and row["measure"] == "concave") \
            and not 0.0 <= float(reduction) <= 100.0:
        found.append(f"reduction_pct {reduction} outside [0, 100]")
    return found


def main(argv: list[str]) -> int:
    path, *flags = argv
    if flags not in ([], ["--stationary"]):
        sys.exit(f"usage: check_rows.py FILE [--stationary], got {argv}")
    with open(path, newline="") as fh:
        bad = [f"{row['curve_name']}/{row['n_knots']}: {', '.join(found)}"
               for row in csv.DictReader(fh)
               if (found := problems(row, flags == ["--stationary"]))]
    if bad:
        sys.exit(f"{path}: {len(bad)} rows fail:\n" + "\n".join(bad))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
