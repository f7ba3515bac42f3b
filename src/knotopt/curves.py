"""Parametric families of smooth univariate curves.

Five families are supported, each parameterised by an outer offset ``v1``,
an outer scale ``v2``, an optional shape ``s``, and an inner slope/offset
pair ``d1``/``d2`` (with u = d1*x + d2):

* Logistic:   f(x) = v1 + v2 / (1 + s*exp(u))**(1/s)
* Gompertz:   f(x) = v1 + v2 * exp(s * exp(u))
* Weibull:    f(x) = v1 + v2 * exp(-(u)**s)
* Arctan:     f(x) = v1 + v2 * arctan(u)            (no shape parameter)
* Algebraic:  f(x) = v1 + v2 * (d1 * x**s + d2)**(1/s)

Values, first and second derivatives are analytic; the segment gaps come
from f'' (``knotopt.quadrature``).  Instances are immutable, so all
operations are pure and safe to share across threads.
"""

from __future__ import annotations

import csv
import importlib.resources
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from ._finite import all_finite


class CurveDomainError(ValueError):
    """The family formula is undefined (or overflows) at the requested point."""


class CurveFamily(Enum):
    LOGISTIC = "Logistic"
    GOMPERTZ = "Gompertz"
    WEIBULL = "Weibull"
    ARCTAN = "Arctan"
    ALGEBRAIC = "Algebraic"


def _finite_or_raise(values, family: CurveFamily, x):
    if all_finite(values):
        return values
    flat = np.atleast_1d(values)
    bad = np.atleast_1d(x)[~np.isfinite(flat)]
    raise CurveDomainError(f"{family.value} formula undefined at "
                           f"x={float(bad[0])!r} ({bad.size} of {flat.size} points)")


@dataclass(frozen=True)
class Curve:
    """One curve instance; ``s`` must be None exactly for the Arctan family."""

    family: CurveFamily
    v1: float
    v2: float
    s: float | None
    d1: float
    d2: float

    def __post_init__(self):
        for name in ("v1", "v2", "s", "d1", "d2"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value):
                raise ValueError(f"parameter {name} must be finite, got {value}")
        if self.family is CurveFamily.ARCTAN:
            if self.s is not None:
                raise ValueError("Arctan curves take no shape parameter s")
        elif self.s is None:
            raise ValueError(f"{self.family.value} curves require a shape parameter s")
        elif self.s == 0.0:
            raise ValueError("shape parameter s must be nonzero")

    # -- evaluation ---------------------------------------------------------

    def value(self, x):
        """f(x); accepts scalars or arrays."""
        x = np.asarray(x, dtype=float)
        v1, v2, s, d1, d2 = self.v1, self.v2, self.s, self.d1, self.d2
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if self.family is CurveFamily.LOGISTIC:
                out = v1 + v2 * (1.0 + s * np.exp(d1 * x + d2)) ** (-1.0 / s)
            elif self.family is CurveFamily.GOMPERTZ:
                out = v1 + v2 * np.exp(s * np.exp(d1 * x + d2))
            elif self.family is CurveFamily.WEIBULL:
                out = v1 + v2 * np.exp(-((d1 * x + d2) ** s))
            elif self.family is CurveFamily.ARCTAN:
                out = v1 + v2 * np.arctan(d1 * x + d2)
            else:
                out = v1 + v2 * (d1 * x ** s + d2) ** (1.0 / s)
            _finite_or_raise(out, self.family, x)
        return out if out.ndim else float(out)

    def deriv1(self, x):
        """Analytic f'(x)."""
        x = np.asarray(x, dtype=float)
        v2, s, d1, d2 = self.v2, self.s, self.d1, self.d2
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if self.family is CurveFamily.LOGISTIC:
                e = np.exp(d1 * x + d2)
                out = -v2 * d1 * e * (1.0 + s * e) ** (-1.0 / s - 1.0)
            elif self.family is CurveFamily.GOMPERTZ:
                e = np.exp(d1 * x + d2)
                out = v2 * s * d1 * e * np.exp(s * e)
            elif self.family is CurveFamily.WEIBULL:
                w = d1 * x + d2
                out = -v2 * s * d1 * w ** (s - 1.0) * np.exp(-(w ** s))
            elif self.family is CurveFamily.ARCTAN:
                u = d1 * x + d2
                out = v2 * d1 / (1.0 + u * u)
            else:
                q = d1 * x ** s + d2
                out = v2 * d1 * x ** (s - 1.0) * q ** (1.0 / s - 1.0)
            _finite_or_raise(out, self.family, x)
        return out if out.ndim else float(out)

    def deriv2(self, x):
        """Analytic f''(x)."""
        x = np.asarray(x, dtype=float)
        v2, s, d1, d2 = self.v2, self.s, self.d1, self.d2
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            # expm1(u) = e - 1 without cancellation at the inflection u = 0
            if self.family is CurveFamily.LOGISTIC:
                u = d1 * x + d2
                e = np.exp(u)
                out = v2 * d1 * d1 * e * np.expm1(u) * (1.0 + s * e) ** (-1.0 / s - 2.0)
            elif self.family is CurveFamily.GOMPERTZ:
                u = d1 * x + d2
                e = np.exp(u)
                # 1 + s e vanishes at u = -log(-s), which is u = 0 only for
                # s = -1; -expm1(u + log(-s)) measured less accurate elsewhere
                factor = -np.expm1(u) if s == -1.0 else 1.0 + s * e
                out = v2 * s * d1 * d1 * e * np.exp(s * e) * factor
            elif self.family is CurveFamily.WEIBULL:
                w = d1 * x + d2
                # one w ** s for both uses: pow on a negative base costs ~20x
                # a positive one's
                ws = w ** s
                out = (-v2 * s * d1 * d1 * np.exp(-ws) * w ** (s - 2.0)
                       * ((s - 1.0) - s * ws))
            elif self.family is CurveFamily.ARCTAN:
                u = d1 * x + d2
                out = -2.0 * v2 * d1 * d1 * u / (1.0 + u * u) ** 2
            else:
                q = d1 * x ** s + d2
                out = v2 * d1 * d2 * (s - 1.0) * x ** (s - 2.0) * q ** (1.0 / s - 2.0)
            _finite_or_raise(out, self.family, x)
        return out if out.ndim else float(out)


# -- catalog --------------------------------------------------------------


@dataclass(frozen=True)
class CurveCatalogEntry:
    name: str
    curve: Curve
    concave: bool
    a: float
    b: float

    def __post_init__(self):
        if not (np.isfinite(self.a) and np.isfinite(self.b)):
            raise ValueError(f"catalog entry {self.name!r} needs finite a and b")
        if not self.a < self.b:
            raise ValueError(f"catalog entry {self.name!r} needs a < b")


def _parse_shape(raw: str) -> float | None:
    raw = raw.strip()
    if raw in ("", "-", "none", "None"):
        return None
    return float(raw)


def load_catalog(path: str | Path) -> list[CurveCatalogEntry]:
    """Read a curve catalog from a CSV file.

    Expected columns: name, type, v1, v2, s, d1, d2, concave, a, b.  The
    shape column accepts "-" (or blank) for families without one; the
    concave column is Y or N, in either case; every number must be finite.
    Names must be unique and not blank.  The file is UTF-8, with or without
    a byte-order mark.  ValueError names the file and line of a bad row (and
    the row once split into fields), or the file alone if it is not UTF-8 or
    has no curve rows.
    """
    entries: list[CurveCatalogEntry] = []
    seen: set[str] = set()
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:      # the reader raises csv.Error, such as on an overlong field
            header = next(reader, [])
            rows = [(reader.line_num, fields) for fields in reader if fields]
        except csv.Error as exc:
            raise ValueError(f"{path}, line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            # the text layer decodes ahead of the reader, so no line is known
            raise ValueError(f"{path}: {exc}") from None
        for line, fields in rows:      # blank lines skipped
            try:
                if len(fields) != len(header):
                    raise ValueError(f"{len(fields)} fields for {len(header)} columns")
                row = dict(zip(header, fields))
                name = row["name"].strip()
                if not name:
                    raise ValueError("empty curve name")
                if name in seen:
                    raise ValueError(f"duplicate catalog entry {name!r}")
                concave = row["concave"].strip().upper()
                if concave not in ("Y", "N"):
                    raise ValueError(f"concave must be Y or N, got {row['concave']!r}")
                curve = Curve(
                    family=CurveFamily(row["type"].strip().capitalize()),
                    v1=float(row["v1"]),
                    v2=float(row["v2"]),
                    s=_parse_shape(row["s"]),
                    d1=float(row["d1"]),
                    d2=float(row["d2"]),
                )
                entries.append(CurveCatalogEntry(
                    name=name,
                    curve=curve,
                    concave=concave == "Y",
                    a=float(row["a"]),
                    b=float(row["b"]),
                ))
            except (KeyError, ValueError) as exc:
                reason = f"no column {exc}" if isinstance(exc, KeyError) else exc
                raise ValueError(f"{path}, line {line}: "
                                 f"{','.join(fields)!r}: {reason}") from None
            seen.add(name)
    if not entries:
        raise ValueError(f"{path}: no curve rows")
    return entries


def default_catalog() -> list[CurveCatalogEntry]:
    """The 20-curve catalog shipped with the package."""
    ref = importlib.resources.files("knotopt").joinpath("data/catalog.csv")
    with importlib.resources.as_file(ref) as path:
        return load_catalog(path)
