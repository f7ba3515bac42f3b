"""Tour of the bundled curve catalog.

Each catalog row defines a parametric curve (logistic, Gompertz, Weibull,
arctangent, or algebraic family), the interval it is studied on, and whether
it is concave there.  Values and derivatives are analytic.  The area under a
curve is the trapezoid of its endpoints plus the gap of the one segment
[a, b], which the error measures compute from f'' (the Peano form of the
trapezoid error), so no separate integral routine is needed.
"""

import numpy as np

from knotopt import KnotVector, default_catalog, error_concave

catalog = default_catalog()

print(f"{'name':12s} {'family':10s} {'interval':>16s} {'concave':>8s} "
      f"{'f(a)':>10s} {'f(b)':>10s} {'integral':>12s}")
for entry in catalog:
    fa = entry.curve.value(entry.a)
    fb = entry.curve.value(entry.b)
    no_knots = KnotVector(entry.a, entry.b, np.empty(0))
    area = 0.5 * (entry.b - entry.a) * (fa + fb) + error_concave(entry.curve, no_knots)
    print(f"{entry.name:12s} {entry.curve.family.value:10s} "
          f"[{entry.a:6.2f},{entry.b:6.2f}] {'Y' if entry.concave else 'N':>8s} "
          f"{fa:10.5f} {fb:10.5f} {area:12.6f}")

# derivatives are analytic; check one against a finite difference
entry = next(e for e in catalog if e.name == "gompertz1a")
x = 1.2345
h = 1e-6
fd = (entry.curve.value(x + h) - entry.curve.value(x - h)) / (2 * h)
print(f"\ngompertz1a f'({x}) analytic {entry.curve.deriv1(x):.10f} "
      f"vs finite difference {fd:.10f}")

# the concave flag describes curvature on the interval
xs = np.linspace(entry.a, entry.b, 9)[1:-1]
print("gompertz1a f'' at interior points:",
      np.array2string(np.asarray(entry.curve.deriv2(xs)), precision=4))
