"""Projecting onto the monotone nonnegative cone.

Reordered knots in y coordinates live in M = {0 <= y_1 <= ... <= y_n}.  The
solver repeatedly projects gradient steps onto M; the projection pools
adjacent violators into blocks (isotonic regression) and clamps negative
blocks to zero.
"""

import numpy as np

from knotopt import project

examples = [
    np.array([1.0, 2.0, 3.0]),        # already feasible
    np.array([-1.0, -2.0]),           # everything below the floor
    np.array([2.0, 1.0, 3.0]),        # one violating pair
    np.array([3.0, 1.0, 2.0, -1.0, 5.0]),  # four entries pool into one block
]
for v in examples:
    print(f"project({np.array2string(v, precision=2)}) ="
          f" {np.array2string(project(v), precision=4)}")

# the projection is the nearest feasible point: no feasible w does better
rng = np.random.default_rng(3)
v = rng.normal(scale=2.0, size=6)
p = project(v)
best = min(float(np.sum((v - np.sort(np.abs(rng.normal(size=6)))) ** 2))
           for _ in range(2000))
print(f"\nrandom v: distance^2 to projection {float(np.sum((v - p) ** 2)):.4f}, "
      f"best of 2000 random feasible points {best:.4f}")

# and it never expands distances
u, w = rng.normal(size=5), rng.normal(size=5)
print("non-expansive:",
      float(np.linalg.norm(project(u) - project(w))), "<=",
      float(np.linalg.norm(u - w)))
