"""Kinematic (Crofton-type) verification of polar boundary areas.

The difference of polar-boundary areas of two nested bodies equals a
constant times the integral, over random space-like geodesics, of the
difference of intersection counts with the two polar boundaries.  For
concentric balls the area difference is known in closed form, which
calibrates the kinematic normalization; every count difference is 0 or 2.
The area side is exact: by Gauss-Bonnet each polar-boundary area is 2 pi m
plus the area of the body (m=1) or of its boundary (m=2), a sum of exact
hyperbolic face areas.
"""

import numpy as np

import hypcurv as hc

print("== concentric balls, m = 1 ==")
small = hc.regular_polygon(256, 0.5)
big = hc.regular_polygon(256, 1.0)

rep = hc.crofton_compare(small, big, n_samples=100_000, seed=0)
analytic = 2 * np.pi * (np.cosh(1.0) - np.cosh(0.5))
print(f"exact lhs:        {rep.lhs:.6f}   (smooth-ball value {analytic:.6f})")
print(f"kinematic rhs:    {rep.rhs:.6f} +- {rep.stderr:.6f}")
print(f"per-sample count differences: {rep.diff_counts}")
print(f"agreement within 3 sigma: {rep.agree}")

print()
print("== random nested pair, m = 1 ==")
rng = np.random.default_rng(3)
outer = hc.random_polytope(1, 6, rng)
inner = hc.from_vertices(1, outer.directions, np.arctanh(0.75 * np.tanh(outer.radii)))
rep2 = hc.crofton_compare(inner, outer, n_samples=60_000, seed=1)
print(f"lhs {rep2.lhs:.5f}  rhs {rep2.rhs:.5f} +- {rep2.stderr:.5f}  agree={rep2.agree}")
print(f"count differences observed: {rep2.diff_counts} (theorem: only 0 and 2)")

print()
print("== experimental m = 2 ball pair ==")
rep3 = hc.crofton_compare(hc.icosphere_body(2, 0.5), hc.icosphere_body(2, 1.0),
                          n_samples=60_000, seed=2)
print(f"lhs {rep3.lhs:.4f}  rhs {rep3.rhs:.4f} +- {rep3.stderr:.4f}  agree={rep3.agree}")

print()
print("intersection counts match the geometry:")
body = hc.regular_polygon(16, 0.8)
inside = hc.crofton.GeodesicSample(1, np.array([1.0, 0.0]), 0.3, np.array([0.0, 1.0]))
outside = hc.crofton.GeodesicSample(1, np.array([1.0, 0.0]), 1.2, np.array([0.0, 1.0]))
print("  foot point inside the body:  crossings =", hc.count_intersections(inside, body)[0])
print("  foot point outside the body: crossings =", hc.count_intersections(outside, body)[0])
