"""Forward curvature measures of hyperbolic polytopes, two ways.

Builds a square in the hyperbolic plane and an octahedron in hyperbolic
3-space, computes the Gauss curvature measure of each by the exterior-angle
route and by integrating the polar-boundary area density over each vertex's
normal cone, and checks the Gauss-Bonnet identity total = 2*pi + area for the
polygon.
"""

import numpy as np

import hypcurv as hc

print("== square in the hyperbolic plane (m = 1) ==")
square = hc.regular_polygon(4, 1.0)

by_angles = hc.curvature_measure_angles(square)
by_integral = hc.curvature_measure_integral(square)
print("exterior angles:  ", np.round(by_angles.weights, 10))
print("area integral:    ", np.round(by_integral.weights, 10))
print("max difference:   ", np.abs(by_angles.weights - by_integral.weights).max())

area = hc.polygon_area_m1(square)
total = by_angles.weights.sum()
print(f"total curvature   {total:.12f}")
print(f"2*pi + area       {2 * np.pi + area:.12f}")

print()
print("== octahedron in hyperbolic 3-space (m = 2) ==")
octa_dirs = np.array([[1.0, 0, 0], [-1, 0, 0], [0, 1, 0],
                      [0, -1, 0], [0, 0, 1], [0, 0, -1]])
octa = hc.from_vertices(2, octa_dirs, np.ones(6))

by_angles = hc.curvature_measure_angles(octa)
by_integral = hc.curvature_measure_integral(octa)
print("exterior solid angles:", np.round(by_angles.weights, 6))
print("area integral:        ", np.round(by_integral.weights, 6))
print("total vs 4*pi:        ", by_angles.weights.sum(), ">", 4 * np.pi)

print()
print("== fine inscribed polytopes approach the smooth ball values ==")
ball1 = hc.regular_polygon(256, 1.0)
print("m=1 ball total:", hc.polar_boundary_area(ball1),
      " smooth value 2*pi*cosh(1) =", 2 * np.pi * np.cosh(1.0))
ball2 = hc.icosphere_body(3, 1.0)
print("m=2 ball total:", hc.polar_boundary_area(ball2),
      " smooth value 4*pi*cosh^2(1) =", 4 * np.pi * np.cosh(1.0) ** 2)
