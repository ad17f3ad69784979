"""Reconstructing a convex body from its curvature measure.

The atom of a polytope's curvature measure at a vertex is its exterior
angle, so the inverse problem is solved by damped Newton on the exact
angles alpha(r) = a, in the potentials psi_i = log tanh r_i; the recovered
radii are r_i = artanh(e^{psi_i}).  The script round-trips a known body
(forward measure -> solve -> compare radii), then reconstructs a body from a
hand-written measure.
"""

import numpy as np

import hypcurv as hc

print("== round trip on a random pentagon (m = 1) ==")
rng = np.random.default_rng(7)
poly = hc.random_polytope(1, 5, rng)
grid = hc.build_grid(1, 6)
mu = hc.curvature_measure_integral(poly, grid)

report = hc.solve(mu)
print(f"converged: {report.converged} in {report.iterations} iterations "
      f"({report.wall_time:.2f}s)")
print("true radii:      ", np.round(poly.radii, 8))
print("recovered radii: ", np.round(report.body.radii, 8))
rel = np.abs(report.body.radii - poly.radii) / poly.radii
print("max rel error:   ", rel.max())
print("max rel residual:", report.residuals.max())

print()
print("== prescribing a hand-written measure ==")
angles = np.array([0.0, 1.9, 3.1, 4.5])
points = np.column_stack([np.cos(angles), np.sin(angles)])
mu2 = hc.DiscreteMeasure(1, points, np.array([2.4, 1.7, 1.5, 1.9]))
cond = hc.check_conditions(mu2)
print("admissible:", cond.all_ok, " alexandrov slack:", round(cond.alexandrov_slack, 4))

report2 = hc.solve(mu2)
body = report2.body
print("recovered radii:", np.round(body.radii, 6))
back = hc.curvature_measure_angles(body)
print("curvature of the reconstruction:", np.round(back.weights, 6))
print("prescribed weights:             ", mu2.weights)
print("max abs deviation:", np.abs(back.weights - mu2.weights).max())

print()
print("== m = 2: octahedron round trip ==")
octa_dirs = np.array([[1.0, 0, 0], [-1, 0, 0], [0, 1, 0],
                      [0, -1, 0], [0, 0, 1], [0, 0, -1]])
octa = hc.from_vertices(2, octa_dirs, np.ones(6))
grid2 = hc.build_grid(2, 6)
mu3 = hc.curvature_measure_integral(octa, grid2)
report3 = hc.solve(mu3)
print(f"converged: {report3.converged}, radii:", np.round(report3.body.radii, 6))
