"""Reconstructing a convex body from its curvature measure.

The atom of a polytope's curvature measure at a vertex is its exterior
angle, so the inverse problem is solved by damped Newton on the exact
angles alpha(r) = a, in the potentials psi_i = log tanh r_i; the recovered
radii are r_i = artanh(e^{psi_i}).  The script round-trips a known body
(forward measure -> solve -> compare radii), then reconstructs a body from a
hand-written measure, prints a table of solve times as the body grows,
and ends by setting the solve time of two m=2 bodies next to the time of
their exact admissibility check.
"""

import resource

import numpy as np

import hypcurv as hc

print("== round trip on a random pentagon (m = 1) ==")
rng = np.random.default_rng(7)
poly = hc.random_polytope(1, 5, rng)
mu = hc.curvature_measure_integral(poly)

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
mu3 = hc.curvature_measure_integral(octa)
report3 = hc.solve(mu3)
print(f"converged: {report3.converged}, radii:", np.round(report3.body.radii, 6))

print()
print("== scaling: icosphere and polygon round trips ==")
# Icosphere bodies with radii moved by up to 2e-3 relative, and regular
# polygons with radii moved by up to (1 - cos(2 pi / n)) / 2 relative, which
# keeps every vertex extreme.  "hull calls" counts the solve's from_vertices
# calls, none for a polygon, whose faces are its angular cycle; "peak MB" is
# the process peak after the solve.
rng = np.random.default_rng(11)
cases = []
for level in (2, 3, 4):
    base = hc.icosphere_body(level, 1.0)
    radii = base.radii * (1.0 + rng.uniform(-2e-3, 2e-3, base.n_vertices))
    cases.append((f"icosphere level {level}", hc.from_vertices(2, base.directions, radii)))
for n in (256, 1024):
    base = hc.regular_polygon(n, 1.0)
    wiggle = 0.5 * (1.0 - np.cos(2.0 * np.pi / n))
    radii = base.radii * (1.0 + rng.uniform(-wiggle, wiggle, n))
    cases.append((f"{n}-gon", hc.from_vertices(1, base.directions, radii)))
print(f"{'body':>18} {'vertices':>8} {'wall s':>8} {'iters':>5} {'hull calls':>10} "
      f"{'radius err':>10} {'peak MB':>8}")
for label, body in cases:
    report = hc.solve(hc.curvature_measure_angles(body))
    err = np.abs(report.body.radii - body.radii).max() / body.radii.min()
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"{label:>18} {body.n_vertices:>8} {report.wall_time:>8.3f} {report.iterations:>5} "
          f"{report.hull_calls:>10} {err:>10.1e} {peak:>8.1f}")

print()
print("== certificate first: solve against the exact admissibility check ==")
# A converged solve certifies its measure, so it runs no 2^N-subset check;
# check_conditions is what the solve would have paid to check first.  The
# icosahedron's 6 antipodal pairs send most subsets to the per-subset hull.
certified = [("icosahedron", hc.from_vertices(2, hc.build_grid(2, 0).nodes, np.ones(12))),
             ("random 20 atoms", hc.random_polytope(2, 20, np.random.default_rng(20)))]
print(f"{'body':>18} {'atoms':>8} {'solve s':>8} {'check s':>8} {'converged':>9}")
for label, body in certified:
    mu = hc.curvature_measure_angles(body)
    report = hc.solve(mu)
    cond = hc.check_conditions(mu)
    print(f"{label:>18} {mu.size:>8} {report.wall_time:>8.4f} {cond.wall_time:>8.4f} "
          f"{str(report.converged):>9}")
