"""The three admissibility conditions on spherical measures.

A finite measure is the curvature measure of some hyperbolic convex body
exactly when (1) its total mass exceeds the sphere's, (2) for every proper
convex subset omega, sigma(omega*) < mu(complement of omega), and (3) no
atom reaches half the sphere's mass.  This script runs the checker on a
valid measure and on two targeted violations, then confirms that forward
measures of random polytopes always pass with positive margins.  It ends
with the cost of the exact m=2 check, which visits all 2^N - 1 subsets,
as N grows: random body measures, N atoms in convex position on a small
circle (every pair bounds many subsets) and the icosahedron (whose subsets
with antipodal pairs take the per-subset hull).  N = 17 and 18 are the
first sizes whose subsets fill more than one block of 2^16 masks.  Each row
also prints the process peak so far, in MB.
"""

import resource

import numpy as np

import hypcurv as hc
from hypcurv.measures import EXHAUSTIVE_MAX_ATOMS, DiscreteMeasure


def circle_measure(angles, weights):
    pts = np.column_stack([np.cos(angles), np.sin(angles)])
    return DiscreteMeasure(1, pts, np.asarray(weights, dtype=float))


def show(name, mu):
    rep = hc.check_conditions(mu)
    print(f"{name}:")
    print(f"  total mass excess  {rep.total_mass_excess:+.4f}  ok={rep.total_mass_ok}")
    print(f"  largest atom       {rep.vertex_max_weight:.4f} (index {rep.vertex_argmax})"
          f"  ok={rep.vertex_ok}")
    print(f"  alexandrov slack   {rep.alexandrov_slack:+.4f}  ok={rep.alexandrov_ok}"
          f"  witness={rep.worst_witness}")
    print(f"  => admissible: {rep.all_ok}")
    print()


w = (2 * np.pi + 0.3) / 3
show("three equal atoms, total just above 2*pi",
     circle_measure(2 * np.pi * np.arange(3) / 3, [w, w, w]))

show("four atoms clustered in an arc of length 0.1 (fails Alexandrov)",
     circle_measure(0.1 * np.arange(4) / 3, [1.6] * 4))

show("one atom above half the circle (fails the vertex condition)",
     circle_measure(2 * np.pi * np.arange(4) / 4, [3.2, 1.2, 1.2, 1.2]))

print("forward measures of random bodies always pass:")
rng = np.random.default_rng(1)
for _ in range(5):
    poly = hc.random_polytope(1, int(rng.integers(4, 9)), rng)
    rep = hc.check_conditions(hc.curvature_measure_integral(poly))
    print(f"  n={poly.n_vertices}: all_ok={rep.all_ok}, "
          f"slack={rep.alexandrov_slack:.4f}")


def circle_m2(n, radius=0.3):
    turn = 2 * np.pi * np.arange(n) / n
    pts = np.column_stack([np.sin(radius) * np.cos(turn), np.sin(radius) * np.sin(turn),
                           np.full(n, np.cos(radius))])
    return DiscreteMeasure(2, pts, np.ones(n))


print()
print(f"m=2 check cost (exhaustive up to N = {EXHAUSTIVE_MAX_ATOMS}):")
print(f"  {'measure':30s} {'N':>3s} {'subsets':>9s} {'wall_time':>10s}  all_ok  peak MB")
rng = np.random.default_rng(2)
cases = [("random body", hc.curvature_measure_angles(hc.random_polytope(2, n, rng)))
         for n in (8, 12, 16, 17, 18, 20)]
cases += [("convex position, radius 0.3", circle_m2(n)) for n in (12, 16, 20)]
cases.append(("icosahedron", hc.curvature_measure_angles(hc.icosphere_body(0, 1.0))))
for name, mu in cases:
    rep = hc.check_conditions(mu)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KB on Linux
    print(f"  {name:30s} {mu.size:3d} {rep.subsets_evaluated:9d} "
          f"{rep.wall_time:9.4f}s  {str(rep.all_ok):6s}  {peak:7.1f}")
