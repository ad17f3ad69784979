"""The three admissibility conditions on spherical measures.

A finite measure is the curvature measure of some hyperbolic convex body
exactly when (1) its total mass exceeds the sphere's, (2) for every proper
convex subset omega, sigma(omega*) < mu(complement of omega), and (3) no
atom reaches half the sphere's mass.  This script runs the checker on a
valid measure and on two targeted violations, then confirms that forward
measures of random polytopes always pass with positive margins.
"""

import numpy as np

import hypcurv as hc
from hypcurv.measures import DiscreteMeasure


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
