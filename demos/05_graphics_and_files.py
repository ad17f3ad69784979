"""File formats and graphics: JSON round trips, SVG and OBJ emission.

Writes a measure and a body to JSON and reads them back bit-identically,
then emits a Klein-disk SVG for a plane body (polygon plus the polar
support curve) and a two-group OBJ mesh for a space body (Klein hull and
the Klein projection of the polar boundary).
"""

from pathlib import Path

import numpy as np

import hypcurv as hc
from hypcurv import io as hio

out = Path("demo_output")
out.mkdir(exist_ok=True)

rng = np.random.default_rng(11)
poly = hc.random_polytope(1, 6, rng)
mu = hc.curvature_measure_integral(poly)

hio.save_body(poly, out / "body.json")
hio.save_measure(mu, out / "measure.json")
back = hio.load_body(out / "body.json")
print("JSON body round trip bit-identical:",
      np.array_equal(back.radii, poly.radii)
      and np.array_equal(back.directions, poly.directions))

(out / "body.svg").write_text(hio.body_svg(poly))
print("wrote", out / "body.svg", "(Klein disk, polygon, polar support curve)")

octa = hc.from_vertices(
    2,
    np.array([[1.0, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]]),
    np.ones(6),
)
(out / "body.obj").write_text(hio.body_obj(octa, polar_level=3))
print("wrote", out / "body.obj", "(Klein hull mesh + polar boundary mesh)")

print()
print("the same operations are exposed on the command line:")
print("  hypcurv demo --out fixtures")
print("  hypcurv check fixtures/measure_valid_3pt.json")
print("  hypcurv forward fixtures/body_square_m1.json --svg --out results")
print("  hypcurv solve fixtures/measure_valid_3pt.json --out results")
print("  hypcurv roundtrip fixtures/body_square_m1.json --out results")
print("  hypcurv crofton fixtures/body_ball256_r05_m1.json "
      "fixtures/body_ball256_r10_m1.json --out results")
