import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hypcurv as hc
from hypcurv.bodies import (
    apply_isometry,
    curvature_measure_angles,
    curvature_measure_integral,
    from_vertices,
    polar_boundary_area,
    polygon_area_m1,
    radial_fn,
    random_polytope,
    regular_polygon,
    support_fn,
    t_map,
)
from hypcurv.cells import SupportKernel


def dirs_from_angles(angles):
    angles = np.asarray(angles, dtype=float)
    return np.column_stack([np.cos(angles), np.sin(angles)])


class TestConstruction:
    def test_random_polygon_many_vertices(self):
        # uniform directions almost never meet the separation rule here, so
        # these draws come from the jittered equal-spacing fallback
        for n in range(10, 33):
            for seed in range(5):
                poly = random_polytope(1, n, np.random.default_rng(seed))
                assert poly.n_vertices == n
                assert 0.4 <= poly.radii.min() and poly.radii.max() <= 1.6
                assert curvature_measure_angles(poly).weights.min() >= 0.01

    def test_random_polyhedron_many_vertices(self):
        # from about 18 vertices on uniform draws rarely pass, so most of
        # these come from the jittered Fibonacci-spiral fallback
        for n in range(12, 33):
            for seed in range(5):
                poly = random_polytope(2, n, np.random.default_rng(seed))
                assert poly.n_vertices == n
                assert 0.4 <= poly.radii.min() and poly.radii.max() <= 1.6
                assert curvature_measure_angles(poly).weights.min() >= 0.01
                chord = poly.directions @ poly.directions.T
                np.fill_diagonal(chord, -1.0)
                assert chord.max() <= np.cos(0.5 / np.sqrt(n))

    def test_square_symmetric_facets(self, square):
        assert square.n_vertices == 4
        assert len(square.facet_supports) == 4
        expected = np.tanh(1.0) * np.cos(np.pi / 4)
        assert np.allclose(square.facet_supports, expected)

    def test_octahedron_facets(self, octahedron):
        assert len(octahedron.facet_supports) == 8
        assert np.allclose(octahedron.facet_supports, np.tanh(1.0) / np.sqrt(3.0))

    def test_tiny_vertex_rejected_as_non_extreme(self):
        dirs = dirs_from_angles([0.0, 2 * np.pi / 3, np.pi / 3])
        with pytest.raises(hc.NonExtremeVertexError) as info:
            from_vertices(1, dirs, np.array([1.0, 1.0, 0.01]))
        assert info.value.index == 2

    def test_half_plane_directions_rejected(self):
        dirs = dirs_from_angles([0.0, np.pi / 3, 2 * np.pi / 3])
        with pytest.raises(hc.OriginNotInteriorError):
            from_vertices(1, dirs, np.ones(3))

    def test_m2_interior_vertex_rejected(self, octahedron):
        extra = np.ones(3) / np.sqrt(3.0)
        dirs = np.vstack([octahedron.directions, extra])
        # radius placing the extra Klein point strictly inside the facet
        r_inside = np.arctanh(0.9 * np.tanh(1.0) / np.sqrt(3.0))
        with pytest.raises(hc.NonExtremeVertexError) as info:
            from_vertices(2, dirs, np.concatenate([np.ones(6), [r_inside]]))
        assert info.value.index == 6

    def test_m2_coplanar_rejected(self):
        theta = 2 * np.pi * np.arange(6) / 6
        dirs = np.column_stack([np.cos(theta), np.sin(theta), np.zeros(6)])
        with pytest.raises((hc.DegenerateHullError, hc.OriginNotInteriorError)):
            from_vertices(2, dirs, np.ones(6))

    def test_too_few_vertices(self):
        with pytest.raises(hc.DegenerateHullError):
            from_vertices(1, dirs_from_angles([0.0, np.pi]), np.ones(2))

    def test_duplicate_directions_rejected(self):
        dirs = dirs_from_angles([0.0, 0.0, 2.0, 4.0])
        with pytest.raises(ValueError):
            from_vertices(1, dirs, np.ones(4))


class TestSupportRadial:
    def test_square_between_vertices(self, square):
        eta = dirs_from_angles([np.pi / 4])[0]
        expected = np.arctanh(np.tanh(1.0) * np.cos(np.pi / 4))
        assert support_fn(square, eta) == pytest.approx(expected, abs=1e-14)
        # facet-support route is an independent oracle for the same value
        assert support_fn(square, eta) == pytest.approx(
            np.arctanh(square.facet_supports[0]), abs=1e-12
        )
        assert radial_fn(square, eta) == pytest.approx(expected, abs=1e-14)

    def test_vertex_direction_gives_radius(self):
        rng = np.random.default_rng(4)
        for m in (1, 2):
            poly = random_polytope(m, 6 if m == 1 else 8, rng)
            for i in range(poly.n_vertices):
                assert radial_fn(poly, poly.directions[i]) == pytest.approx(
                    poly.radii[i], abs=1e-10
                )

    def test_ball_polytope_flatness(self):
        ball = regular_polygon(256, 1.0)
        theta = np.linspace(0, 2 * np.pi, 2000, endpoint=False)
        etas = dirs_from_angles(theta)
        h = support_fn(ball, etas)
        r = radial_fn(ball, etas)
        assert h.max() - h.min() < 1e-3
        assert np.abs(r - 1.0).max() < 1e-3

    def test_duality_inequality_with_equality_case(self):
        rng = np.random.default_rng(5)
        poly = random_polytope(1, 7, rng)
        k = np.tanh(poly.radii)
        for _ in range(200):
            ang = rng.uniform(0, 2 * np.pi)
            eta = dirs_from_angles([ang])[0]
            th = np.tanh(support_fn(poly, eta))
            scores = k * (poly.directions @ eta)
            assert th >= scores.max() - 1e-15
            winners = t_map(poly, eta)
            assert np.abs(scores[winners] - th).max() < 1e-12
            losers = np.setdiff1d(np.arange(poly.n_vertices), winners)
            assert np.all(scores[losers] < th)

    def test_t_map_ties(self, square):
        eta = dirs_from_angles([np.pi / 4])[0]
        assert set(t_map(square, eta)) == {0, 1}
        assert list(t_map(square, np.array([1.0, 0.0]))) == [0]


class TestCurvatureMeasures:
    def test_square_weights_equal(self, square, grid_m1):
        mi = curvature_measure_integral(square, grid_m1)
        assert np.abs(mi.weights - mi.weights[0]).max() < 1e-12

    def test_two_methods_agree_m1(self, grid_m1):
        rng = np.random.default_rng(6)
        for _ in range(10):
            poly = random_polytope(1, int(rng.integers(4, 9)), rng)
            a = curvature_measure_integral(poly, grid_m1).weights
            b = curvature_measure_angles(poly).weights
            assert np.abs(a - b).max() < 1e-6

    def test_two_methods_agree_m2(self, octahedron, grid_m2):
        a = curvature_measure_integral(octahedron, grid_m2).weights
        b = curvature_measure_angles(octahedron, ).weights
        assert np.abs(a - b).max() < 2e-2 * b.max()

    def test_grid_route_keeps_icosahedral_symmetry(self, grid_m2):
        # grid nodes tied between cells split their weight equally; handing
        # each tie to the lowest index spreads these classes by 1e-3 and more
        body = hc.icosphere_body(1, 1.0)
        weights = curvature_measure_integral(body, grid_m2).weights
        icosahedral, others = weights[:12], weights[12:]  # valence 5 and 6
        assert np.ptp(icosahedral) <= 1e-12
        assert np.ptp(others) <= 1e-12

    @pytest.mark.parametrize("n", [3, 8, 64, 256, 1024, 4096])
    def test_regular_polygon_closed_form(self, n):
        # close neighbours lost up to 2e-3 to cancellation in Minkowski tangents
        for r in (0.01, 0.5, 1.0, 3.0, 8.0):
            alpha = curvature_measure_angles(regular_polygon(n, r)).weights
            expected = 2.0 * np.arctan(np.cosh(r) * np.tan(np.pi / n))
            assert np.abs(alpha / expected - 1.0).max() <= 1e-9

    @pytest.mark.parametrize("n", [3, 64, 1024, 8192])
    def test_regular_polygon_grid_masses_closed_form(self, n, grid_m1):
        # the cell of a regular polygon vertex carries 2/c atan(tan(pi/n)/c),
        # c = sech r; at n = 8192 a cell is narrower than a grid step
        dirs = dirs_from_angles(2.0 * np.pi * np.arange(n) / n)
        kernel = SupportKernel(1, dirs, grid_m1, check_density=False)
        for r in (0.01, 0.5, 1.0, 3.0):
            masses, _ = kernel.cell_sums(np.full(n, np.tanh(r)))
            c = 1.0 / np.cosh(r)
            expected = 2.0 / c * np.arctan(np.tan(np.pi / n) / c)
            assert np.abs(masses / expected - 1.0).max() <= 1e-9

    @pytest.mark.parametrize("solid", ["octahedron", "icosahedron"])
    def test_regular_polyhedron_closed_form(self, solid, octahedron):
        # q equilateral faces meet at each vertex; a face's side c has
        # cosh c = C and its angles are acos(C / (1 + C))
        if solid == "octahedron":
            dirs, q, cos_edge = octahedron.directions, 4, 0.0
        else:
            dirs, q, cos_edge = hc.icosphere_body(0, 1.0).directions, 5, 1.0 / np.sqrt(5.0)
        for r in (0.01, 0.5, 1.0, 3.0, 8.0):
            alpha = curvature_measure_angles(from_vertices(2, dirs, np.full(len(dirs), r))).weights
            c = np.cosh(r) ** 2 - np.sinh(r) ** 2 * cos_edge
            expected = 2.0 * np.pi - q * np.arccos(c / (1.0 + c))
            assert np.abs(alpha / expected - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("m, low, high", [(1, 4, 32), (2, 5, 30)])
    @settings(max_examples=30)
    @given(data=st.data())
    def test_rotation_and_relabelling_permute_atoms(self, m, low, high, data):
        n = data.draw(st.integers(low, high), label="n")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        body = random_polytope(m, n, rng)
        turn, _ = np.linalg.qr(rng.normal(size=(m + 1, m + 1)))
        perm = rng.permutation(n)
        moved = from_vertices(m, body.directions[perm] @ turn.T, body.radii[perm])
        alpha = curvature_measure_angles(body).weights[perm]
        assert np.abs(curvature_measure_angles(moved).weights / alpha - 1.0).max() <= 1e-12
        assert len(moved.simplices) == len(body.simplices)

    def test_euclidean_limit_square(self):
        tiny = regular_polygon(4, 1e-4)
        alpha = curvature_measure_angles(tiny).weights
        assert np.abs(alpha - np.pi / 2).max() < 1e-6

    def test_octahedron_small_radius_total(self):
        dirs = np.array(
            [[1.0, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]]
        )
        small = from_vertices(2, dirs, np.full(6, 1e-3))
        total = curvature_measure_angles(small).weights.sum()
        assert total == pytest.approx(4 * np.pi, rel=1e-4)

    def test_total_mass_identity(self, grid_m1):
        rng = np.random.default_rng(7)
        poly = random_polytope(1, 6, rng)
        mi = curvature_measure_integral(poly, grid_m1)
        assert polar_boundary_area(poly, grid_m1) == pytest.approx(
            math.fsum(mi.weights), abs=1e-12
        )

    def test_total_exceeds_sphere(self, grid_m1, grid_m2, octahedron):
        rng = np.random.default_rng(8)
        poly = random_polytope(1, 5, rng)
        assert polar_boundary_area(poly, grid_m1) > 2 * np.pi
        assert polar_boundary_area(octahedron, grid_m2) > 4 * np.pi

    def test_inclusion_monotonicity_strict(self, grid_m1):
        rng = np.random.default_rng(9)
        for _ in range(5):
            outer = random_polytope(1, 6, rng)
            inner_radii = np.arctanh(0.8 * np.tanh(outer.radii))
            inner = from_vertices(1, outer.directions, inner_radii)
            a = polar_boundary_area(inner, grid_m1)
            b = polar_boundary_area(outer, grid_m1)
            assert a < b


class TestAreaAndIsometry:
    def test_gauss_bonnet_identity(self, grid_m1):
        rng = np.random.default_rng(10)
        for _ in range(10):
            poly = random_polytope(1, int(rng.integers(4, 9)), rng)
            total = curvature_measure_angles(poly).weights.sum()
            assert abs(total - 2 * np.pi - polygon_area_m1(poly)) < 1e-8

    @pytest.mark.parametrize("n", [4, 8, 64, 256, 1024, 4096])
    def test_regular_polygon_area_closed_form(self, n):
        # Minkowski-tangent angles lost up to 3.6e-2 at (4096, 0.01); the
        # reference itself cancels to about 5e-12 at r = 0.01
        for r in (0.01, 0.5, 1.0, 3.0, 8.0):
            expected = n * 2.0 * np.arctan(np.cosh(r) * np.tan(np.pi / n)) - 2.0 * np.pi
            assert abs(polygon_area_m1(regular_polygon(n, r)) / expected - 1.0) <= 1e-9

    def test_area_small_body_vanishes(self):
        assert polygon_area_m1(regular_polygon(8, 1e-4)) < 1e-6

    def test_area_triangle_approaches_pi(self):
        a5 = polygon_area_m1(regular_polygon(3, 5.0))
        a8 = polygon_area_m1(regular_polygon(3, 8.0))
        assert a5 < a8 < np.pi

    def test_area_rejects_m2(self, octahedron):
        with pytest.raises(ValueError):
            polygon_area_m1(octahedron)

    def test_zero_boost_identity(self, square):
        moved = apply_isometry(square, np.array([1.0, 0.0]), 0.0)
        assert np.abs(moved.radii - square.radii).max() < 1e-12

    def test_boost_and_back(self, square):
        d = np.array([0.6, 0.8])
        there = apply_isometry(square, d, 0.4)
        back = apply_isometry(there, d, -0.4)
        assert np.abs(np.sort(back.radii) - np.sort(square.radii)).max() < 1e-9

    def test_boost_preserves_total_curvature(self, grid_m1):
        ball = regular_polygon(64, 1.0)
        base = polar_boundary_area(ball, grid_m1)
        moved = apply_isometry(ball, np.array([1.0, 0.0]), 0.3)
        assert polar_boundary_area(moved, grid_m1) == pytest.approx(base, rel=1e-3)

    def test_boost_outside_raises(self, square):
        d = np.array([np.cos(0.7), np.sin(0.7)])
        with pytest.raises(hc.OriginNotInteriorError):
            apply_isometry(square, d, 2.0)
