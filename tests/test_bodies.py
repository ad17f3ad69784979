import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hypcurv as hc
from hypcurv.bodies import (
    apply_isometry,
    curvature_measure_angles,
    curvature_measure_integral,
    from_vertices,
    icosphere_body,
    polar_boundary_area,
    polygon_area_m1,
    radial_fn,
    random_polytope,
    regular_polygon,
    support_fn,
    t_map,
)
from hypcurv.cells import SupportKernel
from hypcurv.minkowski import random_unit_vectors
from scipy.spatial import ConvexHull


def dirs_from_angles(angles):
    angles = np.asarray(angles, dtype=float)
    return np.column_stack([np.cos(angles), np.sin(angles)])


def _twin_opposite(faces):
    """The vertex across each directed edge of outward triangles, read off
    the edge running the other way by sorting the directed-edge keys."""
    n = faces.max() + 1
    tails, heads = faces.ravel(), np.roll(faces, -1, axis=1).ravel()
    keys = tails * n + heads
    order = np.argsort(keys)
    twin = order[np.minimum(np.searchsorted(keys[order], heads * n + tails), len(keys) - 1)]
    assert np.array_equal(keys[twin], heads * n + tails)
    return np.roll(faces, -2, axis=1).ravel()[twin].reshape(faces.shape)


def _face_keys(faces):
    """Each face as the sorted tuple of its vertices."""
    return [tuple(face) for face in np.sort(faces, axis=1).tolist()]


def _assert_own_faces(poly):
    """The body is bounded by the faces from_vertices stored; for m=2 the
    vertices across the edges match the twin search."""
    assert poly.faces.bound(poly.radii)
    if poly.m == 2:
        assert np.array_equal(poly.faces.opposite, _twin_opposite(poly.faces.faces))


class TestConstruction:
    @pytest.mark.parametrize("m, n", [(1, 4), (1, 7), (1, 30), (1, 200),
                                      (2, 5), (2, 9), (2, 20), (2, 60)])
    def test_random_bodies_are_bounded_by_their_own_faces(self, m, n):
        rng = np.random.default_rng(110 + n)
        for _ in range(5):
            _assert_own_faces(random_polytope(m, n, rng))

    @pytest.mark.parametrize("level", range(5))
    def test_icospheres_are_bounded_by_their_own_faces(self, level):
        _assert_own_faces(icosphere_body(level, 0.8))

    @pytest.mark.parametrize("n", [4, 5, 7, 64, 1000, 8192])
    def test_regular_polygons_are_bounded_by_their_own_faces(self, n):
        _assert_own_faces(regular_polygon(n, 1.0))

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

    @settings(max_examples=60, deadline=None)
    @given(shape=st.one_of(st.tuples(st.just(1), st.integers(4, 12)),
                           st.tuples(st.just(2), st.integers(5, 10))),
           seed=st.integers(0, 2**32 - 1),
           top=st.sampled_from([1e-3, 1e-2, 0.5, 1 - 1e-9, 1 - 1e-15]))
    def test_facet_planes_match_qhull_and_solve_bodies(self, shape, seed, top):
        # the planes come from the stored faces; qhull's equations are the
        # oracle, face by face, with the Klein radii scaled so that the
        # largest is ``top``, towards 0 or towards the Klein limit
        m, n = shape
        body = random_polytope(m, n, np.random.default_rng(seed))
        t = np.tanh(body.radii)
        try:
            body = from_vertices(m, body.directions, np.arctanh(t * (top / t.max())))
        except hc.OriginNotInteriorError:
            assume(False)
        for array in (body.facet_normals, body.facet_supports):
            assert np.all(np.isfinite(array)) and not array.flags.writeable
        hull = ConvexHull(body.klein_vertices)
        oracle = dict(zip(_face_keys(hull.simplices), hull.equations))
        planes = dict(zip(_face_keys(body.faces.faces),
                          np.column_stack([body.facet_normals, -body.facet_supports])))
        assert planes.keys() == oracle.keys()
        assert max(np.abs(planes[key] - oracle[key]).max() for key in planes) <= 1e-14
        # the body a solve returns is the one from_vertices builds on its radii
        rep = hc.solve(curvature_measure_angles(body), force=True)
        if rep.body is not None:
            again = from_vertices(m, rep.body.directions, rep.body.radii)
            kept = dict(zip(_face_keys(rep.body.faces.faces), rep.body.facet_supports))
            built = dict(zip(_face_keys(again.faces.faces), again.facet_supports))
            assert kept.keys() == built.keys()
            assert max(abs(kept[key] - built[key]) for key in kept) <= 1e-14

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
    def test_square_weights_equal(self, square):
        mi = curvature_measure_integral(square)
        assert np.abs(mi.weights - mi.weights[0]).max() < 1e-12

    def test_two_methods_agree_m1(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            poly = random_polytope(1, int(rng.integers(4, 9)), rng)
            a = curvature_measure_integral(poly).weights
            b = curvature_measure_angles(poly).weights
            assert np.abs(a - b).max() < 1e-6

    def test_two_methods_agree_m2(self, octahedron):
        a = curvature_measure_integral(octahedron).weights
        b = curvature_measure_angles(octahedron, ).weights
        assert np.abs(a - b).max() < 2e-2 * b.max()

    def test_grid_route_keeps_icosahedral_symmetry(self):
        # the cells are integrated over their normal cones, so vertices that
        # a symmetry of the body exchanges carry the same mass to rounding
        body = hc.icosphere_body(1, 1.0)
        weights = curvature_measure_integral(body).weights
        icosahedral, others = weights[:12], weights[12:]  # valence 5 and 6
        assert np.ptp(icosahedral) <= 1e-12
        assert np.ptp(others) <= 1e-12

    def test_cone_route_matches_angles_m2(self):
        # criterion 04's 50 random bodies and two icosphere bodies
        rng = np.random.default_rng(4048)
        bodies = [random_polytope(2, int(rng.integers(6, 11)), rng) for _ in range(50)]
        bodies += [hc.icosphere_body(level, 1.0) for level in (2, 3)]
        for body in bodies:
            a = curvature_measure_integral(body).weights
            b = curvature_measure_angles(body).weights
            assert np.abs(a / b - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("n", [3, 8, 64, 256, 1024, 4096])
    def test_regular_polygon_closed_form(self, n):
        # close neighbours lost up to 2e-3 to cancellation in Minkowski tangents
        for r in (0.01, 0.5, 1.0, 3.0, 8.0):
            alpha = curvature_measure_angles(regular_polygon(n, r)).weights
            expected = 2.0 * np.arctan(np.cosh(r) * np.tan(np.pi / n))
            assert np.abs(alpha / expected - 1.0).max() <= 1e-9

    @pytest.mark.parametrize("n", [3, 64, 1024, 8192])
    def test_regular_polygon_grid_masses_closed_form(self, n):
        # the cell of a regular polygon vertex carries 2/c atan(tan(pi/n)/c),
        # c = sech r; at n = 8192 a cell is narrower than a level-6 grid step
        dirs = dirs_from_angles(2.0 * np.pi * np.arange(n) / n)
        kernel = SupportKernel(1, dirs)
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
        assert len(moved.faces.faces) == len(body.faces.faces)

    @pytest.mark.parametrize("m, low, high", [(1, 4, 32), (2, 5, 30)])
    @settings(max_examples=30)
    @given(data=st.data())
    def test_forward_routes_agree_per_atom(self, m, low, high, data):
        # the cone integrals and the corner formula are two exact routes
        n = data.draw(st.integers(low, high), label="n")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        body = random_polytope(m, n, rng)
        by_cones = curvature_measure_integral(body).weights
        by_angles = curvature_measure_angles(body).weights
        assert np.abs(by_cones / by_angles - 1.0).max() <= 1e-12

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

    def test_total_mass_identity(self):
        rng = np.random.default_rng(7)
        poly = random_polytope(1, 6, rng)
        mi = curvature_measure_integral(poly)
        assert polar_boundary_area(poly) == pytest.approx(
            math.fsum(mi.weights), abs=1e-12
        )

    @pytest.mark.parametrize("m", [1, 2])
    def test_polar_boundary_area_matches_the_cell_oracle(self, m):
        # Gauss-Bonnet face areas against the cell quadrature's total mass
        rng = np.random.default_rng(12)
        for _ in range(10):
            poly = random_polytope(m, int(rng.integers(m + 3, 16)), rng)
            oracle = math.fsum(curvature_measure_integral(poly).weights)
            assert abs(polar_boundary_area(poly) / oracle - 1.0) <= 1e-12

    def test_total_exceeds_sphere(self, octahedron):
        rng = np.random.default_rng(8)
        poly = random_polytope(1, 5, rng)
        assert polar_boundary_area(poly) > 2 * np.pi
        assert polar_boundary_area(octahedron) > 4 * np.pi

    def test_inclusion_monotonicity_strict(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            outer = random_polytope(1, 6, rng)
            inner_radii = np.arctanh(0.8 * np.tanh(outer.radii))
            inner = from_vertices(1, outer.directions, inner_radii)
            a = polar_boundary_area(inner)
            b = polar_boundary_area(outer)
            assert a < b


class TestAreaAndIsometry:
    def test_gauss_bonnet_identity(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            poly = random_polytope(1, int(rng.integers(4, 9)), rng)
            total = curvature_measure_angles(poly).weights.sum()
            assert abs(total - 2 * np.pi - polygon_area_m1(poly)) < 1e-8

    def test_gauss_bonnet_identity_m2(self):
        # the exterior angles add up to 4 pi plus the boundary area, which
        # polar_boundary_area reads off the faces and not off the angles
        rng = np.random.default_rng(11)
        bodies = [random_polytope(2, int(rng.integers(5, 25)), rng) for _ in range(30)]
        bodies += [icosphere_body(level, radius)
                   for level, radius in ((0, 0.3), (2, 1.0), (3, 3.0), (4, 2.0))]
        for poly in bodies:
            total = math.fsum(curvature_measure_angles(poly).weights)
            assert abs(total / polar_boundary_area(poly) - 1.0) <= 1e-12

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

    def test_boost_preserves_total_curvature(self):
        ball = regular_polygon(64, 1.0)
        base = polar_boundary_area(ball)
        moved = apply_isometry(ball, np.array([1.0, 0.0]), 0.3)
        assert polar_boundary_area(moved) == pytest.approx(base, rel=1e-3)

    @pytest.mark.parametrize("m, low, high", [(1, 4, 24), (2, 5, 14)])
    @settings(max_examples=40)
    @given(data=st.data())
    def test_boost_keeps_polar_boundary_area(self, m, low, high, data):
        # a boost shorter than the distance to the nearest facet plane keeps
        # the basepoint inside, and the polar boundary area is an invariant
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        body = random_polytope(m, data.draw(st.integers(low, high), label="n"), rng)
        reach = np.arctanh(body.facet_supports.min())
        length = data.draw(st.floats(0.0, 0.9), label="fraction") * reach
        moved = apply_isometry(body, random_unit_vectors(m, 1, rng)[0], length)
        assert abs(polar_boundary_area(moved) / polar_boundary_area(body) - 1.0) <= 1e-12

    def test_boost_outside_raises(self, square):
        d = np.array([np.cos(0.7), np.sin(0.7)])
        with pytest.raises(hc.OriginNotInteriorError):
            apply_isometry(square, d, 2.0)
