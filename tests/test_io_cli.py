import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hypcurv as hc
from hypcurv import io as hio
from hypcurv.cells import SupportKernel
from hypcurv.cli import main
from hypcurv.minkowski import unit_rows


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("fixtures")
    assert main(["demo", "--out", str(out)]) == 0
    return out


class TestJson:
    def test_measure_round_trip_bit_identical(self, tmp_path, criterion06_bodies):
        rng = np.random.default_rng(0)
        polys = [hc.random_polytope(1, 5, rng)]
        polys += criterion06_bodies[1] + criterion06_bodies[2]
        for i, poly in enumerate(polys):
            mu = hc.curvature_measure_angles(poly)
            path = tmp_path / f"m{i}.json"
            hio.save_measure(mu, path)
            back = hio.load_measure(path)
            assert np.array_equal(back.points, mu.points), f"measure {i}"
            assert np.array_equal(back.weights, mu.weights), f"measure {i}"

    def test_body_round_trip_bit_identical(self, tmp_path, criterion06_bodies):
        rng = np.random.default_rng(1)
        polys = [hc.random_polytope(2, 7, rng)]
        polys += criterion06_bodies[1] + criterion06_bodies[2]
        for i, poly in enumerate(polys):
            path = tmp_path / f"b{i}.json"
            hio.save_body(poly, path)
            back = hio.load_body(path)
            assert np.array_equal(back.directions, poly.directions), f"body {i}"
            assert np.array_equal(back.radii, poly.radii), f"body {i}"

    @settings(max_examples=40)
    @given(st.integers(1, 2), st.lists(st.lists(st.floats(-1e3, 1e3, allow_subnormal=False),
                                                min_size=3, max_size=3), min_size=1, max_size=12),
           st.lists(st.floats(1e-300, 1e300, allow_subnormal=False), min_size=12, max_size=12))
    def test_measure_save_load_property(self, m, rows, weights):
        raw = np.array(rows)[:, :m + 1]
        assume(np.linalg.norm(raw, axis=1).min() > 1e-3)
        points = unit_rows(raw, np.inf, "unreachable")
        assume(len(points) == 1 or np.min([np.linalg.norm(p - q) for k, p in enumerate(points)
                                           for q in points[:k]]) > 1e-6)
        mu = hc.DiscreteMeasure(m, points, np.array(weights[:len(points)]))
        with tempfile.TemporaryDirectory() as tmp:
            hio.save_measure(mu, Path(tmp) / "mu.json")
            back = hio.load_measure(Path(tmp) / "mu.json")
        assert back.m == m
        assert np.array_equal(back.points, mu.points)
        assert np.array_equal(back.weights, mu.weights)

    @settings(max_examples=30)
    @given(st.integers(1, 2), st.integers(0, 2**32 - 1), st.integers(0, 6),
           st.floats(0.05, 4.0))
    def test_body_save_load_property(self, m, seed, extra, r_max):
        rng = np.random.default_rng(seed)
        poly = hc.random_polytope(m, m + 2 + extra, rng, r_min=0.5 * r_max, r_max=r_max)
        with tempfile.TemporaryDirectory() as tmp:
            hio.save_body(poly, Path(tmp) / "body.json")
            back = hio.load_body(Path(tmp) / "body.json")
        assert back.m == m
        assert np.array_equal(back.directions, poly.directions)
        assert np.array_equal(back.radii, poly.radii)

    def test_unknown_fields_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "dim": 1, "points": [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]],
            "weights": [3.0, 3.0, 3.0], "comment": "nope",
        }))
        with pytest.raises(ValueError, match="unknown fields"):
            hio.load_measure(path)

    def test_missing_fields_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dim": 1, "points": [[1.0, 0.0]]}))
        with pytest.raises(ValueError, match="missing fields"):
            hio.load_measure(path)

    @pytest.mark.parametrize("dim", [2.7, True, "2", 1.0])
    def test_dim_must_be_a_json_integer(self, tmp_path, dim):
        measure = tmp_path / "m.json"
        measure.write_text(json.dumps({"dim": dim, "points": [[1.0, 0.0]], "weights": [3.0]}))
        body = tmp_path / "b.json"
        body.write_text(json.dumps({"dim": dim, "directions": [[1.0, 0.0]], "radii": [1.0]}))
        for load, path in ((hio.load_measure, measure), (hio.load_body, body)):
            with pytest.raises(ValueError, match="'dim' must be a JSON integer"):
                load(path)
        assert main(["check", str(measure)]) == 2

    @pytest.mark.parametrize("field, bad", [
        ("points", "1"), ("points", True), ("weights", "2.5"), ("weights", True),
        ("weights", None), ("directions", "1"), ("radii", "1"), ("radii", True),
    ])
    def test_numbers_must_be_json_numbers(self, tmp_path, field, bad):
        square = [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]
        if field in ("points", "weights"):
            data = {"dim": 1, "points": square, "weights": [2, 2, 2, 2]}
            load, cmd = hio.load_measure, ["check"]
        else:
            data = {"dim": 1, "directions": square, "radii": [1, 1, 1, 1]}
            load, cmd = hio.load_body, ["forward", "--out", str(tmp_path / "out")]
        if field in ("points", "directions"):
            data[field][0][0] = bad
        else:
            data[field][0] = bad
        path = tmp_path / "in.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=f"field '{field}' must hold JSON numbers"):
            load(path)
        assert main(cmd + [str(path)]) == 2

    def test_near_unit_renormalized_far_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        pts = [[1.0 + 5e-7, 0.0], [0.0, 1.0], [-1.0, 0.0]]
        path.write_text(json.dumps({"dim": 1, "points": pts, "weights": [3.0, 3.0, 3.0]}))
        mu = hio.load_measure(path)
        assert np.abs(np.linalg.norm(mu.points, axis=1) - 1.0).max() < 1e-15
        pts[0][0] = 1.1
        path.write_text(json.dumps({"dim": 1, "points": pts, "weights": [3.0, 3.0, 3.0]}))
        with pytest.raises(ValueError, match="unit length"):
            hio.load_measure(path)


class TestGraphics:
    def test_svg_contains_polygon_and_polar_curve(self, square):
        svg = hio.body_svg(square)
        assert svg.startswith("<svg")
        assert svg.count("<polygon") == 2
        assert "v0" in svg

    def test_svg_rejects_m2(self, octahedron):
        with pytest.raises(ValueError):
            hio.body_svg(octahedron)

    def test_obj_mesh_counts(self, octahedron):
        obj = hio.body_obj(octahedron, polar_level=1)
        verts = [l for l in obj.splitlines() if l.startswith("v ")]
        faces = [l for l in obj.splitlines() if l.startswith("f ")]
        assert len(verts) == 6 + 42
        assert len(faces) == 8 + 80
        idx = max(int(t) for l in faces for t in l.split()[1:])
        assert idx == len(verts)

    def test_obj_faces_outward(self, octahedron):
        bodies = [octahedron, hc.random_polytope(2, 30, np.random.default_rng(30)),
                  hc.icosphere_body(2, 0.8)]
        for k, body in enumerate(bodies):
            obj = hio.body_obj(body, polar_level=0)
            lines = obj.splitlines()
            verts = np.array([[float(x) for x in l.split()[1:]]
                              for l in lines if l.startswith("v ")])
            faces = np.array([[int(x) - 1 for x in l.split()[1:]]
                              for l in lines if l.startswith("f ")])
            a, b, c = verts[faces[:, 0]], verts[faces[:, 1]], verts[faces[:, 2]]
            outward = np.einsum("ij,ij->i", np.cross(b - a, c - a), (a + b + c) / 3)
            assert np.all(outward > 0), k


class TestCli:
    def test_check_exit_codes(self, fixture_dir, capsys):
        assert main(["check", str(fixture_dir / "measure_valid_3pt.json")]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["all_ok"] and report["alexandrov_slack"] > 0
        assert report["subsets_evaluated"] > 0 and report["wall_time"] > 0
        assert main(["check", str(fixture_dir / "measure_alexandrov_violating.json")]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["worst_witness"] == [0, 1, 2, 3]
        assert main(["check", str(fixture_dir / "measure_vertex_violating.json")]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["vertex_argmax"] == 0

    def test_check_refuses_large_m2_with_json_errors(self, workdir, capsys):
        body = hc.random_polytope(2, 21, np.random.default_rng(21))
        path = workdir / "large.json"
        hio.save_measure(hc.curvature_measure_angles(body), path)
        assert main(["check", str(path), "--json-errors"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError" and "EXHAUSTIVE_MAX_ATOMS" in err["message"]

    def test_missing_file_is_io_error(self, workdir):
        assert main(["check", "no_such_file.json"]) == 4

    def test_malformed_json_is_io_error(self, workdir):
        bad = workdir / "bad.json"
        bad.write_text("{nope")
        assert main(["check", str(bad)]) == 4

    def test_forward_writes_reports_and_svg(self, fixture_dir, workdir):
        out = workdir / "fwd"
        code = main(["forward", str(fixture_dir / "body_square_m1.json"),
                     "--out", str(out), "--svg"])
        assert code == 0
        assert (out / "forward_report.json").exists()
        assert (out / "curvature_measure.json").exists()
        assert (out / "body.svg").exists()
        rep = json.loads((out / "forward_report.json").read_text())
        assert abs(rep["gauss_bonnet_residual"]) < 1e-8

    def test_forward_prints_the_scalar_summary(self, fixture_dir, workdir, capsys):
        code = main(["forward", str(fixture_dir / "body_square_m1.json"),
                     "--out", str(workdir / "fwd")])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert {"total_angles", "total_integral", "radii"} <= set(summary)
        assert not {"weights_angles", "weights_integral", "directions"} & set(summary)
        assert summary["total_angles"] == pytest.approx(summary["total_integral"], abs=1e-12)

    def test_forward_runs_one_quadrature(self, fixture_dir, workdir, monkeypatch):
        builds = []
        build = SupportKernel.__init__

        def counted(kernel, *args, **kwargs):
            builds.append(kernel)
            build(kernel, *args, **kwargs)

        monkeypatch.setattr(SupportKernel, "__init__", counted)
        out = workdir / "fwd"
        assert main(["forward", str(fixture_dir / "body_random8_m2.json"), "--out", str(out)]) == 0
        assert len(builds) == 1
        rep = json.loads((out / "forward_report.json").read_text())
        assert rep["polar_boundary_area"] == math.fsum(rep["weights_integral"])

    def test_solve_and_roundtrip(self, fixture_dir, workdir):
        out = workdir / "solve"
        code = main(["solve", str(fixture_dir / "measure_valid_3pt.json"),
                     "--out", str(out)])
        assert code == 0
        assert (out / "body.json").exists()
        code = main(["roundtrip", str(fixture_dir / "body_square_m1.json"),
                     "--out", str(workdir / "rt")])
        assert code == 0
        rep = json.loads((workdir / "rt" / "roundtrip_report.json").read_text())
        assert rep["max_rel_radius_error"] < 1e-4

    def test_solve_report_counts_hull_calls(self, fixture_dir, workdir):
        # an m=1 solve whose start the angular cycle bounds runs no qhull,
        # not even for the body it returns
        assert main(["solve", str(fixture_dir / "measure_valid_3pt.json"),
                     "--out", str(workdir / "solve")]) == 0
        rep = json.loads((workdir / "solve" / "solve_report.json").read_text())
        assert rep["converged"] and rep["hull_calls"] == 0

    def test_converged_solve_writes_no_condition_report(self, fixture_dir, workdir):
        # a converged solve certifies its measure and runs no exact check
        assert main(["solve", str(fixture_dir / "measure_valid_3pt.json"),
                     "--out", str(workdir / "solve")]) == 0
        text = (workdir / "solve" / "solve_report.json").read_text()
        rep = json.loads(text)
        assert rep["converged"] and rep["condition_report"] is None
        assert '"condition_report": null' in text

    def test_forced_geometry_stop_writes_standard_json(self, fixture_dir, workdir, capsys,
                                                        monkeypatch):
        # a solve that finds no valid start has infinite residuals, and a
        # round trip with no body no radius error: both are null
        def strict(text):
            def refuse(name):
                raise ValueError(f"non-standard JSON constant {name}")
            return json.loads(text, parse_constant=refuse)

        # four atoms on an arc of 0.1 rad: the ball start has no valid body
        narrow = fixture_dir / "measure_alexandrov_violating.json"
        assert main(["solve", str(narrow), "--force", "--out", str(workdir / "s")]) == 3
        summary = strict(capsys.readouterr().out)
        rep = strict((workdir / "s" / "solve_report.json").read_text())
        assert rep["stop_reason"] == "geometry" and rep["radii"] is None
        assert rep["el_residuals"] == [None] * 4 and summary["max_el_residual"] is None
        # the round trip of a body whose solve stops the same way
        stopped = hc.solve(hio.load_measure(narrow), force=True)
        monkeypatch.setattr("hypcurv.cli.solve", lambda mu, config, force: stopped)
        assert main(["roundtrip", str(fixture_dir / "body_square_m1.json"),
                     "--out", str(workdir / "rt")]) == 3
        summary = strict(capsys.readouterr().out)
        rep = strict((workdir / "rt" / "roundtrip_report.json").read_text())
        assert rep["max_rel_radius_error"] is None and summary["max_rel_radius_error"] is None
        assert not rep["converged"] and rep["table"] == []

    def test_solve_invalid_measure_exit_2_with_json_errors(self, fixture_dir, workdir, capsys):
        code = main(["solve", str(fixture_dir / "measure_vertex_violating.json"),
                     "--json-errors", "--out", str(workdir / "x")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "PreconditionError"
        assert err["condition_report"]["vertex_ok"] is False

    def test_crofton_subcommand(self, fixture_dir, workdir, capsys):
        code = main(["crofton", str(fixture_dir / "body_ball256_r05_m1.json"),
                     str(fixture_dir / "body_ball256_r10_m1.json"),
                     "--samples", "5000", "--out", str(workdir / "cr")])
        assert code == 0
        rep = json.loads((workdir / "cr" / "crofton_report.json").read_text())
        assert rep["agree"]

    @pytest.mark.parametrize("h_cap", ["nan", "inf", "0.6"])
    def test_crofton_bad_cap_exit_2(self, fixture_dir, workdir, h_cap):
        code = main(["crofton", str(fixture_dir / "body_ball256_r05_m1.json"),
                     str(fixture_dir / "body_ball256_r10_m1.json"), "--h-cap", h_cap,
                     "--samples", "1000", "--out", str(workdir / "cr")])
        assert code == 2

    def test_obj_emission_m2(self, fixture_dir, workdir):
        out = workdir / "fwd2"
        code = main(["forward", str(fixture_dir / "body_octahedron_m2.json"),
                     "--out", str(out), "--obj"])
        assert code == 0
        assert (out / "body.obj").exists()

    def test_determinism(self, fixture_dir, workdir):
        out1, out2 = workdir / "a", workdir / "b"
        for out in (out1, out2):
            assert main(["solve", str(fixture_dir / "measure_valid_3pt.json"),
                         "--out", str(out)]) == 0
        r1 = (out1 / "solve_report.json").read_text()
        r2 = (out2 / "solve_report.json").read_text()
        assert json.loads(r1)["psi"] == json.loads(r2)["psi"]
        b1 = (out1 / "body.json").read_text()
        assert b1 == (out2 / "body.json").read_text()
