import csv
import json

import numpy as np
import pytest

from freeflow import cli, experiments, freenorm
from freeflow import io as ffio
from freeflow.cli import main
from freeflow.currents import d0
from freeflow.errors import InvalidParams, ParseError
from freeflow.freenorm import Molecule
from freeflow.primitives import generate_primitive

from test_currents import annulus_generator


class TestJsonRoundTrips:
    def test_mesh_roundtrip_identity(self, tmp_path, ico1):
        path = tmp_path / "mesh.json"
        ffio.write_json(path, ffio.mesh_to_dict(ico1))
        loaded = ffio.mesh_from_dict(ffio.read_json(path))
        assert ffio.mesh_to_dict(loaded) == ffio.mesh_to_dict(ico1)
        assert ffio.mesh_hash(loaded) == ffio.mesh_hash(ico1)

    def test_mesh_write_is_deterministic(self, tmp_path, flat4):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        ffio.write_json(a, ffio.mesh_to_dict(flat4))
        ffio.write_json(b, ffio.mesh_to_dict(flat4))
        assert a.read_bytes() == b.read_bytes()

    def test_scalar_field_roundtrip(self, flat4):
        f = np.linspace(0.0, 1.0, flat4.vertex_count)
        data = ffio.scalar_field_to_dict(flat4, f)
        kind, loaded = ffio.field_from_dict(flat4, data)
        assert kind == "scalar"
        assert np.array_equal(loaded, f)

    def test_face_field_roundtrip(self, flat4):
        g = np.random.default_rng(1).normal(size=(len(flat4.triangles), 2))
        data = ffio.face_field_to_dict(flat4, g)
        kind, loaded = ffio.field_from_dict(flat4, data)
        assert kind == "faces"
        assert np.array_equal(loaded, g)

    def test_hash_mismatch_rejected(self, flat4, ico1):
        f = np.zeros(flat4.vertex_count)
        data = ffio.scalar_field_to_dict(flat4, f)
        with pytest.raises(ParseError):
            ffio.field_from_dict(ico1, data)

    def test_molecule_roundtrip(self):
        mu = Molecule(((3, 1.25), (9, -0.5)))
        assert ffio.molecule_from_dict(ffio.molecule_to_dict(mu)).atoms == mu.atoms

    def test_declared_dimension_checked(self):
        data = {"dimension": 2, "triangles": [], "edges": [[0, 1, 1.0]]}
        with pytest.raises(ParseError):
            ffio.mesh_from_dict(data)

    @pytest.mark.parametrize(
        "atoms", [[[3.7, 1.0]], [[True, -1.0]], [[3.0, 1.0]], [["3", 1.0]]]
    )
    def test_atom_vertex_must_be_an_integer(self, atoms):
        # 3.7 used to become vertex 3 and true vertex 1
        with pytest.raises(ParseError):
            ffio.molecule_from_dict({"atoms": atoms})

    @pytest.mark.parametrize(
        "change",
        [
            {"edges": [[0, 1.9, 1.0], [1, 2, 1.0], [0, 2, 1.0]]},
            {"edges": [[False, 1, 1.0], [1, 2, 1.0], [0, 2, 1.0]]},
            {"triangles": [[0, 1, 2.5]]},
            {"triangles": [[0, True, 2]]},
            {"base_vertex": 1.0},
            {"base_vertex": True},
        ],
    )
    def test_mesh_vertex_ids_must_be_integers(self, change):
        data = {"triangles": [[0, 1, 2]],
                "edges": [[0, 1, 1.0], [1, 2, 1.0], [0, 2, 1.0]]}
        ffio.mesh_from_dict(data)  # the unchanged mesh is valid
        with pytest.raises(ParseError):
            ffio.mesh_from_dict({**data, **change})


    @pytest.mark.parametrize(
        "triangles",
        [
            [[0, 1], [2, 0], [1, 2]],  # reshaped into two copies of one face
            [[0, 1, 2], [0, 1]],  # ragged: a numpy ValueError
            [[0, 1, 2, 0]],
        ],
    )
    def test_triangles_need_three_vertex_ids(self, tmp_path, capsys, triangles):
        data = {"triangles": triangles,
                "edges": [[0, 1, 1.0], [1, 2, 1.0], [0, 2, 1.0]]}
        with pytest.raises(ParseError):
            ffio.mesh_from_dict(data)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(data))
        assert main(["validate-mesh", str(path)]) == 1
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["error"]["type"] == "ParseError"

    @pytest.mark.parametrize("repeat", [[0, 1, 1.5], [1, 0, 1.5]])
    def test_edge_given_two_lengths_rejected(self, tmp_path, capsys, repeat):
        # the same pair in the same order used to keep its last length
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"triangles": [[0, 1, 2]], "edges": [
            [0, 1, 1.0], [1, 2, 1.0], [0, 2, 1.0], repeat]}))
        assert main(["validate-mesh", str(path)]) == 1
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["error"] == {
            "type": "MeshError",
            "message": "edge (0, 1) given two lengths 1.0 and 1.5",
        }

    def test_edge_repeated_with_its_length_accepted(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"triangles": [[0, 1, 2]], "edges": [
            [0, 1, 1.0], [1, 2, 1.0], [0, 2, 1.0], [0, 1, 1.0], [1, 0, 1.0]]}))
        assert main(["validate-mesh", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["edges"] == 3

    @pytest.mark.parametrize("length", [float("inf"), -float("inf"), float("nan"), 0.0])
    def test_edge_length_must_be_finite_and_positive(self, tmp_path, capsys, length):
        # Infinity used to pass validate-mesh and fail later in the solvers
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"triangles": [], "edges": [
            [0, 1, 1.0], [1, 2, length]]}))
        assert main(["validate-mesh", str(path)]) == 1
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["error"]["type"] == "MeshError"


class TestCli:
    def test_gen_and_validate(self, tmp_path, capsys):
        out = tmp_path / "mesh.json"
        assert main(["gen-mesh", "--kind", "icosphere", "--level", "1",
                     "--out", str(out)]) == 0
        assert main(["validate-mesh", str(out)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["vertices"] == 42
        assert summary["faces"] == 80

    def test_invalid_mesh_error_envelope(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "dimension": 2,
            "triangles": [[0, 1, 2]],
            "edges": [[0, 1, 1.0], [1, 2, 1.0], [0, 2, 3.0]],
            "base_vertex": 0,
        }))
        assert main(["validate-mesh", str(bad)]) == 1
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["error"]["type"] == "TriangleInequalityViolated"

    def test_free_norm_reports_are_byte_identical(self, tmp_path):
        mesh_path = tmp_path / "m.json"
        main(["gen-mesh", "--kind", "flat_rect", "--nx", "4", "--out",
              str(mesh_path)])
        mu_path = tmp_path / "mu.json"
        mu_path.write_text(json.dumps({"atoms": [[7, 1.0], [19, -2.0]]}))
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for out in (r1, r2):
            code = main(["free-norm", "--mesh", str(mesh_path), "--molecule",
                         str(mu_path), "--method", "all", "--out", str(out)])
            assert code == 0
        assert r1.read_bytes() == r2.read_bytes()
        report = json.loads(r1.read_text())
        assert abs(report["duality_gap"]) <= 1e-6

    def test_non_finite_atom_error_envelope(self, tmp_path, capsys):
        mesh_path = tmp_path / "m.json"
        main(["gen-mesh", "--kind", "flat_rect", "--nx", "4", "--out",
              str(mesh_path)])
        mu_path = tmp_path / "mu.json"
        mu_path.write_text('{"atoms": [[7, 1.0], [19, NaN]]}')
        capsys.readouterr()
        code = main(["free-norm", "--mesh", str(mesh_path), "--molecule",
                     str(mu_path), "--method", "all"])
        assert code == 1
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["error"]["type"] == "MeshError"
        assert "non-finite" in envelope["error"]["message"]

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    @pytest.mark.parametrize("command", ["check-currents", "free-norm"])
    def test_tolerance_must_be_finite_and_positive(self, tmp_path, capsys, flat4,
                                                   command, value):
        # --tol nan used to classify an exact form as closed_not_exact and
        # exit 0; --field-tol nan ended in NotConverged
        mesh_path = tmp_path / "m.json"
        ffio.write_json(mesh_path, ffio.mesh_to_dict(flat4))
        form_path = tmp_path / "w.json"
        form = np.arange(flat4.vertex_count, dtype=float)
        ffio.write_json(form_path, ffio.edge_values_to_dict(flat4, d0(flat4, form)))
        mu_path = tmp_path / "mu.json"
        mu_path.write_text(json.dumps({"atoms": [[7, 1.0]]}))
        argv = {
            "check-currents": ["check-currents", "--mesh", str(mesh_path),
                               "--form", str(form_path), f"--tol={value}"],
            "free-norm": ["free-norm", "--mesh", str(mesh_path), "--molecule",
                          str(mu_path), "--method", "field",
                          f"--field-tol={value}"],
        }[command]
        assert main(argv) == 1
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["error"]["type"] == "ParseError"

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_field_max_iter_must_be_positive(self, tmp_path, capsys, flat4, value):
        mesh_path = tmp_path / "m.json"
        ffio.write_json(mesh_path, ffio.mesh_to_dict(flat4))
        mu_path = tmp_path / "mu.json"
        mu_path.write_text(json.dumps({"atoms": [[7, 1.0]]}))
        assert main(["free-norm", "--mesh", str(mesh_path), "--molecule",
                     str(mu_path), f"--field-max-iter={value}"]) == 1
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["error"]["type"] == "ParseError"

    def test_duality_gap_fails_free_norm(self, tmp_path, capsys, monkeypatch):
        mesh_path = tmp_path / "m.json"
        main(["gen-mesh", "--kind", "flat_rect", "--nx", "4", "--out",
              str(mesh_path)])
        mu_path = tmp_path / "mu.json"
        mu_path.write_text(json.dumps({"atoms": [[7, 1.0], [19, -2.0]]}))
        graph = freenorm.beckmann_graph

        def gapped(mesh, molecule):
            value, flow = graph(mesh, molecule)
            return value + 1e-3, flow

        monkeypatch.setattr(freenorm, "beckmann_graph", gapped)
        capsys.readouterr()
        # --method all used to exit 0 whatever the gap
        assert main(["free-norm", "--mesh", str(mesh_path), "--molecule",
                     str(mu_path), "--method", "all"]) == 1
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["error"]["type"] == "SolverFailure"
        assert "duality gap" in envelope["error"]["message"]

        manifest = tmp_path / "batch.json"
        manifest.write_text(json.dumps({"entries": [
            {"command": "free-norm", "mesh": str(mesh_path),
             "molecule": str(mu_path), "method": "all"},
        ]}))
        out = tmp_path / "summary.csv"
        assert main(["batch", str(manifest), "--out", str(out)]) == 2
        row = out.read_text().strip().splitlines()[1].split(",")
        assert row[2] == "error"
        assert row[3].startswith("SolverFailure: duality gap")

    def test_uncertified_dual_fails_free_norm(self, tmp_path, capsys, monkeypatch,
                                              flat4):
        mesh_path = tmp_path / "m.json"
        ffio.write_json(mesh_path, ffio.mesh_to_dict(flat4))
        mu_path = tmp_path / "mu.json"
        mu_path.write_text(json.dumps({"atoms": [[7, 1.0], [19, -2.0]]}))
        solve = freenorm.ssp.min_cost_flow

        def steep(mesh, b):
            flow, potential = solve(mesh, b)
            return flow, 1.01 * potential

        monkeypatch.setattr(freenorm.ssp, "min_cost_flow", steep)
        # --method dual used to exit 0 on an infeasible potential
        assert main(["free-norm", "--mesh", str(mesh_path), "--molecule",
                     str(mu_path), "--method", "dual"]) == 1
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["error"]["type"] == "SolverFailure"
        assert "certificate" in envelope["error"]["message"]

    def test_gen_mesh_rejects_flags_of_another_kind(self, tmp_path, capsys):
        # used to escape as a TypeError traceback
        with pytest.raises(InvalidParams):
            generate_primitive("icosphere", radius=1.0)
        with pytest.raises(InvalidParams):  # e.g. a JSON list as weakstar mesh_kind
            generate_primitive(["icosphere"])
        assert main(["gen-mesh", "--kind", "icosphere", "--radius", "1",
                     "--out", str(tmp_path / "m.json")]) == 1
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["error"]["type"] == "InvalidParams"
        assert "radius" in envelope["error"]["message"]
        assert not (tmp_path / "m.json").exists()

    def test_check_currents_on_annulus_generator(self, tmp_path, capsys, annulus):
        mesh_path = tmp_path / "ann.json"
        ffio.write_json(mesh_path, ffio.mesh_to_dict(annulus))
        omega = annulus_generator(annulus)
        form_path = tmp_path / "omega.json"
        ffio.write_json(form_path, ffio.edge_values_to_dict(annulus, omega))
        code = main(["check-currents", "--mesh", str(mesh_path), "--form",
                     str(form_path), "--tol", "1e-8"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "closed_not_exact"
        assert payload["betti1"] == 1
        assert payload["exactness_residual"] >= 0.1

    def test_calc_norms_scalar(self, tmp_path, capsys, flat4):
        mesh_path = tmp_path / "m.json"
        ffio.write_json(mesh_path, ffio.mesh_to_dict(flat4))
        field_path = tmp_path / "f.json"
        from freeflow.mesh import geodesic_distances

        f = geodesic_distances(flat4, 0)
        ffio.write_json(field_path, ffio.scalar_field_to_dict(flat4, f))
        code = main(["calc", "norms", "--mesh", str(mesh_path), "--field",
                     str(field_path)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["lip_edgewise"] == pytest.approx(1.0, abs=1e-12)
        assert payload["lip_pairwise_geodesic"] == pytest.approx(1.0, abs=1e-12)

    def test_calc_grad_div_pipeline(self, tmp_path, capsys, flat4):
        mesh_path = tmp_path / "m.json"
        ffio.write_json(mesh_path, ffio.mesh_to_dict(flat4))
        f = flat4.aux["positions"][:, 0]
        field_path = tmp_path / "f.json"
        ffio.write_json(field_path, ffio.scalar_field_to_dict(flat4, f))
        grad_path = tmp_path / "grad.json"
        assert main(["calc", "grad", "--mesh", str(mesh_path), "--field",
                     str(field_path), "--out", str(grad_path)]) == 0
        assert main(["calc", "div", "--mesh", str(mesh_path), "--field",
                     str(grad_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["scalar"]) == flat4.vertex_count

    def test_experiment_extension_passes(self, tmp_path):
        config = tmp_path / "exp.json"
        config.write_text(json.dumps({"kind": "extension", "nx": 16, "seed": 42}))
        out = tmp_path / "report.json"
        code = main(["experiment", "extension", "--config", str(config),
                     "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True

    def test_experiment_rejects_unknown_keys(self, tmp_path, capsys):
        config = tmp_path / "exp.json"
        config.write_text(json.dumps({"kind": "extension", "bogus": 1}))
        code = main(["experiment", "extension", "--config", str(config)])
        assert code == 1
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["error"]["type"] == "ParseError"

    def test_experiment_cutoff_passes_with_defaults(self, tmp_path):
        config = tmp_path / "exp.json"
        config.write_text(json.dumps({"kind": "cutoff"}))
        out = tmp_path / "report.json"
        code = main(["experiment", "cutoff", "--config", str(config),
                     "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True
        assert len(report["rows"]) == 4

    def test_experiment_cutoff_runs_two_distance_searches(self, tmp_path,
                                                           monkeypatch):
        # one in the config run and one in cutoff_decay; cutoff_field used
        # to run one more per scale
        calls = []
        for module in (cli, experiments):
            search = module.geodesic_distances
            monkeypatch.setattr(
                module, "geodesic_distances",
                lambda mesh, source, search=search: calls.append(source)
                or search(mesh, source),
            )
        config = tmp_path / "exp.json"
        config.write_text(json.dumps({"kind": "cutoff"}))
        assert main(["experiment", "cutoff", "--config", str(config),
                     "--out", str(tmp_path / "r.json")]) == 0
        assert len(calls) == 2

    def test_experiment_refine_with_field(self, tmp_path):
        config = tmp_path / "exp.json"
        config.write_text(json.dumps({
            "kind": "refine", "primitive": "flat_rect", "levels": [12, 26],
            "atoms": [[[0.25, 0.5], 1.0], [[0.75, 0.5], -1.0]],
            "include_field": True, "field_max_iter": 2000,
        }))
        out = tmp_path / "report.json"
        code = main(["experiment", "refine", "--config", str(config),
                     "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True
        for row in report["rows"]:
            assert abs(row["gap"]) <= 1e-6
        assert report["details"]["field_vs_dual_relative"] <= 0.05

    def test_failed_criterion_exits_two(self, tmp_path):
        # reversed scales make the measured column increase
        config = tmp_path / "exp.json"
        config.write_text(json.dumps({"kind": "cutoff", "ks": [8, 4, 2, 1]}))
        code = main(["experiment", "cutoff", "--config", str(config),
                     "--out", str(tmp_path / "r.json")])
        assert code == 2

    @pytest.mark.parametrize(
        "kind, config",
        [
            ("cutoff", {"ks": []}),
            ("refine", {"primitive": "flat_rect", "levels": [],
                        "atoms": [[[0.5, 0.5], 1.0]]}),
            ("refine", {"levels": [4], "atoms": [[[0.5, 0.5], 1.0]]}),
            ("refine", {"primitive": "flat_rect", "atoms": [[[0.5, 0.5], 1.0]]}),
            ("refine", {"primitive": "flat_rect", "levels": [4]}),
        ],
    )
    def test_experiment_config_without_rows_rejected(self, tmp_path, capsys,
                                                     kind, config):
        # empty scales or levels used to pass with zero rows, and a missing
        # refine key escaped as a KeyError traceback
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"kind": kind, **config}))
        code = main(["experiment", kind, "--config", str(path)])
        assert code == 1
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["error"]["type"] == "ParseError"

    @pytest.mark.parametrize("command", ["experiment", "batch", "calc", "check-currents"])
    @pytest.mark.parametrize("document", [[1, 2], "text", 3, None])
    def test_non_object_json_rejected(self, tmp_path, capsys, flat4, command,
                                      document):
        # each used to escape as an AttributeError traceback
        mesh_path = tmp_path / "m.json"
        ffio.write_json(mesh_path, ffio.mesh_to_dict(flat4))
        path = tmp_path / "input.json"
        path.write_text(json.dumps(document))
        argv = {
            "experiment": ["experiment", "cutoff", "--config", str(path)],
            "batch": ["batch", str(path), "--out", str(tmp_path / "s.csv")],
            "calc": ["calc", "norms", "--mesh", str(mesh_path), "--field", str(path)],
            "check-currents": ["check-currents", "--mesh", str(mesh_path),
                               "--form", str(path)],
        }[command]
        assert main(argv) == 1
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["error"]["type"] == "ParseError"

    @pytest.mark.parametrize(
        "kind, config",
        [
            ("cutoff", {"seed": "x"}),  # was a ValueError traceback
            ("cutoff", {"ks": 5}),  # was a TypeError traceback
            ("refine", {"primitive": "flat_rect", "levels": [4],
                        "atoms": [[0.5, 1.0]]}),  # was an IndexError traceback
            ("weakstar", {"steps": 0}),  # was a ZeroDivisionError traceback
            # were broadcast against 2-D positions, and the run exited 0
            ("refine", {"primitive": "flat_rect", "levels": [4],
                        "atoms": [[[0.5], 1.0]]}),
            ("extension", {"center": [0.5]}),
            # the string "false" used to run the field solver
            ("refine", {"primitive": "flat_rect", "levels": [4],
                        "atoms": [[[0.5, 0.5], 1.0]], "include_field": "false"}),
        ],
    )
    def test_malformed_experiment_config_rejected(self, tmp_path, capsys,
                                                  kind, config):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"kind": kind, **config}))
        code = main(["experiment", kind, "--config", str(path)])
        assert code == 1
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["error"]["type"] == "ParseError"

    @pytest.mark.parametrize(
        "kind, config",
        [
            # each used to build its mesh before the value was checked
            ("cutoff", {"ks": [1, "2"]}),
            ("cutoff", {"decay": -1.0}),
            ("weakstar", {"steps": 0}),
            ("extension", {"r_outer": "0.35"}),
            ("refine", {"primitive": "flat_rect", "levels": [4],
                        "atoms": [[[0.5, 0.5], 1.0]], "include_field": 1}),
        ],
    )
    def test_config_is_checked_before_any_mesh_is_built(self, tmp_path, capsys,
                                                         monkeypatch, kind, config):
        built = []
        for module in (cli, experiments):
            monkeypatch.setattr(module, "generate_primitive",
                                lambda *a, **k: built.append(a))
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"kind": kind, **config}))
        assert main(["experiment", kind, "--config", str(path)]) == 1
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["error"]["type"] == "ParseError"
        assert built == []

    def test_experiment_csv_output(self, tmp_path):
        config = tmp_path / "exp.json"
        config.write_text(json.dumps({"kind": "weakstar", "steps": 4}))
        csv_path = tmp_path / "rows.csv"
        code = main(["experiment", "weakstar", "--config", str(config),
                     "--csv", str(csv_path)])
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 5  # header + 4 steps
        assert lines[0].startswith("step,")


class TestBatch:
    def test_batch_preserves_row_order(self, tmp_path):
        mesh_path = tmp_path / "m.json"
        main(["gen-mesh", "--kind", "flat_rect", "--nx", "3", "--out",
              str(mesh_path)])
        mu_path = tmp_path / "mu.json"
        mu_path.write_text(json.dumps({"atoms": [[5, 1.0]]}))
        entries = [
            {"command": "free-norm", "mesh": str(mesh_path),
             "molecule": str(mu_path), "method": "dual"}
            for _ in range(4)
        ]
        manifest = tmp_path / "batch.json"
        manifest.write_text(json.dumps({"entries": entries}))
        out = tmp_path / "summary.csv"
        assert main(["batch", str(manifest), "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["0", "1", "2", "3"]

    def test_free_norm_entry_writes_the_free_norm_report(self, tmp_path):
        mesh_path = tmp_path / "m.json"
        main(["gen-mesh", "--kind", "flat_rect", "--nx", "4", "--out",
              str(mesh_path)])
        mu_path = tmp_path / "mu.json"
        mu_path.write_text(json.dumps({"atoms": [[7, 1.0], [19, -2.0]]}))
        direct, batched = tmp_path / "direct.json", tmp_path / "batched.json"
        assert main(["free-norm", "--mesh", str(mesh_path), "--molecule",
                     str(mu_path), "--method", "all", "--out", str(direct)]) == 0
        manifest = tmp_path / "batch.json"
        manifest.write_text(json.dumps({"entries": [
            {"command": "free-norm", "mesh": str(mesh_path),
             "molecule": str(mu_path), "method": "all", "out": str(batched)},
        ]}))
        assert main(["batch", str(manifest), "--out",
                     str(tmp_path / "summary.csv")]) == 0
        assert batched.read_bytes() == direct.read_bytes()

    def test_each_mesh_path_is_parsed_once(self, tmp_path, monkeypatch):
        mesh_path = tmp_path / "m.json"
        main(["gen-mesh", "--kind", "flat_rect", "--nx", "3", "--out",
              str(mesh_path)])
        mu_path = tmp_path / "mu.json"
        mu_path.write_text(json.dumps({"atoms": [[5, 1.0]]}))
        parsed = []
        mesh_from_dict = ffio.mesh_from_dict
        monkeypatch.setattr(
            ffio, "mesh_from_dict", lambda data: parsed.append(1) or mesh_from_dict(data)
        )
        manifest = tmp_path / "batch.json"
        manifest.write_text(json.dumps({"entries": [
            {"command": "free-norm", "mesh": str(mesh_path),
             "molecule": str(mu_path), "method": "dual"},
            {"command": "validate-mesh", "mesh": str(mesh_path)},
        ]}))
        out = tmp_path / "summary.csv"
        assert main(["batch", str(manifest), "--out", str(out)]) == 0
        assert len(parsed) == 1
        statuses = [line.split(",")[2] for line in out.read_text().splitlines()[1:]]
        assert statuses == ["pass", "pass"]

    def test_negative_tolerance_rejected(self, tmp_path, capsys, flat4):
        mesh_path = tmp_path / "m.json"
        ffio.write_json(mesh_path, ffio.mesh_to_dict(flat4))
        form_path = tmp_path / "w.json"
        ffio.write_json(
            form_path,
            ffio.edge_values_to_dict(flat4, np.zeros(len(flat4.edges))),
        )
        code = main(["check-currents", "--mesh", str(mesh_path), "--form",
                     str(form_path), "--tol=-1e-8"])
        assert code == 1
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["error"]["type"] == "ParseError"

    @pytest.mark.parametrize(
        "manifest",
        [{"entries": 5}, {"entries": {"command": "validate-mesh"}},
         {"entries": [{"command": "validate-mesh", "mesh": "m.json"}, 3]}],
    )
    def test_entries_must_be_a_list_of_objects(self, tmp_path, capsys, manifest):
        # each used to escape as a TypeError or AttributeError traceback
        path = tmp_path / "batch.json"
        path.write_text(json.dumps(manifest))
        assert main(["batch", str(path), "--out", str(tmp_path / "s.csv")]) == 1
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["error"]["type"] == "ParseError"

    @pytest.mark.parametrize(
        "entry",
        [
            {"command": "experiment", "experiment": "bogus"},  # was a KeyError
            {"command": "experiment"},
            # was an AttributeError
            {"command": "experiment", "experiment": "cutoff", "config": [1]},
        ],
    )
    def test_malformed_experiment_entry_is_a_parse_error(self, tmp_path, entry):
        manifest = tmp_path / "batch.json"
        manifest.write_text(json.dumps({"entries": [entry]}))
        out = tmp_path / "summary.csv"
        assert main(["batch", str(manifest), "--out", str(out)]) == 2
        row = next(csv.DictReader(out.read_text().splitlines()))
        assert row["status"] == "error"
        assert row["detail"].startswith("ParseError:")

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"out": 7}, "is not a JSON string"),  # was written to descriptor 7
            ({"mesh": 5}, "is not a JSON string"),  # was read from descriptor 5
            ({"molecule": ["x"]}, "is not a JSON string"),  # was a TypeError
            ({"mesh": None}, "is not a JSON string"),  # was a KeyError
            ({"method": "bogus"}, "unknown method"),  # was a ValueError
            ({"command": "validate-mesh", "mesh": None}, "is not a JSON string"),
            ({"command": "validate-mesh", "mesh": 5}, "is not a JSON string"),
        ],
    )
    def test_malformed_path_or_method_entry_is_a_parse_error(self, tmp_path, flat4,
                                                               change, message):
        mesh_path = tmp_path / "m.json"
        ffio.write_json(mesh_path, ffio.mesh_to_dict(flat4))
        mu_path = tmp_path / "mu.json"
        mu_path.write_text(json.dumps({"atoms": [[7, 1.0]]}))
        entry = {"command": "free-norm", "mesh": str(mesh_path),
                 "molecule": str(mu_path), **change}
        # a None value stands for a missing key
        entry = {key: value for key, value in entry.items() if value is not None}
        manifest = tmp_path / "batch.json"
        manifest.write_text(json.dumps({"entries": [entry]}))
        out = tmp_path / "summary.csv"
        assert main(["batch", str(manifest), "--out", str(out)]) == 2
        row = next(csv.DictReader(out.read_text().splitlines()))
        assert row["status"] == "error"
        assert row["detail"].startswith("ParseError:")
        assert message in row["detail"]

    def test_empty_manifest(self, tmp_path):
        manifest = tmp_path / "batch.json"
        manifest.write_text(json.dumps({"entries": []}))
        out = tmp_path / "summary.csv"
        assert main(["batch", str(manifest), "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1
        assert lines[0] == "index,command,status,detail"

    def test_summary_is_byte_identical_across_runs(self, tmp_path, flat4):
        mesh_path = tmp_path / "m.json"
        ffio.write_json(mesh_path, ffio.mesh_to_dict(flat4))
        mu_path = tmp_path / "mu.json"
        mu_path.write_text(json.dumps({"atoms": [[7, 1.0], [19, -2.0]]}))
        manifest = tmp_path / "batch.json"
        manifest.write_text(json.dumps({"entries": [
            {"command": "free-norm", "mesh": str(mesh_path),
             "molecule": str(mu_path)},
            {"command": "validate-mesh", "mesh": str(mesh_path)},
            {"command": "validate-mesh", "mesh": str(tmp_path / "no.json")},
        ]}))
        s1, s2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        for out in (s1, s2):
            assert main(["batch", str(manifest), "--out", str(out)]) == 2
        # the summary used to carry a wall_time_s column
        assert s1.read_bytes() == s2.read_bytes()

    def test_three_entries_and_one_error(self, tmp_path):
        mesh_path = tmp_path / "m.json"
        main(["gen-mesh", "--kind", "flat_rect", "--nx", "4", "--out",
              str(mesh_path)])
        molecules = []
        for i, atoms in enumerate([[[7, 1.0]], [[12, -2.0]], [[3, 0.5], [18, 1.5]]]):
            p = tmp_path / f"mu{i}.json"
            p.write_text(json.dumps({"atoms": atoms}))
            molecules.append(p)
        entries = [
            {"command": "free-norm", "mesh": str(mesh_path),
             "molecule": str(p), "method": "all"}
            for p in molecules
        ]
        entries.append({"command": "free-norm", "mesh": str(tmp_path / "no.json"),
                        "molecule": str(molecules[0])})
        manifest = tmp_path / "batch.json"
        manifest.write_text(json.dumps({"entries": entries}))
        out = tmp_path / "summary.csv"
        code = main(["batch", str(manifest), "--out", str(out)])
        assert code == 2  # the error row fails the batch gate
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 5
        statuses = [line.split(",")[2] for line in lines[1:]]
        assert statuses[:3] == ["pass", "pass", "pass"]
        assert statuses[3] == "error"
