import argparse
import csv
import functools
import hashlib
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import freeflow
from freeflow import cli, experiments, freenorm, primitives
from freeflow import io as ffio
from freeflow.calculus import gradient, l1_norm, linf_norm
from freeflow.cli import main
from freeflow.currents import classify, d0
from freeflow.errors import InvalidParams, MeshError, ParseError
from freeflow.freenorm import Molecule
from freeflow.mesh import TriMesh
from freeflow.primitives import KINDS, generate_primitive

from test_currents import annulus_generator


NAN = float("nan")
BIG = 10**400  # a JSON integer beyond float range
TRI = [[0, 1, 2]]
EDGES = [[0, 1, 1.0], [1, 2, 1.0], [0, 2, 1.0]]


def _mesh(**change):
    """The JSON of a one-triangle mesh, with ``change`` applied."""
    return {"triangles": TRI, "edges": EDGES, **change}


def _edge(row, at=2):
    """The one-triangle mesh JSON with edge row ``at`` replaced by ``row``."""
    return _mesh(edges=EDGES[:at] + [row] + EDGES[at + 1:])


def _tris(*rows):
    return _mesh(triangles=list(rows))


# The type and message of each reader's error on malformed input; a string
# is a ParseError message. Of two defects, the first in reading order wins.
_MESH_ERRORS = [
    ("tri_bool_id", _tris([0, True, 2]), "triangle vertex ids must be integers"),
    ("tri_str_id", _tris([0, "1", 2]), "triangle vertex ids must be integers"),
    ("tri_float_id", _tris([0, 1.0, 2]), "triangle vertex ids must be integers"),
    ("tri_nan_id", _tris([0, NAN, 2]), "triangle vertex ids must be integers"),
    ("tri_null_id", _tris([0, None, 2]), "triangle vertex ids must be integers"),
    ("tri_short_row", _tris([0, 1]),
     "every triangle must be a list of three vertex ids"),
    ("tri_long_row", _tris([0, 1, 2, 0]),
     "every triangle must be a list of three vertex ids"),
    ("tri_str_row", _tris("012"), "every triangle must be a list of three vertex ids"),
    ("tri_int_row", _tris(5), "every triangle must be a list of three vertex ids"),
    ("tri_null", _mesh(triangles=None),
     "bad mesh JSON: 'NoneType' object is not iterable"),
    ("tri_int", _mesh(triangles=3), "bad mesh JSON: 'int' object is not iterable"),
    ("edge_bool_id", _edge([True, 2, 1.0]), "vertex id True is not an integer"),
    ("edge_str_id", _edge([0, "2", 1.0]), "vertex id '2' is not an integer"),
    ("edge_float_id", _edge([0.0, 2, 1.0]), "vertex id 0.0 is not an integer"),
    ("edge_nan_id", _edge([0, NAN, 1.0]), "vertex id nan is not an integer"),
    ("edge_null_id", _edge([None, 2, 1.0]), "vertex id None is not an integer"),
    ("edge_short_row", _edge([0, 2]),
     "bad mesh JSON: not enough values to unpack (expected 3, got 2)"),
    ("edge_long_row", _edge([0, 2, 1.0, 1.0]),
     "bad mesh JSON: too many values to unpack (expected 3)"),
    ("edge_int_row", _edge(7), "bad mesh JSON: cannot unpack non-iterable int object"),
    ("edge_null_row", _edge(None),
     "bad mesh JSON: cannot unpack non-iterable NoneType object"),
    ("edge_str_row", _edge("abc"), "vertex id 'a' is not an integer"),
    ("edge_short_str_row", _edge("ab"),
     "bad mesh JSON: not enough values to unpack (expected 3, got 2)"),
    ("edge_dict_row", _edge({"u": 0, "v": 2, "l": 1.0}),
     "vertex id 'u' is not an integer"),
    ("edges_missing", {"triangles": TRI}, "bad mesh JSON: 'edges'"),
    ("edges_null", _mesh(edges=None),
     "bad mesh JSON: 'NoneType' object is not iterable"),
    ("edges_str", _mesh(edges="abc"),
     "bad mesh JSON: not enough values to unpack (expected 3, got 1)"),
    ("length_str", _edge([0, 2, "1.0"]), "value '1.0' is not a number"),
    ("length_bool", _edge([0, 2, True]), "value True is not a number"),
    ("length_null", _edge([0, 2, None]), "value None is not a number"),
    ("length_list", _edge([0, 2, [1.0]]), "value [1.0] is not a number"),
    ("length_beyond_float", _edge([0, 2, BIG]),
     "bad mesh JSON: int too large to convert to float"),
    ("base_float", _mesh(base_vertex=1.0), "vertex id 1.0 is not an integer"),
    ("base_bool", _mesh(base_vertex=True), "vertex id True is not an integer"),
    ("base_null", _mesh(base_vertex=None), "vertex id None is not an integer"),
    ("base_str", _mesh(base_vertex="0"), "vertex id '0' is not an integer"),
    ("two_length_then_id", _mesh(edges=[[0, 1, "x"], [1, 2, 1.0], [0, 2.5, 1.0]]),
     "vertex id 2.5 is not an integer"),
    ("two_short_then_id", _mesh(edges=[[0, 1], [1.5, 2, 1.0], [0, 2, 1.0]]),
     "bad mesh JSON: not enough values to unpack (expected 3, got 2)"),
    ("two_id_then_short", _mesh(edges=[[0, 1, 1.0], [1.5, 2, 1.0], [0, 2]]),
     "vertex id 1.5 is not an integer"),
    ("two_v_then_u", _mesh(edges=[[0, 1, 1.0], [1, "b", 1.0], ["a", 2, 1.0]]),
     "vertex id 'b' is not an integer"),
    ("two_big_then_str", _mesh(edges=[[0, 1, BIG], [1, 2, "x"], [0, 2, 1.0]]),
     "bad mesh JSON: int too large to convert to float"),
    ("two_str_then_big", _mesh(edges=[[0, 1, "x"], [1, 2, BIG], [0, 2, 1.0]]),
     "value 'x' is not a number"),
    ("two_tri_id_then_short", _tris([0, 1.5, 2], [0, 1]),
     "every triangle must be a list of three vertex ids"),
    ("two_tri_then_edge",
     _mesh(triangles=[[0, 1, "2"]], edges=[[0, 1, 1.0], [1, 2, "x"], [0, 2, 1.0]]),
     "triangle vertex ids must be integers"),
    ("two_length_then_base",
     _mesh(edges=[[0, 1, 1.0], [1, 2, None], [0, 2, 1.0]], base_vertex=0.0),
     "value None is not a number"),
    ("two_tri_beyond_int64_then_length",
     _mesh(triangles=[[0, 1, 2**70]], edges=[[0, 1, 1.0], [1, 2, "x"], [0, 2, 1.0]]),
     "value 'x' is not a number"),
    ("edges_empty", _mesh(edges=[]),
     (MeshError, "missing length for triangle edge (0, 1)")),
    ("edges_empty_graph", {"edges": []}, (MeshError, "mesh has no edges")),
    ("base_beyond_int64", _mesh(base_vertex=2**70),
     (MeshError, "base vertex 1180591620717411303424 out of range")),
    ("dimension_mismatch", _mesh(triangles=[], dimension=2),
     "declared dimension 2 does not match content 1"),
]

_FIELD_ERRORS = [
    ("scalar_bool", {"scalar": [0.0, True, 0.0]}, "value True is not a number"),
    ("scalar_str", {"scalar": [0.0, 0.0, "1"]}, "value '1' is not a number"),
    ("scalar_null_entry", {"scalar": [None, 0.0, 0.0]}, "value None is not a number"),
    ("scalar_list_entry", {"scalar": [0.0, [1.0], 0.0]}, "value [1.0] is not a number"),
    ("scalar_beyond_float", {"scalar": [0.0, BIG, 0.0]},
     "bad field JSON: int too large to convert to float"),
    ("scalar_null", {"scalar": None},
     "bad field JSON: 'NoneType' object is not iterable"),
    ("scalar_int", {"scalar": 5}, "bad field JSON: 'int' object is not iterable"),
    ("edges_bool", {"edges": [0.0, 0.0, False]}, "value False is not a number"),
    ("faces_str", {"faces": [[0.0, "x"]]}, "value 'x' is not a number"),
    ("faces_short_row", {"faces": [[0.0]]},
     "bad field JSON: not enough values to unpack (expected 2, got 1)"),
    ("faces_long_row", {"faces": [[0.0, 1.0, 2.0]]},
     "bad field JSON: too many values to unpack (expected 2)"),
    ("faces_int_row", {"faces": [5]},
     "bad field JSON: cannot unpack non-iterable int object"),
    ("faces_null_row", {"faces": [None]},
     "bad field JSON: cannot unpack non-iterable NoneType object"),
    ("faces_str_row", {"faces": ["ab"]}, "value 'a' is not a number"),
    ("faces_beyond_float", {"faces": [[BIG, 0.0]]},
     "bad field JSON: int too large to convert to float"),
    ("two_faces_str_then_short", {"faces": [[0.0, "x"], [1.0]]},
     "value 'x' is not a number"),
    ("two_faces_short_then_str", {"faces": [[1.0], [0.0, "x"]]},
     "bad field JSON: not enough values to unpack (expected 2, got 1)"),
    ("two_faces_big_then_bool", {"faces": [[0.0, BIG], [True, 0.0]]},
     "bad field JSON: int too large to convert to float"),
    ("two_scalar_big_then_str", {"scalar": [BIG, "x", 0.0]},
     "bad field JSON: int too large to convert to float"),
    ("two_scalar_str_then_big", {"scalar": ["x", BIG, 0.0]},
     "value 'x' is not a number"),
    ("no_kind", {}, "field JSON must have exactly one of scalar/faces/edges"),
    ("two_kinds", {"scalar": [0.0, 0.0, 0.0], "edges": [0.0, 0.0, 0.0]},
     "field JSON must have exactly one of scalar/faces/edges"),
]

_MOLECULE_ERRORS = [
    ("atom_bool_id", {"atoms": [[True, 1.0]]}, "vertex id True is not an integer"),
    ("atom_str_id", {"atoms": [["3", 1.0]]}, "vertex id '3' is not an integer"),
    ("atom_float_id", {"atoms": [[3.0, 1.0]]}, "vertex id 3.0 is not an integer"),
    ("atom_fraction_id", {"atoms": [[3.7, 1.0]]}, "vertex id 3.7 is not an integer"),
    ("atom_nan_id", {"atoms": [[NAN, 1.0]]}, "vertex id nan is not an integer"),
    ("atom_null_id", {"atoms": [[None, 1.0]]}, "vertex id None is not an integer"),
    ("atom_short_row", {"atoms": [[3]]},
     "bad molecule JSON: not enough values to unpack (expected 2, got 1)"),
    ("atom_long_row", {"atoms": [[3, 1.0, 2.0]]},
     "bad molecule JSON: too many values to unpack (expected 2)"),
    ("atom_int_row", {"atoms": [3]},
     "bad molecule JSON: cannot unpack non-iterable int object"),
    ("atom_null_row", {"atoms": [None]},
     "bad molecule JSON: cannot unpack non-iterable NoneType object"),
    ("atom_str_row", {"atoms": ["ab"]}, "vertex id 'a' is not an integer"),
    ("atoms_missing", {}, "bad molecule JSON: 'atoms'"),
    ("atoms_null", {"atoms": None},
     "bad molecule JSON: 'NoneType' object is not iterable"),
    ("coefficient_str", {"atoms": [[3, "1"]]}, "value '1' is not a number"),
    ("coefficient_bool", {"atoms": [[3, True]]}, "value True is not a number"),
    ("coefficient_null", {"atoms": [[3, None]]}, "value None is not a number"),
    ("coefficient_beyond_float", {"atoms": [[3, BIG]]},
     "bad molecule JSON: int too large to convert to float"),
    ("coefficient_nan", {"atoms": [[3, NAN]]},
     (MeshError, "molecule has non-finite coefficients")),
    ("two_coefficient_then_id", {"atoms": [[3, "x"], [True, 1.0]]},
     "value 'x' is not a number"),
    ("two_id_then_coefficient", {"atoms": [[3.5, 1.0], [4, "x"]]},
     "vertex id 3.5 is not an integer"),
    ("two_big_then_id", {"atoms": [[3, BIG], [True, 1.0]]},
     "bad molecule JSON: int too large to convert to float"),
    ("two_short_then_id", {"atoms": [[3], [True, 1.0]]},
     "bad molecule JSON: not enough values to unpack (expected 2, got 1)"),
    ("two_id_then_short", {"atoms": [[3, 1.0], ["4", 1.0], [5]]},
     "vertex id '4' is not an integer"),
]



def _readme_experiment_configs():
    """The example configs of README's experiment section, as written there."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Experiment configs", 1)[1].split("\n## ", 1)[0]
    return [json.loads(text) for text in re.findall(r'`(\{"kind".*?\})`', section, re.S)]


# sha256 of the --out report per config, from the set-up code the CLI ran
# before each experiment built its own
_REPORT_DIGESTS = {
    "cutoff": "8afcaf6316c1da607e6257af213822e613f2da488f6847432f8ffcb10e00bd16",
    "extension": "eaf45dffbdc8509c422b6cce862709b11e176fab71d35a6c8aee212baefee6ef",
    "weakstar": "99e47f748dc467b8d0373d69b83d64fdaef15580b8ca1835304b8fff3942d984",
    "refine": "a712ff338c91815cb65d5641aae3ef03c6aaa48274c4f5eaeb7c20ef03a7bbcc",
}


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

    @pytest.mark.parametrize(
        "where, value",
        [("mesh", "1.0"), ("mesh", True), ("molecule", "2.5"), ("molecule", True),
         ("scalar", "1"), ("scalar", True), ("faces", "0.5"), ("edges", False)],
    )
    def test_json_values_must_be_numbers(self, tmp_path, capsys, flat4, where, value):
        # each reader called float(x), which took "1.0" and true as numbers
        mesh = ffio.mesh_to_dict(flat4)
        if where == "mesh":
            mesh["edges"][-1][2] = value
        atoms = [[7, 1.0], [19, value if where == "molecule" else -1.0]]
        fields = {
            "scalar": ffio.scalar_field_to_dict(flat4, np.zeros(flat4.vertex_count)),
            "faces": ffio.face_field_to_dict(flat4, np.zeros((len(flat4.triangles), 2))),
            "edges": ffio.edge_values_to_dict(flat4, np.zeros(len(flat4.edges))),
        }
        field = fields.get(where, fields["scalar"])
        if where == "faces":
            field["faces"][2][1] = value
        elif where in fields:
            field[where][3] = value
        paths = {name: tmp_path / f"{name}.json" for name in ("m", "mu", "f")}
        for name, data in zip(paths, (mesh, {"atoms": atoms}, field)):
            ffio.write_json(paths[name], data)
        m, mu, f = (str(path) for path in paths.values())
        argv = {
            "mesh": ["validate-mesh", m],
            "molecule": ["free-norm", "--mesh", m, "--molecule", mu, "--method", "dual"],
            "scalar": ["calc", "norms", "--mesh", m, "--field", f],
            "faces": ["calc", "norms", "--mesh", m, "--field", f],
            "edges": ["check-currents", "--mesh", m, "--form", f],
        }[where]
        assert main(argv) == 1
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["error"]["type"] == "ParseError"
        assert repr(value) in envelope["error"]["message"]

    def test_json_integer_beyond_float_range_is_a_parse_error(self, flat4):
        # float(10**400) raised OverflowError past the CLI's error envelope
        big = 10**400
        with pytest.raises(ParseError):
            ffio.mesh_from_dict({"edges": [[0, 1, big]]})
        with pytest.raises(ParseError):
            ffio.molecule_from_dict({"atoms": [[1, big]]})
        with pytest.raises(ParseError):
            ffio.field_from_dict(flat4, {"edges": [big] * len(flat4.edges)})

    @pytest.mark.parametrize(
        "data", [_edge([0, 2**70, 1.0]), _edge([-2**63 - 1, 2, 1.0]),
                 _tris([0, 1, 2**64])],
        ids=["edge", "edge_negative", "triangle"],
    )
    def test_vertex_id_beyond_int64_error_envelope(self, tmp_path, capsys, data):
        # numpy raised OverflowError inside TriMesh, past the error envelope
        path = tmp_path / "m.json"
        path.write_text(json.dumps(data))
        assert main(["validate-mesh", str(path)]) == 1
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "ParseError"
        assert error["message"].startswith("bad mesh JSON: ")

    @pytest.mark.parametrize("declared", ["abc", [2], "2", 2.5, True])
    def test_declared_dimension_must_be_a_json_integer(self, tmp_path, capsys,
                                                       declared):
        # "abc" and [2] escaped as a ValueError and a TypeError; "2" and 2.5 passed
        path = tmp_path / "m.json"
        path.write_text(json.dumps({**_mesh(), "dimension": declared}))
        assert main(["validate-mesh", str(path)]) == 1
        assert json.loads(capsys.readouterr().out)["error"] == {
            "type": "ParseError",
            "message": f"dimension {declared!r} is not an integer",
        }

    @pytest.mark.parametrize("declared", [{}, {"dimension": None}, {"dimension": 2}])
    def test_declared_dimension_may_be_absent_or_null(self, declared):
        assert ffio.mesh_from_dict({**_mesh(), **declared}).dimension == 2


def _reference_json(mesh):
    return json.dumps(ffio.mesh_to_dict(mesh), sort_keys=True, separators=(",", ":"))


class TestMeshHashPayload:
    """The hashed text is the compact, key-sorted JSON of ``mesh_to_dict``."""

    def assert_reference(self, mesh):
        text = _reference_json(mesh)
        assert ffio._canonical_json(mesh) == text
        assert ffio.mesh_hash(mesh) == hashlib.sha256(text.encode()).hexdigest()

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("base_vertex", [0, 2])
    def test_primitives(self, kind, base_vertex):
        self.assert_reference(generate_primitive(kind, base_vertex=base_vertex))

    def test_graph_with_exponent_and_subnormal_lengths(self):
        lengths = [1e-05, 1.5e16, 5e-324, 2.5e-310, 1e-05, 0.1, 1e22, 12345.678]
        edges = [[v, v + 1] for v in range(len(lengths))]
        mesh = TriMesh([], edges, lengths, base_vertex=3)
        self.assert_reference(mesh)
        assert '"edges":[[0,1,1e-05],[1,2,1.5e+16],[2,3,5e-324],' in _reference_json(mesh)

    def test_surface_with_exponent_lengths(self):
        mesh = TriMesh([[0, 1, 2], [0, 2, 3]], [[0, 1], [1, 2], [0, 2], [2, 3], [0, 3]],
                       [1e-05, 1e-05, 1.5e-05, 1e-05, 1e-05], base_vertex=1)
        self.assert_reference(mesh)

    def test_lengths_given_as_json_integers(self):
        mesh = ffio.mesh_from_dict(
            {"triangles": [[0, 1, 2]], "edges": [[0, 1, 3], [1, 2, 4], [0, 2, 5]],
             "base_vertex": 2})
        self.assert_reference(mesh)
        assert '"edges":[[0,1,3.0],[0,2,5.0],[1,2,4.0]]' in _reference_json(mesh)


def _params(table):
    return [pytest.param(data, expected, id=name) for name, data, expected in table]


def _assert_raises_pinned(read, data, expected):
    kind, message = expected if isinstance(expected, tuple) else (ParseError, expected)
    with pytest.raises(Exception) as info:
        read(data)
    assert (type(info.value), str(info.value)) == (kind, message)


class TestParseErrorsArePinned:
    @pytest.mark.parametrize("data, expected", _params(_MESH_ERRORS))
    def test_mesh(self, data, expected):
        _assert_raises_pinned(ffio.mesh_from_dict, data, expected)

    @pytest.mark.parametrize("data, expected", _params(_FIELD_ERRORS))
    def test_field(self, data, expected):
        mesh = ffio.mesh_from_dict(_mesh())
        _assert_raises_pinned(lambda d: ffio.field_from_dict(mesh, d), data, expected)

    def test_field_of_another_kind(self):
        mesh = ffio.mesh_from_dict(_mesh())
        _assert_raises_pinned(lambda d: ffio.field_from_dict(mesh, d, expect="edges"),
                              {"scalar": [0.0, 0.0, 0.0]}, "expected a edges field, found scalar")

    @pytest.mark.parametrize("data, expected", _params(_MOLECULE_ERRORS))
    def test_molecule(self, data, expected):
        _assert_raises_pinned(ffio.molecule_from_dict, data, expected)


class TestCli:
    def test_defaults_and_choices_come_from_the_library(self):
        parser = cli._build_parser()
        (commands,) = [a.choices for a in parser._actions
                       if isinstance(a, argparse._SubParsersAction)]

        def choices(command, dest):
            (found,) = [a.choices for a in commands[command]._actions if a.dest == dest]
            return found

        args = parser.parse_args(["free-norm", "--mesh", "m", "--molecule", "mu"])
        assert args.method == inspect.signature(freenorm.free_norm).parameters["method"].default
        assert choices("free-norm", "method") == freenorm.METHODS
        assert args.field_max_iter == freenorm.FieldSolveParams.max_iter
        assert args.field_tol == freenorm.FieldSolveParams.tol
        args = parser.parse_args(["check-currents", "--mesh", "m", "--form", "w"])
        # the library's own default, not a copy of its value
        assert args.tol is inspect.signature(classify).parameters["tol"].default
        assert choices("experiment", "kind") == tuple(experiments.EXPERIMENTS)
        assert choices("gen-mesh", "kind") == KINDS
        # gen-mesh's flags are the builders' parameters, and no others
        flags = {a.dest for a in commands["gen-mesh"]._actions} - {"help", "kind", "out"}
        assert flags == {name for build in primitives._BUILDERS.values()
                         for name in inspect.signature(build).parameters}

    @pytest.mark.parametrize("kind", list(experiments.EXPERIMENTS))
    def test_experiment_config_keys_are_the_functions_parameters(self, monkeypatch,
                                                                 kind):
        # as gen-mesh's flags are the builders' parameters: a config takes
        # kind, seed and the keyword settings of the kind's function, and
        # the generator the function takes first is no config key
        run = experiments.EXPERIMENTS[kind]
        rng, *rest = inspect.signature(run).parameters.values()
        assert rng.kind is rng.POSITIONAL_ONLY
        assert all(p.kind is p.KEYWORD_ONLY for p in rest)
        settings = {p.name: p.name for p in rest}
        calls = []
        monkeypatch.setitem(experiments.EXPERIMENTS, kind, functools.wraps(run)(
            lambda rng, /, **given: calls.append(given) or experiments.ExperimentReport(kind)
        ))
        config = {"kind": kind, "seed": 7, **settings}
        assert cli.run_experiment(kind, config).kind == kind
        assert calls == [settings]
        for extra in ("bogus", rng.name):
            with pytest.raises(ParseError):
                cli.run_experiment(kind, {**config, extra: 1})
        assert len(calls) == 1

    def test_import_leaves_out_scipy_optimize(self):
        # scipy.optimize alone adds about 15 MB of resident memory, a large
        # share of a small solve's peak
        src = str(Path(freeflow.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        code = "import sys, freeflow, freeflow.cli; print('scipy.optimize' in sys.modules)"
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, check=True)
        assert result.stdout.strip() == "False"

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

    def test_field_report_is_byte_identical_across_processes(self, tmp_path):
        # icosphere L4's band (kd = 82) is wide enough for LAPACK's blocked,
        # threaded factorization; two fresh processes must write the same bytes
        mesh_path = tmp_path / "m.json"
        main(["gen-mesh", "--kind", "icosphere", "--level", "4", "--out", str(mesh_path)])
        mu_path = tmp_path / "mu.json"
        mu_path.write_text(json.dumps({"atoms": [[7, 1.0], [1900, -2.0], [2400, 0.5]]}))
        src = str(Path(freeflow.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        reports = [tmp_path / "r1.json", tmp_path / "r2.json"]
        for out in reports:
            argv = ["free-norm", "--mesh", str(mesh_path), "--molecule", str(mu_path),
                    "--method", "field", "--out", str(out)]
            code = f"import sys; from freeflow.cli import main; sys.exit(main({argv!r}))"
            subprocess.run([sys.executable, "-c", code], env=env, check=True)
        assert reports[0].read_bytes() == reports[1].read_bytes()
        assert json.loads(reports[0].read_text())["diagnostics"]["field"]["certified"]

    def test_field_bytes_do_not_depend_on_the_blas_thread_count(self):
        # icosphere L5 (kd = 161): with the banded factor on the host's
        # OpenBLAS threads, this 6-atom solve read 4.786401762616393 at 2
        # threads and 4.786401762591899 at 1, in 24 steps each (from the
        # start before the least-norm field); the factor runs on one
        # thread, so the two processes must print the same bytes
        code = (
            "import hashlib; import numpy as np; import freeflow as ff\n"
            "mesh = ff.generate_primitive('icosphere', level=5)\n"
            "rng = np.random.default_rng(3)\n"
            "vertices = rng.choice(mesh.vertex_count, 6, replace=False).tolist()\n"
            "coeffs = rng.standard_normal(6)\n"
            "coeffs -= coeffs.mean()\n"
            "value, g, diag = ff.beckmann_field(mesh, ff.Molecule(tuple(zip(vertices, coeffs))))\n"
            "print(hashlib.sha256(g.tobytes()).hexdigest(), repr(value), diag['iterations'])\n"
        )
        src = str(Path(freeflow.__file__).resolve().parents[1])
        runs = [
            subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True,
                             env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads})
            for threads in ("1", "2")
        ]
        outputs = [run.communicate(timeout=300)[0] for run in runs]
        assert [run.returncode for run in runs] == [0, 0]
        assert outputs[0] == outputs[1]
        assert outputs[0].split()[2] == "21"

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

    def test_field_route_on_a_pendant_edge_error_envelope(self, tmp_path, capsys):
        # splu's "Factor is exactly singular" used to escape as a traceback
        mesh_path = tmp_path / "m.json"
        mesh_path.write_text(json.dumps({
            "triangles": [[0, 1, 2]],
            "edges": [[0, 1, 1.0], [1, 2, 1.0], [2, 0, 1.0], [2, 3, 1.0]],
        }))
        mu_path = tmp_path / "mu.json"
        mu_path.write_text(json.dumps({"atoms": [[3, 1.0]]}))
        capsys.readouterr()
        code = main(["free-norm", "--mesh", str(mesh_path), "--molecule",
                     str(mu_path), "--method", "all"])
        assert code == 1
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["error"]["type"] == "MeshError"
        assert "needs every vertex on a face" in envelope["error"]["message"]

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

    # each kind with int and float sizes; the sha256 of the written file
    @pytest.mark.parametrize(
        "kind, flags, digest",
        [
            ("flat_rect", ["--width", "2", "--height", "0.5", "--nx", "3", "--ny", "2"],
             "04b4701f58846048be7a7f663de072ffdad9484b4d7468276ecbdc743585006b"),
            ("icosphere", ["--level", "1"],
             "d4f3fb53badcd3556fdd047e8165e2248f5312d5339087332255ad3f619f2c0c"),
            ("annulus", ["--r-inner", "0.25", "--r-outer", "1", "--n-angular", "6",
                         "--n-radial", "2"],
             "e774c42084c7362537edcf5b07f91c7a96453994551033d8a1e97c7c57db8a84"),
            ("torus", ["--width", "2", "--height", "1.5", "--nx", "3", "--ny", "4"],
             "2f67c80f89ff45614fbc3e7c21d2a2ef77d170b341aad0b55759a2cf84ce661a"),
            ("poincare_disk_patch", ["--radius", "0.7", "--n-angular", "5",
                                     "--n-radial", "2"],
             "b69af464936ef4209a56aa7d3e33b1ddd35e501c680613af948c7053ae6210e9"),
            ("circle_graph", ["--n", "5", "--total-length", "3"],
             "a6fb39d31a655e61e55dbac755ab01310f1546548cb1dd0473ef5cfdac66ece8"),
            ("interval_graph", ["--n", "3", "--total-length", "1.5", "--base-vertex", "1"],
             "a1d458f00aa4f5030935d4afd4be79bc69325dc52a9a3ba4efec3dab8e920aa0"),
        ],
        ids=KINDS,
    )
    def test_gen_mesh_bytes_are_pinned(self, tmp_path, kind, flags, digest):
        out = tmp_path / "mesh.json"
        assert main(["gen-mesh", "--kind", kind, *flags, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "argv",
        [
            ["free-norm", "--mesh", "m", "--molecule", "mu", "--field-max-iter", "x"],
            ["bogus"],
            ["free-norm", "--mesh", "m"],
            ["free-norm", "--mesh", "m", "--molecule", "mu", "--method", "bogus"],
        ],
        ids=["bad_type", "unknown_command", "missing_flag", "bad_choice"],
    )
    def test_malformed_command_line_exits_one(self, argv, capsys):
        # exit 2 means a failed criterion, so a usage error may not take it
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out)["error"]["type"] == "ParseError"
        assert captured.err == ""

    def test_gen_mesh_size_is_checked_by_its_builder(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert main(["gen-mesh", "--kind", "flat_rect", "--nx", "2.5", "--out", str(out)]) == 1
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["error"] == {"type": "InvalidParams",
                                     "message": "nx is not an integer: 2.5"}
        assert not out.exists()

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["gen-mesh", "--help"])
        assert info.value.code == 0
        assert "--total-length" in capsys.readouterr().out

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

    def test_cached_parser_keeps_each_calls_tolerance(self, tmp_path, capsys, annulus):
        # main reuses one parser per process; each call parses afresh
        assert cli._build_parser() is cli._build_parser()
        mesh_path = tmp_path / "ann.json"
        ffio.write_json(mesh_path, ffio.mesh_to_dict(annulus))
        form_path = tmp_path / "omega.json"
        ffio.write_json(form_path, ffio.edge_values_to_dict(annulus, annulus_generator(annulus)))
        default = inspect.signature(classify).parameters["tol"].default
        for tol in ("1e-6", "0.5", None):
            argv = ["check-currents", "--mesh", str(mesh_path), "--form", str(form_path)]
            assert main(argv + (["--tol", tol] if tol else [])) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["tol"] == (float(tol) if tol else default)

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

    @pytest.mark.parametrize("fixture", ["flat4", "interval10"])
    def test_calc_norms_of_a_vector_field(self, tmp_path, capsys, request, fixture):
        # a face field on a surface, an edge field on a metric graph
        mesh = request.getfixturevalue(fixture)
        mesh_path, field_path = tmp_path / "m.json", tmp_path / "g.json"
        ffio.write_json(mesh_path, ffio.mesh_to_dict(mesh))
        g = np.random.default_rng(21).standard_normal(mesh.field_shape)
        ffio.write_json(field_path, ffio.face_field_to_dict(mesh, g) if mesh.dimension == 2
                        else ffio.edge_values_to_dict(mesh, g))
        assert main(["calc", "norms", "--mesh", str(mesh_path), "--field",
                     str(field_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"l1_norm": l1_norm(mesh, g), "linf_norm": linf_norm(mesh, g)}

    def test_calc_grad_on_a_metric_graph(self, tmp_path, capsys, interval10):
        # the per-edge slopes, written as an edge field
        mesh_path, field_path = tmp_path / "m.json", tmp_path / "f.json"
        ffio.write_json(mesh_path, ffio.mesh_to_dict(interval10))
        f = np.random.default_rng(22).standard_normal(interval10.vertex_count)
        ffio.write_json(field_path, ffio.scalar_field_to_dict(interval10, f))
        assert main(["calc", "grad", "--mesh", str(mesh_path), "--field",
                     str(field_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == ffio.edge_values_to_dict(interval10, gradient(interval10, f))

    @pytest.mark.parametrize("op, field, message", [
        ("grad", lambda m: ffio.face_field_to_dict(m, np.zeros(m.field_shape)),
         "grad needs a scalar field"),
        ("div", lambda m: ffio.scalar_field_to_dict(m, np.zeros(m.vertex_count)),
         "div needs a vector field"),
    ], ids=["grad", "div"])
    def test_calc_rejects_a_field_of_the_wrong_kind(self, tmp_path, capsys, flat4, op,
                                                    field, message):
        mesh_path, field_path = tmp_path / "m.json", tmp_path / "f.json"
        ffio.write_json(mesh_path, ffio.mesh_to_dict(flat4))
        ffio.write_json(field_path, field(flat4))
        assert main(["calc", op, "--mesh", str(mesh_path), "--field", str(field_path)]) == 1
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["error"]["type"] == "ParseError"
        assert envelope["error"]["message"] == message

    def test_experiment_config_of_another_kind_rejected(self, tmp_path, capsys):
        config = tmp_path / "exp.json"
        config.write_text(json.dumps({"kind": "extension"}))
        assert main(["experiment", "cutoff", "--config", str(config)]) == 1
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["error"]["type"] == "ParseError"
        assert envelope["error"]["message"] == "config kind 'extension' does not match 'cutoff'"

    def test_experiment_extension_passes(self, tmp_path):
        config = tmp_path / "exp.json"
        config.write_text(json.dumps({"kind": "extension", "nx": 16, "seed": 42}))
        out = tmp_path / "report.json"
        code = main(["experiment", "extension", "--config", str(config),
                     "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True

    def test_experiment_extension_on_a_disconnected_ring(self, tmp_path, capsys):
        # r 0.6 to 0.7 about the centre of the unit square leaves four
        # corner pieces, which are no connected subset
        config = tmp_path / "exp.json"
        config.write_text(json.dumps({"kind": "extension", "r_inner": 0.6,
                                      "r_outer": 0.7}))
        code = main(["experiment", "extension", "--config", str(config)])
        assert code == 1
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["error"]["type"] == "Disconnected"

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
        search = experiments.geodesic_distances
        monkeypatch.setattr(
            experiments, "geodesic_distances",
            lambda mesh, source: calls.append(source) or search(mesh, source),
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

    def test_experiment_refine_on_icosphere(self, tmp_path):
        # 3-D targets used to be a ParseError on the command line
        config = tmp_path / "exp.json"
        config.write_text(json.dumps({
            "kind": "refine", "primitive": "icosphere", "levels": [1, 2],
            "atoms": [[[0.0, 0.0, 1.0], 1.0], [[0.0, 0.0, -1.0], -1.0]],
        }))
        out = tmp_path / "report.json"
        assert main(["experiment", "refine", "--config", str(config),
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True
        assert report["rows"][-1]["dual"] == pytest.approx(np.pi, rel=0.05)

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

    def test_config_number_beyond_float_range_is_a_parse_error(self, tmp_path,
                                                                capsys):
        # was an OverflowError traceback
        path = tmp_path / "exp.json"
        path.write_text(f'{{"kind": "cutoff", "decay": {BIG}}}')
        assert main(["experiment", "cutoff", "--config", str(path)]) == 1
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
            # a 2-D target on the sphere escaped as a broadcast ValueError
            ("refine", {"primitive": "icosphere", "levels": [1],
                        "atoms": [[[0.5, 0.5], 1.0]]}),
            ("refine", {"primitive": "flat_rect", "levels": [4],
                        "atoms": [[[0.5, 0.5, 0.0], 1.0]]}),
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

    @pytest.mark.parametrize(
        "config",
        [{"kind": kind} for kind in ("cutoff", "extension", "weakstar")]
        + _readme_experiment_configs(),
        ids=lambda config: "readme_" + config["kind"] if len(config) > 1 else config["kind"],
    )
    def test_experiment_report_bytes_are_pinned(self, tmp_path, config):
        path, out = tmp_path / "exp.json", tmp_path / "report.json"
        path.write_text(json.dumps(config))
        assert main(["experiment", config["kind"], "--config", str(path),
                     "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == _REPORT_DIGESTS[config["kind"]]

    def test_readme_gives_one_example_config_per_kind(self):
        kinds = [config["kind"] for config in _readme_experiment_configs()]
        assert kinds == ["cutoff", "extension", "weakstar", "refine"]

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

    def test_a_shared_mesh_is_hashed_once(self, tmp_path, monkeypatch):
        # a free-norm and a validate-mesh entry on one mesh path each used
        # to hash the one parsed mesh
        mesh_path = tmp_path / "m.json"
        main(["gen-mesh", "--kind", "flat_rect", "--nx", "3", "--out",
              str(mesh_path)])
        mu_path = tmp_path / "mu.json"
        mu_path.write_text(json.dumps({"atoms": [[5, 1.0]]}))
        direct, batched = tmp_path / "direct.json", tmp_path / "batched.json"
        assert main(["free-norm", "--mesh", str(mesh_path), "--molecule",
                     str(mu_path), "--method", "dual", "--out", str(direct)]) == 0
        hashed = []
        mesh_hash = ffio.mesh_hash
        monkeypatch.setattr(ffio, "mesh_hash",
                            lambda mesh: hashed.append(1) or mesh_hash(mesh))
        manifest = tmp_path / "batch.json"
        manifest.write_text(json.dumps({"entries": [
            {"command": "free-norm", "mesh": str(mesh_path),
             "molecule": str(mu_path), "method": "dual", "out": str(batched)},
            {"command": "validate-mesh", "mesh": str(mesh_path)},
        ]}))
        out = tmp_path / "summary.csv"
        assert main(["batch", str(manifest), "--out", str(out)]) == 0
        assert len(hashed) == 1
        assert batched.read_bytes() == direct.read_bytes()
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert [row["detail"] for row in rows][1:] == ["vertices=16"]

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

    def test_experiment_entries_pass_or_fail_by_their_criterion(self, tmp_path):
        # reversed scales make the cutoff's measured column increase, which
        # fails its criterion; each entry writes the report `experiment` writes
        entries, direct = [], []
        for name, config in [("pass", {"kind": "cutoff"}),
                             ("fail", {"kind": "cutoff", "ks": [8, 4, 2, 1]})]:
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(config))
            direct.append(tmp_path / f"{name}_direct.json")
            main(["experiment", "cutoff", "--config", str(path), "--out", str(direct[-1])])
            entries.append({"command": "experiment", "experiment": "cutoff",
                            "config": config, "out": str(tmp_path / f"{name}_batch.json")})
        manifest = tmp_path / "batch.json"
        manifest.write_text(json.dumps({"entries": entries}))
        out = tmp_path / "summary.csv"
        assert main(["batch", str(manifest), "--out", str(out)]) == 2
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert [(row["status"], row["detail"]) for row in rows] == [
            ("pass", "kind=cutoff"), ("fail", "kind=cutoff")]
        for entry, report in zip(entries, direct):
            assert Path(entry["out"]).read_bytes() == report.read_bytes()

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
