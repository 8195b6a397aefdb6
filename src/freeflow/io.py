"""JSON schemas for meshes, fields, molecules and reports.

All writers emit a fixed key order and repr-exact floats, so identical
inputs produce byte-identical files. Field files are keyed to their mesh
by a content hash over the canonical mesh JSON.
"""

from __future__ import annotations

import hashlib
import json
from itertools import chain

import numpy as np

from .errors import ParseError
from .freenorm import Molecule
from .mesh import TriMesh


def mesh_to_dict(mesh):
    return {
        "dimension": mesh.dimension,
        "triangles": mesh.triangles.tolist(),
        "edges": [
            [u, v, l]
            for (u, v), l in zip(mesh.edges.tolist(), mesh.edge_lengths.tolist())
        ],
        "base_vertex": mesh.base_vertex,
    }


def _vertex(x):
    """A vertex id given as a JSON integer; floats and booleans are not ids."""
    if type(x) is not int:
        raise ParseError(f"vertex id {x!r} is not an integer")
    return x


def _number(x):
    """A JSON number; strings and booleans are not numbers."""
    if type(x) not in (int, float):
        raise ParseError(f"value {x!r} is not a number")
    return float(x)


def mesh_from_dict(data):
    try:
        triangles = data.get("triangles", [])
        if any(type(t) is not list or len(t) != 3 for t in triangles):
            raise ParseError("every triangle must be a list of three vertex ids")
        if set(map(type, chain.from_iterable(triangles))) - {int}:
            raise ParseError("triangle vertex ids must be integers")
        edges = [(_vertex(u), _vertex(v)) for u, v, _ in data["edges"]]
        lengths = [_number(l) for _, _, l in data["edges"]]
        base = _vertex(data.get("base_vertex", 0))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"bad mesh JSON: {exc}") from exc
    mesh = TriMesh(triangles, edges, lengths, base_vertex=base)
    declared = data.get("dimension")
    if declared is not None and int(declared) != mesh.dimension:
        raise ParseError(
            f"declared dimension {declared} does not match content {mesh.dimension}"
        )
    return mesh


def mesh_hash(mesh):
    """Content hash of the canonical mesh JSON."""
    payload = json.dumps(mesh_to_dict(mesh), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def scalar_field_to_dict(mesh, f):
    return {"mesh_hash": mesh_hash(mesh), "scalar": [float(x) for x in f]}


def face_field_to_dict(mesh, g):
    return {
        "mesh_hash": mesh_hash(mesh),
        "faces": [[float(a), float(b)] for a, b in np.asarray(g)],
    }


def edge_values_to_dict(mesh, values):
    return {"mesh_hash": mesh_hash(mesh), "edges": [float(x) for x in values]}


def field_from_dict(mesh, data, expect=None):
    """Load a field keyed by mesh hash; ``expect`` restricts the kind."""
    stored = data.get("mesh_hash")
    if stored is not None and stored != mesh_hash(mesh):
        raise ParseError("field file does not match the mesh (content hash)")
    kinds = [k for k in ("scalar", "faces", "edges") if k in data]
    if len(kinds) != 1:
        raise ParseError(f"field JSON must have exactly one of scalar/faces/edges")
    kind = kinds[0]
    if expect is not None and kind != expect:
        raise ParseError(f"expected a {expect} field, found {kind}")
    try:
        if kind == "faces":
            return kind, np.array([[_number(a), _number(b)] for a, b in data["faces"]])
        return kind, np.array([_number(x) for x in data[kind]])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"bad field JSON: {exc}") from exc


def molecule_to_dict(molecule):
    return {"atoms": [[int(v), float(c)] for v, c in molecule.atoms]}


def molecule_from_dict(data):
    try:
        return Molecule(tuple((_vertex(v), _number(c)) for v, c in data["atoms"]))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"bad molecule JSON: {exc}") from exc


def write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, ensure_ascii=False)
        fh.write("\n")


def read_json(path):
    """Load a JSON input file; every input schema is a JSON object."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (json.JSONDecodeError, OSError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"{path}: expected a JSON object, found {type(data).__name__}")
    return data
