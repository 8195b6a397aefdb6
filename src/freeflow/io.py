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


# Each reader checks a whole JSON array at C speed: the set of its entries'
# types, and of its rows' types and widths. Only when a check fails does it
# walk the array in reading order, so the error names the first bad entry.


def _entries(rows, width):
    """The entries of ``rows`` in reading order, or None unless ``rows`` is
    a list of lists of ``width`` entries each."""
    if set(map(type, rows)) - {list} or set(map(len, rows)) - {width}:
        return None
    return list(chain.from_iterable(rows))


def _numbers(values):
    """A float64 array of JSON numbers."""
    if set(map(type, values)) - {int, float}:
        for x in values:
            _number(x)
    return np.array(values, dtype=np.float64)


def mesh_from_dict(data):
    try:
        triangles = _entries(data.get("triangles", []), 3)
        if triangles is None:
            raise ParseError("every triangle must be a list of three vertex ids")
        if set(map(type, triangles)) - {int}:
            raise ParseError("triangle vertex ids must be integers")
        rows = data["edges"]
        edges = _entries(rows, 3)
        if edges is None or set(map(type, chain(edges[0::3], edges[1::3]))) - {int}:
            for a, b, _ in rows:
                _vertex(a), _vertex(b)
        lengths = _numbers(edges[2::3])
        del edges[2::3]
        base = _vertex(data.get("base_vertex", 0))
        # after every entry check, so an id beyond int64 hides no other error
        triangles = np.array(triangles, dtype=np.int64)
        edges = np.array(edges, dtype=np.int64)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"bad mesh JSON: {exc}") from exc
    mesh = TriMesh(triangles, edges, lengths, base_vertex=base)
    declared = data.get("dimension")
    if declared is not None and type(declared) is not int:
        raise ParseError(f"dimension {declared!r} is not an integer")
    if declared is not None and declared != mesh.dimension:
        raise ParseError(
            f"declared dimension {declared} does not match content {mesh.dimension}"
        )
    return mesh


def _rows_text(rows):
    """The JSON text of a list of rows, each given as its joined entries."""
    return "[[" + "],[".join(rows) + "]]" if rows else "[]"


def _canonical_json(mesh):
    """The text of ``json.dumps(mesh_to_dict(mesh), sort_keys=True,
    separators=(",", ":"))``, built from the arrays: one string per vertex
    id and one ``float.__repr__`` per distinct length."""
    ids = list(map(str, range(mesh.vertex_count)))
    distinct, which = np.unique(mesh.edge_lengths, return_inverse=True)
    lengths = list(map(repr, distinct.tolist()))
    u, v = (map(ids.__getitem__, c) for c in mesh.edges.T.tolist())
    edges = list(map(",".join, zip(u, v, map(lengths.__getitem__, which.tolist()))))
    corners = (map(ids.__getitem__, c) for c in mesh.triangles.T.tolist())
    triangles = list(map(",".join, zip(*corners)))
    return (
        f'{{"base_vertex":{mesh.base_vertex},"dimension":{mesh.dimension},'
        f'"edges":{_rows_text(edges)},"triangles":{_rows_text(triangles)}}}'
    )


def mesh_hash(mesh):
    """sha256 of the compact, key-sorted JSON of ``mesh_to_dict(mesh)``."""
    return hashlib.sha256(_canonical_json(mesh).encode()).hexdigest()


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
        values = data[kind]
        if kind != "faces":
            return kind, _numbers(values)
        entries = _entries(values, 2)
        if entries is None or set(map(type, entries)) - {int, float}:
            for a, b in values:
                _number(a), _number(b)
        return kind, np.array(values, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"bad field JSON: {exc}") from exc


def molecule_to_dict(molecule):
    return {"atoms": [[int(v), float(c)] for v, c in molecule.atoms]}


def molecule_from_dict(data):
    try:
        atoms = data["atoms"]
        entries = _entries(atoms, 2)
        if (entries is None or set(map(type, entries[0::2])) - {int}
                or set(map(type, entries[1::2])) - {int, float}):
            for v, c in atoms:
                _vertex(v), _number(c)
        # after every entry check, as for mesh ids, so that an id beyond
        # int64 is a parse error here rather than Molecule's MeshError
        np.array([v for v, _ in atoms], dtype=np.int64)
        return Molecule(atoms)
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
