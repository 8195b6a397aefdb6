"""JSON schemas for meshes, fields, molecules and reports.

All payload builders emit a fixed key order and repr-exact floats, so
identical inputs produce byte-identical files. Every JSON file is written
by :func:`write_json`, whose bytes are exactly those of
``json.dumps(obj, indent=2, ensure_ascii=False)`` and a newline: lists
of plain ints and finite floats, flat or in equal-width rows, are laid
out here as ``repr`` tokens joined with json's separators and written in
blocks of a few thousand, and json encodes everything else. Field files
are keyed to their mesh by a content hash over the canonical mesh JSON.
"""

from __future__ import annotations

import hashlib
import json
import math
from functools import partial
from itertools import chain, islice

import numpy as np

from .errors import ParseError
from .freenorm import Molecule
from .mesh import TriMesh


def mesh_to_dict(mesh):
    return {
        "dimension": mesh.dimension,
        "triangles": mesh.triangles.tolist(),
        "edges": list(map(list, zip(*mesh.edges.T.tolist(), mesh.edge_lengths.tolist()))),
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


def _floats(values):
    """``values`` as (nested) lists of Python floats."""
    return np.asarray(values, dtype=np.float64).tolist()


# Each field builder and ``field_from_dict`` take the mesh's hash as
# ``digest`` when the caller has it, and compute it otherwise.


def scalar_field_to_dict(mesh, f, digest=None):
    return {"mesh_hash": digest or mesh_hash(mesh), "scalar": _floats(f)}


def face_field_to_dict(mesh, g, digest=None):
    return {"mesh_hash": digest or mesh_hash(mesh), "faces": _floats(g)}


def edge_values_to_dict(mesh, values, digest=None):
    return {"mesh_hash": digest or mesh_hash(mesh), "edges": _floats(values)}


def field_from_dict(mesh, data, expect=None, digest=None):
    """Load a field keyed by mesh hash; ``expect`` restricts the kind."""
    stored = data.get("mesh_hash")
    if stored is not None and stored != (digest or mesh_hash(mesh)):
        raise ParseError("field file does not match the mesh (content hash)")
    kinds = [k for k in ("scalar", "faces", "edges") if k in data]
    if len(kinds) != 1:
        raise ParseError(f"field JSON must have exactly one of scalar/faces/edges")
    kind = kinds[0]
    if expect is not None and kind != expect:
        raise ParseError(f"expected a field of kind {expect!r}, found {kind!r}")
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
        # cast here, so a coefficient beyond the float range is this
        # reader's OverflowError rather than Molecule's MeshError
        return Molecule(tuple((v, float(c)) for v, c in atoms))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"bad molecule JSON: {exc}") from exc


# Numbers or rows per joined block that ``write_json`` hands on: a few
# thousand, so a large array is never held as one string.
_BLOCK = 2048


def _plain_numbers(entries):
    """Whether every entry is a plain int or a finite float: the values
    whose json text is their ``repr``. ``entries`` makes an iterator."""
    kinds = set(map(type, entries()))
    if kinds - {int, float}:
        return False
    try:
        return float not in kinds or all(map(math.isfinite, entries()))
    except OverflowError:  # an int beyond the float range, beside floats
        return False


def _number_rows(values):
    """Whether ``values`` holds equal-width, non-empty rows of plain
    numbers; a flat list of them is checked by ``_plain_numbers``."""
    if set(map(type, values)) - {list, tuple}:
        return False
    widths = set(map(len, values))
    return (len(widths) == 1 and 0 not in widths
            and _plain_numbers(lambda: chain.from_iterable(values)))


def _number_text(values, rows, nl):
    """The indent-2 json text at the indent ``nl`` of a non-empty list of
    plain numbers, or of rows of them: their ``repr`` tokens joined with
    json's separators, in blocks of ``_BLOCK`` numbers or rows."""
    inner = nl + "  "
    if rows:
        cell = inner + "  "
        items = map(("," + cell).join, map(partial(map, repr), values))
        head, tail = "[" + inner + "[" + cell, inner + "]" + nl + "]"
        sep = inner + "]," + inner + "[" + cell
    else:
        items = map(repr, values)
        head, sep, tail = "[" + inner, "," + inner, nl + "]"
    yield head + sep.join(islice(items, _BLOCK))
    for block in iter(lambda: sep.join(islice(items, _BLOCK)), ""):
        yield sep + block
    yield tail


def _json_text(value, nl):
    """``json.dumps(value, indent=2, ensure_ascii=False)`` at the indent
    ``nl`` (a newline and the value's indent), in pieces. Only the layout
    of plain numbers is written here; json encodes everything else."""
    inner = nl + "  "
    if isinstance(value, dict) and value and not set(map(type, value)) - {str}:
        sep = "{" + inner
        for key, item in value.items():
            yield sep + json.dumps(key, ensure_ascii=False) + ": "
            yield from _json_text(item, inner)
            sep = "," + inner
        yield nl + "}"
    elif isinstance(value, (list, tuple)) and value:
        rows = not _plain_numbers(lambda: value)
        if not rows or _number_rows(value):
            yield from _number_text(value, rows, nl)
        else:
            sep = "[" + inner
            for item in value:
                yield sep
                yield from _json_text(item, inner)
                sep = "," + inner
            yield nl + "]"
    else:
        yield json.dumps(value, indent=2, ensure_ascii=False).replace("\n", nl)


def write_json(path, obj):
    """Write ``json.dumps(obj, indent=2, ensure_ascii=False)`` and a
    newline to ``path``, in pieces."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_json_text(obj, "\n"))
        fh.write("\n")


def read_json(path):
    """Load a JSON input file; every input schema is a JSON object. A file
    that cannot be read or decoded is a ``ParseError`` naming the path:
    bad JSON, bytes that are not UTF-8 (both ``ValueError``), nesting past
    the recursion limit, or an integer past Python's digit limit."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"{path}: expected a JSON object, found {type(data).__name__}")
    return data
