"""Mesh generators for the test geometries.

All primitives produce intrinsic meshes: the generators use coordinates
only to derive edge lengths (and stash them in ``mesh.aux`` for
experiments that need to snap target points to vertices).
"""

from __future__ import annotations

import inspect
import math

import numpy as np

from .errors import InvalidParams, check_integer, check_real
from .mesh import TriMesh


def generate_primitive(kind, base_vertex=0, **params):
    """Build one of the named primitive meshes.

    flat_rect(width, height, nx, ny) -- axis-aligned grid of right
        triangles; also serves as the flat strip family (width >> height).
    icosphere(level) -- subdivided icosahedron with chordal edge lengths,
        a metric approximation of the round sphere.
    annulus(r_inner, r_outer, n_angular, n_radial) -- planar ring.
    torus(width, height, nx, ny) -- flat translation-invariant torus.
    poincare_disk_patch(radius, n_angular, n_radial) -- disk in the
        Poincare model with hyperbolic edge lengths.
    circle_graph(n, total_length) / interval_graph(n, total_length) --
        dimension-1 metric graphs.
    """
    if kind not in KINDS:  # also an unhashable kind from a JSON config
        raise InvalidParams(f"unknown primitive kind {kind!r}")
    builder = _BUILDERS[kind]
    try:
        inspect.signature(builder).bind(base_vertex=base_vertex, **params)
    except TypeError as exc:
        raise InvalidParams(f"{kind}: {exc}") from None
    return builder(base_vertex=base_vertex, **params)


def _cells(v00, v10, v01, v11):
    """Two triangles (v00, v10, v11), (v00, v11, v01) per grid cell."""
    corners = [np.ravel(v) for v in (v00, v10, v11, v00, v11, v01)]
    return np.stack(corners, axis=1).reshape(-1, 3)


def _face_edge_pairs(triangles):
    """The (3F, 2) vertex pairs v0v1, v1v2, v2v0 of every face in turn."""
    return np.stack([triangles, np.roll(triangles, -1, axis=1)], axis=2).reshape(-1, 2)


def _grid_mesh(width, height, nx, ny, wrap, base_vertex):
    """nx by ny grid cells (ny = nx if None), at least 3 each way if ``wrap``, else 1."""
    width = float(check_real("width", width, positive=True, error=InvalidParams))
    height = float(check_real("height", height, positive=True, error=InvalidParams))
    least = 3 if wrap else 1
    nx = check_integer("nx", nx, minimum=least, error=InvalidParams)
    ny = nx if ny is None else check_integer("ny", ny, minimum=least, error=InvalidParams)
    dx, dy = width / nx, height / ny
    diag = math.hypot(dx, dy)
    ni, nj = (nx, ny) if wrap else (nx + 1, ny + 1)  # vertices per row and column
    vid = lambda i, j: (j % nj) * ni + (i % ni)
    i, j = np.meshgrid(np.arange(nx), np.arange(ny))
    triangles = _cells(vid(i, j), vid(i + 1, j), vid(i, j + 1), vid(i + 1, j + 1))
    # the face edges of each cell: dx, dy, diagonal, then diagonal, dx, dy
    lengths = np.tile([dx, dy, diag, diag, dx, dy], nx * ny)
    mesh = TriMesh(triangles, _face_edge_pairs(triangles), lengths, base_vertex)
    i, j = np.meshgrid(np.arange(ni), np.arange(nj))
    mesh.aux["positions"] = np.column_stack([i.ravel() * dx, j.ravel() * dy])
    mesh.aux["spacing"] = (dx, dy)
    return mesh


def _flat_rect(width=1.0, height=1.0, nx=2, ny=None, base_vertex=0):
    return _grid_mesh(width, height, nx, ny, False, base_vertex)


def _torus(width=1.0, height=1.0, nx=8, ny=None, base_vertex=0):
    return _grid_mesh(width, height, nx, ny, True, base_vertex)


_ICOSA_FACES = (
    (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
    (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
    (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
    (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
)


def _icosphere(level=0, base_vertex=0):
    level = check_integer("level", level, minimum=0, error=InvalidParams)
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    pos = np.array([
        (-1, phi, 0), (1, phi, 0), (-1, -phi, 0), (1, -phi, 0),
        (0, -1, phi), (0, 1, phi), (0, -1, -phi), (0, 1, -phi),
        (phi, 0, -1), (phi, 0, 1), (-phi, 0, -1), (-phi, 0, 1),
    ])
    pos = pos / np.sqrt(_squares(pos))[:, None]
    faces = np.array(_ICOSA_FACES)

    for _ in range(level):
        # each face's edges ab, bc, ca in turn; an edge's midpoint is
        # numbered in the order the edges first appear
        pairs = _face_edge_pairs(faces)
        keys = np.sort(pairs, axis=1) @ np.array([len(pos), 1])
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        rank = np.empty_like(first)
        rank[np.argsort(first)] = np.arange(len(first))
        ab, bc, ca = (len(pos) + rank[inverse]).reshape(-1, 3).T
        ends = pairs[np.sort(first)]
        p = pos[ends[:, 0]] + pos[ends[:, 1]]
        pos = np.concatenate([pos, p / np.sqrt(_squares(p))[:, None]])
        a, b, c = faces.T
        faces = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca], axis=1).reshape(-1, 3)

    return _metric_mesh(faces, pos, _euclidean, base_vertex)


def _squares(x):
    """Row-wise x . x, bitwise np.dot per row (norm(axis=1) and einsum are not)."""
    return np.matmul(x[:, None, :], x[:, :, None]).ravel()


def _euclidean(p, q):
    return np.sqrt(_squares(p - q))


def _metric_mesh(triangles, pos, metric, base_vertex):
    """The mesh whose face edges have lengths ``metric(pos[u], pos[v])``."""
    edges = _face_edge_pairs(np.asarray(triangles))
    lengths = metric(pos[edges[:, 0]], pos[edges[:, 1]])
    mesh = TriMesh(triangles, edges, lengths, base_vertex)
    mesh.aux["positions"] = pos
    return mesh


def _polar_mesh(radii, n_angular, metric, base_vertex=0, center=False):
    """Rings x spokes grid; ``metric(p, q)`` gives the edge lengths."""
    thetas = [2.0 * math.pi * j / n_angular for j in range(n_angular)]
    positions = [(0.0, 0.0)] * center
    for r in radii:
        positions += [(r * math.cos(t), r * math.sin(t)) for t in thetas]
    vid = lambda ring, j: center + ring * n_angular + (j % n_angular)

    j, ring = np.meshgrid(np.arange(n_angular), np.arange(len(radii) - 1))
    triangles = _cells(vid(ring, j), vid(ring, j + 1), vid(ring + 1, j),
                       vid(ring + 1, j + 1))
    if center:
        j = np.arange(n_angular)
        fan = np.column_stack([np.zeros_like(j), vid(0, j), vid(0, j + 1)])
        triangles = np.concatenate([fan, triangles])

    pos = np.array(positions)
    mesh = _metric_mesh(triangles, pos, metric, base_vertex)
    mesh.aux["theta"] = np.arctan2(pos[:, 1], pos[:, 0]) % (2.0 * math.pi)
    return mesh


def _annulus(r_inner=0.5, r_outer=1.0, n_angular=16, n_radial=4, base_vertex=0):
    r_inner = float(check_real("r_inner", r_inner, positive=True, error=InvalidParams))
    r_outer = float(check_real("r_outer", r_outer, positive=True, error=InvalidParams))
    if r_outer <= r_inner:
        raise InvalidParams("r_outer must exceed r_inner")
    n_angular = check_integer("n_angular", n_angular, minimum=3, error=InvalidParams)
    n_radial = check_integer("n_radial", n_radial, minimum=1, error=InvalidParams)
    radii = np.linspace(r_inner, r_outer, n_radial + 1)
    return _polar_mesh(radii, n_angular, _euclidean, base_vertex=base_vertex)


def _hyperbolic_distance(p, q):
    arg = 1.0 + 2.0 * _squares(p - q) / ((1.0 - _squares(p)) * (1.0 - _squares(q)))
    # math.acosh, not np.arccosh, which differs in the last bit
    return np.array([math.acosh(x) for x in arg.tolist()])


def _poincare_disk_patch(radius=0.8, n_angular=12, n_radial=3, base_vertex=0):
    radius = float(check_real("radius", radius, positive=True, error=InvalidParams))
    if radius >= 1.0:
        raise InvalidParams("model radius must be < 1")
    n_angular = check_integer("n_angular", n_angular, minimum=3, error=InvalidParams)
    n_radial = check_integer("n_radial", n_radial, minimum=1, error=InvalidParams)
    radii = [radius * (r + 1) / n_radial for r in range(n_radial)]
    return _polar_mesh(radii, n_angular, _hyperbolic_distance,
                       base_vertex=base_vertex, center=True)


def _path_graph(n, total_length, cycle, base_vertex):
    """n equal edges along a path, at least 3 closed into a ``cycle``, else 1."""
    n = check_integer("n", n, minimum=3 if cycle else 1, error=InvalidParams)
    total_length = float(check_real("total_length", total_length, positive=True,
                                    error=InvalidParams))
    edges = np.column_stack([np.arange(n), np.arange(1, n + 1) % (n if cycle else n + 1)])
    return TriMesh([], edges, np.full(n, total_length / n), base_vertex)


def _circle_graph(n=4, total_length=2.0 * math.pi, base_vertex=0):
    return _path_graph(n, total_length, True, base_vertex)


def _interval_graph(n=2, total_length=2.0, base_vertex=0):
    return _path_graph(n, total_length, False, base_vertex)


_BUILDERS = {
    "flat_rect": _flat_rect,
    "icosphere": _icosphere,
    "annulus": _annulus,
    "torus": _torus,
    "poincare_disk_patch": _poincare_disk_patch,
    "circle_graph": _circle_graph,
    "interval_graph": _interval_graph,
}
KINDS = tuple(_BUILDERS)
