"""Mesh generators for the test geometries.

All primitives produce intrinsic meshes: the generators use coordinates
only to derive edge lengths (and stash them in ``mesh.aux`` for
experiments that need to snap target points to vertices).
"""

from __future__ import annotations

import inspect
import math

import numpy as np

from .errors import InvalidParams
from .mesh import TriMesh

KINDS = (
    "flat_rect",
    "icosphere",
    "annulus",
    "torus",
    "poincare_disk_patch",
    "circle_graph",
    "interval_graph",
)


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


def _positive(name, value):
    value = float(value)
    if not value > 0:
        raise InvalidParams(f"{name} must be positive, got {value}")
    return value


def _count(name, value, minimum=1):
    value = int(value)
    if value < minimum:
        raise InvalidParams(f"{name} must be >= {minimum}, got {value}")
    return value


def _grid_mesh(width, height, nx, ny, wrap=False, base_vertex=0):
    dx, dy = width / nx, height / ny
    diag = math.hypot(dx, dy)
    if wrap:
        vid = lambda i, j: (j % ny) * nx + (i % nx)
        ni, nj = nx, ny
    else:
        vid = lambda i, j: j * (nx + 1) + i
        ni, nj = nx + 1, ny + 1

    triangles = []
    lengths = {}
    for j in range(ny):
        for i in range(nx):
            v00 = vid(i, j)
            v10 = vid(i + 1, j)
            v01 = vid(i, j + 1)
            v11 = vid(i + 1, j + 1)
            triangles.append((v00, v10, v11))
            triangles.append((v00, v11, v01))
            lengths[(v00, v10)] = dx
            lengths[(v00, v01)] = dy
            lengths[(v00, v11)] = diag
            if not wrap:
                if j == ny - 1:
                    lengths[(v01, v11)] = dx
                if i == nx - 1:
                    lengths[(v10, v11)] = dy

    mesh = TriMesh(triangles, lengths, base_vertex=base_vertex)
    if wrap:
        pos = np.array([((k % nx) * dx, (k // nx) * dy) for k in range(nx * ny)])
    else:
        pos = np.array(
            [(i * dx, j * dy) for j in range(nj) for i in range(ni)]
        )
    mesh.aux["positions"] = pos
    mesh.aux["spacing"] = (dx, dy)
    return mesh


def _flat_rect(width=1.0, height=1.0, nx=2, ny=None, base_vertex=0):
    width = _positive("width", width)
    height = _positive("height", height)
    nx = _count("nx", nx)
    ny = nx if ny is None else _count("ny", ny)
    return _grid_mesh(width, height, nx, ny, wrap=False, base_vertex=base_vertex)


def _torus(width=1.0, height=1.0, nx=8, ny=None, base_vertex=0):
    width = _positive("width", width)
    height = _positive("height", height)
    nx = _count("nx", nx, minimum=3)
    ny = nx if ny is None else _count("ny", ny, minimum=3)
    return _grid_mesh(width, height, nx, ny, wrap=True, base_vertex=base_vertex)


_ICOSA_FACES = (
    (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
    (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
    (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
    (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
)


def _icosphere(level=0, base_vertex=0):
    level = int(level)
    if level < 0:
        raise InvalidParams(f"level must be >= 0, got {level}")
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    verts = [
        (-1, phi, 0), (1, phi, 0), (-1, -phi, 0), (1, -phi, 0),
        (0, -1, phi), (0, 1, phi), (0, -1, -phi), (0, 1, -phi),
        (phi, 0, -1), (phi, 0, 1), (-phi, 0, -1), (-phi, 0, 1),
    ]
    verts = [np.array(v) / np.linalg.norm(v) for v in verts]
    faces = list(_ICOSA_FACES)

    for _ in range(level):
        midpoint = {}

        def mid(a, b):
            key = (a, b) if a < b else (b, a)
            if key not in midpoint:
                p = verts[a] + verts[b]
                verts.append(p / np.linalg.norm(p))
                midpoint[key] = len(verts) - 1
            return midpoint[key]

        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
            new_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = new_faces

    pos = np.array(verts)
    lengths = {}
    for a, b, c in faces:
        for u, v in ((a, b), (b, c), (c, a)):
            key = (u, v) if u < v else (v, u)
            if key not in lengths:
                lengths[key] = float(np.linalg.norm(pos[u] - pos[v]))
    mesh = TriMesh(faces, lengths, base_vertex=base_vertex)
    mesh.aux["positions"] = pos
    return mesh


def _polar_mesh(radii, n_angular, metric, base_vertex=0, center=False):
    """Rings x spokes grid; ``metric(p, q)`` gives the edge length."""
    thetas = [2.0 * math.pi * j / n_angular for j in range(n_angular)]
    positions = []
    if center:
        positions.append((0.0, 0.0))
    offset = len(positions)
    for r in radii:
        positions += [(r * math.cos(t), r * math.sin(t)) for t in thetas]
    vid = lambda ring, j: offset + ring * n_angular + (j % n_angular)

    triangles = []
    if center:
        for j in range(n_angular):
            triangles.append((0, vid(0, j), vid(0, j + 1)))
    for ring in range(len(radii) - 1):
        for j in range(n_angular):
            v00 = vid(ring, j)
            v10 = vid(ring, j + 1)
            v01 = vid(ring + 1, j)
            v11 = vid(ring + 1, j + 1)
            triangles.append((v00, v10, v11))
            triangles.append((v00, v11, v01))

    pos = np.array(positions)
    lengths = {}
    for tri in triangles:
        for u, v in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (u, v) if u < v else (v, u)
            if key not in lengths:
                lengths[key] = metric(pos[u], pos[v])
    mesh = TriMesh(triangles, lengths, base_vertex=base_vertex)
    mesh.aux["positions"] = pos
    theta = np.arctan2(pos[:, 1], pos[:, 0]) % (2.0 * math.pi)
    mesh.aux["theta"] = theta
    return mesh


def _annulus(r_inner=0.5, r_outer=1.0, n_angular=16, n_radial=4, base_vertex=0):
    r_inner = _positive("r_inner", r_inner)
    r_outer = _positive("r_outer", r_outer)
    if r_outer <= r_inner:
        raise InvalidParams("r_outer must exceed r_inner")
    n_angular = _count("n_angular", n_angular, minimum=3)
    n_radial = _count("n_radial", n_radial)
    radii = np.linspace(r_inner, r_outer, n_radial + 1)
    euclid = lambda p, q: float(np.linalg.norm(p - q))
    return _polar_mesh(radii, n_angular, euclid, base_vertex=base_vertex)


def _hyperbolic_distance(p, q):
    d2 = float(np.dot(p - q, p - q))
    denom = (1.0 - float(np.dot(p, p))) * (1.0 - float(np.dot(q, q)))
    return math.acosh(1.0 + 2.0 * d2 / denom)


def _poincare_disk_patch(radius=0.8, n_angular=12, n_radial=3, base_vertex=0):
    radius = _positive("radius", radius)
    if radius >= 1.0:
        raise InvalidParams("model radius must be < 1")
    n_angular = _count("n_angular", n_angular, minimum=3)
    n_radial = _count("n_radial", n_radial)
    radii = [radius * (r + 1) / n_radial for r in range(n_radial)]
    return _polar_mesh(
        radii, n_angular, _hyperbolic_distance, base_vertex=base_vertex,
        center=True,
    )


def _circle_graph(n=4, total_length=2.0 * math.pi, base_vertex=0):
    n = _count("n", n, minimum=3)
    total_length = _positive("total_length", total_length)
    step = total_length / n
    lengths = {(i, (i + 1) % n): step for i in range(n)}
    return TriMesh([], lengths, base_vertex=base_vertex)


def _interval_graph(n=2, total_length=2.0, base_vertex=0):
    n = _count("n", n)
    total_length = _positive("total_length", total_length)
    step = total_length / n
    lengths = {(i, i + 1): step for i in range(n)}
    return TriMesh([], lengths, base_vertex=base_vertex)


_BUILDERS = {
    "flat_rect": _flat_rect,
    "icosphere": _icosphere,
    "annulus": _annulus,
    "torus": _torus,
    "poincare_disk_patch": _poincare_disk_patch,
    "circle_graph": _circle_graph,
    "interval_graph": _interval_graph,
}
