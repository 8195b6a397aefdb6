"""Classification of discrete 1-currents: exact, closed-not-exact, not closed.

An EdgeForm stores one circulation per canonical oriented edge (u < v);
flipping an edge's orientation negates its value. Exactness is decided by
integrating along a spanning tree from the base vertex and measuring the
worst mismatch on the remaining edges; closedness by the oriented
circulation around each face. On surfaces with first Betti number zero
the two notions coincide, and the constructed annulus/torus generators
witness that they differ otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MeshError

DEFAULT_TOL = 1e-8


def _as_edgeform(mesh, omega):
    omega = np.asarray(omega, dtype=float)
    if omega.shape != (len(mesh.edges),):
        raise MeshError(
            f"edge form has shape {omega.shape}, expected ({len(mesh.edges)},)"
        )
    if not np.all(np.isfinite(omega)):
        raise MeshError("edge form has non-finite entries")
    return omega


def d0(mesh, f):
    """Differences of a vertex field along canonical edge orientations."""
    f = np.asarray(f, dtype=float)
    u, v = mesh.edges[:, 0], mesh.edges[:, 1]
    return f[v] - f[u]


def d1(mesh, omega):
    """Oriented circulation of an edge form around each face."""
    if mesh.dimension != 2:
        raise MeshError("d1 requires a dimension-2 mesh")
    omega = _as_edgeform(mesh, omega)
    return (mesh.face_signs * omega[mesh.face_edges]).sum(axis=1)


def spanning_tree(mesh, rng=None):
    """Edge ids of a spanning tree, deterministic unless ``rng`` is given."""
    order = np.arange(len(mesh.edges))
    if rng is not None:
        order = rng.permutation(order)
    parent = list(range(mesh.vertex_count))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tree = []
    for e in order:
        u, v = (int(x) for x in mesh.edges[e])
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            tree.append(int(e))
    return tree


def solve_potential(mesh, omega, tree=None):
    """Integrate an edge form from the base vertex along a spanning tree.

    Returns ``(potential, exactness_residual)`` where the residual is the
    maximal mismatch |g(v) - g(u) - omega_e| over non-tree edges. For an
    exact form the residual vanishes and the potential is the witness
    with potential[base] == 0.
    """
    omega = _as_edgeform(mesh, omega)
    if tree is None:
        tree = spanning_tree(mesh)
    tree_set = set(tree)
    adj = [[] for _ in range(mesh.vertex_count)]
    for e in tree:
        u, v = (int(x) for x in mesh.edges[e])
        adj[u].append((v, e, 1.0))
        adj[v].append((u, e, -1.0))

    g = np.zeros(mesh.vertex_count)
    seen = np.zeros(mesh.vertex_count, dtype=bool)
    seen[mesh.base_vertex] = True
    stack = [mesh.base_vertex]
    while stack:
        u = stack.pop()
        for v, e, sign in adj[u]:
            if not seen[v]:
                seen[v] = True
                g[v] = g[u] + sign * omega[e]
                stack.append(v)
    if not seen.all():
        raise MeshError("spanning tree does not span the mesh")

    residual = 0.0
    for e in range(len(mesh.edges)):
        if e in tree_set:
            continue
        u, v = (int(x) for x in mesh.edges[e])
        residual = max(residual, abs(g[v] - g[u] - omega[e]))
    return g, residual


@dataclass(frozen=True)
class CurrentClass:
    kind: str  # exact | closed_not_exact | not_closed
    closedness_residual: float
    exactness_residual: float
    witness_potential: np.ndarray | None = None

    def to_dict(self):
        out = {
            "kind": self.kind,
            "closedness_residual": self.closedness_residual,
            "exactness_residual": self.exactness_residual,
        }
        if self.witness_potential is not None:
            out["witness_potential"] = [float(x) for x in self.witness_potential]
        return out


def classify(mesh, omega, tol=DEFAULT_TOL):
    """Decide whether an edge form is exact, closed but not exact, or not
    closed, with both residuals reported."""
    omega = _as_edgeform(mesh, omega)
    closedness = (
        float(np.max(np.abs(d1(mesh, omega)))) if mesh.dimension == 2 else 0.0
    )
    potential, exactness = solve_potential(mesh, omega)
    if closedness > tol:
        return CurrentClass("not_closed", closedness, exactness)
    if exactness <= tol:
        return CurrentClass("exact", closedness, exactness, potential)
    return CurrentClass("closed_not_exact", closedness, exactness)


def betti1(mesh):
    """First Betti number: cycles of the edge graph modulo face boundaries.

    The edge graph is connected, so its cycle space has dimension
    E - V + 1. The face boundaries span F dimensions less one for every
    closed face component (edge-connected faces with no boundary edge),
    whose oriented faces sum to a boundary-free 2-cycle.
    """
    E, V, F = len(mesh.edges), mesh.vertex_count, len(mesh.triangles)
    counts = np.bincount(mesh.face_edges.ravel(), minlength=E)
    open_faces = (counts[mesh.face_edges] == 1).any(axis=1)
    components = np.unique(mesh.face_components)
    closed = len(components) - len(np.unique(mesh.face_components[open_faces]))
    return E - V + 1 - F + closed


def _face_edge_vectors(mesh):
    """Planar vectors v_{i+1} - v_i of the three oriented edges of each face."""
    layout = mesh.face_geometry().layout
    return np.roll(layout, -1, axis=1) - layout


def oneform_to_edgeform(mesh, f):
    """Circulations of a per-face covector field along canonical edges.

    Interior edges average the two incident faces; the conversion is
    lossy in general (a piecewise constant covector field need not have
    matching tangential traces).
    """
    if mesh.dimension != 2:
        raise MeshError("conversion requires a dimension-2 mesh")
    f = np.asarray(f, dtype=float)
    vec = _face_edge_vectors(mesh)
    circ = mesh.face_signs * np.einsum("fd,fid->fi", f, vec)
    E = len(mesh.edges)
    total = np.bincount(mesh.face_edges.ravel(), circ.ravel(), minlength=E)
    return total / np.bincount(mesh.face_edges.ravel(), minlength=E)


def edgeform_to_oneform(mesh, omega):
    """Per-face least-squares covector matching the three edge circulations.

    Returns ``(oneform, max_residual)``; the residual is zero only on
    forms whose face circulations vanish, so the conversion is flagged
    lossy through it.
    """
    if mesh.dimension != 2:
        raise MeshError("conversion requires a dimension-2 mesh")
    omega = _as_edgeform(mesh, omega)
    rows = _face_edge_vectors(mesh)
    rhs = mesh.face_signs * omega[mesh.face_edges]
    out = np.einsum("fij,fj->fi", np.linalg.pinv(rows), rhs)
    residual = np.einsum("fij,fj->fi", rows, out) - rhs
    return out, float(np.abs(residual).max())
