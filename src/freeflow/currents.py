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
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import breadth_first_order, minimum_spanning_tree

from .calculus import _as_array, _as_scalar
from .errors import MeshError, check_real

DEFAULT_TOL = 1e-8


def d0(mesh, f):
    """Differences of a vertex field along canonical edge orientations."""
    f = _as_scalar(mesh, f)
    u, v = mesh.edges[:, 0], mesh.edges[:, 1]
    return f[v] - f[u]


def d1(mesh, omega):
    """Oriented circulation of an edge form around each face."""
    if mesh.dimension != 2:
        raise MeshError("d1 requires a dimension-2 mesh")
    omega = _as_array(omega, (len(mesh.edges),), "edge form")
    return (mesh.face_signs * omega[mesh.face_edges]).sum(axis=1)


def spanning_tree(mesh, rng=None):
    """Edge ids of a spanning tree, deterministic unless ``rng`` is given.

    Kruskal's tree for the identity edge order, or for a random
    permutation of it: the minimum spanning tree under weights equal to
    each edge's rank in that order, listed by rank.
    """
    E = len(mesh.edges)
    order = np.arange(E)
    if rng is not None:
        order = rng.permutation(order)
    rank = np.empty(E)
    rank[order] = np.arange(1, E + 1)  # positive: a zero weight is no edge
    u, v = mesh.edges[:, 0], mesh.edges[:, 1]
    V = mesh.vertex_count
    tree = minimum_spanning_tree(coo_matrix((rank, (u, v)), shape=(V, V)))
    return order[np.sort(tree.data).astype(np.int64) - 1].tolist()


def solve_potential(mesh, omega, tree=None):
    """Integrate an edge form from the base vertex along a spanning tree.

    Returns ``(potential, exactness_residual)`` where the residual is the
    maximal mismatch |g(v) - g(u) - omega_e| over non-tree edges. For an
    exact form the residual vanishes and the potential is the witness
    with potential[base] == 0.
    """
    omega = _as_array(omega, (len(mesh.edges),), "edge form")
    if tree is None:
        tree = spanning_tree(mesh)
    tree = np.asarray(tree, dtype=np.int64)
    V = mesh.vertex_count
    u, v = mesh.edges[tree, 0], mesh.edges[tree, 1]
    graph = coo_matrix((np.ones(len(tree)), (u, v)), shape=(V, V)).tocsr()
    order, pred = breadth_first_order(
        graph, mesh.base_vertex, directed=False, return_predecessors=True
    )
    if len(order) != V:
        raise MeshError("spanning tree does not span the mesh")

    heads = order[1:]
    tails = pred[heads]
    steps = np.where(tails < heads, 1.0, -1.0) * omega[mesh.edge_ids(tails, heads)]
    g = [0.0] * V
    for head, tail, step in zip(heads.tolist(), tails.tolist(), steps.tolist()):
        g[head] = g[tail] + step
    g = np.array(g)

    off_tree = np.ones(len(mesh.edges), dtype=bool)
    off_tree[tree] = False
    mismatch = np.abs(d0(mesh, g) - omega)[off_tree]
    return g, float(mismatch.max(initial=0.0))


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
            out["witness_potential"] = np.asarray(
                self.witness_potential, dtype=np.float64).tolist()
        return out


def classify(mesh, omega, tol=DEFAULT_TOL):
    """Decide whether an edge form is exact, closed but not exact, or not
    closed, with both residuals reported. A tolerance that is not finite
    and positive is a :class:`ParseError`."""
    check_real("tolerance", tol, positive=True)
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

