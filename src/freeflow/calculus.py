"""Discrete gradient, divergence, norms and the dual pairing.

Field carriers are plain numpy arrays:

* ScalarField -- shape (V,), one value per vertex (piecewise affine).
* VectorField / OneForm -- shape ``TriMesh.field_shape``: (F, 2) in the
  per-face orthonormal frame coordinates for surfaces, (E,) per canonical
  oriented edge for metric graphs; each face or edge is one cell, of
  measure ``TriMesh.cell_weights``. Frame coordinates make the pointwise
  Euclidean norm the Riemannian norm, and index raising the identity.
* ScalarDistribution -- shape (V,), coefficients of vertex deltas tested
  against the hat basis.

One sparse matrix A per mesh gives both operators: the divergence is
``A @ g``, and the gradient ``-(A^T f)`` divided by the cell weights is
its negative adjoint under the cell-weighted pairing, so the identity

    pairing(gradient(f), g) + sum_v f[v] * divergence(g)[v] == 0

holds by construction (up to roundoff) for every scalar field f.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra
from scipy.sparse.linalg import splu

from .errors import MeshError

# float64 entries per row block of the pairwise Lipschitz ratio (2 MB each)
_PAIRWISE_BLOCK_ELEMENTS = 1 << 18


def _as_scalar(mesh, f):
    f = np.asarray(f, dtype=float)
    if f.shape != (mesh.vertex_count,):
        raise MeshError(
            f"scalar field has shape {f.shape}, expected ({mesh.vertex_count},)"
        )
    if not np.all(np.isfinite(f)):
        raise MeshError("scalar field has non-finite entries")
    return f


def _as_field(mesh, g):
    """The checked field as one row per cell (face or edge)."""
    g = np.asarray(g, dtype=float)
    if g.shape != mesh.field_shape:
        raise MeshError(f"field has shape {g.shape}, expected {mesh.field_shape}")
    if not np.all(np.isfinite(g)):
        raise MeshError("field has non-finite entries")
    return g.reshape(len(mesh.cell_weights), -1)


def gradient(mesh, f):
    """Per-face differential of the affine interpolant of ``f``; for
    graphs, the per-edge slope along the canonical orientation. Both are
    -(A^T f) divided by the cell weights: the negative weighted adjoint of
    the divergence."""
    f = _as_scalar(mesh, f)
    rows = -(divergence_matrix(mesh).T @ f).reshape(len(mesh.cell_weights), -1)
    return (rows / mesh.cell_weights[:, None]).reshape(mesh.field_shape)


def divergence_matrix(mesh):
    """Sparse map from field coordinates to the divergence distribution.

    Row v holds -area_T * (gradient of hat_v on T) over incident faces on
    surfaces, +1 / -1 at the tail / head of each incident edge on graphs.
    Built once per mesh (``TriMesh.div_matrix``); its assembly is the only
    calculus code that knows the per-dimension geometry.
    """
    return mesh.div_matrix


def _assemble_divergence_matrix(mesh):
    if mesh.dimension == 2:
        geom = mesh.face_geometry()
        F = len(mesh.triangles)
        rows = np.repeat(mesh.triangles.ravel(), 2)
        cols = np.tile(np.arange(2 * F).reshape(F, 1, 2), (1, 3, 1)).ravel()
        vals = (-geom.areas[:, None, None] * geom.hat_gradients).ravel()
    else:
        E = len(mesh.edges)
        rows = mesh.edges.T.ravel()
        cols = np.tile(np.arange(E), 2)
        vals = np.repeat([1.0, -1.0], E)
    shape = (mesh.vertex_count, math.prod(mesh.field_shape))
    return coo_matrix((vals, (rows, cols)), shape=shape).tocsr()


def divergence(mesh, g):
    """Distributional divergence of a field: the negative gradient adjoint."""
    return divergence_matrix(mesh) @ _as_field(mesh, g).ravel()


def divergence_normal_solver(mesh):
    """Factorized solve of (A A^T) y = r with the base vertex pinned.

    A is the divergence matrix; its normal matrix is singular exactly on
    constants, so pinning one vertex makes the reduced system definite.
    Valid for right-hand sides summing to zero (the range of A). The
    factorization is built once per mesh (``TriMesh.normal_solver``).
    """
    return mesh.normal_solver


def _factor_normal_matrix(mesh):
    A = divergence_matrix(mesh)
    mask = np.ones(mesh.vertex_count, dtype=bool)
    mask[mesh.base_vertex] = False
    lu = splu((A @ A.T).tocsc()[mask][:, mask].tocsc())

    def solve(r):
        y = np.zeros(mesh.vertex_count)
        y[mask] = lu.solve(np.asarray(r, dtype=float)[mask])
        return y

    return solve


def divergence_projection(mesh, b=0.0):
    """Orthogonal projection of flat field coordinates onto {g : A g = b}:
    ``g - A^T y`` with (A A^T) y = A g - b. ``b`` must sum to zero (the
    range of A); it defaults to zero, the kernel of the divergence."""
    A = divergence_matrix(mesh)
    AT = A.T.tocsr()  # transposed once, not on every call
    solve = divergence_normal_solver(mesh)

    def project(g):
        return g - AT @ solve(A @ g - b)

    return project


def pairing(mesh, f, g):
    """Volume-weighted dual pairing of a one-form against a vector field."""
    f, g = _as_field(mesh, f), _as_field(mesh, g)
    return float(np.sum(mesh.cell_weights * np.sum(f * g, axis=1)))


def dist_pairing(mesh, f, dist):
    """Evaluate a scalar distribution against a scalar field."""
    f = _as_scalar(mesh, f)
    dist = np.asarray(dist, dtype=float)
    return float(f @ dist)


def l1_norm(mesh, g):
    return float(np.sum(mesh.cell_weights * np.linalg.norm(_as_field(mesh, g), axis=1)))


def linf_norm(mesh, f):
    return float(np.max(np.linalg.norm(_as_field(mesh, f), axis=1)))


def lip_constant(mesh, f, mode="edgewise"):
    """Lipschitz constant of a vertex field.

    ``edgewise`` maximizes |df| / length over edges, ``pairwise_geodesic``
    over all vertex pairs with the graph geodesic metric. The two agree
    for path metrics.

    The pairwise value is the exact maximum over all pairs, found by a
    pruned search. Every edge is a vertex pair, so the edgewise value is
    a lower bound ``best``; this uses no more than that, so the pairwise
    route stays an independent check of the edgewise one. A source s
    reaches at most ``reach[s] = max(f.max() - f[s], f[s] - f.min())``
    and lies at least its shortest incident edge from any other vertex,
    so it is skipped when ``reach[s] <= best * shortest[s]``. The other
    sources, sorted by reach, are searched in row blocks (which bound
    memory) by a Dijkstra limited to ``max reach / best``: farther pairs
    cannot beat ``best``. Both tests carry a relative margin of 1e-9, so
    roundoff never prunes a pair that the dense maximum would pick.
    """
    f = _as_scalar(mesh, f)
    u, v = mesh.edges[:, 0], mesh.edges[:, 1]
    edgewise = float(np.max(np.abs(f[v] - f[u]) / mesh.edge_lengths))
    if mode == "edgewise":
        return edgewise
    if mode == "pairwise_geodesic":
        best = edgewise
        if best == 0.0:  # constant on every component
            return 0.0
        reach = np.maximum(f.max() - f, f - f.min())
        shortest = np.full(mesh.vertex_count, np.inf)
        np.minimum.at(shortest, u, mesh.edge_lengths)
        np.minimum.at(shortest, v, mesh.edge_lengths)
        margin = 1e-9
        keep = reach > best * shortest * (1 - margin)
        sources = np.flatnonzero(keep)[np.argsort(-reach[keep], kind="stable")]
        rows = max(1, _PAIRWISE_BLOCK_ELEMENTS // mesh.vertex_count)
        for start in range(0, len(sources), rows):
            block = sources[start : start + rows]
            limit = float(reach[block].max()) / best * (1 + margin)
            d = dijkstra(mesh.adjacency, directed=False, indices=block, limit=limit)
            near = np.isfinite(d) & (d > 0)
            diff = np.abs(f[block, None] - f[None, :])
            best = max(best, float(np.max(diff[near] / d[near], initial=0.0)))
        return best
    raise ValueError(f"unknown mode {mode!r}")

