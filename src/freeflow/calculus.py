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
from scipy.sparse import coo_matrix, csc_matrix
from scipy.sparse.csgraph import connected_components, dijkstra
from scipy.sparse.linalg import splu

from .errors import MeshError, ParseError

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
    Built once per mesh (``TriMesh.div_matrix``) from :func:`_cells`.
    """
    return mesh.div_matrix


def _cells(mesh):
    """The corners (C, k) of every cell and A's entries at them
    (C, k, m), m field coordinates per cell: the 3 corners of each face
    with -area_T * (gradient of the corner's hat), or the 2 ends of each
    edge with +1 at the tail and -1 at the head. The only calculus code
    that knows the per-dimension geometry."""
    if mesh.dimension == 2:
        geom = mesh.face_geometry()
        return mesh.triangles, -geom.areas[:, None, None] * geom.hat_gradients
    return mesh.edges, np.broadcast_to([[1.0], [-1.0]], (len(mesh.edges), 2, 1))


def _assemble_divergence_matrix(mesh):
    corners, entries = _cells(mesh)
    C, k, m = entries.shape
    rows = np.repeat(corners.ravel(), m)
    cols = np.tile(np.arange(C * m).reshape(C, 1, m), (1, k, 1)).ravel()
    shape = (mesh.vertex_count, C * m)
    return coo_matrix((entries.ravel(), (rows, cols)), shape=shape).tocsr()


def divergence(mesh, g):
    """Distributional divergence of a field: the negative gradient adjoint."""
    return divergence_matrix(mesh) @ _as_field(mesh, g).ravel()


def divergence_normal_solver(mesh):
    """Factorized solve of (A A^T) y = r with the base vertex pinned:
    :func:`weighted_normal_factorizer` at D = I, on surfaces and graphs.

    A is the divergence matrix; its normal matrix is singular exactly on
    constants, so pinning one vertex makes the reduced system definite.
    Valid for right-hand sides summing to zero (the range of A). Each
    call assembles and factors the matrix; nothing is kept on the mesh.
    """
    cells, m = mesh.field_shape[0], math.prod(mesh.field_shape[1:])
    i, j = np.triu_indices(m)
    identity = np.outer(i == j, np.ones(cells))  # D = I on every cell
    return weighted_normal_factorizer(mesh)(identity)


def check_field_support(mesh):
    """Raise :class:`MeshError` unless every vertex is on a cell and the
    cells are joined through shared vertices.

    A^T f = 0 exactly when f is constant on each set of vertices joined
    through cells (each cell's first corner to the others), so this is
    when the pinned A D A^T is nonsingular, for every choice of positive
    definite per-cell blocks D. A graph's cells are its edges, which
    join every vertex, so only a surface can fail. No matrix is factored.
    """
    corners, _ = _cells(mesh)
    first, rest = np.broadcast_arrays(corners[:, :1], corners[:, 1:])
    star = coo_matrix(
        (np.ones(rest.size), (first.ravel(), rest.ravel())),
        shape=(mesh.vertex_count, mesh.vertex_count),
    )
    n, _ = connected_components(star, directed=False)
    if n != 1:
        raise MeshError(
            "the field route needs every vertex on a face and the faces "
            f"connected through shared vertices; they leave {n} components"
        )


def _pinned_solver(mesh, lu, vertices):
    """The solve of a factored normal matrix whose row and column i
    belong to vertex ``vertices[i]``: every vertex but the base vertex,
    in the order of the factored matrix."""

    def solve(r):
        # one gather in and one scatter out; the base vertex returns as a zero
        y = np.zeros(mesh.vertex_count)
        y[vertices] = lu.solve(np.asarray(r, dtype=float)[vertices])
        return y

    return solve


def weighted_normal_factorizer(mesh):
    """``factor(blocks)``: the pinned solve of (A D A^T) y = r for
    symmetric positive definite per-cell m x m blocks D, given as an
    (m(m+1)/2, C) array of their upper-triangle entries row by row:
    D_00, D_01 and D_11 on faces, D_00 on edges. D = I is the normal
    matrix A A^T, which is how :func:`divergence_normal_solver` solves.

    The cells are checked (:func:`check_field_support`) and the pinned
    sparsity pattern is computed here, once. Each ``factor`` call sums
    the corner-pair values a_c^T D a_d of every cell (a_c the cell's
    entries of A at corner c, from :func:`_cells`) into the pattern and
    factors the result without pivoting: the matrix is symmetric
    positive definite, so its diagonal pivots are stable and every
    factor has the same fill.

    The pattern never changes, so it is ordered once. The first call
    factors with SuperLU's COLAMD ordering and keeps the column order P
    it chose. The second call relabels the pattern by P, once, so from
    then on the sums land in P M P^T directly, and every later factor
    takes the matrix in its natural order: numeric work only, with the
    first factor's fill. The solves gather and scatter through P.
    """
    check_field_support(mesh)
    corners, a = _cells(mesh)
    k, n = mesh.base_vertex, mesh.vertex_count - 1
    # c, d run over a cell's corner pairs; a_c^T D a_d is the sum of
    # D's upper-triangle entries D_ij times these
    c, d = np.divmod(np.arange(corners.shape[1] ** 2), corners.shape[1])
    products = np.stack([
        a[:, c, i] * a[:, d, j] + a[:, c, j] * a[:, d, i] if i < j
        else a[:, c, i] * a[:, d, i]
        for i, j in zip(*np.triu_indices(a.shape[2]))
    ])
    # entry (c, d) of a cell's block lands at (corners[c], corners[d]),
    # renumbered around the base vertex; entries in the base vertex's
    # row or column go to a last slot, which is dropped (the base vertex
    # is on a cell, so that slot exists)
    rows, cols = corners[:, c], corners[:, d]
    keep = (rows != k) & (cols != k)
    rows, cols = rows - (rows > k), cols - (cols > k)

    def pattern(keys):
        # the slot of each key j * n + i, and the CSC row indices and
        # column pointers of the kept ones; the last key is n * n
        keys, slots = np.unique(keys, return_inverse=True)
        kept = keys[:-1]
        return slots.ravel(), kept % n, np.searchsorted(kept // n, np.arange(n + 1))

    def relabel(order):
        # entry (i, j) moves to (order[i], order[j]), the dropped slot
        # stays last; the temporaries go when this returns
        columns = np.repeat(np.arange(n), np.diff(indptr))
        rank, *csc = pattern(np.append(order[columns] * n + order[indices], n * n))
        return rank[slots], *csc

    slots, indices, indptr = pattern(np.where(keep, cols * n + rows, n * n))
    vertices = np.delete(np.arange(mesh.vertex_count), k)  # all but the base vertex
    spec, order = "COLAMD", None

    def factor(blocks):
        nonlocal slots, indices, indptr, vertices, spec, order
        if order is not None:
            # the second call, after the caller dropped the first factor
            slots, indices, indptr = relabel(order)
            vertices = vertices[np.argsort(order)]
            spec, order = "NATURAL", None
        values = np.einsum("kf,kfc->fc", blocks, products)
        data = np.bincount(slots, values.ravel())[:-1]
        matrix = csc_matrix((data, indices, indptr), shape=(n, n))
        lu = splu(matrix, permc_spec=spec, diag_pivot_thresh=0.0)
        if spec == "COLAMD":
            # a copy in int64: perm_c is a view that keeps the factor alive
            order = lu.perm_c.astype(np.int64)
        return _pinned_solver(mesh, lu, vertices)

    return factor


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
            d = dijkstra(mesh.adjacency, indices=block, limit=limit)
            near = np.isfinite(d) & (d > 0)
            diff = np.abs(f[block, None] - f[None, :])
            best = max(best, float(np.max(diff[near] / d[near], initial=0.0)))
        return best
    raise ParseError(f"unknown mode {mode!r}")

