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

import contextlib
import ctypes
import functools
import math
import threading
from pathlib import Path

import numpy as np
import scipy
from scipy.linalg.lapack import dpbtrf, dpbtrs
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra, reverse_cuthill_mckee

from .errors import MeshError, ParseError, SolverFailure

# float64 entries (8 MB) the normal matrix's band may take at any width
_BAND_FLOOR_ENTRIES = 1 << 20


def _as_array(values, shape, name):
    """``values`` as a float array of ``shape``; another shape, or a
    non-finite entry, is a :class:`MeshError` naming the array."""
    values = np.asarray(values, dtype=float)
    if values.shape != shape:
        raise MeshError(f"{name} has shape {values.shape}, expected {shape}")
    if not np.all(np.isfinite(values)):
        raise MeshError(f"{name} has non-finite entries")
    return values


def _as_scalar(mesh, f):
    return _as_array(f, (mesh.vertex_count,), "scalar field")


def _as_field(mesh, g):
    """The checked field as one row per cell (face or edge)."""
    return _as_array(g, mesh.field_shape, "field").reshape(len(mesh.cell_weights), -1)


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


@functools.cache
def _openblas_thread_calls():
    """``(get, set)``: the thread-count calls of the OpenBLAS that scipy
    bundles (``scipy.libs/libscipy_openblas-*.so``), or None where scipy
    has none. Looked up on the first factor, so importing loads nothing."""
    libs = Path(scipy.__file__).resolve().parents[1] / "scipy.libs"
    for path in sorted(libs.glob("libscipy_openblas-*.so")):
        try:
            lib = ctypes.CDLL(str(path))
            get, put = lib.scipy_openblas_get_num_threads, lib.scipy_openblas_set_num_threads
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    return None


_blas_threads_lock = threading.Lock()


@contextlib.contextmanager
def _one_blas_thread():
    """Runs its body on one OpenBLAS thread and restores the count after.
    The count is global to the process, so bodies in several Python
    threads take turns, each saving and restoring it under one lock."""
    calls = _openblas_thread_calls()
    if calls is None:
        yield
        return
    get, put = calls
    with _blas_threads_lock:
        saved = get()
        put(1)
        try:
            yield
        finally:
            put(saved)


def weighted_normal_factorizer(mesh):
    """``factor(blocks)``: the pinned solve of (A D A^T) y = r for
    symmetric positive definite per-cell m x m blocks D, given as an
    (m(m+1)/2, C) array of their upper-triangle entries row by row:
    D_00, D_01 and D_11 on faces, D_00 on edges. D = I is the normal
    matrix A A^T, which is how :func:`divergence_normal_solver` solves.

    Once per factorizer, the cells are checked
    (:func:`check_field_support`), and the vertices but the base vertex
    are ranked 0 to n - 1 in the reverse Cuthill-McKee order of the edge
    graph ``mesh.adjacency`` (Cuthill & McKee, ACM 1969); the base
    vertex ranks n, past the band. Each cell's corner pairs get their
    slot in the lower band, LAPACK's (kd + 1, n) array, kd the widest
    pair of ranks below n; a pair at the base vertex gets one last,
    dropped slot: the pin. An edge on no face moves only the order. The
    corner-pair products of A's entries are filled one pair at a time
    into one array, so the set-up's transient peak stays below 1.6x what
    it keeps. Each ``factor`` call sums the values a_c^T D a_d of every
    cell (a_c the cell's entries of A at corner c, from :func:`_cells`)
    into the band and factors it by LAPACK's banded Cholesky, ``dpbtrf``,
    whose ``solve`` runs ``dpbtrs``. Both run on one OpenBLAS thread
    (:func:`_one_blas_thread`), which is faster on these bands and makes
    the factor's bits independent of the host's thread count. The band's
    memory grows as kd, which stays near sqrt(V) on the package's
    surfaces; a vertex on many cells (a graph's hub) widens it to O(V),
    so a band wider than 8 sqrt(V - 1) that also takes more than 8 MB is
    a :class:`MeshError` before it is allocated. A factor that meets a
    non-positive pivot (``dpbtrf``'s ``info``) is a
    :class:`SolverFailure` naming it.
    """
    check_field_support(mesh)
    corners, a = _cells(mesh)
    n = mesh.vertex_count - 1
    others = np.delete(np.arange(mesh.vertex_count), mesh.base_vertex)
    vertices = others[reverse_cuthill_mckee(mesh.adjacency[others][:, others],
                                            symmetric_mode=True)]
    rank = np.full(mesh.vertex_count, n)
    rank[vertices] = np.arange(n)
    # c <= d run over a cell's corner pairs, each unordered pair once:
    # the matrix is symmetric, and the band holds its lower half
    c, d = np.triu_indices(corners.shape[1])
    ranks = rank[corners]
    low = np.minimum(ranks[:, c], ranks[:, d])
    high = np.maximum(ranks[:, c], ranks[:, d])
    pinned = high == n
    kd = int(np.max(np.where(pinned, 0, high - low), initial=0))
    if kd + 1 > max(8.0 * math.sqrt(n), _BAND_FLOOR_ENTRIES / n):
        raise MeshError(
            f"the normal matrix's band is {kd + 1} wide for {n} unknowns, "
            f"more than 8 sqrt(V - 1) = {8.0 * math.sqrt(n):.1f} and than "
            f"{_BAND_FLOOR_ENTRIES} entries allow: a vertex is on too many "
            "cells for a banded factorization"
        )
    # entry (i, j), i >= j, of the band order is slot j (kd + 1) + i - j of
    # the Fortran-ordered band; pairs at the base vertex go to n (kd + 1), dropped
    slots = np.where(pinned, n * (kd + 1), low * (kd + 1) + (high - low))
    del ranks, low, high, pinned  # before the products, the set-up's peak
    # one corner pair at a time, so no (C, pairs) gather of A's entries is made
    entries = list(zip(*np.triu_indices(a.shape[2])))
    products = np.empty((len(entries), len(corners), len(c)))
    for pair in range(len(c)):
        ac, ad = a[:, c[pair]], a[:, d[pair]]
        for k, (i, j) in enumerate(entries):
            products[k, :, pair] = (ac[:, i] * ad[:, j] + ac[:, j] * ad[:, i] if i < j
                                    else ac[:, i] * ad[:, i])

    def factor(blocks):
        values = np.einsum("kf,kfc->fc", blocks, products)
        band = np.bincount(slots.ravel(), values.ravel(), n * (kd + 1) + 1)
        band = band[:-1].reshape(n, kd + 1).T
        with _one_blas_thread():
            # info: the index of the first pivot that is not positive, or 0
            lower, pivot = dpbtrf(band, lower=1, overwrite_ab=1)
        if pivot > 0:
            vertex = int(vertices[pivot - 1])
            raise SolverFailure(
                f"the normal matrix is not positive definite: pivot {pivot} "
                f"(vertex {vertex}) is not positive",
                diagnostics={"pivot": pivot, "vertex": vertex},
            )

        def solve(r):
            # one gather in and one scatter out; the base vertex returns as a zero
            y = np.zeros(mesh.vertex_count)
            rhs = np.asarray(r, dtype=float)[vertices]
            with _one_blas_thread():
                y[vertices], _ = dpbtrs(lower, rhs, lower=1, overwrite_b=1)
            return y

        return solve

    return factor


def pairing(mesh, f, g):
    """Volume-weighted dual pairing of a one-form against a vector field."""
    f, g = _as_field(mesh, f), _as_field(mesh, g)
    return float(np.sum(mesh.cell_weights * np.sum(f * g, axis=1)))


def dist_pairing(mesh, f, dist):
    """Evaluate a scalar distribution against a scalar field."""
    f = _as_scalar(mesh, f)
    dist = _as_array(dist, (mesh.vertex_count,), "distribution")
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

    The pairwise value is the exact float maximum of |f_s - f_t| / d(s, t),
    d(s, t) as a Dijkstra from s finds it; it takes only the edgewise value
    L as a lower bound, so it stays an independent check. A pair beats L
    only where f is not L-Lipschitz, which the McShane extension shows
    (McShane, Bull. AMS 40, 1934): for g = f and g = -f, one Dijkstra from a
    super-source joined to each s at w_s = (g(s) - min g) / (L(1 - margin))
    reaches t through another vertex exactly when g(t) - g(s) >
    L(1 - margin) d(s, t) for some s. Only these marked ends are searched,
    each up to ``reach[s] / best * (1 + margin)``, reach[s] = max_t |f_s - f_t|.

    The margin scales with roundoff. Each float sum in either search has
    at most V + 1 nonnegative terms, so a pair whose float ratio beats L
    has w_t - w_s - d(s, t) >= (margin - (V + 2) eps) d(s, t) to first
    order, misjudged by at most (V + 4) eps (w_s + d(s, t)) + 4 eps w_t,
    where w <= r d(s, t) / (1 - margin), r = (f.max() - f.min()) / (L l),
    l the shortest edge. So max(1e-9, 4 (V + 1) eps (1 + r)) marks both
    ends of the pair for V >= 3 while it is at most 1/4, and past 1/4
    every vertex is searched.
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
        V, adjacency = mesh.vertex_count, mesh.adjacency
        r = (f.max() - f.min()) / (best * mesh.edge_lengths.min())
        margin = max(1e-9, 4 * (V + 1) * np.finfo(float).eps * (1 + r))
        marked = np.full(V, margin > 0.25)
        if margin <= 0.25:
            # the edge graph and a super-source V with one arc to each vertex
            graph = csr_matrix(
                (np.append(adjacency.data, np.empty(V)), np.append(adjacency.indices, np.arange(V)),
                 np.append(adjacency.indptr, adjacency.nnz + V)), shape=(V + 1, V + 1))
            for g in (f - f.min(), f.max() - f):
                graph.data[adjacency.nnz:] = g / (best * (1 - margin))
                _, pred = dijkstra(graph, indices=V, return_predecessors=True)
                marked |= pred[:V] != V
        reach = np.maximum(f.max() - f, f - f.min())
        for s in np.flatnonzero(marked):
            d = dijkstra(adjacency, indices=s, limit=reach[s] / best * (1 + margin))
            with np.errstate(invalid="ignore"):  # 0/0 at the source
                best = max(best, float(np.fmax.reduce(np.abs(f - f[s]) / d, initial=0.0)))
        return best
    raise ParseError(f"unknown mode {mode!r}")

