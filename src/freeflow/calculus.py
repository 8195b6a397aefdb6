"""Discrete gradient, divergence, norms and the dual pairing.

Field carriers are plain numpy arrays:

* ScalarField -- shape (V,), one value per vertex (piecewise affine).
* VectorField / OneForm -- shape (F, 2) in the per-face orthonormal frame
  coordinates for surfaces, shape (E,) per canonical oriented edge for
  metric graphs. Frame coordinates make the pointwise Euclidean norm the
  Riemannian norm, and index raising the identity.
* ScalarDistribution -- shape (V,), coefficients of vertex deltas tested
  against the hat basis.

The divergence is defined as the negative adjoint of the gradient under
the area-weighted pairing, so the discrete integration-by-parts identity

    pairing(gradient(f), g) + sum_v f[v] * divergence(g)[v] == 0

holds exactly (up to roundoff) for every scalar field f.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import splu

from .errors import MeshError


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
    g = np.asarray(g, dtype=float)
    expected = (
        (len(mesh.triangles), 2) if mesh.dimension == 2 else (len(mesh.edges),)
    )
    if g.shape != expected:
        raise MeshError(f"field has shape {g.shape}, expected {expected}")
    if not np.all(np.isfinite(g)):
        raise MeshError("field has non-finite entries")
    return g


def zero_field(mesh):
    if mesh.dimension == 2:
        return np.zeros((len(mesh.triangles), 2))
    return np.zeros(len(mesh.edges))


def gradient(mesh, f):
    """Per-face differential of the affine interpolant of ``f``.

    For graphs, the per-edge slope along the canonical orientation.
    """
    f = _as_scalar(mesh, f)
    if mesh.dimension == 2:
        geom = mesh.face_geometry()
        return np.einsum("fi,fij->fj", f[mesh.triangles], geom.hat_gradients)
    u, v = mesh.edges[:, 0], mesh.edges[:, 1]
    return (f[v] - f[u]) / mesh.edge_lengths


def divergence_matrix(mesh):
    """Sparse map from field coordinates to the divergence distribution.

    Row v holds -area_T * (gradient of hat_v on T) over incident faces, so
    that ``divergence_matrix(mesh) @ g.ravel()`` is the negative-adjoint
    divergence of g.
    """
    cached = getattr(mesh, "_div_matrix", None)
    if cached is not None:
        return cached
    if mesh.dimension == 2:
        geom = mesh.face_geometry()
        F = len(mesh.triangles)
        rows = np.repeat(mesh.triangles.ravel(), 2)
        cols = (
            np.repeat(np.arange(F), 6).reshape(F, 3, 2) * 2
            + np.arange(2)[None, None, :]
        ).ravel()
        vals = (-geom.areas[:, None, None] * geom.hat_gradients).ravel()
        mat = coo_matrix(
            (vals, (rows, cols)), shape=(mesh.vertex_count, 2 * F)
        ).tocsr()
    else:
        u, v = mesh.edges[:, 0], mesh.edges[:, 1]
        E = len(mesh.edges)
        rows = np.concatenate([u, v])
        cols = np.concatenate([np.arange(E), np.arange(E)])
        vals = np.concatenate([np.ones(E), -np.ones(E)])
        mat = coo_matrix(
            (vals, (rows, cols)), shape=(mesh.vertex_count, E)
        ).tocsr()
    mesh._div_matrix = mat
    return mat


def divergence(mesh, g):
    """Distributional divergence of a field: the negative gradient adjoint."""
    g = _as_field(mesh, g)
    return divergence_matrix(mesh) @ g.ravel()


def divergence_normal_solver(mesh):
    """Factorized solve of (A A^T) y = r with the base vertex pinned.

    A is the divergence matrix; its normal matrix is singular exactly on
    constants, so pinning one vertex makes the reduced system definite.
    Valid for right-hand sides summing to zero (the range of A). The
    factorization is cached on the mesh.
    """
    cached = getattr(mesh, "_normal_solver", None)
    if cached is not None:
        return cached
    A = divergence_matrix(mesh)
    mask = np.ones(mesh.vertex_count, dtype=bool)
    mask[mesh.base_vertex] = False
    lu = splu((A @ A.T).tocsc()[mask][:, mask].tocsc())

    def solve(r):
        y = np.zeros(mesh.vertex_count)
        y[mask] = lu.solve(np.asarray(r, dtype=float)[mask])
        return y

    mesh._normal_solver = solve
    return solve


def pairing(mesh, f, g):
    """Volume-weighted dual pairing of a one-form against a vector field."""
    f = _as_field(mesh, f)
    g = _as_field(mesh, g)
    if mesh.dimension == 2:
        areas = mesh.face_geometry().areas
        return float(np.sum(areas * np.sum(f * g, axis=1)))
    return float(np.sum(mesh.edge_lengths * f * g))


def dist_pairing(mesh, f, dist):
    """Evaluate a scalar distribution against a scalar field."""
    f = _as_scalar(mesh, f)
    dist = np.asarray(dist, dtype=float)
    return float(f @ dist)


def l1_norm(mesh, g):
    g = _as_field(mesh, g)
    if mesh.dimension == 2:
        areas = mesh.face_geometry().areas
        return float(np.sum(areas * np.linalg.norm(g, axis=1)))
    return float(np.sum(mesh.edge_lengths * np.abs(g)))


def linf_norm(mesh, f):
    f = _as_field(mesh, f)
    if mesh.dimension == 2:
        return float(np.max(np.linalg.norm(f, axis=1)))
    return float(np.max(np.abs(f)))


def lip_constant(mesh, f, mode="edgewise"):
    """Lipschitz constant of a vertex field.

    ``edgewise`` maximizes |df| / length over edges, ``pairwise_geodesic``
    over all vertex pairs with the graph geodesic metric. The two agree
    for path metrics.
    """
    f = _as_scalar(mesh, f)
    if mode == "edgewise":
        u, v = mesh.edges[:, 0], mesh.edges[:, 1]
        return float(np.max(np.abs(f[v] - f[u]) / mesh.edge_lengths))
    if mode == "pairwise_geodesic":
        d = mesh.all_pairs_distances()
        diff = np.abs(f[:, None] - f[None, :])
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(d > 0, diff / d, 0.0)
        return float(np.max(ratio))
    raise ValueError(f"unknown mode {mode!r}")


def p1_comparability_constant(mesh):
    """Largest ratio of a face gradient norm to the edgewise slope bound.

    For each face, maximizes |grad| over differences constrained by the
    three edge slopes being at most one; the maximum over faces bounds
    linf_norm(gradient(f)) by lip_constant(f, edgewise) * C.
    """
    if mesh.dimension != 2:
        return 1.0
    hat = mesh.face_geometry().hat_gradients
    l01, l12, l02 = mesh.edge_lengths[mesh.face_edges].T
    slack = 1 + 1e-12
    best = 0.0
    # vertices of {|d1|<=l01, |d2|<=l02, |d2-d1|<=l12}: two constraints tight
    for si in (-1.0, 1.0):
        for sj in (-1.0, 1.0):
            for d1, d2 in (
                (si * l01, sj * l02),
                (si * l01, si * l01 + sj * l12),
                (si * l02 - sj * l12, si * l02),
            ):
                ok = (
                    (np.abs(d1) <= l01 * slack)
                    & (np.abs(d2) <= l02 * slack)
                    & (np.abs(d2 - d1) <= l12 * slack)
                )
                grad = d1[:, None] * hat[:, 1] + d2[:, None] * hat[:, 2]
                norms = np.linalg.norm(grad[ok], axis=1)
                best = max(best, float(norms.max(initial=0.0)))
    return best
