"""Numerical experiments for the asymptotic and extension statements.

Each experiment returns an :class:`ExperimentReport` with one row per
step, a bound column computed from the relevant estimate, and a pass
flag. Unbounded domains are modeled by long flat strips; the cutoff
experiment is indexed by the cutoff scale rather than by a single
infinite mesh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .calculus import (
    divergence,
    divergence_matrix,
    divergence_projection,
    gradient,
    l1_norm,
    lip_constant,
    pairing,
)
from .errors import InvalidParams, MeshError, PreconditionViolated, UnboundedSequence
from .freenorm import AGREEMENT_TOL, Molecule, beckmann_field, beckmann_graph, dual_lp
from .mesh import geodesic_distances
from .primitives import generate_primitive

TAIL_BOUND_FACTOR = 4.0 * math.sqrt(2.0)  # surface case of the tail estimate


def smoothstep_profile(t):
    """Quintic cutoff profile: 1 below 0, 0 above 1, slope at most 15/8."""
    t = np.asarray(t, dtype=float)
    s = np.clip(t, 0.0, 1.0)
    return 1.0 - (6.0 * s**5 - 15.0 * s**4 + 10.0 * s**3)


@dataclass
class ExperimentReport:
    kind: str
    rows: list = field(default_factory=list)
    passed: bool = True
    details: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "kind": self.kind,
            "rows": self.rows,
            "passed": self.passed,
            "details": self.details,
        }


def cutoff_field(dist, scale):
    """Scaled bump h(dist / scale - 1) over a distance field: one on the
    scale ball, zero beyond twice the scale, slope at most 2 / scale."""
    if not scale > 0:
        raise InvalidParams(f"cutoff scale must be positive, got {scale}")
    return smoothstep_profile(dist / scale - 1.0)


def divergence_free_field(mesh, potential=None, rng=None):
    """Rotated gradient of a scalar potential, projected onto the
    divergence kernel so the precondition holds to solver accuracy."""
    if mesh.dimension != 2:
        raise MeshError("divergence-free construction requires a surface")
    if potential is None:
        rng = rng or np.random.default_rng(0)
        potential = rng.normal(size=mesh.vertex_count)
    grad = gradient(mesh, np.asarray(potential, dtype=float))
    rotated = np.column_stack([-grad[:, 1], grad[:, 0]])
    return project_divergence_free(mesh, rotated)


def project_divergence_free(mesh, g):
    """Orthogonal projection of a field onto ker(divergence)."""
    g = np.asarray(g, dtype=float).ravel()
    return divergence_projection(mesh)(g).reshape(mesh.field_shape)


def cutoff_decay(mesh, g, f, ks):
    """Pairings of df against the cutoff-localized field, with the tail
    bound 4*sqrt(2)*Lip(f)*tail-L1(g) per scale.

    Requires g divergence-free to 1e-8. Passes when every measured value
    stays within 1.1x its bound and the measured column strictly
    decreases across the scales.
    """
    g = np.asarray(g, dtype=float)
    div = divergence(mesh, g)
    if np.abs(div).max() > 1e-8:
        raise PreconditionViolated(
            f"field is not divergence-free: max |div| = {np.abs(div).max():.3e}"
        )
    f = np.asarray(f, dtype=float)
    lip = lip_constant(mesh, f, "edgewise")
    grad_f = gradient(mesh, f)
    dist = geodesic_distances(mesh, mesh.base_vertex)
    areas = mesh.face_geometry().areas
    face_norm = np.linalg.norm(g, axis=1)
    face_max_dist = dist[mesh.triangles].max(axis=1)

    report = ExperimentReport(kind="cutoff_decay")
    report.details = {
        "lipschitz_constant": lip,
        "bound_factor": TAIL_BOUND_FACTOR,
        "ks": list(ks),
    }
    measured_col = []
    for k in ks:
        hk = cutoff_field(dist, float(k))
        face_scale = hk[mesh.triangles].mean(axis=1)
        localized = g * face_scale[:, None]
        measured = abs(pairing(mesh, grad_f, localized))
        tail = float(np.sum(areas[face_max_dist > k] * face_norm[face_max_dist > k]))
        bound = TAIL_BOUND_FACTOR * lip * tail
        measured_col.append(measured)
        report.rows.append(
            {"k": float(k), "measured": measured, "bound": bound, "tail_l1": tail}
        )
        if measured > 1.1 * bound:
            report.passed = False
    decreasing = all(
        b < a for a, b in zip(measured_col, measured_col[1:])
    )
    report.details["strictly_decreasing"] = decreasing
    if not decreasing:
        report.passed = False
    return report


def extend_by_zero(mesh_n, faces_m, g_m):
    """Extend a field given on the faces ``faces_m`` to the whole mesh by
    zero. ``g_m`` rows follow sorted(faces_m)."""
    faces = sorted(int(f) for f in faces_m)
    g_m = np.asarray(g_m, dtype=float)
    if g_m.shape != (len(faces), 2):
        raise MeshError(f"field has shape {g_m.shape}, expected ({len(faces)}, 2)")
    out = np.zeros((len(mesh_n.triangles), 2))
    out[faces] = g_m
    return out


def interface_vertices(mesh_n, faces_m):
    """Vertices incident to both a subset face and a complement face."""
    inside = _face_mask(mesh_n, faces_m)
    shared = np.intersect1d(mesh_n.triangles[inside], mesh_n.triangles[~inside])
    return set(shared.tolist())


def _face_mask(mesh, faces):
    """Boolean mask of the listed faces; ids outside the mesh are ignored."""
    return np.isin(np.arange(len(mesh.triangles)), [int(f) for f in faces])


def tangential_subset_field(mesh_n, faces_m, rng=None):
    """Field supported on the subset faces, divergence-free on the whole
    mesh: the discrete membership certificate for extension by zero.

    Starts from a rotated gradient and projects onto the kernel of the
    divergence restricted to the subset columns.
    """
    faces = sorted(int(f) for f in faces_m)
    rng = rng or np.random.default_rng(0)
    grad = gradient(mesh_n, rng.normal(size=mesh_n.vertex_count))
    rotated = np.column_stack([-grad[:, 1], grad[:, 0]])
    g0 = rotated[faces].ravel()

    A = divergence_matrix(mesh_n)
    cols = np.repeat(2 * np.array(faces), 2) + np.tile([0, 1], len(faces))
    # only the subset's corner vertices give nonzero columns, and zero
    # columns leave the range, hence the projection, unchanged
    touched = np.unique(mesh_n.triangles[faces])
    Am = A[touched][:, cols].T.toarray()  # (2|M|, touched vertices)
    y, *_ = np.linalg.lstsq(Am, g0, rcond=None)
    g = g0 - Am @ y
    return g.reshape(len(faces), 2)


def normal_flux_counterexample(mesh_n, faces_m):
    """Unit normal flux through one interface edge, supported on one face.

    Returns ``(field_on_m, edge_id)`` with the flux normalized to one.
    """
    faces = sorted(int(f) for f in faces_m)
    outside = ~_face_mask(mesh_n, faces)
    outside_count = np.bincount(
        mesh_n.face_edges[outside].ravel(), minlength=len(mesh_n.edges)
    )
    # first (face, slot) of the subset whose edge also borders the complement
    hits = np.argwhere(outside_count[mesh_n.face_edges[faces]] > 0)
    if not len(hits):
        raise MeshError("subset has no interior interface edge")
    k, i = (int(x) for x in hits[0])
    f = faces[k]
    layout = mesh_n.face_geometry().layout
    vec = layout[f, (i + 1) % 3] - layout[f, i]
    ell = float(np.linalg.norm(vec))
    normal = np.array([vec[1], -vec[0]]) / ell  # outward of face f
    g = np.zeros((len(faces), 2))
    g[k] = normal / ell  # flux = <g, n> * length = 1
    return g, int(mesh_n.face_edges[f, i])


def extension_experiment(mesh_n, faces_m, rng=None):
    """Extension-by-zero membership test on a subset of a disk mesh.

    The tangential (zero normal flux) field must extend with zero
    divergence everywhere; the unit-flux counterexample must produce a
    visible divergence at the interface.
    """
    report = ExperimentReport(kind="extension")
    tangential = tangential_subset_field(mesh_n, faces_m, rng=rng)
    extended = extend_by_zero(mesh_n, faces_m, tangential)
    div_tangential = float(np.abs(divergence(mesh_n, extended)).max())

    counter, edge = normal_flux_counterexample(mesh_n, faces_m)
    extended_counter = extend_by_zero(mesh_n, faces_m, counter)
    div_counter = np.abs(divergence(mesh_n, extended_counter))
    endpoints = [int(x) for x in mesh_n.edges[edge]]
    interface_div = float(div_counter[endpoints].max())

    report.rows = [
        {"case": "tangential", "max_divergence": div_tangential},
        {
            "case": "unit_flux",
            "max_divergence": float(div_counter.max()),
            "interface_divergence": interface_div,
        },
    ]
    report.details = {
        "interface_vertex_count": len(interface_vertices(mesh_n, faces_m)),
        "flux_edge": int(edge),
    }
    report.passed = div_tangential <= 1e-8 and interface_div >= 0.01
    return report


def weakstar_probe(mesh, f_seq, f_lim, g, lip_bound, pass_threshold=None):
    """Pairing deviations of a pointwise convergent bounded field sequence.

    Rows track max |f_k - f_lim| and |pairing(grad(f_k - f_lim), g)|. The
    probe passes when the deviation column reaches the threshold
    (default 1e-6 * l1_norm(g) * lip_bound) by the last step.
    """
    f_lim = np.asarray(f_lim, dtype=float)
    g = np.asarray(g, dtype=float)
    l1g = l1_norm(mesh, g)
    threshold = (
        1e-6 * l1g * lip_bound if pass_threshold is None else pass_threshold
    )
    report = ExperimentReport(kind="weakstar")
    report.details = {
        "lip_bound": lip_bound,
        "l1_norm_g": l1g,
        "threshold": threshold,
    }
    deviations = []
    for step, fk in enumerate(f_seq):
        fk = np.asarray(fk, dtype=float)
        lip = lip_constant(mesh, fk, "edgewise")
        if lip > lip_bound * (1.0 + 1e-12):
            raise UnboundedSequence(
                f"step {step} has Lipschitz constant {lip} > {lip_bound}"
            )
        deviation = abs(pairing(mesh, gradient(mesh, fk - f_lim), g))
        deviations.append(deviation)
        report.rows.append(
            {
                "step": step,
                "max_pointwise_gap": float(np.abs(fk - f_lim).max()),
                "deviation": deviation,
            }
        )
    report.passed = bool(deviations and deviations[-1] <= threshold)
    return report


def refinement_study(kind, levels, atoms, include_field=False, field_params=None):
    """Free-norm solver agreement across refinement levels of a primitive.

    ``atoms`` is a list of (target_point, coefficient); targets snap to
    the nearest vertex at every level. Passes when the graph-dual gap
    stays within ``AGREEMENT_TOL * max(1, |dual|)`` everywhere and, if
    the field solver runs, its finest value lands within 5% of the finest
    dual value.
    """
    report = ExperimentReport(kind="refinement")
    report.details = {"kind": kind, "levels": list(levels)}
    last_dual = None
    last_field = None
    for level in levels:
        mesh = _primitive_at_level(kind, level)
        positions = mesh.aux["positions"]
        atom_list = []
        for target, coeff in atoms:
            target = np.asarray(target, dtype=float)
            idx = int(
                np.argmin(np.linalg.norm(positions - target[None, :], axis=1))
            )
            atom_list.append((idx, float(coeff)))
        mu = Molecule(tuple(atom_list))
        dual, _ = dual_lp(mesh, mu)
        graph, _ = beckmann_graph(mesh, mu)
        row = {
            "level": int(level),
            "faces": len(mesh.triangles),
            "dual": dual,
            "graph": graph,
            "gap": graph - dual,
        }
        if abs(graph - dual) > AGREEMENT_TOL * max(1.0, abs(dual)):
            report.passed = False
        if include_field and mesh.dimension == 2:
            value, _, diag = beckmann_field(mesh, mu, params=field_params)
            row["field"] = value
            row["field_iterations"] = diag["iterations"]
            last_field = value
        last_dual = dual
        report.rows.append(row)
    if include_field and last_field is not None and last_dual:
        rel = abs(last_field - last_dual) / abs(last_dual)
        report.details["field_vs_dual_relative"] = rel
        if rel > 0.05:
            report.passed = False
    return report


def _primitive_at_level(kind, level):
    level = int(level)
    if kind == "flat_rect":
        return generate_primitive("flat_rect", nx=level)
    if kind == "icosphere":
        return generate_primitive("icosphere", level=level)
    if kind == "torus":
        return generate_primitive("torus", nx=level)
    if kind == "annulus":
        return generate_primitive("annulus", n_angular=4 * level, n_radial=level)
    raise InvalidParams(f"refinement study does not support kind {kind!r}")
