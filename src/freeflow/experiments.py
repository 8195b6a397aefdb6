"""Numerical experiments for the asymptotic and extension statements.

Each experiment returns an :class:`ExperimentReport` with one row per
step, a bound column computed from the relevant estimate, and a pass
flag. Unbounded domains are modeled by long flat strips; the cutoff
experiment is indexed by the cutoff scale rather than by a single
infinite mesh.

:data:`EXPERIMENTS` maps each kind of ``freeflow experiment`` to the
function that builds its mesh, fields and molecule and runs it. Its
keyword settings and defaults are the kind's config keys and defaults;
each is checked before anything is built, and a value of the wrong type
or out of its range is a :class:`ParseError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .calculus import (
    _as_array,
    divergence,
    divergence_matrix,
    divergence_normal_solver,
    gradient,
    l1_norm,
    lip_constant,
    pairing,
)
from .errors import (
    InvalidParams,
    MeshError,
    ParseError,
    PreconditionViolated,
    UnboundedSequence,
    check_integer,
    check_real,
)
from .freenorm import (
    AGREEMENT_TOL,
    FieldSolveParams,
    Molecule,
    beckmann_field,
    beckmann_graph,
    check_field_bracket,
    dual_lp,
)
from .mesh import TriMesh, _vertex_ids, geodesic_distances
from .primitives import _face_edge_pairs, generate_primitive

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


def divergence_free_field(mesh, potential):
    """Rotated gradient of a scalar potential, projected onto the
    divergence kernel so the precondition holds to solver accuracy."""
    if mesh.dimension != 2:
        raise MeshError("divergence-free construction requires a surface")
    grad = gradient(mesh, np.asarray(potential, dtype=float))
    rotated = np.column_stack([-grad[:, 1], grad[:, 0]])
    return project_divergence_free(mesh, rotated)


def project_divergence_free(mesh, g):
    """Orthogonal projection g - A^T (A A^T)^-1 A g of a field onto
    ker(divergence): A's columns follow ``mesh.field_shape``, and A A^T
    is factored once, by :func:`divergence_normal_solver`."""
    A = divergence_matrix(mesh)
    g = np.asarray(g, dtype=float).ravel()
    y = divergence_normal_solver(mesh)(A @ g)
    return (g - A.T @ y).reshape(mesh.field_shape)


def cutoff_decay(mesh, g, f, ks):
    """Pairings of df against the cutoff-localized field, with the tail
    bound 4*sqrt(2)*Lip(f)*tail-L1(g) per scale.

    Requires g divergence-free to 1e-8. Passes when every measured value
    stays within 1.1x its bound and the measured column strictly
    decreases across the scales. No scales is :class:`InvalidParams`.
    """
    ks = list(ks)
    if not ks:
        raise InvalidParams("cutoff decay needs at least one scale in ks")
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
        "ks": ks,
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


def _subset_faces(mesh, faces_m):
    """The subset's face ids, sorted. An empty subset, or one with a
    non-integral id, a repeated id or an id off the mesh, is a
    :class:`MeshError`."""
    faces = sorted(_vertex_ids(list(faces_m), 1, "face id").ravel().tolist())
    if not faces:
        raise MeshError("subset has no faces")
    distinct = all(a < b for a, b in zip(faces, faces[1:]))
    if not (distinct and 0 <= faces[0] and faces[-1] < len(mesh.triangles)):
        raise MeshError("subset face ids must be distinct faces of the mesh")
    return np.array(faces, dtype=np.int64)


def _face_mask(mesh, faces):
    """Boolean mask of the checked subset ``faces``."""
    mask = np.zeros(len(mesh.triangles), dtype=bool)
    mask[faces] = True
    return mask


def extend_by_zero(mesh_n, faces_m, g_m):
    """Extend a field given on the faces ``faces_m`` to the whole mesh by
    zero. ``g_m`` rows follow sorted(faces_m). A malformed subset or
    ``g_m`` (a wrong shape, a non-finite entry) is a :class:`MeshError`."""
    faces = _subset_faces(mesh_n, faces_m)
    out = np.zeros((len(mesh_n.triangles), 2))
    out[faces] = _as_array(g_m, (len(faces), 2), "field")
    return out


def interface_vertices(mesh_n, faces_m):
    """Vertices incident to both a subset face and a complement face."""
    inside = _face_mask(mesh_n, _subset_faces(mesh_n, faces_m))
    shared = np.intersect1d(mesh_n.triangles[inside], mesh_n.triangles[~inside])
    return set(shared.tolist())


def tangential_subset_field(mesh_n, faces_m, rng=None):
    """Field supported on the subset faces, divergence-free on the whole
    mesh: the discrete membership certificate for extension by zero.

    The subset faces, with their corners relabelled in order and their
    lengths in ``mesh_n``, form a mesh M of their own, and the field is
    :func:`divergence_free_field` on M. M's divergence sums only subset
    faces, so the field extended by zero is divergence-free at every
    vertex of ``mesh_n``. Rows follow sorted(faces_m). An empty subset,
    or one with a repeated id or an id off the mesh, is a
    :class:`MeshError`; one not joined through shared vertices is
    :class:`Disconnected`.
    """
    faces = _subset_faces(mesh_n, faces_m)
    rng = rng or np.random.default_rng(0)
    potential = rng.normal(size=mesh_n.vertex_count)
    touched, corners = np.unique(mesh_n.triangles[faces], return_inverse=True)
    corners = corners.reshape(-1, 3)
    lengths = mesh_n.edge_lengths[mesh_n.face_edges[faces]].ravel()
    mesh_m = TriMesh(corners, _face_edge_pairs(corners), lengths)
    return divergence_free_field(mesh_m, potential=potential[touched])


def normal_flux_counterexample(mesh_n, faces_m):
    """Unit normal flux through one interface edge, supported on one face.

    Returns ``(field_on_m, edge_id)`` with the flux normalized to one.
    A malformed subset is a :class:`MeshError`, as for
    :func:`tangential_subset_field`.
    """
    faces = _subset_faces(mesh_n, faces_m)
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
    the nearest vertex at every level, and have as many coordinates as
    the primitive's positions: three on ``icosphere``, two otherwise. A
    wrong count is a :class:`ParseError`, raised before any mesh is
    built. Passes when the graph-dual gap stays within
    ``AGREEMENT_TOL * max(1, |dual|)`` everywhere and, if the field
    solver runs, its finest value lands within 5% of the finest dual
    value. A field solve whose bracket stays open raises
    :class:`NotConverged`, as in :func:`free_norm`; no levels, or a
    level that is not an integer, is :class:`InvalidParams`.
    """
    if type(kind) is not str or kind not in _REFINED:
        raise InvalidParams(f"refinement study does not support kind {kind!r}")
    levels = list(levels)
    if not levels:
        raise InvalidParams("refinement study needs at least one level")
    build, dimension = _REFINED[kind]
    targets = [np.asarray(target, dtype=float) for target, _ in atoms]
    for target in targets:
        if target.shape != (dimension,):
            raise ParseError(
                f"atom target {target.tolist()} on {kind} needs {dimension} coordinates"
            )
    report = ExperimentReport(kind="refinement")
    report.details = {"kind": kind, "levels": levels}
    last_dual = None
    last_field = None
    for level in levels:
        mesh = build(level)
        positions = mesh.aux["positions"]
        atom_list = []
        for target, (_, coeff) in zip(targets, atoms):
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
            check_field_bracket(diag)
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


# the primitive at a refinement level, and how many coordinates its
# positions have
_REFINED = {
    "flat_rect": (lambda level: generate_primitive("flat_rect", nx=level), 2),
    "icosphere": (lambda level: generate_primitive("icosphere", level=level), 3),
    "torus": (lambda level: generate_primitive("torus", nx=level), 2),
    "annulus": (
        lambda level: generate_primitive("annulus", n_angular=4 * level, n_radial=level),
        2,
    ),
}


def _items(name, value, check, count=None, **options):
    """``check(name, item, **options)`` of each item of ``value``, a
    non-empty list or tuple, of ``count`` items when given; else a
    :class:`ParseError`."""
    if not isinstance(value, (list, tuple)) or not value or len(value) != (count or len(value)):
        what = f"a list of {count} items" if count else "a non-empty list"
        raise ParseError(f"{name!r}: {value!r} is not {what}")
    return [check(name, item, **options) for item in value]


def _atom(name, atom):
    """A ``[target, coefficient]`` pair: a list of numbers and a number."""
    if not isinstance(atom, (list, tuple)) or len(atom) != 2:
        raise ParseError(f"{name!r}: {atom!r} is not a [target, coefficient] pair")
    target, coefficient = atom
    return _items(name, target, check_real), check_real(name, coefficient)


def run_cutoff(rng, /, *, width=32.0, height=1.0, nx=160, ny=8, ks=(1, 2, 4, 8), decay=4.0):
    """:func:`cutoff_decay` at the scales ``ks`` on a ``width`` x
    ``height`` flat strip of ``nx`` x ``ny`` cells, for the rotated
    gradient of exp(-dist / ``decay``), dist from the base vertex."""
    ks = _items("ks", ks, check_real, positive=True)
    decay = check_real("decay", decay, positive=True)
    mesh = generate_primitive("flat_rect", width=check_real("width", width),
                              height=check_real("height", height),
                              nx=check_integer("nx", nx), ny=check_integer("ny", ny))
    dist = geodesic_distances(mesh, mesh.base_vertex)
    g = divergence_free_field(mesh, potential=np.exp(-dist / decay))
    return cutoff_decay(mesh, g, dist, ks=ks)


def run_extension(rng, /, *, nx=20, center=(0.5, 0.5), r_inner=0.15, r_outer=0.35):
    """:func:`extension_experiment` on the unit square of ``nx`` x ``nx``
    cells, for the faces whose barycentres lie from ``r_inner`` to
    ``r_outer`` away from ``center``."""
    nx = check_integer("nx", nx)
    center = np.array(_items("center", center, check_real, count=2), dtype=float)
    r_inner = check_real("r_inner", r_inner)
    r_outer = check_real("r_outer", r_outer)
    mesh = generate_primitive("flat_rect", nx=nx)
    bary = mesh.aux["positions"][mesh.triangles].mean(axis=1)
    r = np.linalg.norm(bary - center[None, :], axis=1)
    faces = np.flatnonzero((r >= r_inner) & (r <= r_outer))
    return extension_experiment(mesh, faces, rng=rng)


def run_weakstar(rng, /, *, mesh_kind="circle_graph", n=32, total_length=None, steps=16):
    """:func:`weakstar_probe` of the shifts f_k = dist / k, k = 1 ..
    ``steps``, against a normal random edge field g on the metric graph
    ``mesh_kind`` of ``n`` edges (of ``total_length``, or the builder's
    default when None). Every step's deviation must also stay within its
    own bound l1(g) / k: ``details["per_step_bound_holds"]``."""
    params = {"n": check_integer("n", n)}
    if total_length is not None:
        params["total_length"] = check_real("total_length", total_length)
    steps = check_integer("steps", steps, minimum=1)
    mesh = generate_primitive(mesh_kind, **params)
    dist = geodesic_distances(mesh, mesh.base_vertex)
    g = rng.normal(size=len(mesh.edges))
    l1g = l1_norm(mesh, g)
    shifts = range(1, steps + 1)
    bounds = [(1.0 / k) * l1g * (1.0 + 1e-9) for k in shifts]
    report = weakstar_probe(mesh, [dist / k for k in shifts], np.zeros(mesh.vertex_count),
                            g, lip_bound=1.0, pass_threshold=bounds[-1])
    per_step = all(row["deviation"] <= bound for row, bound in zip(report.rows, bounds))
    report.details["per_step_bound_holds"] = per_step
    report.passed = report.passed and per_step
    return report


def run_refine(rng, /, *, primitive, levels, atoms, include_field=False,
               field_max_iter=FieldSolveParams.max_iter, field_tol=FieldSolveParams.tol):
    """:func:`refinement_study` of ``primitive`` at ``levels``, for the
    ``[target, coefficient]`` pairs ``atoms``."""
    params = FieldSolveParams(max_iter=field_max_iter, tol=field_tol)
    levels = _items("levels", levels, check_integer)
    atoms = _items("atoms", atoms, _atom)
    if not isinstance(include_field, bool):
        raise ParseError(f"'include_field': {include_field!r} is not a boolean")
    return refinement_study(primitive, levels, atoms, include_field=include_field,
                            field_params=params)


# The kinds of ``freeflow experiment``. Each takes the run's generator
# first, positional only, so no config names it; cutoff and refine draw none.
EXPERIMENTS = {
    "cutoff": run_cutoff,
    "extension": run_extension,
    "weakstar": run_weakstar,
    "refine": run_refine,
}
