"""Free-space norm of finitely supported measures, three ways.

A molecule sum_i a_i * delta(x_i) is normed by

* ``dual_lp``       -- maximize sum_i a_i f(x_i) over vertex potentials
                       that are 1-Lipschitz edgewise and vanish at the
                       base vertex (successive-shortest-path potentials);
* ``beckmann_graph``-- minimize the length-weighted mass of an edge flow
                       whose divergence is the molecule (network simplex);
* ``beckmann_field``-- minimize the L1 mass of a per-face vector field
                       whose distributional divergence is the molecule
                       (primal-dual interior-point method on one
                       second-order cone per face).

The molecule need not balance: the base vertex absorbs the deficit,
which realizes delta(base) = 0. Each graph route certifies its solver's
flow and potential against each other, and the two values agree by LP
duality. The field route certifies its value between a projected
field's mass and a weak-duality bound from its dual potential; the
field value converges to the continuum norm under mesh refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy.sparse.csgraph import dijkstra

from . import netsimplex, ssp
from .calculus import divergence_matrix, weighted_normal_factorizer
from .errors import (
    MeshError,
    NotConverged,
    ParseError,
    SolverFailure,
    TooManyAtoms,
    check_integer,
    check_real,
)
from .mesh import _vertex_id, _vertex_ids
from .transport import solve_transportation

# two routes contradict each other when they differ by more than this
# fraction of max(1, |dual value|)
AGREEMENT_TOL = 1e-6

# largest relative residual, slack or gap a certified graph answer may show
CERTIFICATE_TOL = 1e-9

METHODS = ("dual", "graph", "field", "all")


@dataclass(frozen=True)
class Molecule:
    """Finitely supported signed measure sum_i a_i * delta(vertex_i)."""

    atoms: tuple

    def __post_init__(self):
        ids = _vertex_ids([v for v, _ in self.atoms], 1).ravel().tolist()
        atoms = tuple(zip(ids, (float(c) for _, c in self.atoms)))
        if not np.all(np.isfinite([c for _, c in atoms])):
            raise MeshError("molecule has non-finite coefficients")
        object.__setattr__(self, "atoms", atoms)

    def total_mass(self):
        return sum(c for _, c in self.atoms)

    def scale(self, factor):
        return Molecule(tuple((v, factor * c) for v, c in self.atoms))

    def __add__(self, other):
        return Molecule(self.atoms + other.atoms)


def canonicalize(molecule, base_vertex=0):
    """Merge duplicate atoms, drop zeros and the base atom.

    Evaluations <F, mu> are unchanged for every F with F(base) = 0.
    """
    merged = {}
    for v, c in molecule.atoms:
        merged[v] = merged.get(v, 0.0) + c
    merged.pop(int(base_vertex), None)
    atoms = tuple(
        (v, c) for v, c in sorted(merged.items()) if c != 0.0
    )
    # ``molecule`` checked its ids and coefficients when it was built;
    # merging them can only overflow a sum
    if not all(math.isfinite(c) for _, c in atoms):
        raise MeshError("molecule has non-finite coefficients")
    canonical = object.__new__(Molecule)
    object.__setattr__(canonical, "atoms", atoms)
    return canonical


def _check_vertices(mesh, molecule):
    for v, _ in molecule.atoms:
        _vertex_id("atom vertex", v, mesh.vertex_count)


def molecule_vector(mesh, molecule):
    """Vertex imbalance of the molecule, base vertex absorbing the total."""
    _check_vertices(mesh, molecule)
    b = np.zeros(mesh.vertex_count)
    for v, c in molecule.atoms:
        b[v] += c
    b[mesh.base_vertex] -= molecule.total_mass()
    return b


def certify_graph_optimum(mesh, b, flow, potential):
    """Optimality certificate of an edge flow and a vertex potential.

    By LP duality the pair is optimal when the flow routes ``b``, the
    potential p is edgewise 1-Lipschitz and the flow's length-weighted
    mass equals b . p. Returns the three relative defects:

    * residual -- max |incidence @ flow - b| / max(1, max |b|);
    * slack    -- max_e |p change along e| / length_e - 1;
    * gap      -- (sum length * |flow| - b . p) / max(1, |b . p|).

    Raises :class:`SolverFailure` with the three in its diagnostics
    unless the residual, the slack and |gap| are each at most
    ``CERTIFICATE_TOL``, so a NaN defect fails too.
    """
    tails, heads = mesh.edges.T
    inflow = np.bincount(heads, flow, len(b)) - np.bincount(tails, flow, len(b))
    residual = float(np.abs(inflow - b).max()) / max(1.0, float(np.abs(b).max()))
    steepest = np.abs(potential[heads] - potential[tails]) / mesh.edge_lengths
    slack = float(steepest.max()) - 1.0
    # elementwise sums: a BLAS dot of this length may wake its thread pool
    dual = float(np.sum(b * potential))
    gap = (float(np.sum(mesh.edge_lengths * np.abs(flow))) - dual) / max(1.0, abs(dual))
    numbers = {"residual": residual, "slack": slack, "gap": gap}
    # not max(...) > tol: the builtin max drops a NaN after its first argument
    if not all(x <= CERTIFICATE_TOL for x in (residual, slack, abs(gap))):
        raise SolverFailure(
            f"graph solution fails its certificate (tolerance {CERTIFICATE_TOL}): "
            f"residual {residual!r}, slack {slack!r}, gap {gap!r}",
            diagnostics=numbers,
        )
    return numbers


def dual_lp(mesh, molecule):
    """Maximal molecule evaluation over edgewise 1-Lipschitz potentials.

    Returns ``(value, potential)`` with potential[base] == 0. The value
    is the discrete free norm of the molecule.
    """
    molecule = canonicalize(molecule, mesh.base_vertex)
    b = molecule_vector(mesh, molecule)
    flow, potential = ssp.min_cost_flow(mesh, b)
    certify_graph_optimum(mesh, b, flow, potential)
    value = float(sum(c * potential[v] for v, c in molecule.atoms))
    return value, potential


def beckmann_graph(mesh, molecule):
    """Minimal length-weighted edge flow realizing the molecule.

    Returns ``(value, edge_flow)``; the flow is signed along canonical
    edge orientations and satisfies incidence @ flow = molecule vector.
    Optimal flows are not unique in general; only the value is
    contractual.
    """
    molecule = canonicalize(molecule, mesh.base_vertex)
    b = molecule_vector(mesh, molecule)
    flow, potential = netsimplex.min_cost_flow(mesh, b)
    certify_graph_optimum(mesh, b, flow, potential)
    value = float(np.sum(mesh.edge_lengths * np.abs(flow)))
    return value, flow


def transport_oracle(mesh, molecule):
    """Exact free norm via rational transportation on atom distances.

    Independent of both LP routes: pairwise geodesic distances between
    the signed parts (plus the base vertex) feed an exact-arithmetic
    transportation solve. Limited to 12 atoms to keep the instance tiny.
    """
    molecule = canonicalize(molecule, mesh.base_vertex)
    _check_vertices(mesh, molecule)
    if len(molecule.atoms) > 12:
        raise TooManyAtoms(f"{len(molecule.atoms)} atoms exceed the bound of 12")
    # exact rational masses so the balanced instance balances exactly
    weights = {v: Fraction(c) for v, c in molecule.atoms}
    weights[mesh.base_vertex] = -sum(weights.values(), Fraction(0))
    sources = [(v, c) for v, c in sorted(weights.items()) if c > 0]
    sinks = [(v, -c) for v, c in sorted(weights.items()) if c < 0]
    dist = dijkstra(mesh.adjacency, indices=[v for v, _ in sources])
    cost = dist[:, [v for v, _ in sinks]].tolist()
    value = solve_transportation(
        [c for _, c in sources], [c for _, c in sinks], cost
    )
    return float(value)


@dataclass(frozen=True)  # checked once, when made
class FieldSolveParams:
    # caps the interior-point method's Newton steps, each one sparse
    # factorization; certified dipole, 6- and 50-atom solves on
    # flat_rect nx16-128 and icosphere L3-L5 took 7 to 28
    max_iter: int = 200
    # bounds the divergence residual max |A g - b| of the returned field,
    # relative to max(1, max |b|), and the certified gap upper - lower,
    # relative to max(1, upper)
    tol: float = 1e-6

    def __post_init__(self):
        check_integer("field max_iter", self.max_iter, minimum=1)
        check_real("field tol", self.tol, positive=True)


# Each face T carries one second-order cone {(t, g) : |g| <= t} in R^3.
# Cone variables are (3, F) arrays, one row per component, and J =
# diag(1, -1, -1) is the cone's Lorentz form. np.column_stack puts g rows
# in A's column order, several times faster than a transposed copy does.
_J = np.diag([1.0, -1.0, -1.0])[:, :, None]


def _dot(u, v):
    """Per-face inner products of (k, ...) arrays, over their first axis."""
    return np.einsum("i...,i...->...", u, v)


def _lorentz_norms(u):
    """sqrt(u^T J u) per face, for u inside the cones."""
    rim = np.sqrt(u[1] * u[1] + u[2] * u[2])
    return np.sqrt((u[0] - rim) * (u[0] + rim))


def _nt_scaling(x, s):
    """Nesterov-Todd scaling of primal x and dual s inside the cones:
    the per-face W = beta (2 v v^T - J) as one (3, 3, F) array, with
    W s = W^-1 x; the rows D_00, D_01, D_11 of the lower 2 x 2 block of
    W W; and the Lorentz norms of lam = W s.

    As in CVXOPT: with x and s normalized to unit Lorentz norm,
    w = (x + J s) / (2 gamma), gamma = sqrt((1 + x.s) / 2), has
    w^T J w = 1; then v = (w + e) / sqrt(2 (w_0 + 1)), e = (1, 0, 0),
    and beta = (x^T J x / s^T J s)^(1/4). From v^T J v = 1 and
    W J W = beta^2 J, the block is D = beta^2 (I + 8 v_0^2 v_g v_g^T),
    v_g the last two entries of v, and |lam|_J = sqrt(|x|_J |s|_J).
    """
    xn, sn = _lorentz_norms(x), _lorentz_norms(s)
    v, sb = x / xn, s / sn
    gamma = np.sqrt((1.0 + _dot(v, sb)) / 2.0)
    v[0] += sb[0]  # x + J s, of the normalized x and s
    v[1:] -= sb[1:]
    v /= 2.0 * gamma
    v[0] += 1.0
    v /= np.sqrt(2.0 * v[0])
    beta2 = xn / sn
    W = 2.0 * v[:, None] * v  # in place: one expression on (3, 3, F)
    W -= _J                   # temporaries ran 2.7x slower at F = 5120
    W *= np.sqrt(beta2)
    vg = np.sqrt(8.0 * beta2) * v[0] * v[1:]
    D = vg[(0, 0, 1), :] * vg[(0, 1, 1), :]
    D[::2] += beta2
    return W, D, np.sqrt(xn * sn)


def _apply(W, u):
    """W u per face, for (k, 3, F) W and (3, F) u."""
    return np.einsum("ijf,jf->if", W, u)


def _jordan(u, v):
    """Per-face Jordan products u o v = (u.v, u_0 v_bar + v_0 u_bar)."""
    return np.concatenate(([_dot(u, v)], u[0] * v[1:] + v[0] * u[1:]))


def _jordan_divide(lam, r, lam_norm):
    """The q with lam o q = r per face, lam inside the cones with Lorentz norms lam_norm."""
    q0 = (lam[0] * r[0] - _dot(lam[1:], r[1:])) / (lam_norm * lam_norm)
    return np.concatenate(([q0], (r[1:] - q0 * lam[1:]) / lam[0]))


def _max_step(u, d, un):
    """Largest alpha with every u_T + alpha d_T in its cone, for u inside
    the cones with Lorentz norms un and d of shape (3, F) or (3, k, F).

    The Lorentz boost taking u_T / |u_T|_J to e maps d_T / |u_T|_J to p,
    linear in d, and e + alpha p stays in the cone while
    alpha (|p_bar| - p_0) <= 1. A NaN in u or d gives a NaN.
    """
    uh = u / un
    bar = _dot(uh[1:], d[1:])
    lift = bar / (1.0 + uh[0]) - d[0]
    r1, r2 = d[1] + uh[1] * lift, d[2] + uh[2] * lift
    rate = np.max((np.sqrt(r1 * r1 + r2 * r2) - (uh[0] * d[0] - bar)) / un)
    return float(1.0 / np.maximum(rate, 0.0))


def _slope_lower_bound(mesh, AT, b, y):
    """Weak-duality lower bound from a vertex potential y; AT is A^T.

    For every field g with A g = b,
    b.y = g.A^T y <= max_T(|(A^T y)_T| / w_T) * sum_T w_T |g_T|, and
    |(A^T y)_T| / w_T is the slope of y on face T, so |b.y| over the
    steepest slope bounds the optimum from below for either sign of y.
    """
    gx, gy = (AT @ y).reshape(-1, 2).T
    steepest = float(np.max(np.sqrt(gx * gx + gy * gy) / mesh.cell_weights))
    # elementwise sums here and in beckmann_field: a BLAS dot of this
    # length may wake numpy's own OpenBLAS threads (scipy's run the factor)
    return abs(float(np.sum(b * y))) / steepest if steepest > 0.0 else 0.0


def beckmann_field(mesh, molecule, params=None):
    """Minimal-L1 per-face vector field with prescribed divergence.

    Solves the cone program min sum_T w_T t_T subject to A g = b and
    |g_T| <= t_T, w the face areas, by a primal-dual interior-point
    method with Nesterov-Todd scaling and Mehrotra's predictor-corrector
    (Andersen, Roos & Terlaky, Math. Program. 95, 2003). Its dual is
    max b.y over vertex potentials y of slope at most one on every face.
    Fields are in A's column order, the (F, 2) layout of
    ``mesh.field_shape``: column 2T + i of A is g_i on face T.

    The start is primal and dual feasible (Mehrotra, SIAM J. Optim. 2,
    1992): the least-norm field g0 = A^T (A A^T)^-1 b, from one factor at
    D = I, lifted inside the cones as x_T = (|g0_T| + mu / w_T, g0_T) with
    mu = sum_T w_T |g0_T| / F, and s_T = (w_T, 0, 0), y = 0, so that
    x_T . s_T = w_T |g0_T| + mu; a non-positive pivot in that factor raises
    :class:`SolverFailure`. Each Newton step computes its
    per-face quantities once: :func:`_nt_scaling` gives the scaling W,
    the lower 2 x 2 block D of W^2 and |lam|_J in closed form, and one
    pinned V x V matrix A D A^T is factored and solved three times. As in
    CVXOPT (Vandenberghe, 2010), the directions are kept scaled, W^-1 dx
    and W ds at lam = W s: the Mehrotra cross term is their Jordan
    product, one cone search at lam gives both step lengths, and W^-1 is
    never applied. After the step, the field is projected onto A g = b
    with the same factor, x_g + D A^T (A D A^T)^-1 (b - A x_g), so its
    value is an upper bound, and b - A x_g is the next step's primal
    residual; :func:`_slope_lower_bound` of y is a lower bound. The solve
    stops once upper - lower is at most ``params.tol * max(1, upper)``,
    after ``params.max_iter`` steps, or at a step that cannot move (a
    non-finite scaling, a factor with a non-positive pivot, no step); it
    returns the best projected field with the bracket in its
    diagnostics, and ``certified`` says whether the bracket closed.

    The divergence residual max |A g - b| is measured once, on the field
    returned, and a residual above ``params.tol * max(1, max |b|)`` (or
    NaN) raises :class:`NotConverged` with it and the complementarity
    x.s in ``residuals``. The bound is relative because the residual is
    the projection's roundoff, which scales with the molecule.
    """
    if mesh.dimension != 2:
        raise MeshError("field solver requires a dimension-2 mesh")
    params = params or FieldSolveParams()
    molecule = canonicalize(molecule, mesh.base_vertex)
    b = molecule_vector(mesh, molecule)
    factor = weighted_normal_factorizer(mesh)
    if not b.any():  # the zero field, with nothing to solve
        diagnostics = {
            "iterations": 0, "complementarity": 0.0, "divergence_residual": 0.0,
            "lower": 0.0, "upper": 0.0, "gap": 0.0, "certified": True,
        }
        return 0.0, np.zeros(mesh.field_shape), diagnostics

    weights = mesh.cell_weights
    F = len(weights)
    A = divergence_matrix(mesh)
    AT = A.T.tocsr()  # transposed once, not on every product
    e = np.zeros((3, F))
    e[0] = 1.0
    # the least-norm field A^T (A A^T)^-1 b, from the D = I blocks (1, 0, 1);
    # that factor is dropped here, so one band is alive at a time
    g0 = AT @ factor(np.repeat([[1.0], [0.0], [1.0]], F, axis=1))(b)
    r_p = b - A @ g0  # then each projection's residual
    x = np.empty((3, F))  # C-ordered, so each per-face pass reads whole rows
    x[1:] = g0.reshape(F, 2).T
    x[0] = np.sqrt(x[1] * x[1] + x[2] * x[2])  # |g0_T| + mu / w_T, as documented
    x[0] += float(np.sum(weights * x[0])) / F / weights
    s = e * weights
    y = np.zeros(mesh.vertex_count)
    best_value, best_g, lower, certified = math.inf, None, 0.0, False

    # past the attainable accuracy, roundoff puts iterates on or across
    # the cone boundaries, and the scaling or the step turns NaN: the stop
    with np.errstate(invalid="ignore", divide="ignore"):
        for it in range(1, params.max_iter + 1):
            W, D, lam_norm = _nt_scaling(x, s)
            if not np.isfinite(D).all():
                break
            solve = None  # one factor alive at a time
            try:
                solve = factor(D)
            except SolverFailure:  # a pivot lost to roundoff: the same stop
                break
            lam = _apply(W, s)

            def newton(q):
                # W^-1 dx + W ds = q, A dx_g = r_p, ds = -(0, A^T dy), for the
                # scaled right side q = lam \ r_c; returns W^-1 dx and W ds as
                # d[:, 0] and d[:, 1], ds_g and dy. W acts only on rows read
                dy = solve(r_p - A @ np.column_stack(_apply(W[1:], q)).ravel())
                ds = np.ascontiguousarray((AT @ -dy).reshape(F, 2).T)
                w_ds = _apply(W[:, 1:], ds)
                return np.stack((q - w_ds, w_ds), axis=1), ds, dy

            # W maps each cone onto itself: x + alpha dx and s + alpha ds stay
            # in their cones while lam + alpha W^-1 dx and lam + alpha W ds do.
            # Each r_c holds -lam o lam, whose part of q = lam \ r_c is -lam
            d, _, _ = newton(-lam)
            alpha = min(_max_step(lam, d, lam_norm), 1.0)  # a NaN stays NaN
            sigma_mu = (1.0 - alpha) ** 3 * float(np.sum(_dot(lam, lam))) / F
            rest = sigma_mu * e - _jordan(d[:, 0], d[:, 1])  # the corrector's rest of r_c
            d, ds, dy = newton(_jordan_divide(lam, rest, lam_norm) - lam)
            alpha = min(0.99 * _max_step(lam, d, lam_norm), 1.0)
            if not alpha > 0.0:  # no step, or a NaN
                break
            x += alpha * _apply(W, d[:, 0])
            s[1:] += alpha * ds
            y += alpha * dy

            # the projected g rows x_g + D A^T z; their residual is the next r_p
            r_p = b - A @ np.column_stack(x[1:]).ravel()
            u = (AT @ solve(r_p)).reshape(F, 2).T
            p = x[1:] + D[:2] * u[0] + D[1:] * u[1]
            value = float(np.sum(weights * np.sqrt(p[0] * p[0] + p[1] * p[1])))
            if value < best_value:
                best_value, best_g = value, np.column_stack(p)
            lower = max(lower, _slope_lower_bound(mesh, AT, b, y))
            certified = best_value - lower <= params.tol * max(1.0, best_value)
            if certified:
                break
    complementarity = float(np.sum(x * s))

    if best_g is None:
        raise NotConverged(
            "no step had a finite value", residuals={"complementarity": complementarity}
        )
    # the one divergence check, on the field returned, relative to the
    # molecule as in certify_graph_optimum; a NaN fails it too
    divergence = float(np.abs(A @ best_g.ravel() - b).max())
    allowed = params.tol * max(1.0, float(np.abs(b).max()))
    if not divergence <= allowed:
        raise NotConverged(
            f"field divergence residual {divergence!r} exceeds {allowed!r}",
            residuals={"divergence": divergence, "complementarity": complementarity},
        )
    diagnostics = {
        "iterations": it,
        "complementarity": complementarity,
        "divergence_residual": divergence,
        "lower": lower,
        "upper": best_value,
        "gap": best_value - lower,
        "certified": certified,
    }
    return best_value, best_g, diagnostics


def check_field_bracket(diagnostics):
    """Raise :class:`NotConverged`, with ``lower``, ``upper`` and ``gap``
    in its residuals, unless the bracket of a :func:`beckmann_field`
    solve closed (its ``diagnostics["certified"]``)."""
    if not diagnostics["certified"]:
        bracket = {key: diagnostics[key] for key in ("lower", "upper", "gap")}
        raise NotConverged(
            f"field bracket [{bracket['lower']!r}, {bracket['upper']!r}] still open "
            f"after {diagnostics['iterations']} steps",
            residuals=bracket,
        )


@dataclass
class FreeNormReport:
    """Solver values and witnesses for one molecule."""

    dual_value: float | None = None
    primal_graph_value: float | None = None
    primal_field_value: float | None = None
    duality_gap: float | None = None
    optimal_potential: np.ndarray | None = None
    optimal_flow: np.ndarray | None = None
    optimal_field: np.ndarray | None = None
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self):
        out = {
            "dual_value": self.dual_value,
            "primal_graph_value": self.primal_graph_value,
            "primal_field_value": self.primal_field_value,
            "duality_gap": self.duality_gap,
            "diagnostics": self.diagnostics,
        }
        if self.optimal_potential is not None:
            out["optimal_potential"] = [float(x) for x in self.optimal_potential]
        if self.optimal_flow is not None:
            out["optimal_flow"] = [float(x) for x in self.optimal_flow]
        if self.optimal_field is not None:
            out["optimal_field"] = [
                [float(a), float(b)] for a, b in self.optimal_field
            ]
        return out


def free_norm(mesh, molecule, method="all", field_params=None):
    """Run the requested solvers and assemble a :class:`FreeNormReport`.

    ``method`` is one of :data:`METHODS` ("all" runs the field
    solver first, so its preconditions fail before a graph route runs,
    and only on surfaces). The duality gap is primal_graph - dual.
    An unknown method is a :class:`ParseError`. :class:`SolverFailure`
    is raised when a graph route fails its certificate, when the dual
    and graph routes both run and their gap exceeds
    ``AGREEMENT_TOL * max(1, |dual|)``, or when the dual and field routes
    both run and the field lower bound exceeds the dual value by as much.
    A field solve whose bracket stays open is :class:`NotConverged`,
    with ``lower``, ``upper`` and ``gap`` in its residuals.
    """
    if method not in METHODS:
        raise ParseError(f"unknown method {method!r}")
    molecule = canonicalize(molecule, mesh.base_vertex)
    report = FreeNormReport()
    report.diagnostics["atoms"] = len(molecule.atoms)
    report.diagnostics["flow_non_unique"] = True  # witnesses are one optimum

    if method == "field" or (method == "all" and mesh.dimension == 2):
        value, g, diag = beckmann_field(mesh, molecule, params=field_params)
        check_field_bracket(diag)
        report.primal_field_value = value
        report.optimal_field = g
        report.diagnostics["field"] = diag
    if method in ("dual", "all"):
        report.dual_value, report.optimal_potential = dual_lp(mesh, molecule)
    dual = report.dual_value
    if method in ("graph", "all"):
        graph = beckmann_graph(mesh, molecule)
        report.primal_graph_value, report.optimal_flow = graph
    if dual is not None and report.primal_graph_value is not None:
        gap = report.duality_gap = report.primal_graph_value - dual
        if abs(gap) > AGREEMENT_TOL * max(1.0, abs(dual)):
            raise SolverFailure(
                f"duality gap {gap!r} between the graph routes exceeds "
                f"{AGREEMENT_TOL} of the dual value {dual!r}",
                diagnostics={"duality_gap": gap, "dual_value": dual},
            )
    if dual is not None and report.primal_field_value is not None:
        # a P1 potential with slope at most one on every face is edgewise
        # 1-Lipschitz, so no field lower bound may exceed the graph norm
        lower = report.diagnostics["field"]["lower"]
        if lower > dual + AGREEMENT_TOL * max(1.0, dual):
            raise SolverFailure(
                f"field lower bound {lower!r} exceeds the graph norm {dual!r}",
                diagnostics={"field_lower": lower, "dual_value": dual},
            )
    return report
