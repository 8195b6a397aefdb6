"""Free-space norm of finitely supported measures, three ways.

A molecule sum_i a_i * delta(x_i) is normed by

* ``dual_lp``       -- maximize sum_i a_i f(x_i) over vertex potentials
                       that are 1-Lipschitz edgewise and vanish at the
                       base vertex (successive-shortest-path potentials);
* ``beckmann_graph``-- minimize the length-weighted mass of an edge flow
                       whose divergence is the molecule (network simplex);
* ``beckmann_field``-- minimize the L1 mass of a per-face vector field
                       whose distributional divergence is the molecule
                       (operator-splitting iteration).

The molecule need not balance: the base vertex absorbs the deficit,
which realizes delta(base) = 0. Each graph route certifies its solver's
flow and potential against each other, and the two values agree by LP
duality; the field value converges to the continuum norm under mesh
refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy.sparse.csgraph import dijkstra

from . import netsimplex, ssp
from .calculus import divergence_matrix, divergence_projection
from .errors import MeshError, NotConverged, ParseError, SolverFailure, TooManyAtoms
from .mesh import _vertex_ids
from .transport import solve_transportation

# two routes contradict each other when they differ by more than this
# fraction of max(1, |dual value|)
AGREEMENT_TOL = 1e-6

# largest relative residual, slack or gap a certified graph answer may show
CERTIFICATE_TOL = 1e-9


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
    return Molecule(atoms)


def _check_vertices(mesh, molecule):
    for v, _ in molecule.atoms:
        if not 0 <= v < mesh.vertex_count:
            raise MeshError(f"atom vertex {v} out of range")


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
    total = sum(weights.values(), Fraction(0))
    if total != 0:
        weights[mesh.base_vertex] = weights.get(mesh.base_vertex, Fraction(0)) - total
    sources = [(v, c) for v, c in sorted(weights.items()) if c > 0]
    sinks = [(v, -c) for v, c in sorted(weights.items()) if c < 0]
    if not sources:
        return 0.0
    dist = dijkstra(mesh.adjacency, indices=[v for v, _ in sources])
    cost = dist[:, [v for v, _ in sinks]].tolist()
    value = solve_transportation(
        [c for _, c in sources], [c for _, c in sinks], cost
    )
    return float(value)


@dataclass
class FieldSolveParams:
    max_iter: int = 5000
    # bounds the divergence residual max |A g - b| of the returned field,
    # relative to max(1, max |b|), and the certified gap upper - lower,
    # relative to max(1, upper)
    tol: float = 1e-6

    def __post_init__(self):
        if not self.max_iter >= 1:
            raise ParseError(f"field max_iter must be >= 1, got {self.max_iter}")
        if not 0.0 < self.tol < math.inf:
            raise ParseError(f"field tol must be finite and positive, got {self.tol}")


_CERTIFY_EVERY = 25  # iterations between lower bounds from the multiplier


def _row_norms(rows, out=None):
    """Euclidean norms of two-column rows as ``sqrt(x*x + y*y)``: bitwise
    ``np.linalg.norm(rows, axis=1)``, at about half the cost. Written
    into ``out`` when it is given."""
    x, y = rows[:, 0], rows[:, 1]
    out = np.multiply(x, x, out=out)
    out += y * y
    return np.sqrt(out, out=out)


def _potential_lower_bound(mesh, b, flux):
    """Weak-duality lower bound from the P1 potential fitted to ``flux``.

    y solves (A A^T) y = A flux. For every field g with A g = b,
    b.y = g.A^T y <= max_T(|(A^T y)_T| / w_T) * sum_T w_T |g_T|, and
    |(A^T y)_T| / w_T is the slope of y on face T, so |b.y| over the
    steepest slope bounds the optimum from below for either sign of y.
    """
    y = mesh.normal_solver(mesh.div_matrix @ flux)
    rows = (mesh.div_matrix.T @ y).reshape(mesh.field_shape)
    steepest = float(np.max(_row_norms(rows) / mesh.cell_weights))
    return abs(float(b @ y)) / steepest if steepest > 0.0 else 0.0


def beckmann_field(mesh, molecule, params=None):
    """Minimal-L1 per-face vector field with prescribed divergence.

    Alternates an exact projection onto the divergence constraint with
    per-face vector shrinkage. Every iterate is feasible (the projection
    is a direct sparse solve), so the best value is an upper bound on the
    optimum; the potential fitted to the splitting multiplier gives a
    lower bound every few iterations. The solve stops once upper - lower
    is at most ``params.tol * max(1, upper)``, or when the splitting has
    converged, and returns the best iterate with the bracket in its
    diagnostics; ``certified`` says whether the bracket closed.

    Iterates are kept by value alone. The divergence residual
    max |A g - b| is measured once, on the field returned, and a residual
    above ``params.tol * max(1, max |b|)`` (or NaN) raises
    :class:`NotConverged` with it and the split residual in
    ``residuals``. The bound is relative because the residual is the
    projection's roundoff, which scales with the molecule.

    Each iteration computes the split residual max |g - z|. The dual
    residual rho * max |z - z_prev| is computed only on the every-50th
    iterations that balance the penalty, and max |g| for the stop test
    only once the split residual is at most 1e-9 * max(1, largest face
    norm): the largest face norm bounds max |g| from above, so a larger
    residual fails the test anyway.
    """
    if mesh.dimension != 2:
        raise MeshError("field solver requires a dimension-2 mesh")
    params = params or FieldSolveParams()
    molecule = canonicalize(molecule, mesh.base_vertex)
    b = molecule_vector(mesh, molecule)

    A = divergence_matrix(mesh)
    project_onto_constraint = divergence_projection(mesh, b)
    weights = mesh.cell_weights
    shape = mesh.field_shape

    # flat fields and per-face rows, preallocated so that each array pass
    # writes into one of them
    z, z_prev, u, w, step, scratch = np.zeros((6, A.shape[1]))
    norms, shrink, cell = np.empty((3, shape[0]))
    best_value = np.inf
    best_g = None
    lower = 0.0

    for it in range(1, params.max_iter + 1):
        z, z_prev = z_prev, z  # this iteration writes its z over the oldest
        g = project_onto_constraint(np.subtract(z_prev, u, out=scratch))
        _row_norms(g.reshape(shape), out=norms)
        if it == 1:
            # least-squares fit of the shrink threshold weights / rho to the
            # first field, so rho scales as 1/c when the molecule does as c
            square = float(norms @ norms)
            rho = float(weights @ norms) / square if square > 0.0 else 1.0
            threshold = weights / rho
        np.add(g, u, out=w)
        _row_norms(w.reshape(shape), out=shrink)
        np.maximum(shrink, 1e-300, out=shrink)
        np.divide(threshold, shrink, out=shrink)
        np.subtract(1.0, shrink, out=shrink)
        np.maximum(shrink, 0.0, out=shrink)
        np.multiply(w.reshape(shape), shrink[:, None], out=z.reshape(shape))
        np.subtract(g, z, out=step)
        u += step

        value = float(np.sum(np.multiply(weights, norms, out=cell)))
        if value < best_value:
            best_value = value
            best_g = g  # a fresh array from the projection

        split = float(np.abs(step, out=scratch).max())
        # the largest face norm bounds max |g| from above
        split_converged = split <= 1e-9 * max(1.0, float(norms.max())) and (
            split <= 1e-9 * max(1.0, float(np.abs(g, out=scratch).max()))
        )
        if split_converged or it % _CERTIFY_EVERY == 0 or it == params.max_iter:
            lower = max(lower, _potential_lower_bound(mesh, b, rho * u))
            # the last iteration always gets here, so this is the final flag
            certified = best_value - lower <= params.tol * max(1.0, best_value)
            if certified or split_converged:
                break
        # residual balancing keeps the splitting penalty well scaled
        if it % 50 == 0:
            np.subtract(z, z_prev, out=scratch)
            dual_res = rho * float(np.abs(scratch, out=scratch).max())
            if split > 10.0 * dual_res / rho:
                rho *= 2.0
                u /= 2.0
            elif dual_res / rho > 10.0 * split:
                rho /= 2.0
                u *= 2.0
            threshold = weights / rho

    if best_g is None:
        raise NotConverged("no iterate had a finite value", residuals={"split": split})
    # the one divergence check, on the field returned, relative to the
    # molecule as in certify_graph_optimum; a NaN fails it too
    divergence = float(np.abs(A @ best_g - b).max())
    allowed = params.tol * max(1.0, float(np.abs(b).max()))
    if not divergence <= allowed:
        raise NotConverged(
            f"field divergence residual {divergence!r} exceeds {allowed!r}",
            residuals={"divergence": divergence, "split": split},
        )
    diagnostics = {
        "iterations": it,
        "split_residual": split,
        "divergence_residual": divergence,
        "rho": rho,
        "lower": lower,
        "upper": best_value,
        "gap": best_value - lower,
        "certified": certified,
    }
    return best_value, best_g.reshape(shape), diagnostics


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

    ``method`` is one of dual, graph, field, all ("all" runs the field
    solver only on surfaces). The duality gap is primal_graph - dual.
    An unknown method is a :class:`ParseError`. :class:`SolverFailure`
    is raised when a graph route fails its certificate, when the dual
    and graph routes both run and their gap exceeds
    ``AGREEMENT_TOL * max(1, |dual|)``, or when the dual and field routes
    both run and the field lower bound exceeds the dual value by as much.
    """
    if method not in ("dual", "graph", "field", "all"):
        raise ParseError(f"unknown method {method!r}")
    molecule = canonicalize(molecule, mesh.base_vertex)
    run_field = method == "field" or (method == "all" and mesh.dimension == 2)
    if run_field and method == "all":
        # fail on the field route's precondition before the graph routes
        # run; the factorization is cached for the field route
        _check_vertices(mesh, molecule)
        mesh.normal_solver
    report = FreeNormReport()
    report.diagnostics["atoms"] = len(molecule.atoms)
    report.diagnostics["flow_non_unique"] = True  # witnesses are one optimum

    if method in ("dual", "all"):
        value, potential = dual_lp(mesh, molecule)
        report.dual_value = value
        report.optimal_potential = potential
    dual = report.dual_value
    if method in ("graph", "all"):
        value, flow = beckmann_graph(mesh, molecule)
        report.primal_graph_value = value
        report.optimal_flow = flow
    if dual is not None and report.primal_graph_value is not None:
        gap = report.duality_gap = report.primal_graph_value - dual
        if abs(gap) > AGREEMENT_TOL * max(1.0, abs(dual)):
            raise SolverFailure(
                f"duality gap {gap!r} between the graph routes exceeds "
                f"{AGREEMENT_TOL} of the dual value {dual!r}",
                diagnostics={"duality_gap": gap, "dual_value": dual},
            )
    if run_field:
        value, g, diag = beckmann_field(mesh, molecule, params=field_params)
        report.primal_field_value = value
        report.optimal_field = g
        report.diagnostics["field"] = diag
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
