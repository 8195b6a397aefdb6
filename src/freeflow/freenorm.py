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
which realizes delta(base) = 0. The dual and graph-primal values agree
exactly (up to float tolerance) by LP duality; the field value converges
to the continuum norm under mesh refinement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy.sparse.csgraph import dijkstra

from . import netsimplex, ssp
from .calculus import divergence_matrix, divergence_normal_solver, l1_norm
from .errors import MeshError, NotConverged, TooManyAtoms
from .transport import solve_transportation


@dataclass(frozen=True)
class Molecule:
    """Finitely supported signed measure sum_i a_i * delta(vertex_i)."""

    atoms: tuple

    def __post_init__(self):
        atoms = tuple((int(v), float(c)) for v, c in self.atoms)
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


def dual_lp(mesh, molecule):
    """Maximal molecule evaluation over edgewise 1-Lipschitz potentials.

    Returns ``(value, potential)`` with potential[base] == 0. The value
    is the discrete free norm of the molecule.
    """
    molecule = canonicalize(molecule, mesh.base_vertex)
    b = molecule_vector(mesh, molecule)
    _, potential = ssp.min_cost_flow(mesh, b)
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
    flow, value = netsimplex.min_cost_flow(mesh, b)
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
    dist = dijkstra(
        mesh.adjacency(), directed=False, indices=[v for v, _ in sources]
    )
    cost = dist[:, [v for v, _ in sinks]].tolist()
    value = solve_transportation(
        [c for _, c in sources], [c for _, c in sinks], cost
    )
    return float(value)


@dataclass
class FieldSolveParams:
    max_iter: int = 5000
    step: float = 1.0  # initial splitting penalty, adapted while running
    tol: float = 1e-6  # divergence feasibility tolerance


def beckmann_field(mesh, molecule, params=None):
    """Minimal-L1 per-face vector field with prescribed divergence.

    Alternates an exact projection onto the divergence constraint with
    per-face vector shrinkage. Every iterate is feasible (the projection
    is a direct sparse solve), so the running value bounds the optimum
    from above; the best iterate is returned.
    """
    if mesh.dimension != 2:
        raise MeshError("field solver requires a dimension-2 mesh")
    params = params or FieldSolveParams()
    molecule = canonicalize(molecule, mesh.base_vertex)
    b = molecule_vector(mesh, molecule)

    A = divergence_matrix(mesh)
    solve_normal = divergence_normal_solver(mesh)
    areas = mesh.face_geometry().areas
    F = len(mesh.triangles)

    # projection onto {A g = b}: g = w - A^T y with the base row pinned
    def project_onto_constraint(w):
        return w - A.T @ solve_normal((A @ w) - b)

    rho = float(params.step)
    z = np.zeros(2 * F)
    u = np.zeros(2 * F)
    best_value = np.inf
    best_g = None
    best_div = np.inf
    split = np.inf
    iterations = 0

    for it in range(1, params.max_iter + 1):
        iterations = it
        g = project_onto_constraint(z - u)
        w = (g + u).reshape(F, 2)
        norms = np.linalg.norm(w, axis=1)
        shrink = np.maximum(1.0 - (areas / rho) / np.maximum(norms, 1e-300), 0.0)
        z_new = (w * shrink[:, None]).ravel()
        u += g - z_new

        value = l1_norm(mesh, g.reshape(F, 2))
        div_res = float(np.max(np.abs(A @ g - b)))
        if div_res <= params.tol and value < best_value:
            best_value = value
            best_g = g.reshape(F, 2).copy()
            best_div = div_res

        split = float(np.max(np.abs(g - z_new)))
        dual_res = rho * float(np.max(np.abs(z_new - z)))
        z = z_new
        if split <= 1e-9 * max(1.0, float(np.abs(g).max())):
            break
        # residual balancing keeps the splitting penalty well scaled
        if it % 50 == 0:
            if split > 10.0 * dual_res / rho:
                rho *= 2.0
                u /= 2.0
            elif dual_res / rho > 10.0 * split:
                rho /= 2.0
                u *= 2.0

    if best_g is None:
        raise NotConverged(
            "no iterate met the divergence tolerance",
            residuals={"divergence": best_div, "split": split},
        )
    diagnostics = {
        "iterations": iterations,
        "split_residual": split,
        "divergence_residual": best_div,
        "rho": rho,
    }
    return best_value, best_g, diagnostics


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
    """
    if method not in ("dual", "graph", "field", "all"):
        raise ValueError(f"unknown method {method!r}")
    molecule = canonicalize(molecule, mesh.base_vertex)
    report = FreeNormReport()
    report.diagnostics["atoms"] = len(molecule.atoms)
    report.diagnostics["flow_non_unique"] = True  # witnesses are one optimum

    if method in ("dual", "all"):
        value, potential = dual_lp(mesh, molecule)
        report.dual_value = value
        report.optimal_potential = potential
    if method in ("graph", "all"):
        value, flow = beckmann_graph(mesh, molecule)
        report.primal_graph_value = value
        report.optimal_flow = flow
    if method == "field" or (method == "all" and mesh.dimension == 2):
        value, g, diag = beckmann_field(mesh, molecule, params=field_params)
        report.primal_field_value = value
        report.optimal_field = g
        report.diagnostics["field"] = diag
    if report.dual_value is not None and report.primal_graph_value is not None:
        report.duality_gap = report.primal_graph_value - report.dual_value
    return report
