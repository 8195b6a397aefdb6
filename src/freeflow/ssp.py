"""Successive-shortest-path min-cost flow on a metric edge graph.

Solves  min sum_e length_e * |phi_e|  subject to  incidence @ phi = b
(uncapacitated, both traversal directions cost the edge length) in
primal-dual phases (Ahuja, Magnanti & Orlin, *Network Flows*, 1993,
section 9.8). Each phase runs one multi-source
``scipy.sparse.csgraph.dijkstra`` over the reduced costs of the residual
arcs and adds the distances to the node potentials, which makes every
shortest path tight. It then augments along the shortest path of each
reached sink, nearest first, while the path's source has supply, its
sink has demand and its arcs are still tight. The accumulated node
potentials are an optimal solution of the dual problem: they maximize
sum_v b[v] * f[v] over all vertex fields with |f[u] - f[v]| <=
length(u, v) on every edge.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .errors import SolverFailure


def min_cost_flow(mesh, b):
    """Route the imbalance ``b`` (net required inflow per vertex, summing
    to zero) at minimum length-weighted cost.

    Returns ``(flow, potential)`` where ``flow[e]`` is signed along the
    canonical edge orientation and ``potential`` is an optimal dual
    vertex field with potential[base_vertex] == 0.
    """
    V = mesh.vertex_count
    b = np.asarray(b, dtype=float)
    if b.shape != (V,):
        raise ValueError(f"imbalance has shape {b.shape}, expected ({V},)")
    if not np.isfinite(b).all():
        raise SolverFailure("imbalance has non-finite entries")
    if abs(b.sum()) > 1e-9 * max(1.0, np.abs(b).max()):
        raise SolverFailure(f"imbalance does not sum to zero: {b.sum()}")

    E = len(mesh.edges)
    # arc a runs u->v along edge a for a < E, and v->u along edge a - E
    tails = np.concatenate([mesh.edges[:, 0], mesh.edges[:, 1]])
    heads = np.concatenate([mesh.edges[:, 1], mesh.edges[:, 0]])
    arc_lengths = np.tile(mesh.edge_lengths, 2)
    # every arc stays in the residual graph, so its CSR pattern is fixed:
    # arcs sorted by (tail, head); a phase only fills in the data
    order = np.lexsort((heads, tails))
    indices = heads[order]
    indptr = np.concatenate([[0], np.cumsum(np.bincount(tails, minlength=V))])

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

        # traversing against existing flow refunds the edge cost; tight
        # arcs clamp to an explicit 0.0, which stays an arc of the graph
        against = np.concatenate([flow < 0, flow > 0])
        cost = np.where(against, -arc_lengths, arc_lengths)
        reduced = np.maximum(cost + pi[tails] - pi[heads], 0.0)
        graph = csr_matrix((reduced[order], indices, indptr), shape=(V, V))
        dist, pred, roots = dijkstra(
            graph, indices=sources, min_only=True, return_predecessors=True
        )
        if not np.isfinite(dist[sinks]).all():
            raise SolverFailure("sink unreachable in residual network")
        finite = np.isfinite(dist)
        pi[finite] += dist[finite]

        # every shortest path is now tight. An augmentation keeps its own
        # arcs tight, except a cancellation arc whose opposing flow reaches
        # zero: it turns forward at reduced cost 2 * length, so a later
        # path over it must wait for the next phase
        for t in sinks[np.argsort(dist[sinks], kind="stable")]:
            s = roots[t]
            if remaining[t] <= settled or remaining[s] >= -settled:
                continue
            path = [t]
            while path[-1] != s:
                path.append(pred[path[-1]])
            step_heads, step_tails = np.array(path[:-1]), np.array(path[1:])
            edge = mesh.edge_ids(step_tails, step_heads)
            forward = step_tails < step_heads
            sign = np.where(forward, 1.0, -1.0)
            cancels = flow[edge] * sign < 0
            if not np.array_equal(cancels, against[np.where(forward, edge, edge + E)]):
                continue

            # the bottleneck over cancellation arcs is their opposing flow
            delta = np.abs(flow[edge[cancels]]).min(
                initial=min(-remaining[s], remaining[t])
            )
            flow[edge] += delta * sign
            remaining[s] += delta
            remaining[t] -= delta

    return flow, pi - pi[mesh.base_vertex]
