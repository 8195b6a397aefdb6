"""Successive-shortest-path min-cost flow on a metric edge graph.

Solves  min sum_e length_e * |phi_e|  subject to  incidence @ phi = b
(uncapacitated, both traversal directions cost the edge length) by
augmenting along shortest residual paths, found by
``scipy.sparse.csgraph.dijkstra`` over reduced costs. The accumulated
node potentials are an optimal solution of the dual problem: they
maximize sum_v b[v] * f[v] over all vertex fields with
|f[u] - f[v]| <= length(u, v) on every edge.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import coo_matrix
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
    if abs(b.sum()) > 1e-9 * max(1.0, np.abs(b).max()):
        raise SolverFailure(f"imbalance does not sum to zero: {b.sum()}")

    E = len(mesh.edges)
    # arc a runs u->v along edge a for a < E, and v->u along edge a - E
    tails = np.concatenate([mesh.edges[:, 0], mesh.edges[:, 1]])
    heads = np.concatenate([mesh.edges[:, 1], mesh.edges[:, 0]])
    arc_lengths = np.tile(mesh.edge_lengths, 2)

    flow = np.zeros(E)
    pi = np.zeros(V)
    remaining = b.copy()
    # roundoff in the balanced imbalance leaves crumbs below this scale
    settled = 1e-12 * max(1.0, float(np.abs(b).max(initial=0.0)))

    max_rounds = 10 * (V + E) + 100
    rounds = 0
    while True:
        sinks = np.flatnonzero(remaining > settled)
        if not len(sinks):
            break
        sources = np.flatnonzero(remaining < -settled)
        if not len(sources):
            raise SolverFailure("supply exhausted before demand was met")
        rounds += 1
        if rounds > max_rounds:
            raise SolverFailure("augmentation cap exceeded")

        # traversing against existing flow refunds the edge cost; tight
        # arcs clamp to an explicit 0.0, which COO->CSR keeps as an arc
        against = np.concatenate([flow < 0, flow > 0])
        cost = np.where(against, -arc_lengths, arc_lengths)
        reduced = np.maximum(cost + pi[tails] - pi[heads], 0.0)
        graph = coo_matrix((reduced, (tails, heads)), shape=(V, V)).tocsr()
        dist, pred, _ = dijkstra(
            graph, indices=sources, min_only=True, return_predecessors=True
        )

        t = int(sinks[np.argmin(dist[sinks])])
        if not np.isfinite(dist[t]):
            raise SolverFailure("sink unreachable in residual network")

        path = [t]
        while pred[path[-1]] >= 0:
            path.append(int(pred[path[-1]]))
        s = path[-1]
        step_heads, step_tails = np.array(path[:-1]), np.array(path[1:])
        edge = mesh.edge_ids(step_tails, step_heads)
        sign = np.where(step_tails < step_heads, 1.0, -1.0)

        # the bottleneck over cancellation arcs is their opposing flow
        cancels = flow[edge] * sign < 0
        delta = np.abs(flow[edge[cancels]]).min(
            initial=min(-remaining[s], remaining[t])
        )
        flow[edge] += delta * sign
        remaining[s] += delta
        remaining[t] -= delta

        finite = np.isfinite(dist)
        pi[finite] += dist[finite]

    return flow, pi - pi[mesh.base_vertex]
