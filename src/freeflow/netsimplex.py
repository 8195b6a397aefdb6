"""Primal network simplex for uncapacitated min-cost flow.

Each mesh edge becomes two opposed arcs with cost equal to the edge
length, so the optimum of  min sum_a cost_a * x_a, x >= 0,
incidence @ x = b  equals the minimal length-weighted mass
min sum_e length_e * |phi_e| over signed edge flows with the same
divergence. An extra root node joins each vertex by an artificial arc
of big cost. The starting tree hangs the shortest-path forest of the
demand vertices (b > 0) under it: each arc carries the supply below it,
and each forest root balances its tree on its artificial arc, which
points at the root node when the tree brings at least its demand. The
potentials start at +-big - (distance to the nearest demand vertex), so
by the triangle inequality only arcs between a -big and a +big tree
price below zero. Zero-flow tree arcs point at the root node, and the
leaving arc is the last blocking arc along the pivot cycle from its
apex, so the tree stays strongly feasible and pivots cannot cycle.

Pricing scans the arcs in wrapping blocks of about sqrt(arcs) and
enters the most negative reduced cost of the first block that has one.
One array ``priced`` holds each arc's cost, or +inf while the arc is in
the tree, so a block's reduced costs are one sum over array slices and
a tree arc can never enter; a pivot updates the two entries that change.

The spanning tree is kept rooted at the extra node, as parent, parent
arc, depth, potential and a set of children per node. A pivot walks the
tree path between the entering arc's endpoints once, up to their apex,
and sorts each arc into raised or lowered by whether it points along the
push direction. The leaving arc, the last minimal lowered arc from the
apex, cuts off the subtree S below it; S holds one endpoint q of the
entering arc. The pivot reverses the parent links along the tree path
from q up to the root of S, hangs q under the other endpoint of the
entering arc, and recomputes depth and potential only inside S, walking
down from q (Ahuja, Magnanti & Orlin, *Network Flows*, 1993, section
11.5). The arc flows stay a Python list while pivoting, since each pivot
reads and writes single entries, and become an array once at the end.

Every potential is the sum of arc costs along its root path, taken from
the root down. At optimality the potentials, taken relative to the base
vertex, are an optimal dual solution. The solve returns them summed
again from the root's children without the artificial cost, so their
roundoff scales with the edge lengths, and ``freenorm`` certifies them
with the flow.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.sparse.csgraph import dijkstra

from .errors import SolverFailure
from .ssp import checked_imbalance


def min_cost_flow(mesh, b):
    """Optimal signed edge flow for the vertex imbalance ``b``.

    Returns ``(flow, potential)`` like ``ssp.min_cost_flow``: flow is
    signed along canonical edge orientations, and potential is the
    tree's optimal dual vertex field with potential[base_vertex] == 0.
    """
    V = mesh.vertex_count
    E = len(mesh.edges)
    b = checked_imbalance(mesh, b)

    root = V
    n_real = 2 * E
    n_arcs = n_real + V

    # arcs 2e and 2e+1 run u->v and v->u along edge e; arc n_real + v is
    # the artificial arc root -> v, turned round where v roots a forest
    # tree that brings at least its demand
    vertices = np.arange(V)
    big = 1.0 + 4.0 * float(mesh.edge_lengths.sum())
    tails = np.empty(n_arcs, dtype=np.int64)
    heads = np.empty(n_arcs, dtype=np.int64)
    costs = np.empty(n_arcs)
    tails[:n_real] = mesh.edges.ravel()
    heads[:n_real] = mesh.edges[:, ::-1].ravel()
    costs[:n_real] = np.repeat(mesh.edge_lengths, 2)
    tails[n_real:] = root
    heads[n_real:] = vertices
    costs[n_real:] = big

    # the starting tree: the demand vertices' shortest-path forest under
    # the root node, walked from the forest roots so parents come first;
    # each arc carries the supply below it, summed children first
    demand = np.flatnonzero(b > 0)
    _, pred, _ = dijkstra(
        mesh.adjacency, indices=demand, min_only=True, return_predecessors=True
    )
    up = 2 * mesh.edge_ids(vertices, pred) + (vertices > pred)
    tree_arcs = np.where(pred < 0, n_real + vertices, up)
    parent = np.where(pred < 0, root, pred).tolist() + [-1]
    parent_arc = tree_arcs.tolist() + [-1]
    children = [set() for _ in range(V + 1)]
    for v in range(V):
        children[parent[v]].add(v)
    order = []
    stack = list(children[root])
    while stack:
        u = stack.pop()
        order.append(u)
        stack.extend(children[u])
    carried = (-b).tolist() + [0.0]
    for u in reversed(order):
        carried[parent[u]] += carried[u]
    carried = np.array(carried[:V])
    outwards = np.flatnonzero((pred < 0) & (carried >= 0))
    tails[n_real + outwards] = outwards
    heads[n_real + outwards] = root

    # spanning tree state; potentials satisfy rc = 0 on tree arcs, and
    # ``priced`` is +inf on them. Flows and the per-pivot bookkeeping
    # read single entries, so they stay Python lists while pivoting
    flow = np.zeros(n_arcs)
    flow[tree_arcs] = np.abs(carried)
    flow = flow.tolist()
    priced = costs.copy()
    priced[tree_arcs] = math.inf
    tail_of, head_of, cost_of = tails.tolist(), heads.tolist(), costs.tolist()
    depth = [0] * (V + 1)
    pi = [0.0] * (V + 1)
    for u in order:
        w, a = parent[u], parent_arc[u]
        depth[u] = depth[w] + 1
        pi[u] = pi[w] + cost_of[a] if head_of[a] == u else pi[w] - cost_of[a]
    pi = np.array(pi)

    tol = 1e-11 * (1.0 + float(mesh.edge_lengths.max(initial=0.0)))

    block = max(64, int(math.ceil(math.sqrt(n_arcs))))
    max_pivots = 200 * n_arcs + 1000
    pivots = 0
    cursor = 0
    while True:
        # entering arc: best reduced cost within a wrapping block scan
        entering = -1
        scanned = 0
        while scanned < n_arcs:
            hi = min(cursor + block, n_arcs)
            rc = priced[cursor:hi] + pi.take(tails[cursor:hi]) - pi.take(heads[cursor:hi])
            k = int(rc.argmin())
            if rc[k] < -tol:
                entering = cursor + k
                cursor = hi % n_arcs
                break
            scanned += hi - cursor
            cursor = hi % n_arcs
        if entering < 0:
            break
        pivots += 1
        if pivots > max_pivots:
            raise SolverFailure("pivot cap exceeded")

        t, h = tail_of[entering], head_of[entering]
        # one walk up the cycle: tree path t .. apex .. h plus the entering
        # arc t->h. Pushing along the entering arc raises the flow on arcs
        # that point from the apex towards t, and from h towards the apex,
        # and lowers it on the others. The leaving arc is the last minimal
        # lowered arc in cycle order apex .. t, h .. apex: the first
        # minimum on t's side, which the walk visits backwards, and the
        # last on h's side, with h's side winning ties
        raised, lowered = [entering], []
        leave_t = leave_h = -1
        flow_t = flow_h = math.inf
        a_node, b_node = t, h
        while a_node != b_node:
            if depth[a_node] >= depth[b_node]:
                a = parent_arc[a_node]
                if head_of[a] == a_node:
                    raised.append(a)
                else:
                    lowered.append(a)
                    if flow[a] < flow_t:
                        leave_t, flow_t = a, flow[a]
                a_node = parent[a_node]
            else:
                a = parent_arc[b_node]
                if tail_of[a] == b_node:
                    raised.append(a)
                else:
                    lowered.append(a)
                    if flow[a] <= flow_h:
                        leave_h, flow_h = a, flow[a]
                b_node = parent[b_node]
        if flow_h <= flow_t:
            leaving, delta, q, p = leave_h, flow_h, h, t
        else:
            leaving, delta, q, p = leave_t, flow_t, t, h
        if leaving < 0:
            raise SolverFailure("unbounded pivot cycle (negative cost cycle)")

        for a in raised:
            flow[a] += delta
        for a in lowered:
            flow[a] -= delta
        flow[leaving] = 0.0

        priced[leaving] = cost_of[leaving]
        priced[entering] = math.inf

        # the leaving arc cuts off the subtree below its lower endpoint c;
        # q is the entering arc's endpoint inside it, p the one outside
        lt, lh = tail_of[leaving], head_of[leaving]
        c = lt if depth[lt] > depth[lh] else lh
        # reverse the parent links along q .. c and hang q under p
        node, new_parent, new_arc = q, p, entering
        while True:
            old_parent, old_arc = parent[node], parent_arc[node]
            children[old_parent].discard(node)
            parent[node] = new_parent
            parent_arc[node] = new_arc
            children[new_parent].add(node)
            if node == c:
                break
            node, new_parent, new_arc = old_parent, node, old_arc
        # depth and potential change only inside the re-hung subtree
        stack = [q]
        while stack:
            u = stack.pop()
            w, a = parent[u], parent_arc[u]
            depth[u] = depth[w] + 1
            pi[u] = pi[w] + cost_of[a] if head_of[a] == u else pi[w] - cost_of[a]
            stack.extend(children[u])

    # the returned potential sums arc costs down from each anchor, a
    # child of the root, leaving out the artificial cost big whose
    # roundoff would swamp short edges; at optimality every anchor has
    # the same potential, so the sums share one origin
    potential = [0.0] * V
    stack = [u for anchor in children[root] for u in children[anchor]]
    while stack:
        u = stack.pop()
        w, a = parent[u], parent_arc[u]
        potential[u] = (
            potential[w] + cost_of[a] if head_of[a] == u else potential[w] - cost_of[a]
        )
        stack.extend(children[u])
    potential = np.array(potential)
    flow = np.array(flow)
    return flow[0:n_real:2] - flow[1:n_real:2], potential - potential[mesh.base_vertex]
