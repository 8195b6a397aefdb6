"""Primal network simplex for uncapacitated min-cost flow.

Each mesh edge becomes two opposed arcs with cost equal to the edge
length (the arc table ``mesh.arcs``), so the optimum of
min sum_a cost_a * x_a, x >= 0, incidence @ x = b  equals the minimal
length-weighted mass min sum_e length_e * |phi_e| over signed edge flows
with the same divergence. An extra root node joins each vertex by an
artificial arc of big cost. The starting tree hangs the shortest-path
forest of the demand vertices (b > 0) under it: each arc carries the
supply below it, and each forest root balances its tree on its
artificial arc, which points at the root node when the tree brings at
least its demand; supplies and potentials are summed in a walk down from
the forest roots, parents first. The potentials start at
+-big - (distance to the nearest demand vertex), so by the triangle
inequality only arcs between a -big and a +big tree price below zero.
Zero-flow tree arcs point at the root node, and the leaving arc is the
last blocking arc along the pivot cycle from its apex, so the tree stays
strongly feasible and pivots cannot cycle.

The forest is rooted at the demand vertices. Where they outnumber the
supply vertices (b < 0), the solve routes -b instead, from the smaller
side, and returns ``0.0 - flow`` and ``0.0 - potential``: the negated
pair is optimal for b, and subtracting from +0.0 keeps -0.0 out of the
results. A tie keeps b. Over the 360 small solves of the benchmark's
``exact_small`` seeds 3701 and 3801, this alone cuts the pivots from
13,830 to 11,667.

Pricing takes the whole arc table at once: ``priced`` holds each arc's
cost, or +inf on tree arcs, so a pass's reduced costs are one array sum.
The pass queues every arc of negative reduced cost, most negative first,
so its first arc is Dantzig's choice. Each pivot enters the next queued
arc neither of whose endpoints was re-hung since the pass; such an arc
keeps the reduced cost it was priced at, so every pivot enters an arc
that prices below zero, which is all a strongly feasible tree needs to
terminate (Cunningham, *Math. Program.* 11, 1976). An arc with a re-hung
endpoint is dropped, and the table is priced again when the queue runs
dry; a pass that queues nothing ends the solve. On small tables one pass
feeds about seven pivots: seed 3701's 180 solves make 7,042 pivots from
960 passes, where a pass per pivot made 5,786 pivots from 5,966 passes.
On large tables it feeds 50-260: flat_rect nx128 with 50 atoms (115,457
arcs) makes 16,660 pivots from 88 passes.

The tree is kept rooted at the extra node as per-node Python lists:
parent, parent arc, depth, the flow on the parent arc, its step (its
cost, signed + where it points at the node) and a set of children. A
pivot walks the tree path between the entering arc's endpoints once, up
to their apex; a step's sign says whether the push raises or lowers its
arc. The leaving arc, the last minimal lowered arc from the apex, cuts
off the subtree S below it, which holds one endpoint q of the entering
arc. The pivot reverses the parent links from q up to the root of S,
each arc keeping its flow and turning its step round, hangs q under the
other endpoint, and recomputes depth and potentials only inside S,
walking down from q (Ahuja, Magnanti & Orlin, *Network Flows*, 1993,
section 11.5).

Every potential is the sum of steps along its root path, taken from the
root down. At optimality the potentials, taken relative to the base
vertex, are an optimal dual solution. Beside the priced potentials the
tree keeps the steps summed down from the root's children, without the
artificial cost, so their roundoff scales with the edge lengths; the
start and each pivot's walk down S set both, and the solve returns the
second, which ``freenorm`` certifies with the flow.
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
    b = checked_imbalance(mesh, b)
    if np.count_nonzero(b > 0) > np.count_nonzero(b < 0):
        flow, potential = _min_cost_flow(mesh, 0.0 - b)
        return 0.0 - flow, 0.0 - potential
    return _min_cost_flow(mesh, b)


def _min_cost_flow(mesh, b):
    """The pivots of ``min_cost_flow`` for a checked imbalance ``b``."""
    V = mesh.vertex_count
    arcs = mesh.arcs
    root = V
    n_real = len(arcs.tail)
    n_arcs = n_real + V
    vertices = np.arange(V)
    big = 1.0 + 4.0 * float(mesh.edge_lengths.sum())

    # the starting tree: each vertex hangs on the arc up to its Dijkstra
    # predecessor, each forest root on its artificial arc
    _, pred, _ = dijkstra(mesh.adjacency, indices=np.flatnonzero(b > 0),
                          min_only=True, return_predecessors=True)
    forest_roots = pred < 0
    up = 2 * mesh.edge_ids(vertices, pred) + (vertices > pred)
    tree_arcs = np.where(forest_roots, n_real + vertices, up)
    parent = np.where(forest_roots, root, pred).tolist() + [-1]
    children = [set() for _ in range(V + 1)]
    for v in range(V):
        children[parent[v]].add(v)

    def below(nodes):
        """The nodes in ``nodes`` and every node under them, parents first."""
        stack = list(nodes)
        while stack:
            u = stack.pop()
            yield u
            stack.extend(children[u])

    # walked down from the forest roots; each arc carries the supply
    # below it, summed children first
    order = list(below(children[root]))
    carried = (-b).tolist() + [0.0]
    for u in reversed(order):
        carried[parent[u]] += carried[u]
    carried = np.array(carried[:V])
    # arc n_real + v is the artificial arc root -> v, turned round where
    # v roots a forest tree that brings at least its demand
    outwards = forest_roots & (carried >= 0)
    tails = np.concatenate([arcs.tail, np.where(outwards, vertices, root)])
    heads = np.concatenate([arcs.head, np.where(outwards, root, vertices)])
    costs = np.concatenate([arcs.length, np.full(V, big)])
    step = np.where(forest_roots & ~outwards, big, -costs[tree_arcs]).tolist() + [0.0]
    depth = [0] * (V + 1)
    pi = [0.0] * (V + 1)
    # the returned potential sums the steps down from each anchor, a
    # child of the root, leaving out the artificial cost big whose
    # roundoff would swamp short edges; at optimality every anchor has
    # the same potential, so the sums share one origin
    potential = [0.0] * (V + 1)
    for u in order:
        w = parent[u]
        depth[u] = depth[w] + 1
        pi[u] = pi[w] + step[u]
        potential[u] = 0.0 if w == root else potential[w] + step[u]
    pi = np.array(pi)

    # spanning tree state; the lists are read and written one entry at
    # a time by each pivot
    priced = costs.copy()
    priced[tree_arcs] = math.inf
    parent_arc = tree_arcs.tolist() + [-1]
    flow = np.abs(carried).tolist() + [0.0]
    tail_of, head_of = tails.tolist(), heads.tolist()

    tol = 1e-11 * (1.0 + float(mesh.edge_lengths.max(initial=0.0)))

    max_pivots = 200 * n_arcs + 1000
    pivots = 0
    queue = iter(())
    moved = set()  # the nodes re-hung since the last pricing pass
    while True:
        # the next queued arc with no re-hung endpoint: its reduced cost
        # is still the priced one. Only a popped arc enters the tree, so
        # a queued arc is off it
        entering = -1
        for a in queue:
            if tail_of[a] not in moved and head_of[a] not in moved:
                entering = a
                break
        if entering < 0:
            # queue every negative reduced cost, most negative first
            moved.clear()
            rc = priced + pi.take(tails) - pi.take(heads)
            eligible = np.flatnonzero(rc < -tol)
            queue = iter(eligible[rc[eligible].argsort(kind="stable")].tolist())
            entering = next(queue, -1)
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
        # last on h's side, with h's side winning ties; each arc is named
        # by the node below it
        raised, lowered = [], []
        leave_t = leave_h = -1
        flow_t = flow_h = math.inf
        a_node, b_node = t, h
        while a_node != b_node:
            if depth[a_node] >= depth[b_node]:
                if step[a_node] > 0:
                    raised.append(a_node)
                else:
                    lowered.append(a_node)
                    if flow[a_node] < flow_t:
                        leave_t, flow_t = a_node, flow[a_node]
                a_node = parent[a_node]
            else:
                if step[b_node] < 0:
                    raised.append(b_node)
                else:
                    lowered.append(b_node)
                    if flow[b_node] <= flow_h:
                        leave_h, flow_h = b_node, flow[b_node]
                b_node = parent[b_node]
        # the leaving arc cuts off the subtree below its lower end c; q is
        # the entering arc's endpoint inside it, p the one outside
        if flow_h <= flow_t:
            c, delta, q, p = leave_h, flow_h, h, t
        else:
            c, delta, q, p = leave_t, flow_t, t, h
        if c < 0:
            raise SolverFailure("unbounded pivot cycle (negative cost cycle)")

        for u in raised:
            flow[u] += delta
        for u in lowered:
            flow[u] -= delta

        priced[parent_arc[c]] = abs(step[c])
        cost = priced.item(entering)
        priced[entering] = math.inf

        # reverse the parent links along q .. c and hang q under p; each
        # arc on the way keeps its flow and turns its step round
        node, new_parent, new_arc = q, p, entering
        new_step, new_flow = (cost if q == h else -cost), delta
        while True:
            old_parent, old_arc = parent[node], parent_arc[node]
            old_step, old_flow = step[node], flow[node]
            children[old_parent].discard(node)
            parent[node], parent_arc[node] = new_parent, new_arc
            step[node], flow[node] = new_step, new_flow
            children[new_parent].add(node)
            if node == c:
                break
            node, new_parent, new_arc = old_parent, node, old_arc
            new_step, new_flow = -old_step, old_flow
        # depth and potentials change only inside the re-hung subtree
        for u in below([q]):
            w = parent[u]
            depth[u] = depth[w] + 1
            pi[u] = pi.item(w) + step[u]
            potential[u] = 0.0 if w == root else potential[w] + step[u]
            moved.add(u)

    potential = np.array(potential[:V])
    arc_flow = np.zeros(n_arcs + 1)  # the root's parent arc -1 fills the spare entry
    arc_flow[parent_arc] = flow
    flow = arc_flow[0:n_real:2] - arc_flow[1:n_real:2]
    return flow, potential - potential[mesh.base_vertex]
