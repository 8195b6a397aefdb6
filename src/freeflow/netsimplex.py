"""Primal network simplex for uncapacitated min-cost flow.

Each mesh edge becomes two opposed arcs with cost equal to the edge
length, so the optimum of  min sum_a cost_a * x_a, x >= 0,
incidence @ x = b  equals the minimal length-weighted mass
min sum_e length_e * |phi_e| over signed edge flows with the same
divergence. Feasibility is bootstrapped with artificial big-cost arcs
through an extra root node; the leaving arc is the last blocking arc
along the pivot cycle from its apex, which keeps the spanning tree
strongly feasible and prevents degenerate cycling.

The spanning tree is kept rooted at the extra node, as parent, parent
arc, depth, potential and a set of children per node. A pivot removes
the leaving arc, which cuts off the subtree S below it; S holds one
endpoint q of the entering arc. The pivot reverses the parent links
along the tree path from q up to the root of S, hangs q under the other
endpoint of the entering arc, and recomputes depth and potential only
inside S, walking down from q (Ahuja, Magnanti & Orlin, *Network
Flows*, 1993, section 11.5). Every potential is the sum of arc costs
along its root path, taken from the root down. At optimality the
potentials, taken relative to the base vertex, are an optimal dual
solution. The solve returns them summed again from the root's children
without the artificial cost, so their roundoff scales with the edge
lengths, and ``freenorm`` certifies them with the flow.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SolverFailure


def min_cost_flow(mesh, b):
    """Optimal signed edge flow for the vertex imbalance ``b``.

    Returns ``(flow, potential)`` like ``ssp.min_cost_flow``: flow is
    signed along canonical edge orientations, and potential is the
    tree's optimal dual vertex field with potential[base_vertex] == 0.
    """
    V = mesh.vertex_count
    E = len(mesh.edges)
    b = np.asarray(b, dtype=float)
    if b.shape != (V,):
        raise ValueError(f"imbalance has shape {b.shape}, expected ({V},)")
    if not np.isfinite(b).all():
        raise SolverFailure("imbalance has non-finite entries")
    if abs(b.sum()) > 1e-9 * max(1.0, np.abs(b).max(initial=0.0)):
        raise SolverFailure(f"imbalance does not sum to zero: {b.sum()}")

    root = V
    n_real = 2 * E
    n_arcs = n_real + V

    # arcs 2e and 2e+1 run u->v and v->u along edge e; arc n_real + v is
    # the artificial arc between v and the root, along v's imbalance
    vertices = np.arange(V)
    supply = b > 0
    big = 1.0 + 4.0 * float(mesh.edge_lengths.sum())
    tails = np.empty(n_arcs, dtype=np.int64)
    heads = np.empty(n_arcs, dtype=np.int64)
    costs = np.empty(n_arcs)
    tails[:n_real] = mesh.edges.ravel()
    heads[:n_real] = mesh.edges[:, ::-1].ravel()
    costs[:n_real] = np.repeat(mesh.edge_lengths, 2)
    tails[n_real:] = np.where(supply, root, vertices)
    heads[n_real:] = np.where(supply, vertices, root)
    costs[n_real:] = big

    flow = np.zeros(n_arcs)
    flow[n_real:] = np.abs(b)

    # spanning tree state; potentials satisfy rc = 0 on tree arcs. The
    # per-pivot bookkeeping reads single entries, so it keeps Python lists
    in_tree = np.zeros(n_arcs, dtype=bool)
    in_tree[n_real:] = True
    parent = [root] * V + [-1]
    parent_arc = list(range(n_real, n_arcs)) + [-1]
    depth = [1] * V + [0]
    children = [set() for _ in range(V)] + [set(range(V))]
    pi = np.zeros(V + 1)
    pi[:V] = np.where(supply, big, -big)
    tail_of, head_of, cost_of = tails.tolist(), heads.tolist(), costs.tolist()

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
            idx = np.arange(cursor, hi)
            rc = costs[idx] + pi[tails[idx]] - pi[heads[idx]]
            rc[in_tree[idx]] = 0.0
            k = int(np.argmin(rc))
            if rc[k] < -tol:
                entering = int(idx[k])
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
        # cycle = tree path h .. apex .. t plus the entering arc t->h;
        # pushing along the entering direction increases arcs oriented
        # with the cycle and decreases arcs against it
        up_t, up_h = [], []
        a_node, b_node = t, h
        while a_node != b_node:
            if depth[a_node] >= depth[b_node]:
                up_t.append(parent_arc[a_node])
                a_node = parent[a_node]
            else:
                up_h.append(parent_arc[b_node])
                b_node = parent[b_node]

        # traverse from the apex along the push direction:
        # apex -> t (against up_t order), entering, h -> apex
        cycle = []
        for a in reversed(up_t):
            with_dir = depth[tail_of[a]] < depth[head_of[a]]  # points away from apex
            cycle.append((a, 1.0 if with_dir else -1.0))
        cycle.append((entering, 1.0))
        for a in up_h:
            with_dir = depth[head_of[a]] < depth[tail_of[a]]  # points toward apex
            cycle.append((a, 1.0 if with_dir else -1.0))

        delta = math.inf
        leaving = -1
        leaving_pos = -1
        for pos, (a, sgn) in enumerate(cycle):
            if sgn < 0 and flow[a] <= delta:
                delta = flow[a]
                leaving = a
                leaving_pos = pos
        if leaving < 0:
            raise SolverFailure("unbounded pivot cycle (negative cost cycle)")

        for a, sgn in cycle:
            flow[a] += sgn * delta
        flow[leaving] = 0.0

        in_tree[leaving] = False
        in_tree[entering] = True

        # the leaving arc cuts off the subtree below its lower endpoint c;
        # q is the entering arc's endpoint inside it, p the one outside
        if leaving_pos < len(up_t):
            q, p = t, h
        else:
            q, p = h, t
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
    return flow[0:n_real:2] - flow[1:n_real:2], potential - potential[mesh.base_vertex]
