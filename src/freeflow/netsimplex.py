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
Flows*, 1993, section 11.5). Every potential is still the sum of arc
costs along its root path, taken from the root down, so it is the same
float a rebuild of the whole tree gives; that rebuild runs once at the
end of the solve as a check on the kept tree.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SolverFailure


def min_cost_flow(mesh, b, pivot_tol=None):
    """Optimal signed edge flow for the vertex imbalance ``b``.

    Returns ``(flow, value)``: flow is signed along canonical edge
    orientations, value is its length-weighted mass.
    """
    V = mesh.vertex_count
    E = len(mesh.edges)
    b = np.asarray(b, dtype=float)
    if b.shape != (V,):
        raise ValueError(f"imbalance has shape {b.shape}, expected ({V},)")
    if abs(b.sum()) > 1e-9 * max(1.0, np.abs(b).max(initial=0.0)):
        raise SolverFailure(f"imbalance does not sum to zero: {b.sum()}")

    root = V
    n_nodes = V + 1
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
    tails[0:n_real:2] = mesh.edges[:, 0]
    heads[0:n_real:2] = mesh.edges[:, 1]
    tails[1:n_real:2] = mesh.edges[:, 1]
    heads[1:n_real:2] = mesh.edges[:, 0]
    costs[0:n_real:2] = mesh.edge_lengths
    costs[1:n_real:2] = mesh.edge_lengths
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
    pi = np.zeros(n_nodes)
    pi[:V] = np.where(supply, big, -big)
    tail_of, head_of, cost_of = tails.tolist(), heads.tolist(), costs.tolist()

    if pivot_tol is None:
        pivot_tol = 1e-11 * (1.0 + float(mesh.edge_lengths.max(initial=0.0)))

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
            if rc[k] < -pivot_tol:
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

    if _rebuilt_tree(in_tree, tail_of, head_of, cost_of, root) != (
        parent,
        parent_arc,
        depth,
        pi.tolist(),
    ):
        raise SolverFailure("spanning tree lost during pivoting")
    if flow[n_real:].max(initial=0.0) > 1e-9 * max(1.0, np.abs(b).max(initial=0.0)):
        raise SolverFailure("artificial arcs still carry flow at optimality")

    signed = flow[0:n_real:2] - flow[1:n_real:2]
    value = float(np.sum(mesh.edge_lengths * np.abs(signed)))
    return signed, value


def _rebuilt_tree(in_tree, tail_of, head_of, cost_of, root):
    """Parent, parent arc, depth and potential of every node, recomputed
    by a search from the root over the tree arcs; None if the arcs do not
    span every node."""
    n_nodes = root + 1
    adj = [[] for _ in range(n_nodes)]
    for a in np.flatnonzero(in_tree).tolist():
        adj[tail_of[a]].append((head_of[a], a))
        adj[head_of[a]].append((tail_of[a], a))
    parent = [-1] * n_nodes
    parent_arc = [-1] * n_nodes
    depth = [0] * n_nodes
    pi = [0.0] * n_nodes
    seen = [False] * n_nodes
    seen[root] = True
    stack = [root]
    while stack:
        u = stack.pop()
        for v, a in adj[u]:
            if seen[v]:
                continue
            seen[v] = True
            parent[v] = u
            parent_arc[v] = a
            depth[v] = depth[u] + 1
            pi[v] = pi[u] + cost_of[a] if head_of[a] == v else pi[u] - cost_of[a]
            stack.append(v)
    if not all(seen):
        return None
    return parent, parent_arc, depth, pi
