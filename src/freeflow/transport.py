"""Exact transportation solver used as an independent oracle.

Solves the balanced transportation problem

    min sum_ij gamma_ij * d_ij,  gamma >= 0,
    sum_j gamma_ij = supply_i,   sum_i gamma_ij = demand_j

in exact rational arithmetic: every float input is a dyadic rational and
is treated exactly, the initial basis comes from the northwest-corner
rule, and pivoting uses Bland's rule, so termination at the true optimum
of the given data is guaranteed. Instances here are tiny (one cell per
pair of molecule atoms). The pivots run on integers over two common
denominators, the lcm of the masses' and that of the costs'. Both are
positive, so every comparison and pivot is the one the rationals make,
and the integer optimum over their product is still exact.

The basis cells form a spanning tree of rows and columns, so a pivot
needs no graph search. One walk of that tree from row 0 gives each row
and column its depth, the basis cell to its parent and its dual, with
u_i + v_j = d_ij and u_0 = 0. The pivot cycle climbs the tree from both
ends of the entering cell, always from the deeper end, until they meet.
"""

import math
from fractions import Fraction

from .errors import SolverFailure


def solve_transportation(supplies, demands, cost):
    """Exact optimal value of a balanced transportation problem.

    ``cost[i][j]`` prices shipping from supply i to demand j. Inputs may
    be floats (converted exactly) or Fractions. Returns a Fraction.
    Raises ``SolverFailure`` on unbalanced or negative masses.
    """
    s = [Fraction(x) for x in supplies]
    t = [Fraction(x) for x in demands]
    m, n = len(s), len(t)
    if sum(s) != sum(t):
        raise SolverFailure("transportation instance is not balanced")
    if any(x < 0 for x in s + t):
        raise SolverFailure("negative supply or demand")
    if m == 0 or n == 0:
        return Fraction(0)
    d = [[Fraction(cost[i][j]) for j in range(n)] for i in range(m)]
    mass_den = math.lcm(*(x.denominator for x in s + t))
    cost_den = math.lcm(*(x.denominator for row in d for x in row))
    s, t = ([x.numerator * (mass_den // x.denominator) for x in xs] for xs in (s, t))
    d = [[x.numerator * (cost_den // x.denominator) for x in row] for row in d]

    # northwest-corner initial basis: m + n - 1 cells, tree-structured;
    # the keys of ``flows`` are the basis
    flows = {}
    rem_s, rem_t = list(s), list(t)
    i = j = 0
    for _ in range(m + n - 1):
        q = flows[i, j] = min(rem_s[i], rem_t[j])
        rem_s[i] -= q
        rem_t[j] -= q
        if rem_s[i] == 0 and i < m - 1:
            i += 1
        else:
            j += 1

    for _ in range(100000):
        # rows are nodes 0..m-1 and columns m..m+n-1 of the basis tree;
        # dual[i] is u_i and dual[m + j] is v_j
        tree = [[] for _ in range(m + n)]
        for i, j in flows:
            tree[i].append((i, j))
            tree[m + j].append((i, j))
        up, depth, dual = [None] * (m + n), [None] * (m + n), [0] * (m + n)
        depth[0] = 0
        stack = [0]
        while stack:
            a = stack.pop()
            for i, j in tree[a]:
                b = i if a >= m else m + j
                if depth[b] is None:
                    up[b], depth[b] = (i, j), depth[a] + 1
                    dual[b] = d[i][j] - dual[a]
                    stack.append(b)
        if None in depth:
            raise SolverFailure("basis does not span the bipartite graph")
        entering = next((  # Bland: first negative reduced cost
            (i, j) for i in range(m) for j in range(n)
            if (i, j) not in flows and d[i][j] - dual[i] - dual[m + j] < 0), None)
        if entering is None:
            total = sum(d[i][j] * q for (i, j), q in flows.items())
            return Fraction(total, mass_den * cost_den)
        # climb from both ends of the entering cell to where they meet;
        # the cells alternately gain (+) and lose (-) flow
        ends, sides = [m + entering[1], entering[0]], ([], [])
        while ends[0] != ends[1]:
            k = 0 if depth[ends[0]] >= depth[ends[1]] else 1
            i, j = up[ends[k]]
            sides[k].append((i, j))
            ends[k] = i if ends[k] >= m else m + j
        cycle = [entering] + sides[0] + sides[1][::-1]
        minus = cycle[1::2]
        delta = min(flows[c] for c in minus)
        leaving = min(c for c in minus if flows[c] == delta)
        flows[entering] = 0
        for k, cell in enumerate(cycle):
            flows[cell] += delta if k % 2 == 0 else -delta
        del flows[leaving]
    raise SolverFailure("transportation simplex failed to terminate")
