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
needs no graph search. The duals u_i + v_j = d_ij (u_0 = 0) come from
sweeps over the basis, each fixing every cell with one known end. The
pivot cycle is what is left of basis + {entering} once cells alone in
their row or column have been dropped until none is; a walk from the
entering cell, alternately along a row and a column, puts it in order.
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
        u, v = _duals(flows, d, m, n)
        entering = next((  # Bland: first negative reduced cost
            (i, j) for i in range(m) for j in range(n)
            if (i, j) not in flows and d[i][j] - u[i] - v[j] < 0), None)
        if entering is None:
            total = sum(d[i][j] * q for (i, j), q in flows.items())
            return Fraction(total, mass_den * cost_den)
        cycle = _pivot_cycle(list(flows), entering)
        minus = cycle[1::2]
        delta = min(flows[c] for c in minus)
        leaving = min(c for c in minus if flows[c] == delta)
        flows[entering] = 0
        for k, cell in enumerate(cycle):
            flows[cell] += delta if k % 2 == 0 else -delta
        del flows[leaving]
    raise SolverFailure("transportation simplex failed to terminate")


def _duals(basis, d, m, n):
    """Solve u_i + v_j = d_ij over the basis tree with u_0 = 0."""
    u, v = [None] * m, [None] * n
    u[0] = 0
    pending = list(basis)
    while pending:
        rest = []
        for i, j in pending:
            if v[j] is None and u[i] is not None:
                v[j] = d[i][j] - u[i]
            elif u[i] is None and v[j] is not None:
                u[i] = d[i][j] - v[j]
            else:
                rest.append((i, j))
        if len(rest) == len(pending):
            raise SolverFailure("basis does not span the bipartite graph")
        pending = rest
    return u, v


def _pivot_cycle(basis, entering):
    """Cycle closed by the entering cell, starting with it; its cells
    alternately gain (+) and lose (-) flow."""
    cells = basis + [entering]
    while cells:
        rows, cols = zip(*cells)
        kept = [(i, j) for i, j in cells
                if rows.count(i) > 1 and cols.count(j) > 1]
        if len(kept) == len(cells):
            break
        cells = kept
    if entering not in cells:
        raise SolverFailure("entering cell closes no cycle")
    cells.remove(entering)
    cycle = [entering]
    while cells:
        axis = 1 - len(cycle) % 2  # 0: same row as the last cell, 1: column
        cell = next(c for c in cells if c[axis] == cycle[-1][axis])
        cells.remove(cell)
        cycle.append(cell)
    return cycle
