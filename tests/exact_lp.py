"""Exact rational lexicographic LP: a test oracle for canonical profiles.

`exact_canonical_x(model, targets)` returns, as Fractions, the point that
`programs.solve_canonical` is meant to find: an optimum of the model whose
refinement targets are optimised in order, each over the optima of the
stages before it.  Every coefficient of `model.dense()` is converted with
`Fraction(float)`, which is exact, so no tolerance enters anywhere.  The
solver is a dense two-phase simplex with Bland's rule (lowest-index
entering column, ties in the ratio test to the lowest basic index), which
terminates in exact arithmetic.  After each stage every nonbasic column
whose reduced cost is positive is fixed at zero: with reduced costs r >= 0
at an optimal basis, cost(x) = optimum + sum_j r_j x_j on the feasible set,
so those columns being zero is exactly the stage's optimal face.
"""

from fractions import Fraction


class ExactLpError(Exception):
    pass


def _pivot(rows, basis, r, c):
    """Pivot on rows[r][c]; rows includes the cost row, last."""
    prow = rows[r]
    p = prow[c]
    prow[:] = [v / p if v else v for v in prow]
    nz = [j for j, v in enumerate(prow) if v]
    for i, row in enumerate(rows):
        f = row[c]
        if i != r and f:
            for j in nz:
                row[j] -= f * prow[j]
    basis[r] = c


def _simplex(rows, basis, allowed):
    """Bland's rule on the cost row rows[-1] over the allowed columns."""
    m = len(basis)
    while True:
        z = rows[-1]
        enter = next((j for j in allowed if z[j] < 0), None)
        if enter is None:
            return
        cands = [i for i in range(m) if rows[i][enter] > 0]
        if not cands:
            raise ExactLpError("unbounded")
        leave = min(cands, key=lambda i: (rows[i][-1] / rows[i][enter],
                                          basis[i]))
        _pivot(rows, basis, leave, enter)


def _load_costs(rows, basis, cost):
    """Cost row: cost minus its basic part priced out, exactly."""
    z = list(cost) + [0]
    for i, j in enumerate(basis):
        if cost[j]:
            z = [a - cost[j] * b for a, b in zip(z, rows[i])]
    rows[-1] = z


def exact_canonical_x(model, targets):
    """The lexicographic optimum of `model` (minimise its objective, then
    each (coeffs, "max" | "min") target in order), as a list of Fractions
    over the model's variables."""
    A, sense, b = model.dense()
    m, n = A.shape
    flips = [-1 if b[r] < 0 else 1 for r in range(m)]
    signs = [int(sense[r]) * flips[r] for r in range(m)]
    slack_rows = [r for r in range(m) if signs[r]]
    art_rows = [r for r in range(m) if signs[r] <= 0]
    n_real = n + len(slack_rows)
    n_all = n_real + len(art_rows)
    # Columns: structural, slack or surplus, artificial, then the rhs.
    rows, basis = [], []
    for r in range(m):
        row = ([Fraction(float(a)) * flips[r] for a in A[r]]
               + [0] * (n_all - n) + [Fraction(float(b[r])) * flips[r]])
        if signs[r]:
            row[n + slack_rows.index(r)] = signs[r]
        if signs[r] <= 0:
            row[n_real + art_rows.index(r)] = 1
        basis.append(n + slack_rows.index(r) if signs[r] > 0
                     else n_real + art_rows.index(r))
        rows.append(row)
    rows.append(None)
    if art_rows:
        _load_costs(rows, basis, [0] * n_real + [1] * len(art_rows))
        _simplex(rows, basis, range(n_all))
        if rows[-1][-1] != 0:
            raise ExactLpError("infeasible")
        # Drive the basic artificials (all at zero) out; a row with no
        # real entry left is redundant and goes.
        for r in reversed(range(m)):
            if basis[r] >= n_real:
                j = next((j for j in range(n_real) if rows[r][j]), None)
                if j is None:
                    del rows[r], basis[r]
                else:
                    _pivot(rows, basis, r, j)
        rows = [row[:n_real] + row[-1:] for row in rows[:-1]] + [None]
    allowed = list(range(n_real))
    stages = [[Fraction(float(c)) for c in model.objective]]
    for coeffs, goal in targets:
        c = [0] * n
        for j, a in coeffs.items():
            c[j] = Fraction(float(a)) * (-1 if goal == "max" else 1)
        stages.append(c)
    for cost in stages:
        _load_costs(rows, basis, cost + [0] * (n_real - n))
        _simplex(rows, basis, allowed)
        z = rows[-1]
        allowed = [j for j in allowed if not z[j] > 0]
    x = [Fraction(0)] * n_real
    for i, j in enumerate(basis):
        x[j] = rows[i][-1]
    return x[:n]
