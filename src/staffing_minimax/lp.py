"""Generic linear programs and a self-contained dense simplex solver.

Models here are tiny (at most a few thousand rows), so the solver favors
determinism and transparency over speed: a dense two-phase tableau with
Bland's anti-cycling rule.  Identical models always produce identical
solutions, which the test suite and the canonical-profile machinery rely on.

A model is: variables x >= 0 (optional upper bounds), linear rows with
relation <=, >= or =, and a minimization objective.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

PIVOT_TOL = 1e-9
COST_TOL = 1e-9
CHECK_TOL = 1e-7


class LpError(Exception):
    pass


class LpInfeasible(LpError):
    pass


class LpUnbounded(LpError):
    pass


class NumericFailure(LpError):
    pass


@dataclass
class LpModel:
    """Minimization LP: variables are nonnegative, rows are (coeffs, rel, rhs)."""

    name: str = "lp"
    var_names: List[str] = field(default_factory=list)
    upper_bounds: List[Optional[float]] = field(default_factory=list)
    objective: List[float] = field(default_factory=list)
    rows: List[Tuple[Dict[int, float], str, float]] = field(default_factory=list)

    def add_var(self, name: str, obj: float = 0.0,
                upper: Optional[float] = None) -> int:
        self.var_names.append(name)
        self.objective.append(float(obj))
        self.upper_bounds.append(upper)
        return len(self.var_names) - 1

    def add_row(self, coeffs: Dict[int, float], rel: str, rhs: float) -> None:
        if rel not in ("<=", ">=", "="):
            raise LpError(f"unknown relation {rel!r}")
        for j, a in coeffs.items():
            if not (0 <= j < len(self.var_names)):
                raise LpError(f"row references unknown variable {j}")
            if not np.isfinite(a):
                raise LpError("non-finite coefficient")
        if not np.isfinite(rhs):
            raise LpError("non-finite rhs")
        self.rows.append(({int(j): float(a) for j, a in coeffs.items()
                           if a != 0.0}, rel, float(rhs)))

    @property
    def n_vars(self) -> int:
        return len(self.var_names)

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def set_objective(self, coeffs: Dict[int, float]) -> None:
        self.objective = [0.0] * self.n_vars
        for j, a in coeffs.items():
            self.objective[j] = float(a)

    def dense(self):
        """Rows as (A, rels, b) dense arrays, upper bounds appended as rows."""
        extra = [(j, u) for j, u in enumerate(self.upper_bounds)
                 if u is not None]
        m = self.n_rows + len(extra)
        A = np.zeros((m, self.n_vars))
        b = np.zeros(m)
        rels = []
        for r, (coeffs, rel, rhs) in enumerate(self.rows):
            for j, a in coeffs.items():
                A[r, j] = a
            b[r] = rhs
            rels.append(rel)
        for k, (j, u) in enumerate(extra):
            A[self.n_rows + k, j] = 1.0
            b[self.n_rows + k] = u
            rels.append("<=")
        return A, rels, b

    def dump(self) -> str:
        """Human-readable LP text: objective line, then one line per row."""
        terms = " + ".join(f"{c:g}*{self.var_names[j]}"
                           for j, c in enumerate(self.objective) if c != 0.0)
        out = [f"min {terms or '0'}"]
        for coeffs, rel, rhs in self.rows:
            lhs = " + ".join(f"{a:g}*{self.var_names[j]}"
                             for j, a in sorted(coeffs.items()))
            out.append(f"  {lhs or '0'} {rel} {rhs:g}")
        for j, u in enumerate(self.upper_bounds):
            if u is not None:
                out.append(f"  {self.var_names[j]} <= {u:g}")
        return "\n".join(out)


@dataclass(frozen=True)
class LpSolution:
    status: str                 # "optimal" | "infeasible" | "unbounded"
    objective: float
    x: np.ndarray
    reduced_costs: Optional[np.ndarray] = None


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= np.outer(factors, T[row])
    basis[row] = col


def _run_simplex(T: np.ndarray, basis: np.ndarray, n_cols: int,
                 max_iter: int) -> str:
    """Minimize the objective encoded in the last tableau row, Bland's rule.

    Entering: lowest-index column with reduced cost < -COST_TOL.
    Leaving: minimum ratio; ties broken by the lowest basis variable index.
    """
    m = T.shape[0] - 1
    for _ in range(max_iter):
        red = T[-1, :n_cols]
        negative = np.nonzero(red < -COST_TOL)[0]
        if negative.size == 0:
            return "optimal"
        enter = int(negative[0])
        best_ratio, leave = None, -1
        col = T[:m, enter]
        rhs = T[:m, -1]
        for i in np.nonzero(col > PIVOT_TOL)[0]:
            ratio = rhs[i] / col[i]
            if (best_ratio is None or ratio < best_ratio - 1e-12
                    or (abs(ratio - best_ratio) <= 1e-12
                        and basis[i] < basis[leave])):
                best_ratio, leave = ratio, int(i)
        if leave < 0:
            return "unbounded"
        _pivot(T, basis, leave, enter)
    raise NumericFailure("simplex iteration limit exceeded")


def solve_lp(model: LpModel, check: bool = True) -> LpSolution:
    """Two-phase dense simplex.  Deterministic for byte-identical models.

    Returns an LpSolution; when check is True (default), non-optimal statuses
    raise LpInfeasible / LpUnbounded and a solution failing the post-solve
    feasibility or reduced-cost certificate raises NumericFailure.
    """
    A0, rels, b0 = model.dense()
    m, n = A0.shape
    if m == 0:
        x = np.zeros(n)
        obj = np.asarray(model.objective)
        if np.any(obj < -COST_TOL):
            if check:
                raise LpUnbounded(model.name)
            return LpSolution("unbounded", -np.inf, x)
        return LpSolution("optimal", 0.0, x, np.maximum(obj, 0.0))

    # Orient rows so rhs >= 0, then add slack/surplus and artificials.
    A = A0.copy()
    b = b0.copy()
    sense = []           # +1 for <=, -1 for >=, 0 for =
    for r, rel in enumerate(rels):
        s = {"<=": 1, ">=": -1, "=": 0}[rel]
        if b[r] < 0:
            A[r] *= -1.0
            b[r] *= -1.0
            s = -s
        sense.append(s)

    n_slack = sum(1 for s in sense if s != 0)
    n_art = sum(1 for s in sense if s <= 0)
    n_total = n + n_slack + n_art
    Afull = np.zeros((m, n_total))
    Afull[:, :n] = A
    slack_cols = {}
    extra = n
    for r, s in enumerate(sense):
        if s != 0:
            Afull[r, extra] = 1.0 if s > 0 else -1.0
            slack_cols[r] = extra
            extra += 1
    art_cols = {}
    basis = np.full(m, -1, dtype=int)
    for r, s in enumerate(sense):
        if s > 0:
            basis[r] = slack_cols[r]
        else:
            Afull[r, extra] = 1.0
            art_cols[r] = extra
            basis[r] = extra
            extra += 1
    max_iter = 2000 + 200 * (m + n_total)

    T = np.zeros((m + 1, n_total + 1))
    T[:m, :n_total] = Afull
    T[:m, -1] = b

    if art_cols:
        # Phase 1: minimize the sum of artificials.
        c1 = np.zeros(n_total + 1)
        for col in art_cols.values():
            c1[col] = 1.0
        T[-1] = c1
        for r in range(m):
            if c1[basis[r]] != 0.0:
                T[-1] -= c1[basis[r]] * T[r]
        status = _run_simplex(T, basis, n_total, max_iter)
        if status == "unbounded":
            raise NumericFailure("phase 1 unbounded")
        if -T[-1, -1] > 1e-7:
            if check:
                raise LpInfeasible(model.name)
            return LpSolution("infeasible", np.nan, np.full(n, np.nan))
        # Drive remaining artificials out of the basis.
        art_set = set(art_cols.values())
        keep = np.ones(m, dtype=bool)
        for r in range(m):
            if basis[r] in art_set:
                pivoted = False
                for j in range(n_total):
                    if j not in art_set and abs(T[r, j]) > PIVOT_TOL:
                        _pivot(T, basis, r, j)
                        pivoted = True
                        break
                if not pivoted:
                    keep[r] = False        # redundant row
        if not keep.all():
            T = np.vstack([T[:m][keep], T[-1:]])
            basis = basis[keep]
            m = int(keep.sum())
        # Freeze artificial columns at zero for phase 2.
        for col in art_set:
            T[:, col] = 0.0

    # Phase 2: original objective.
    c2 = np.zeros(n_total + 1)
    c2[:n] = model.objective
    T[-1] = c2
    for r in range(m):
        if c2[basis[r]] != 0.0:
            T[-1] -= c2[basis[r]] * T[r]
    status = _run_simplex(T, basis, n_total, max_iter)
    if status == "unbounded":
        if check:
            raise LpUnbounded(model.name)
        return LpSolution("unbounded", -np.inf, np.full(n, np.nan))

    x = np.zeros(n_total)
    for r in range(m):
        x[basis[r]] = T[r, -1]
    xs = x[:n]
    objective = float(np.dot(model.objective, xs))
    reduced = T[-1, :n].copy()

    # Optimality certificate: primal feasibility and nonnegative reduced costs.
    resid_ok = True
    Ax = A0 @ xs
    for r, rel in enumerate(rels):
        if rel == "<=" and Ax[r] > b0[r] + CHECK_TOL:
            resid_ok = False
        elif rel == ">=" and Ax[r] < b0[r] - CHECK_TOL:
            resid_ok = False
        elif rel == "=" and abs(Ax[r] - b0[r]) > CHECK_TOL:
            resid_ok = False
    if np.any(xs < -CHECK_TOL) or np.min(reduced) < -CHECK_TOL:
        resid_ok = False
    if not resid_ok:
        if check:
            raise NumericFailure(
                f"{model.name}: solution failed the optimality certificate")
        return LpSolution("optimal", objective, xs, reduced)

    xs = np.where(np.abs(xs) < 1e-12, 0.0, xs)
    return LpSolution("optimal", objective, xs, reduced)


def refine_lexicographic(model: LpModel, sol: LpSolution,
                         targets: List[Tuple[Dict[int, float], str]]
                         ) -> LpSolution:
    """Select a canonical optimum by lexicographic refinement.

    Pins the objective at its optimal value, then for each (coeffs, sense)
    target in order optimizes that linear function over the remaining optima
    and pins it too.  sense is "max" or "min".  Deterministic given the model
    and target order; used to make "the" canonical staffing profile
    well-defined independent of simplex pivoting accidents.
    """
    work = LpModel(name=model.name + "+lex",
                   var_names=list(model.var_names),
                   upper_bounds=list(model.upper_bounds),
                   objective=list(model.objective),
                   rows=list(model.rows))
    obj_coeffs = {j: c for j, c in enumerate(model.objective) if c != 0.0}
    work.add_row(obj_coeffs, "=", sol.objective)
    out = sol
    for coeffs, sense in targets:
        sign = -1.0 if sense == "max" else 1.0
        work.set_objective({j: sign * a for j, a in coeffs.items()})
        out = solve_lp(work)
        val = sum(a * out.x[j] for j, a in coeffs.items())
        work.add_row(dict(coeffs), "=", val)
    # Re-report the original objective value.
    final_obj = float(np.dot(model.objective, out.x))
    return LpSolution("optimal", final_obj, out.x, None)
