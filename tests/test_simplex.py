"""Solver unit tests, cross-checked against brute-force vertex enumeration."""

import itertools
import re

import numpy as np
import pytest

from staffing_minimax.lp import (
    LpError, LpInfeasible, LpModel, LpUnbounded, NumericFailure,
    refine_lexicographic, solve_lp)


def brute_force_min(c, rows, upper=None):
    """Enumerate basic points of {Ax rel b, x >= 0} and minimize c x.

    Independent oracle for tiny LPs: every vertex of a pointed polyhedron is
    the solution of n active constraints drawn from the rows and the bounds.
    Returns (value, x) or None when no feasible point exists.
    """
    c = np.asarray(c, float)
    n = len(c)
    sys_rows = []
    for coeffs, rel, rhs in rows:
        a = np.zeros(n)
        for j, v in coeffs.items():
            a[j] = v
        sys_rows.append((a, rel, rhs))
    if upper:
        for j, u in upper.items():
            e = np.zeros(n)
            e[j] = 1.0
            sys_rows.append((e, "<=", u))
    for j in range(n):
        e = np.zeros(n)
        e[j] = -1.0
        sys_rows.append((e, "<=", 0.0))     # -x_j <= 0

    def feasible(x):
        for a, rel, rhs in sys_rows:
            v = a @ x
            if rel == "<=" and v > rhs + 1e-7:
                return False
            if rel == ">=" and v < rhs - 1e-7:
                return False
            if rel == "=" and abs(v - rhs) > 1e-7:
                return False
        return True

    best = None
    for combo in itertools.combinations(range(len(sys_rows)), n):
        A = np.array([sys_rows[k][0] for k in combo])
        b = np.array([sys_rows[k][2] for k in combo])
        if abs(np.linalg.det(A)) < 1e-10:
            continue
        x = np.linalg.solve(A, b)
        if feasible(x):
            v = float(c @ x)
            if best is None or v < best[0] - 1e-12:
                best = (v, x)
    return best


def test_min_x_geq_1():
    m = LpModel()
    x = m.add_var("x", obj=1.0)
    m.add_row({x: 1.0}, ">=", 1.0)
    sol = solve_lp(m)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(1.0, abs=1e-9)
    assert sol.x[x] == pytest.approx(1.0, abs=1e-9)


def test_equality_and_degenerate_rows():
    m = LpModel()
    x1 = m.add_var("x1", obj=1.0)
    x2 = m.add_var("x2")
    x3 = m.add_var("x3")
    m.add_row({x1: 1, x2: 1}, "=", 1.0)
    m.add_row({x2: 1, x3: 1}, "=", 1.0)
    m.add_row({x1: 1, x3: 1}, "=", 1.0)
    sol = solve_lp(m)
    assert sol.objective == pytest.approx(0.5, abs=1e-9)


def test_infeasible_detected():
    m = LpModel()
    x = m.add_var("x", obj=1.0)
    m.add_row({x: 1.0}, ">=", 2.0)
    m.add_row({x: 1.0}, "<=", 1.0)
    with pytest.raises(LpInfeasible):
        solve_lp(m)
    sol = solve_lp(m, check=False)
    assert sol.status == "infeasible"


def test_unbounded_detected():
    m = LpModel()
    x = m.add_var("x", obj=-1.0)
    m.add_row({x: 1.0}, ">=", 1.0)
    with pytest.raises(LpUnbounded):
        solve_lp(m)


def test_upper_bounds_respected():
    m = LpModel()
    x = m.add_var("x", obj=-1.0, upper=3.5)
    sol = solve_lp(m)
    assert sol.x[x] == pytest.approx(3.5, abs=1e-9)
    assert sol.objective == pytest.approx(-3.5, abs=1e-9)


def test_negative_rhs_rows():
    # -x1 - x2 <= -2 and -2x1 - x2 <= -3 (i.e. >= rows written as <=).
    m = LpModel()
    x1 = m.add_var("x1", obj=3.0)
    x2 = m.add_var("x2", obj=4.0)
    m.add_row({x1: -1, x2: -1}, "<=", -2.0)
    m.add_row({x1: -2, x2: -1}, "<=", -3.0)
    sol = solve_lp(m)
    assert sol.objective == pytest.approx(6.0, abs=1e-8)
    assert sol.x[x1] == pytest.approx(2.0, abs=1e-8)


def test_determinism_bitwise():
    rng = np.random.default_rng(7)
    m = LpModel()
    for j in range(6):
        m.add_var(f"x{j}", obj=rng.normal())
    for _ in range(8):
        coeffs = {j: rng.normal() for j in range(6)}
        m.add_row(coeffs, "<=", abs(rng.normal()) + 1.0)
    m.add_row({j: 1.0 for j in range(6)}, "<=", 10.0)
    a = solve_lp(m, check=False)
    b = solve_lp(m, check=False)
    assert a.status == b.status
    if a.status == "optimal":
        assert np.array_equal(a.x, b.x)
        assert a.objective == b.objective


def test_reduced_cost_certificate():
    rng = np.random.default_rng(3)
    m = LpModel()
    for j in range(5):
        m.add_var(f"x{j}", obj=rng.normal())
    for _ in range(4):
        m.add_row({j: rng.normal() for j in range(5)}, "<=",
                  abs(rng.normal()) + 0.5)
    m.add_row({j: 1.0 for j in range(5)}, "<=", 20.0)
    sol = solve_lp(m)
    assert sol.reduced_costs is not None
    assert sol.reduced_costs.min() >= -1e-7


@pytest.mark.parametrize("seed", range(40))
def test_against_vertex_enumeration(seed):
    rng = np.random.default_rng(1000 + seed)
    n = int(rng.integers(2, 5))
    m_rows = int(rng.integers(1, 5))
    c = rng.normal(size=n)
    rows = []
    for _ in range(m_rows):
        coeffs = {j: float(rng.normal()) for j in range(n)}
        rel = rng.choice(["<=", ">=", "="])
        rows.append((coeffs, str(rel), float(rng.normal())))
    # Box the region so every feasible problem has a bounded optimum.
    rows.append(({j: 1.0 for j in range(n)}, "<=", 8.0))

    model = LpModel()
    for j in range(n):
        model.add_var(f"x{j}", obj=float(c[j]))
    for coeffs, rel, rhs in rows:
        model.add_row(coeffs, rel, rhs)

    oracle = brute_force_min(c, rows)
    sol = solve_lp(model, check=False)
    if oracle is None:
        assert sol.status == "infeasible"
    else:
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(oracle[0], abs=1e-6)


def test_lexicographic_refinement_picks_extreme_optimum():
    # min 0 over x1 + x2 <= 1: every point optimal; refinement pins x1 first.
    m = LpModel()
    x1 = m.add_var("x1")
    x2 = m.add_var("x2")
    m.add_row({x1: 1, x2: 1}, "<=", 1.0)
    sol = solve_lp(m)
    refined = refine_lexicographic(m, sol, [({x1: 1.0}, "max"),
                                            ({x2: 1.0}, "max")])
    assert refined.x[x1] == pytest.approx(1.0, abs=1e-9)
    assert refined.x[x2] == pytest.approx(0.0, abs=1e-9)


def test_certificate_failure_names_row_and_tolerance():
    # A known reproducer (benchmarks/SCOPE.md): a late refinement stage of
    # this sweep point breaks the certificate.
    from staffing_minimax.cli import companion_sweep_instance
    from staffing_minimax.programs import minimax_value_and_profile
    with pytest.raises(NumericFailure) as info:
        minimax_value_and_profile(
            companion_sweep_instance(20, 0.5, 8.0, 1.0, 1.0))
    message = str(info.value)
    assert message.startswith(
        "single_switch+lex: solution failed the optimality certificate")
    assert re.search(r"row \d+", message)
    assert "1e-07" in message


@pytest.mark.parametrize("kwargs, what", [
    ({"upper": float("nan")}, "upper bound"),
    ({"upper": float("inf")}, "upper bound"),
    ({"obj": float("nan")}, "objective coefficient"),
    ({"obj": float("-inf")}, "objective coefficient"),
])
def test_add_var_rejects_non_finite(kwargs, what):
    # add_row refuses non-finite numbers; add_var must too, or upper=nan
    # solves as "optimal" with objective nan and upper=inf as x = inf.
    model = LpModel()
    with pytest.raises(LpError, match=f"non-finite {what} for x"):
        model.add_var("x", **kwargs)
    assert model.n_vars == 0 and model.upper_bounds == []


def test_certificate_fails_on_nan_residual():
    # A NaN bound smuggled past add_var leaves x = nan; its NaN residual
    # must fail the certificate, not pass it.
    model = LpModel()
    model.add_var("x", obj=-1.0)
    model.add_row({0: 1.0}, ">=", 0.0)
    model.upper_bounds[0] = float("nan")
    with pytest.raises(NumericFailure, match=r"row 0 of 2 \(>=\) is off by "
                                             r"nan \(tolerance 1e-07\)"):
        solve_lp(model)
