"""Solver unit tests, cross-checked against brute-force vertex enumeration."""

import itertools
import json
import re

import numpy as np
import pytest

from conftest import instance_path, random_multi_pool, random_single_pool
from staffing_minimax import bayesian, lp, programs
from staffing_minimax.cli import _policy_factories
from staffing_minimax.lp import (
    CHECK_TOL, COST_TOL, PIVOT_TOL, LpError, LpInfeasible, LpModel,
    LpSolution, LpUnbounded, NumericFailure, refine_lexicographic, solve_lp)
from staffing_minimax.programs import minimax_value_and_profile


def brute_force_min(c, rows):
    """Enumerate basic points of {Ax rel b, x >= 0} and minimize c x.

    Independent oracle for tiny LPs: every vertex of a pointed polyhedron is
    the solution of n active constraints drawn from the rows and x >= 0.
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
    m = LpModel(name="infeasible-demo")
    x = m.add_var("x", obj=1.0)
    m.add_row({x: 1.0}, ">=", 2.0)
    m.add_row({x: 1.0}, "<=", 1.0)
    with pytest.raises(LpInfeasible, match=re.escape(
            "infeasible-demo: infeasible, 2 rows x 1 columns: phase-1 "
            "residual 1 > 1e-07")):
        solve_lp(m)


def _two_equalities():
    # Phase 1 needs two pivots, phase 2 one more.
    m = LpModel(name="two-eq")
    for j in range(3):
        m.add_var(f"x{j}", obj=(1.0, 2.0, -1.0)[j])
    m.add_row({0: 1.0, 1: 1.0}, "=", 2.0)
    m.add_row({1: 1.0, 2: 1.0}, "=", 1.0)
    m.add_row({2: 1.0}, "<=", 1.0)
    return m


@pytest.mark.parametrize("phase", [1, 2])
def test_iteration_limit_names_model_phase_size_and_limit(monkeypatch,
                                                          phase):
    # 3 rows, 3 + 1 slack + 2 artificial columns: 2000 + 200 * (3 + 6).
    run, calls = lp._run_simplex, []

    def one_pivot(T, basis, n_cols, max_iter, pivots=None, path=None):
        calls.append(max_iter)
        return run(T, basis, n_cols, max_iter if len(calls) != phase else 1,
                   pivots, path)

    monkeypatch.setattr(lp, "_run_simplex", one_pivot)
    with pytest.raises(NumericFailure, match=re.escape(
            f"two-eq: phase {phase} iteration limit exceeded (3 rows x 3 "
            "columns, limit 3800 pivots)")):
        solve_lp(_two_equalities())
    assert calls[-1] == 3800


def test_phase_1_unbounded_names_model_size_and_limit(monkeypatch):
    # Phase 1 is bounded below by 0, so only numerical trouble gets here.
    monkeypatch.setattr(lp, "_run_simplex", lambda *args: "unbounded")
    with pytest.raises(NumericFailure, match=re.escape(
            "two-eq: phase 1 unbounded (3 rows x 3 columns, limit 3800 "
            "pivots)")):
        solve_lp(_two_equalities())


def test_unbounded_detected():
    m = LpModel()
    x = m.add_var("x", obj=-1.0)
    m.add_row({x: 1.0}, ">=", 1.0)
    with pytest.raises(LpUnbounded):
        solve_lp(m)


def test_upper_bounds_respected():
    m = LpModel()
    x = m.add_var("x", obj=-1.0)
    m.add_row({x: 1.0}, "<=", 3.5)
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
    a = solve_lp(m)
    b = solve_lp(m)
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
    if oracle is None:
        with pytest.raises(LpInfeasible):
            solve_lp(model)
    else:
        assert solve_lp(model).objective == pytest.approx(oracle[0], abs=1e-6)


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
    ({"obj": float("nan")}, "objective coefficient"),
    ({"obj": float("-inf")}, "objective coefficient"),
])
def test_add_var_rejects_non_finite(kwargs, what):
    # add_row refuses non-finite numbers; add_var must too.
    model = LpModel()
    with pytest.raises(LpError, match=f"non-finite {what} for x"):
        model.add_var("x", **kwargs)
    assert model.n_vars == 0


@pytest.mark.parametrize("coeffs, rhs, what", [
    ({0: float("nan")}, 1.0, "coefficient"),
    ({0: np.float64("-inf")}, 1.0, "coefficient"),
    ({0: 1.0}, float("inf"), "rhs"),
    ({0: 1.0}, np.float64("nan"), "rhs"),
])
def test_add_row_rejects_non_finite(coeffs, rhs, what):
    model = LpModel()
    model.add_var("x")
    with pytest.raises(LpError, match=f"non-finite {what}"):
        model.add_row(coeffs, "<=", rhs)
    model.add_row({0: np.float64(2.0)}, ">=", np.int64(1))    # accepted
    assert model.rows == [({0: 2.0}, ">=", 1.0)]


def test_certificate_fails_on_nan_residual():
    # A NaN bound row smuggled past add_row leaves x = nan; its NaN
    # residual must fail the certificate, not pass it.
    model = LpModel()
    model.add_var("x", obj=-1.0)
    model.add_row({0: 1.0}, ">=", 0.0)
    model.rows.append(({0: 1.0}, "<=", float("nan")))
    with pytest.raises(NumericFailure, match=r"row 0 of 2 \(>=\) is off by "
                                             r"nan \(tolerance 1e-07\)"):
        solve_lp(model)


# --- Kernel identity ---------------------------------------------------------
# The pivot and Bland-rule loop as they were before the ratio test moved to
# Python floats, kept verbatim as the oracle: the kernel must leave every
# tableau byte, the basis and the status exactly as this code does.

def _oracle_pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= np.outer(factors, T[row])
    basis[row] = col


def _oracle_run_simplex(T: np.ndarray, basis: np.ndarray, n_cols: int,
                        max_iter: int, pivots=None) -> str:
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
        if pivots is not None:
            pivots.append((enter, T[leave] / T[leave, enter]))
        _oracle_pivot(T, basis, leave, enter)
    raise NumericFailure("simplex iteration limit exceeded")


@pytest.fixture
def kernel_runs(monkeypatch):
    """Check every phase-1 and phase-2 run of lp._run_simplex (and the pivot
    rows it records), and every pivot outside it (the artificial drive-out),
    against the oracle on a copy of the same tableau; check every replayed
    refinement stage against a cold solve of the same stage.  Returns the
    statuses of the checked runs and one entry per replay check."""
    runs = []
    run_simplex, pivot = lp._run_simplex, lp._pivot
    replay, two_phase, phase_two = lp._replay, lp._two_phase, lp._phase_two
    before = []     # constraint rows and basis as a stage enters phase 2

    def checked_run(T, basis, n_cols, max_iter, pivots=None, path=None):
        T0, basis0, pivots0 = T.copy(), basis.copy(), []
        want = _oracle_run_simplex(T0, basis0, n_cols, max_iter, pivots0)
        start = 0 if pivots is None else len(pivots)
        got = run_simplex(T, basis, n_cols, max_iter, pivots, path)
        assert got == want
        assert T.tobytes() == T0.tobytes()
        assert np.array_equal(basis, basis0)
        if pivots is not None:
            assert [(e, r.tobytes()) for e, r in pivots[start:]] == \
                [(e, r.tobytes()) for e, r in pivots0]
        runs.append(got)
        return got

    def checked_pivot(T, basis, row, col):
        T0, basis0 = T.copy(), basis.copy()
        _oracle_pivot(T0, basis0, row, col)
        pivot(T, basis, row, col)
        assert T.tobytes() == T0.tobytes()
        assert np.array_equal(basis, basis0)

    def noted_phase_two(T, basis, *args):
        # Phase 2 starts by overwriting the cost row, so only the
        # constraint rows carry over.
        before.append((T[:-1].tobytes(), basis.copy()))
        return phase_two(T, basis, *args)

    def checked_replay(chain, A, sense, b, c, name, keep):
        before.clear()
        try:
            got = replay(chain, A, sense, b, c, name, keep)
        except LpError as exc:
            with pytest.raises(type(exc)) as cold:
                two_phase(A, sense, b, c, name)
            assert str(cold.value) == str(exc)
            runs.append("replay error")
            raise
        (tableau, basis), = before
        before.clear()
        want = two_phase(A, sense, b, c, name)
        assert before[0][0] == tableau
        runs.append("replay tableau")
        assert np.array_equal(before[0][1], basis)
        runs.append("replay basis")
        assert got.x.tobytes() == want.x.tobytes()
        runs.append("replay x")
        assert repr(got.objective) == repr(want.objective)
        runs.append("replay objective")
        return got

    monkeypatch.setattr(lp, "_run_simplex", checked_run)
    # The kernel pivots through its own scratch array; lp._pivot is the
    # drive-out's and the replay's pivot, checked one by one here.
    monkeypatch.setattr(lp, "_pivot", checked_pivot)
    monkeypatch.setattr(lp, "_phase_two", noted_phase_two)
    monkeypatch.setattr(lp, "_replay", checked_replay)
    return runs


def _canonical(inst):
    try:
        minimax_value_and_profile(inst)
    except LpError:
        pass


def test_kernel_identity_random_instances(kernel_runs):
    for seed in range(10):
        _canonical(random_single_pool(np.random.default_rng([seed, 21])))
        _canonical(random_multi_pool(np.random.default_rng([seed, 22])))
    assert len(kernel_runs) > 100


@pytest.mark.parametrize("T", [6, 12, 20, 30])
def test_kernel_identity_companion_sweep(kernel_runs, T):
    from staffing_minimax.cli import companion_sweep_instance
    _canonical(companion_sweep_instance(T, 1.0, 4.0, 1.0, 1.0))
    assert len(kernel_runs) >= 2 * T


def _degenerate_lp(seed):
    """Every <= row but one has rhs 0, so the ratio test ties at 0 on most
    pivots, and the = rows put their artificials above the slacks in index
    order.  The one other row has the lowest slack and rhs exactly 1e-12: its
    ratio ties with 0 at the tolerance, where only the inclusive rule lets
    the lower basis index win."""
    rng = np.random.default_rng([seed, 23])
    n = 8
    model = LpModel(name=f"degenerate[{seed}]")
    for j in range(n):
        model.add_var(f"x{j}", obj=-float(rng.integers(1, 4)))
    model.add_row(dict.fromkeys(range(n), 1.0), "=", 0.0)
    model.add_row(dict.fromkeys(range(n), 1.0), "<=", 1e-12)
    for _ in range(10):
        a = rng.integers(-1, 3, size=n)
        model.add_row({j: float(v) for j, v in enumerate(a)}, "<=", 0.0)
    model.add_row({j: float(rng.integers(0, 2)) for j in range(n)}, "=", 0.0)
    return model


@pytest.mark.parametrize("seed", range(6))
def test_kernel_identity_degenerate_ties(kernel_runs, seed):
    solve_lp(_degenerate_lp(seed))
    assert len(kernel_runs) == 2


def test_kernel_identity_signed_zeros(kernel_runs):
    # A row with a negative right side is flipped, so its zero coefficients
    # turn into -0.0, and x - f * y keeps or drops a zero's sign by the sign
    # of the pivot row's zero.  A replay must subtract the rows the dense
    # pivot subtracts (after the division, before the pivot row's own
    # update), or the tableau before phase 2 differs in a zero's sign here.
    model = LpModel(name="signed-zeros")
    for j, obj in enumerate((1.0, 1.0, 0.0)):
        model.add_var(f"x{j}", obj=obj)
    model.add_row({0: -2.0, 1: -2.0}, "<=", -2.0)
    model.add_row({}, ">=", -1.0)
    model.add_row({0: 1.0, 1: 1.0, 2: 1.0}, "<=", 4.0)
    refine_lexicographic(model, solve_lp(model), [
        ({0: -1.0}, "min"), ({2: -1.0}, "min"), ({1: -1.0}, "max")])
    assert "replay tableau" in kernel_runs


# --- Solve identity on resolving traffic -------------------------------------
# The cost-row load and the two-phase solve as they were before the leaner
# kernel (a cost row priced out one basis row at a time, the tableau set up,
# driven out and certified with more NumPy calls), kept verbatim as the
# oracle beside _oracle_run_simplex and _oracle_pivot.

def _oracle_load_costs(T: np.ndarray, basis: np.ndarray,
                       c: np.ndarray) -> None:
    T[-1] = c
    cb = c[basis]
    for r in cb.nonzero()[0].tolist():
        T[-1] -= cb[r] * T[r]


def _oracle_two_phase(A: np.ndarray, sense: np.ndarray, b: np.ndarray,
                      c: np.ndarray, name: str,
                      record=None) -> LpSolution:
    m, n = A.shape
    if m == 0:
        x = np.zeros(n)
        if np.any(c < -COST_TOL):
            raise LpUnbounded(name)
        return LpSolution(0.0, x, np.maximum(c, 0.0))

    flip = np.where(b < 0, -1.0, 1.0)
    s = sense * flip
    slack_rows, art_rows = s.nonzero()[0], (s <= 0).nonzero()[0]
    n_real = n + slack_rows.size
    n_total = n_real + art_rows.size
    T = np.zeros((m + 1, n_total + 1))
    T[:m, :n] = A * flip[:, None]
    T[:m, -1] = b * flip
    basis = np.empty(m, dtype=int)
    basis[slack_rows] = np.arange(n, n_real)
    T[slack_rows, basis[slack_rows]] = s[slack_rows]
    basis[art_rows] = np.arange(n_real, n_total)
    T[art_rows, basis[art_rows]] = 1.0
    max_iter = 2000 + 200 * (m + n_total)

    if art_rows.size:
        c1 = np.zeros(n_total + 1)
        c1[n_real:n_total] = 1.0
        _oracle_load_costs(T, basis, c1)
        if record is not None:
            record.cost = T[-1].copy()
        if _oracle_run_simplex(T, basis, n_total, max_iter,
                               None if record is None else record.pivots
                               ) == "unbounded":
            raise NumericFailure("phase 1 unbounded")
        if -T[-1, -1] > 1e-7:
            raise LpInfeasible(name)
        T = np.hstack((T[:, :n_real], T[:, -1:]))
        for r in (basis >= n_real).nonzero()[0].tolist():
            nz = np.abs(T[r, :n_real]) > PIVOT_TOL
            j = int(nz.argmax())
            if nz[j]:
                if record is not None:
                    record.drives.append((j, T[r] / T[r, j]))
                _oracle_pivot(T, basis, r, j)
        live = basis < n_real
        T, basis = T[np.append(live, True)], basis[live]
    if record is not None:
        record.T, record.basis = T.copy(), basis.copy()
        record.n_total = n_total
    return _oracle_phase_two(T, basis, A, sense, b, c, n_real, max_iter, name)


def _oracle_phase_two(T: np.ndarray, basis: np.ndarray, A: np.ndarray,
                      sense: np.ndarray, b: np.ndarray, c: np.ndarray,
                      n_real: int, max_iter: int, name: str) -> LpSolution:
    m, n = A.shape
    _oracle_load_costs(T, basis,
                       np.concatenate((c, np.zeros(n_real + 1 - n))))
    if _oracle_run_simplex(T, basis, n_real, max_iter) == "unbounded":
        raise LpUnbounded(name)

    x = np.zeros(n_real)
    x[basis] = T[:-1, -1]
    xs = x[:n]
    objective = float(np.dot(c, xs))
    reduced = T[-1, :n].copy()

    d = A @ xs - b
    viol = np.where(sense, sense * d, np.abs(d))
    failed = []
    if not (viol <= CHECK_TOL).all():
        r = int(np.argmax(np.where(np.isnan(viol), np.inf, viol)))
        failed.append(f"row {r} of {m} ({('=', '<=', '>=')[sense[r]]}) is "
                      f"off by {viol[r]:.6g}")
    if (xs < -CHECK_TOL).any():
        failed.append(f"x[{xs.argmin()}] = {xs.min():.6g}")
    if reduced.min() < -CHECK_TOL:
        failed.append(f"reduced cost of x[{reduced.argmin()}] = "
                      f"{reduced.min():.6g}")
    if failed:
        raise NumericFailure(
            f"{name}: solution failed the optimality certificate: "
            f"{'; '.join(failed)} (tolerance {CHECK_TOL:g})")
    xs = np.where(np.abs(xs) < 1e-12, 0.0, xs)
    return LpSolution(objective, xs, reduced)


def _chain_bytes(chain) -> tuple:
    return (chain.cost.tobytes() if chain.cost is not None else None,
            [(e, y.tobytes()) for e, y in chain.pivots],
            [(j, y.tobytes()) for j, y in chain.drives],
            chain.T.tobytes(), chain.basis.tobytes(), chain.n_total)


@pytest.fixture
def oracle_solves(monkeypatch):
    """Check every cold solve (lp._two_phase) against _oracle_two_phase on
    copies of its inputs, and every replayed refinement stage and every
    solve that the pivot-path memo serves (lp._Trie.walk) against a cold
    oracle solve of the same stage: x, the objective's repr and the reduced
    costs, and for a cold solve, the tableau and basis just before phase 2
    and a recorded chain.  Returns one name per checked solve.  Phase 2
    starts by overwriting the cost row, so a replay, which pushes only its
    new rows, is checked on the constraint rows alone; a walk builds no
    tableau, so it is checked on its solution alone."""
    two_phase, phase_two, replay = lp._two_phase, lp._phase_two, lp._replay
    walk = lp._Trie.walk
    before, checked = [], []

    def noted_phase_two(T, basis, *args):
        before.append((T[:-1].tobytes(), T[-1].tobytes(), basis.tobytes()))
        return phase_two(T, basis, *args)

    def compare(got, want, chain=None, cost_row=True):
        assert got.x.tobytes() == want.x.tobytes()
        assert repr(got.objective) == repr(want.objective)
        assert got.reduced_costs.tobytes() == want.reduced_costs.tobytes()
        if chain is not None:
            (rows, cost, basis), = before
            assert rows == chain.T[:-1].tobytes()
            assert not cost_row or cost == chain.T[-1].tobytes()
            assert basis == chain.basis.tobytes()

    def checked_two_phase(A, sense, b, c, name, record=None, path=None):
        chain = lp._Chain()
        args = (A.copy(), sense.copy(), b.copy(), c.copy(), name)
        before.clear()
        try:
            want = _oracle_two_phase(*args, chain)
        except LpError as exc:
            with pytest.raises(type(exc)):
                two_phase(A, sense, b, c, name, record, path)
            checked.append("error")
            raise
        got = two_phase(A, sense, b, c, name, record, path)
        compare(got, want, chain)
        if record is not None:
            assert _chain_bytes(record) == _chain_bytes(chain)
        checked.append(name if record is None else name + " recorded")
        return got

    def checked_walk(self, A, sense, b, c, name):
        before.clear()
        got = walk(self, A, sense, b, c, name)
        if got is not None:
            assert not before
            compare(got, _oracle_two_phase(A, sense, b, c, name))
            checked.append(name + " served")
        return got

    def checked_replay(chain, A, sense, b, c, name, keep):
        before.clear()
        got = replay(chain, A, sense, b, c, name, keep)
        cold = lp._Chain()
        compare(got, _oracle_two_phase(A, sense, b, c, name, cold), cold,
                cost_row=False)
        checked.append(name + " replayed")
        return got

    monkeypatch.setattr(lp, "_two_phase", checked_two_phase)
    monkeypatch.setattr(lp, "_phase_two", noted_phase_two)
    monkeypatch.setattr(lp, "_replay", checked_replay)
    monkeypatch.setattr(lp._Trie, "walk", checked_walk)
    return checked


def _resolving_runs(monkeypatch, reps=20):
    """The resolving base and stage programs of bench_long, the traffic the
    world_lp benchmark times, from rows that no earlier solve has seen: each
    call of the returned function plays reps replications through
    lp_resolving, from replication offset on.  The first records the paths
    of the states it solves more than once, and the later ones follow
    them."""
    monkeypatch.setattr(programs, "_day_rows", programs.DayMemo())
    with open(instance_path("bench_long.json")) as f:
        config = json.load(f)
    process = bayesian.DemandProcess(int(config["horizon"]),
                                     float(config["prior_hi"]))
    table = bayesian.CalibrationTable.from_dict(config["calibration"])
    inst = bayesian.forecast_instance(
        config["pool_sizes"], config["availability"], table,
        float(config["under_cost"]), float(config["over_cost"]), process)

    def play(offset=0):
        factories = _policy_factories(["lp_resolving"], inst, process, {})
        bayesian.run_bayesian_world(inst, process, table, factories, reps,
                                    int(config["seed"]), offset)
    return play


def _resolving_traffic(monkeypatch, runs):
    play = _resolving_runs(monkeypatch)
    for _ in range(runs):
        play()


def test_solves_match_oracle_on_resolving_traffic(oracle_solves,
                                                  monkeypatch):
    _resolving_traffic(monkeypatch, 2)
    assert len(oracle_solves) > 100
    served = [s for s in oracle_solves if s.endswith(" served")]
    assert len(served) > len(oracle_solves) / 2
    assert any(s.endswith("+lex served") for s in served)
    assert any(not s.endswith("+lex served") for s in served)
    assert any(s.endswith("recorded") for s in oracle_solves)
    assert any(s.endswith("replayed") for s in oracle_solves)


def test_warm_stages_take_one_reuse_path(oracle_solves, monkeypatch):
    # A stage whose key holds recorded paths goes to the memo and never
    # reaches the replay, even with a live chain; a stage whose key holds
    # none replays wherever a chain is live; a walked stage ends the chain.
    # The fixture checks every solve against the oracle.
    routes, solve, replay = [], lp._solve, lp._replay

    def noted_solve(A, sense, b, c, name, paths, chain=None, pins=None):
        trie = paths.tries.get(((b < 0).tobytes(), c.tobytes()))
        routes.append([type(trie) is lp._Trie, chain is not None, False])
        out, chain = solve(A, sense, b, c, name, paths, chain, pins)
        assert chain is None or not oracle_solves[-1].endswith(" served")
        return out, chain

    def noted_replay(*args):
        routes[-1][2] = True
        return replay(*args)

    monkeypatch.setattr(lp, "_solve", noted_solve)
    monkeypatch.setattr(lp, "_replay", noted_replay)
    _resolving_traffic(monkeypatch, 3)
    assert not any(held and replayed for held, _, replayed in routes)
    assert all(replayed for held, live, replayed in routes
               if live and not held)
    assert any(held and live for held, live, _ in routes)
    assert any(live and not held for held, live, _ in routes)
    assert any(s.endswith("+lex served") for s in oracle_solves)
    assert any(s.endswith("+lex replayed") for s in oracle_solves)


def test_walks_serve_warm_resolving_solves(monkeypatch):
    # The memo holds every path the world_lp traffic records, so once two
    # runs have recorded them, walks serve nearly every solve of a third on
    # fresh replications, as a benchmark pass plays: 0.936 of them, against
    # 0.736 when the memo held 512 nodes a row set.
    play = _resolving_runs(monkeypatch, 200)
    play(0)
    play(200)
    solves, served = [], []
    solve, walk = lp._solve, lp._Trie.walk

    def noted_solve(*args):
        solves.append(1)
        return solve(*args)

    def noted_walk(self, *args):
        out = walk(self, *args)
        served.append(out is not None)
        return out

    monkeypatch.setattr(lp, "_solve", noted_solve)
    monkeypatch.setattr(lp._Trie, "walk", noted_walk)
    play(400)
    assert len(solves) > 5000
    assert sum(served) >= 0.9 * len(solves)


@pytest.mark.parametrize("seed", range(4))
def test_subtract_reduce_is_a_left_fold(seed):
    # _load_costs folds its product rows with np.subtract.reduce(axis=0) and
    # relies on it subtracting them one at a time, in row order, as
    # T[-1] -= p does; a pairwise or blocked order would change the bits.
    # Rows of mixed magnitudes and signed zeros, some fancy-indexed.
    rng = np.random.default_rng([seed, 26])
    single = 0
    for _ in range(50):
        m, w = int(rng.integers(1, 20)), int(rng.integers(1, 40))
        T = rng.standard_normal((m + 1, w)) * 10.0 ** rng.integers(
            -12, 13, size=(m + 1, w))
        T[rng.random(T.shape) < 0.2] = 0.0
        T[rng.random(T.shape) < 0.2] = -0.0
        rows = rng.permutation(m + 1)
        for Q in (T[rows], T[rows].T.copy().T, T[rows, ::-1]):
            want = Q[0].copy()
            for q in Q[1:]:
                want -= q
            assert np.subtract.reduce(Q, axis=0).tobytes() == want.tobytes()
        basis = rng.permutation(w)[:m] if m <= w else rng.integers(0, w, m)
        c = T[-1] * (rng.random(w) < 0.7)
        # Then exactly one basis row with a nonzero cost, the common phase-2
        # load, which takes one multiply and one subtract.
        one = T[-1].copy()
        r = int(rng.integers(m))
        one[basis] = 0.0
        one[basis[r]] = T[-1, basis[r]] or -2.5
        for cost in (c, one):
            got, want = T.copy(), T.copy()
            lp._load_costs(got, basis, cost)
            _oracle_load_costs(want, basis, cost)
            assert got.tobytes() == want.tobytes()
        single += np.count_nonzero(one[basis]) == 1
    assert single > 25


# --- Pivot-path memo ---------------------------------------------------------
# A row set's re-solves walk the pivot paths its earlier solves recorded
# (lp._Trie.walk), from the second solve of a key on.  Each re-solve below
# must give the bytes, or the error text, of a cold solve of a fresh copy of
# its model, whose rows no memo has seen.

def _outcome(model):
    try:
        sol = solve_lp(model)
    except LpError as exc:
        return type(exc).__name__, str(exc)
    return repr(sol.objective), sol.x.tobytes(), sol.reduced_costs.tobytes()


def _resolves_as_cold(model, rhs_list, rounds=3):
    """Solve model's rows with each right-hand-side vector in turn, rounds
    times over, each against a cold solve of a fresh copy; returns the
    outcomes."""
    outcomes = []
    for _ in range(rounds):
        for rhs in rhs_list:
            resolve = model.with_rhs(model.name, rhs)
            fresh = LpModel(model.name, list(model.var_names),
                            list(model.objective), list(resolve.rows))
            got = _outcome(resolve)
            assert got == _outcome(fresh)
            outcomes.append(got)
    return outcomes


@pytest.fixture
def walks(monkeypatch):
    """One entry per lp._Trie.walk: True where it served the solve."""
    served, walk = [], lp._Trie.walk

    def noted(self, *args):
        out = walk(self, *args)
        served.append(out is not None)
        return out

    monkeypatch.setattr(lp._Trie, "walk", noted)
    return served


def _tries(model):
    return [t for t in model._dense_rows()[3].tries.values() if t is not None]


def _dropped(trie):
    """The rows dropped at each phase-1 end of trie: the node that follows
    the start or a phase-1 pivot and is no pivot."""
    nodes, found, todo = trie.nodes, [], [trie.nodes[3]]
    while todo:
        k = todo.pop()
        if k >= 0 and nodes[k] >= 0:
            todo += [nodes[k + 3], nodes[k + 4]]
        elif k >= 0:
            s = k + 6 + 2 * nodes[k + 5]
            found.append(nodes[s + 1:s + 1 + nodes[s]].tolist())
    return found


def _four_rows():
    model = LpModel(name="four-rows")
    for j, obj in enumerate((1.0, 2.0, 0.5)):
        model.add_var(f"x{j}", obj=obj)
    model.add_row({0: 1.0, 1: 1.0}, ">=", 1.0)
    model.add_row({0: 1.0, 1: -1.0}, "<=", 0.0)
    model.add_row({0: 1.0, 2: 1.0}, "=", 2.0)
    model.add_row({1: 1.0}, "<=", 3.0)
    return model


def test_memo_resolves_flipped_rows_as_cold(walks):
    # Row 1's right-hand side changes sign, which turns the row and its
    # slack over: another key, with paths of its own.
    model = _four_rows()
    rhs = [[1.0, b1, 2.0, 3.0] for b1 in (0.5, -0.5, 0.25, -0.25, 0.75)]
    outcomes = _resolves_as_cold(model, rhs)
    assert all(len(o) == 3 for o in outcomes)
    assert sum(walks) >= len(rhs)
    assert len(model._dense_rows()[3].tries) == 2


def test_memo_resolves_infeasible_and_redundant_rows_as_cold(walks):
    # x0 = a and x0 = c: phase 1 pivots x0 in on row 0 whatever a <= c
    # are, so a = c walks to a redundant row 1, dropped after phase 1, and
    # a < c walks the same path to a phase-1 residual c - a > 1e-7: the
    # cold solve then raises, with its text.
    model = LpModel(name="two-pins")
    model.add_var("x0", obj=1.0)
    model.add_var("x1", obj=1.0)
    model.add_row({0: 1.0}, "=", 1.0)
    model.add_row({0: 1.0}, "=", 1.0)
    model.add_row({0: 1.0, 1: -1.0}, "<=", 1.0)
    rhs = [[a, c, 1.0] for a, c in ((1.0, 1.0), (2.0, 2.0), (1.0, 2.0),
                                    (0.5, 0.5), (0.5, 3.0))]
    outcomes = _resolves_as_cold(model, rhs)
    assert ("LpInfeasible", "two-pins: infeasible, 3 rows x 2 columns: "
            "phase-1 residual 1 > 1e-07") in outcomes
    assert walks.count(True) >= 3 and walks.count(False) >= 2
    (trie,) = _tries(model)
    ends = _dropped(trie)
    assert ends and all(dropped == [1] for dropped in ends)


def test_memo_resolves_signed_zeros_as_cold(walks):
    # -0.0 is not below zero, so it keeps its row's orientation and key,
    # and the walk carries its sign where the cold pivots do.  The rows
    # with a negative right-hand side are flipped, which turns their zero
    # coefficients to -0.0 (see test_kernel_identity_signed_zeros).
    model = LpModel(name="signed-zeros")
    for j, obj in enumerate((1.0, 1.0, 0.0)):
        model.add_var(f"x{j}", obj=obj)
    model.add_row({0: -2.0, 1: -2.0}, "<=", -2.0)
    model.add_row({}, ">=", -1.0)
    model.add_row({0: 1.0, 1: 1.0, 2: 1.0}, "<=", 4.0)
    model.add_row({0: 1.0, 2: -1.0}, "=", 0.0)
    rhs = [[-2.0, -1.0, 4.0, z] for z in (0.0, -0.0)]
    rhs += [[-2.0, -1.0, z, -0.0] for z in (0.0, -0.0)]
    rhs += [[-0.0, -0.0, 4.0, -0.0], [0.0, -0.0, 4.0, 0.0]]
    _resolves_as_cold(model, rhs)
    assert sum(walks) >= 4
    assert len(model._dense_rows()[3].tries) == 2


def test_memo_resolves_random_lps_as_cold(walks):
    # The seeded LPs of the golden solve_lp[random] cases, boxed and not,
    # with their right-hand sides scaled, shifted and turned over: optimal,
    # infeasible and unbounded ends, and the drop of their redundant rows.
    from test_golden import _random_lp
    ends = set()
    for seed in range(40):
        for bounded in (True, False):
            model = _random_lp(seed, bounded)
            b = model.dense()[2]
            rhs = [b, 2.0 * b, b + 0.5, -b, b - 1.0]
            ends.update(o[0] if len(o) == 2 else "optimal"
                        for o in _resolves_as_cold(model, rhs))
    assert ends == {"optimal", "LpInfeasible", "LpUnbounded"}
    assert sum(walks) > 200


def test_memo_stays_at_its_bound(monkeypatch, walks):
    monkeypatch.setattr(lp, "PATH_BYTES", 600)
    model = _four_rows()
    paths = model._dense_rows()[3]
    rhs = [[b0, b1, b2, 3.0] for b0 in (1.0, -1.0) for b1 in (0.5, -0.5)
           for b2 in (2.0, -2.0, 1.0)]
    held = []
    for _ in range(4):
        for b in rhs:
            _resolves_as_cold(model, [b], rounds=1)
            held.append(paths.held)
    # The bytes the bound reads are those of the keys and the arrays.
    assert paths.held == (sum(len(k) + len(c) for k, c in paths.tries)
                          + sum(len(a) * a.itemsize for t in _tries(model)
                                for a in (t.nodes, t.cols)))
    # Unbounded, these solves take 1,500 bytes (8 keys and 25 nodes).  The
    # memo fills to within a node (at most 60 bytes here) of the bound and
    # stays there: the last round's misses solve cold and record nothing.
    last = walks[-len(rhs):]
    assert max(held) == held[-len(rhs)] == held[-1]
    assert 600 - 60 < held[-1] <= 600
    assert any(last) and not all(last)


def test_solve_on_instances_records_no_path(monkeypatch, capsys):
    # Every solve --instance program is solved once, so its row sets see
    # each key once and record nothing: recording would cost the one-off
    # solves of the solve_scaling benchmark time and memory for no walk.
    import glob
    import os
    from conftest import INSTANCE_DIR
    from staffing_minimax.cli import main
    inserts = []
    monkeypatch.setattr(lp._Trie, "insert",
                        lambda *args: inserts.append(args))
    solved = 0
    for path in sorted(glob.glob(os.path.join(INSTANCE_DIR, "*.json"))):
        # Each command in a fresh process: fig3a, b and c share their rows,
        # which in one process are solved three times over.
        monkeypatch.setattr(programs, "_day_rows", programs.DayMemo())
        if main(["solve", "--instance", path]) == 0:
            solved += 1
    capsys.readouterr()
    assert solved == 6
    assert inserts == []


def test_memo_resolves_degenerate_ties_as_cold(walks):
    # Rows at zero tie in the ratio test, where the basis order decides,
    # and = rows at zero leave their artificials basic for the drive-out,
    # which changes that order.
    for seed in range(6):
        model = _degenerate_lp(seed)
        b = model.dense()[2]
        rhs = [b, b * 2.0, b + (b > 0) * 1e-12, b + 0.5]
        _resolves_as_cold(model, rhs)
    assert sum(walks) > 20
