import hashlib
import itertools
import json
import sys
import threading

import numpy as np
import pytest

from conftest import instance_path, mdp_root_value, plan_of
from staffing_minimax import bayesian
from staffing_minimax.bayesian import (
    BINOM_TRIALS, CalibrationTable, DemandProcess, InsufficientDraws,
    MdpPolicy, MdpSpec, NaiveBayesianPolicy, NaiveGreedyPolicy, SampleTotals,
    StateExplosion, _allowed_ranges, _fold_runs, _nearest, _reach_runs,
    backward_induction, calibrate_intervals, empirical_coverage,
    forecast_instance, full_info_values, lower_quantile, mdp_tables,
    point_estimator, run_bayesian_world, summarize)
from staffing_minimax.model import (PredictionInterval, SupplyLedger,
                                    imbalance_cost, make_instance)
from staffing_minimax.policies import (DayObservation, Decision,
                                       LpEmulatorPolicy)


def _estimate(partials_so_far, profiles_so_far):
    """The point estimate once each day's partial and profile are seen."""
    totals = SampleTotals()
    for partial, profile in zip(partials_so_far, profiles_so_far):
        totals.observe(partial, profile)
    return point_estimator(totals)


def test_point_estimator_hand_values():
    # delta_1 = 2, one sampled trajectory summing 6 over the future: 8.
    assert _estimate([2.0], [np.array([3.0, 2.0, 1.0])]) == 8.0
    # t = T: the future sum is empty, estimate equals the realized total.
    profiles = [np.array([1.0, 2.0]), np.array([4.0]), np.array([])]
    assert _estimate([2.0, 1.0, 3.0], profiles) == 6.0


def test_point_estimator_trims_past_entries():
    # Day-1 profile covers days 2..3; at t = 2 only its day-3 entry counts.
    profiles = [np.array([9.0, 1.0]), np.array([5.0])]
    est = _estimate([1.0, 2.0], profiles)
    assert est == 3.0 + (1.0 + 5.0) / 2


def test_point_estimator_unbiased():
    proc = DemandProcess(4)
    errs = []
    for rep in range(4000):
        rng = np.random.default_rng([rep, 3])
        world = proc.sample_world(rng)
        est = _estimate(world.partials[:2], world.profiles[:2])
        errs.append(est - world.demand)
    errs = np.array(errs)
    se = errs.std(ddof=1) / np.sqrt(len(errs))
    assert abs(errs.mean()) <= 2.5 * se


def test_marginal_pmf_exact():
    proc = DemandProcess(3)
    pmf = proc.marginal_pmf()
    assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
    assert (pmf * np.arange(6)).sum() == pytest.approx(
        BINOM_TRIALS * 0.25, abs=1e-12)
    rng = np.random.default_rng(1)
    xi = rng.uniform(0, 0.5, size=200_000)
    emp = np.bincount(rng.binomial(5, xi), minlength=6) / 200_000
    assert np.abs(emp - pmf).max() < 0.005


def test_calibration_degenerate_process():
    table = calibrate_intervals(DemandProcess(3, prior_hi=0.0), draws=10_000)
    assert np.all(table.lower == 0) and np.all(table.upper == 0)
    assert table.lower0 == 0 and table.upper0 == 0


def test_calibration_requires_draws():
    with pytest.raises(InsufficientDraws):
        calibrate_intervals(DemandProcess(3), draws=5000)


def test_calibration_coverage_and_monotone_width():
    proc = DemandProcess(5)
    table = calibrate_intervals(proc, draws=20_000, seed=11)
    cov = empirical_coverage(proc, table, draws=20_000, seed=12)
    assert np.all(cov[:-1] >= 0.93) and np.all(cov[:-1] <= 0.97)
    widths = table.width()
    assert np.all(np.diff(widths) <= 1e-9)
    assert widths[-1] == 0.0
    # round trip
    back = CalibrationTable.from_dict(table.to_dict())
    assert np.array_equal(back.lower, table.lower)
    assert back.prior_mean == table.prior_mean


def _serial_calibration(process, coverage, draws, seed):
    """The calibration loop of earlier releases, one day after another in
    one draw per binomial pass, kept as an oracle for `calibrate_intervals`
    and `empirical_coverage` (which draw the same days concurrently, in row
    blocks).  Returns (table fields, held-out coverage at seed + 1)."""
    T = process.horizon
    lo_q, hi_q = (1.0 - coverage) / 2.0, 1.0 - (1.0 - coverage) / 2.0

    def residuals(t, rng):
        xi = rng.uniform(0.0, process.prior_hi, size=(draws, T - t))
        actual = rng.binomial(BINOM_TRIALS, xi).sum(axis=1)
        pooled = rng.binomial(BINOM_TRIALS * t, xi).sum(axis=1) / t
        return actual - pooled

    lower, upper = np.zeros(T), np.zeros(T)
    for t in range(1, T):
        resid = residuals(t, np.random.default_rng([seed, t]))
        lower[t - 1] = max(0.0, -float(np.quantile(resid, lo_q)))
        upper[t - 1] = max(0.0, float(np.quantile(resid, hi_q)))
    rng = np.random.default_rng([seed, 0])
    xi = rng.uniform(0.0, process.prior_hi, size=(draws, T))
    totals = rng.binomial(BINOM_TRIALS, xi).sum(axis=1)
    mean_d = float(totals.mean())
    lower0 = max(0.0, -float(np.quantile(totals - mean_d, lo_q)))
    upper0 = max(0.0, float(np.quantile(totals - mean_d, hi_q)))
    cov = np.ones(T)
    for t in range(1, T):
        resid = residuals(t, np.random.default_rng([seed + 1, 7919 + t]))
        cov[t - 1] = float(np.mean((-lower[t - 1] <= resid)
                                   & (resid <= upper[t - 1])))
    return (lower, upper, mean_d, lower0, upper0), cov


def _table_digest(table) -> str:
    h = hashlib.sha256(table.lower.tobytes())
    h.update(table.upper.tobytes())
    h.update(np.array([table.prior_mean, table.lower0,
                       table.upper0]).tobytes())
    return h.hexdigest()[:16]


# Digests of the tables the serial loop gave for bench_long.json's process
# at its seed + 0..3, the four tables the world_mdp benchmark draws.
BENCH_LONG_TABLES = ["aa454755cd509a83", "e9a1c48c9d5e73f4",
                     "7e93311351934155", "75b9409d24464f45"]


def test_calibration_bytes_are_pinned():
    config = json.loads(open(instance_path("bench_long.json")).read())
    process = DemandProcess(config["horizon"], config["prior_hi"])
    assert [_table_digest(calibrate_intervals(
        process, draws=20_000, seed=config["seed"] + offset))
        for offset in range(4)] == BENCH_LONG_TABLES
    proc = DemandProcess(5)
    table = calibrate_intervals(proc, draws=20_000, seed=11)
    assert _table_digest(table) == "e61ce21cee79bf20"
    cov = empirical_coverage(proc, table, draws=20_000, seed=12)
    assert hashlib.sha256(cov.tobytes()).hexdigest()[:16] == \
        "77bf2ea33e65bbea"


@pytest.mark.parametrize("T, draws, block", [
    (0, 10_000, None), (1, 10_000, None), (2, 10_000, None),
    (2, 10_001, None), (5, 10_001, None), (4, 10_001, 7)])
def test_calibration_matches_serial_loop(monkeypatch, T, draws, block):
    # 10,001 draws is no multiple of the row block; a block of 7 rows
    # splits each pass into 1,429 uniform and 1,429 binomial calls.
    if block is not None:
        monkeypatch.setattr(bayesian, "CALIBRATION_BLOCK", block)
    proc = DemandProcess(T)
    threads = threading.active_count()
    table = calibrate_intervals(proc, coverage=0.9, draws=draws, seed=T)
    cov = empirical_coverage(proc, table, draws=draws, seed=T + 1)
    assert threading.active_count() == threads
    fields, want_cov = _serial_calibration(proc, 0.9, draws, T)
    got = (table.lower, table.upper, table.prior_mean, table.lower0,
           table.upper0)
    for a, b in zip(got, fields):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
    assert cov.tobytes() == want_cov.tobytes()


def test_per_day_works_each_day_once_in_order():
    # Four callers at once on two cores, switching threads every
    # microsecond: each caller's days are worked once each, by its own
    # thread or its worker, and come back in order.
    seen = []

    def calls(k):
        def work(day):
            seen.append((k, day))
            return k * 1000 + day
        out[k] = bayesian._per_day(work, range(300))

    out = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=calls, args=(k,))
                   for k in range(4)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert out == {k: [k * 1000 + day for day in range(300)]
                   for k in range(4)}
    assert sorted(seen) == [(k, day) for k in range(4) for day in range(300)]


def test_forecast_instance_uses_day0_interval():
    proc = DemandProcess(5)
    table = calibrate_intervals(proc, draws=20_000, seed=11)
    inst = forecast_instance([5.0, 5.0], [[1.0] * 5, [0.9] * 5], table,
                             process=proc)
    lo0, hi0 = inst.initial_range
    assert 0.0 <= lo0 < hi0 <= 25.0
    assert hi0 - lo0 < 25.0                  # informative day-0 interval
    assert np.array_equal(inst.error_bounds, table.width())


def test_naive_greedy_target_formula():
    inst = make_instance([10.0], [[1.0]], (0, 1), [1.0], under_cost=1.0,
                         over_cost=3.0)
    pol = NaiveGreedyPolicy(inst)
    d = pol.step(DayObservation(day=1, interval=PredictionInterval(0.0, 1.0)))
    assert d.hires[0] == pytest.approx((3.0 * 0.0 + 1.0 * 1.0) / 4.0)


def test_naive_greedy_is_irrevocable():
    inst = make_instance([10.0], [[1.0, 1.0]], (0, 2), [2.0, 2.0])
    pol = NaiveGreedyPolicy(inst)
    d1 = pol.step(DayObservation(day=1, interval=PredictionInterval(1.0, 2.0)))
    assert d1.hires[0] == pytest.approx(1.5)
    d2 = pol.step(DayObservation(day=2, interval=PredictionInterval(0.0, 0.2)))
    assert d2.hires[0] == 0.0                # target below current staffing


def test_lower_quantile_convention():
    assert lower_quantile([1.0, 2.0, 3.0], 0.5) == 2.0
    assert lower_quantile([4.0], 0.5) == 4.0
    assert lower_quantile([1.0, 2.0, 3.0, 4.0], 0.25) == 1.0
    assert lower_quantile([3.0, 1.0, 2.0], 1.0) == 3.0


def test_naive_bayesian_median_target():
    inst = make_instance([10.0], [[1.0, 1.0, 1.0]], (0, 15), [15.0] * 3)
    pol = NaiveBayesianPolicy(inst)
    # Day 1: realized 1; single profile summing 2 -> target 3.
    d1 = pol.step(DayObservation(day=1, interval=PredictionInterval(0, 15),
                                 partial=1.0, samples=np.array([2.0, 0.0])))
    assert d1.hires[0] == pytest.approx(3.0)
    # Day 2: realized 1+1; profiles {[2,0] -> future 0, [4] -> future 4}:
    # draws {2, 6}; median (lower quantile at 1/2) is 2 -> no extra hire.
    d2 = pol.step(DayObservation(day=2, interval=PredictionInterval(0, 15),
                                 partial=1.0, samples=np.array([4.0])))
    assert d2.hires[0] == pytest.approx(0.0)


def test_mdp_t1_matches_grid_newsvendor():
    inst = make_instance([4.0], [[1.0]], (0, 5), [5.0], under_cost=1.0,
                         over_cost=3.0)
    proc = DemandProcess(1)
    for partial in (0.0, 2.0, 3.0, 5.0):
        pol = MdpPolicy(inst, proc, MdpSpec(grid_levels=9))
        dec = pol.step(DayObservation(day=1, interval=None, partial=partial,
                                      samples=np.zeros(0)))
        levels = np.linspace(0.0, 4.0, 9)
        oracle = min(levels,
                     key=lambda h: (1.0 * max(0.0, partial - h)
                                    + 3.0 * max(0.0, h - partial), h))
        assert dec.hires[0] == oracle


def test_mdp_t2_empirical_approaches_full_info():
    inst = make_instance([3.0, 3.0], [[1.0, 1.0], [0.9, 0.6]], (0, 10),
                         [10.0, 10.0])
    proc = DemandProcess(2)
    spec = MdpSpec(grid_levels=21, transition="true")
    pmf = proc.marginal_pmf()
    v_full = mdp_root_value(inst, {1: pmf, 2: pmf}, spec)
    rng = np.random.default_rng(0)
    xi = rng.uniform(0, 0.5, size=100_000)
    counts = np.bincount(rng.binomial(BINOM_TRIALS, xi), minlength=6)
    pmf_emp = counts / counts.sum()
    v_emp = mdp_root_value(inst, {1: pmf_emp, 2: pmf_emp}, spec)
    assert abs(v_emp - v_full) <= 0.05 * v_full


def test_mdp_state_cap():
    inst = make_instance([3.0] * 4, np.full((4, 6), 1.0), (0, 30), [30.0] * 6)
    proc = DemandProcess(6)
    with pytest.raises(StateExplosion):
        backward_induction(inst, {t: proc.marginal_pmf() for t in range(1, 7)},
                           [np.linspace(0, 3, 21)] * 4, 1,
                           MdpSpec(grid_levels=21))


def test_mdp_policy_plays_feasibly():
    from staffing_minimax.model import check_feasibility
    T = 3
    inst = make_instance([2.0, 2.0], [[1.0, 1.0, 0.0], [0.9, 0.6, 0.3]],
                         (0, 15), [15.0] * 3)
    proc = DemandProcess(T)
    for rep in range(5):
        rng = np.random.default_rng([rep, 1])
        world = proc.sample_world(rng)
        pol = MdpPolicy(inst, proc, MdpSpec(grid_levels=9))
        hires = np.zeros((2, T))
        for t in range(1, T + 1):
            obs = DayObservation(day=t, interval=None,
                                 partial=float(world.partials[t - 1]),
                                 samples=world.profiles[t - 1])
            hires[:, t - 1] = pol.step(obs).hires
        ok, viol = check_feasibility(inst, plan_of(hires))
        assert ok, viol


def test_mdp_spec_rejects_bad_values():
    with pytest.raises(ValueError, match="mdp transition must be"):
        MdpSpec(transition="ture")
    for bad in (0, -3, "abc", 2.5, True):
        with pytest.raises(ValueError, match="mdp grid_levels must be"):
            MdpSpec(grid_levels=bad)
    with pytest.raises(ValueError, match="mdp state_cap must be"):
        MdpSpec(state_cap=0)


def _range_min_loop(W, hi_idx, axis):
    """The slice-by-slice range minimum, kept as an oracle."""
    Wm = np.moveaxis(W, axis, -1)
    out = np.empty_like(Wm)
    for g in range(Wm.shape[-1]):
        out[..., g] = Wm[..., g:hi_idx[g] + 1].min(axis=-1)
    return np.moveaxis(out, -1, axis)


def _allowed_ranges_loop(inst, levels, t):
    """The level-by-level reach, kept as an oracle."""
    out = []
    for i, lv in enumerate(levels):
        rho_t = inst.availability[i, t - 1]
        rho_prev = 1.0 if t == 1 else inst.availability[i, t - 2]
        hi_idx = np.zeros(len(lv), dtype=int)
        for g, h in enumerate(lv):
            if rho_t <= 0 or rho_prev <= 0:
                hi_idx[g] = g
                continue
            cap = h + rho_t * max(0.0,
                                  float(inst.pool_sizes[i]) - h / rho_prev)
            hi_idx[g] = int(np.searchsorted(lv, cap + 1e-9, side="right") - 1)
            hi_idx[g] = max(hi_idx[g], g)
        out.append(hi_idx)
    return out


def _run_min(W, hi_idx, axis):
    """The run folds of reach `hi_idx` along `axis`, on a copy of W."""
    out = W.copy()
    _fold_runs(out, _reach_runs(hi_idx, axis), axis)
    return out


@pytest.mark.parametrize("G", [1, 2, 7, 21])
def test_reach_and_range_min_match_loop_oracles(G):
    # Pool 1 rises (so reach is not monotone in g); pool 2 closes on day 3
    # and reopens on day 4; pool 3 is open throughout.
    inst = make_instance([3.0, 2.0, 1.5],
                         [[0.2, 0.5, 0.9, 1.0], [1.0, 0.7, 0.0, 0.6],
                          [1.0, 0.9, 0.8, 0.7]], (0, 20), [20.0] * 4)
    levels = [np.linspace(0.0, s, G) for s in inst.pool_sizes]
    rng = np.random.default_rng(G)
    for t in range(1, inst.horizon + 1):
        got = _allowed_ranges(inst, levels, t)
        want = _allowed_ranges_loop(inst, levels, t)
        for g_got, g_want in zip(got, want):
            assert np.array_equal(g_got, g_want)
        W = rng.normal(size=(11, G, G, G))
        for axis, hi_idx in enumerate(got, start=1):
            assert np.array_equal(_run_min(W, hi_idx, axis),
                                  _range_min_loop(W, hi_idx, axis))
    closed = _allowed_ranges(inst, levels, 3)[1]
    assert np.array_equal(closed, np.arange(G))
    # Random reaches with hi[g] >= g, monotone or not, on every axis; at
    # G = 7 also a run from 0 to the top that leaves g = 3..6 alone.
    reaches = [rng.integers(np.arange(G), G) for _ in range(20)]
    reaches += [np.arange(G), np.full(G, G - 1)]
    if G == 7:
        reaches.append(np.array([6, 6, 6, 3, 4, 5, 6]))
    for hi_idx in reaches:
        assert (hi_idx >= np.arange(G)).all()
        W = rng.normal(size=(G, G, G, 3))
        for axis in (0, 1, 2):
            assert np.array_equal(_run_min(W, hi_idx, axis),
                                  _range_min_loop(W, hi_idx, axis))
    if G == 7:
        assert len(_reach_runs(np.array([6, 6, 6, 3, 4, 5, 6]), 1)) == 1
        assert _reach_runs(np.arange(G), 1) == ()


def test_full_info_values_are_read_only():
    inst = make_instance([2.0, 2.0], [[1.0, 1.0, 0.0], [0.9, 0.6, 0.3]],
                         (0, 15), [15.0] * 3)
    values = full_info_values(inst, DemandProcess(3), MdpSpec(grid_levels=5))
    assert len(values) == 2
    for V in values:
        with pytest.raises(ValueError):
            V[0, 0, 0] = 1.0


class _DailyFullInfo(MdpPolicy):
    """The per-day re-solve: on day t, backward induction from day t+1
    under the process marginal, through the empirical variant's path."""

    def _pmfs(self):
        pmf = self.process.marginal_pmf()
        return {k: pmf for k in range(self.day + 1, self.inst.horizon + 1)}


def _bench_long_instance():
    with open(instance_path("bench_long.json")) as f:
        config = json.load(f)
    proc = DemandProcess(int(config["horizon"]), float(config["prior_hi"]))
    inst = forecast_instance(
        config["pool_sizes"], config["availability"],
        CalibrationTable.from_dict(config["calibration"]),
        float(config["under_cost"]), float(config["over_cost"]), proc)
    return inst, proc


@pytest.mark.parametrize("case", ["T1", "T3", "bench_long"])
def test_shared_full_info_values_play_as_daily_resolve(case):
    if case == "T1":
        inst = make_instance([4.0], [[1.0]], (0, 5), [5.0], over_cost=3.0)
        proc = DemandProcess(1)
    elif case == "T3":
        inst = make_instance([2.0, 2.0], [[1.0, 1.0, 0.0], [0.9, 0.6, 0.3]],
                             (0, 15), [15.0] * 3)
        proc = DemandProcess(3)
    else:
        inst, proc = _bench_long_instance()
    spec = MdpSpec(grid_levels=7, transition="true")
    shared = full_info_values(inst, proc, spec)
    for rep in range(3):
        world = proc.sample_world(np.random.default_rng([rep, 5]))
        policies = [MdpPolicy(inst, proc, spec, shared),
                    _DailyFullInfo(inst, proc, MdpSpec(grid_levels=7))]
        for t in range(1, inst.horizon + 1):
            obs = DayObservation(day=t, interval=None,
                                 partial=float(world.partials[t - 1]),
                                 samples=world.profiles[t - 1])
            a, b = (pol.step(obs).hires for pol in policies)
            assert a.tolist() == b.tolist()


def _backward_induction_loop(inst, pmfs, levels, t_start, spec):
    """Backward induction with every table recomputed on every day (the
    per-day reach, the range minimum by slices and the terminal cost),
    kept as an oracle."""
    n, T = inst.availability.shape
    d_max = BINOM_TRIALS * T
    totals = sum(np.asarray(lv).reshape([-1 if a == i else 1
                                         for a in range(n)])
                 for i, lv in enumerate(levels))
    demands = np.arange(d_max + 1, dtype=float).reshape(-1, *([1] * n))
    cost = (inst.under_cost * np.maximum(demands - totals, 0.0)
            + inst.over_cost * np.maximum(totals - demands, 0.0))
    values = {}
    for t in range(T, t_start - 1, -1):
        if t == T:
            W = cost
        else:
            pmf, V_next = pmfs[t + 1], values[t + 1]
            W = np.zeros_like(V_next)
            for j, pj in enumerate(pmf):
                if pj != 0:
                    W[:d_max + 1 - j] += pj * V_next[j:]
            W[d_max + 2 - len(pmf):] = V_next[d_max + 2 - len(pmf):]
        for i, hi_idx in enumerate(_allowed_ranges_loop(inst, levels, t)):
            W = _range_min_loop(W, hi_idx, 1 + i)
        values[t] = W
    return [values[t] for t in range(t_start, T + 1)]


class _LoopMdp:
    """The MDP policy as a loop oracle: a full re-solve every day through
    `_backward_induction_loop`, pmfs re-walked from every stored profile,
    and the action picked by an `itertools.product` scan with the
    first-best-by-1e-12 rule.  `values`, when given, replace the re-solve
    (values[t-1] on day t)."""

    def __init__(self, inst, spec, values=None):
        self.inst, self.spec, self.values = inst, spec, values
        self.levels = [np.linspace(0.0, float(s), spec.grid_levels)
                       for s in inst.pool_sizes]
        self.demand_sum = 0.0
        self.grid_idx = [0] * inst.n_pools
        self.cum_hires = np.zeros(inst.n_pools)
        self.ledger = SupplyLedger(inst)
        self.day = 0
        self.profiles = []
        self.scanned = []      # (first-best, argmin) positions per day

    def _pmfs(self):
        T, t = self.inst.horizon, self.day
        out = {}
        for k in range(t + 1, T + 1):
            obs = [prof[k - tau - 1]
                   for tau, prof in enumerate(self.profiles, start=1)
                   if 0 <= k - tau - 1 < len(prof)]
            counts = np.bincount(np.asarray(obs, dtype=int),
                                 minlength=BINOM_TRIALS + 1).astype(float)
            if counts.sum() == 0:
                counts[:] = 1.0
            out[k] = counts / counts.sum()
        return out

    def step(self, obs):
        self.day += 1
        t, inst, T = self.day, self.inst, self.inst.horizon
        self.demand_sum += float(obs.partial)
        if obs.samples is not None:
            self.profiles.append(np.asarray(obs.samples, float))
        if t < T:
            next_values = (self.values[t - 1] if self.values is not None
                           else _backward_induction_loop(
                               inst, self._pmfs(), self.levels, t + 1,
                               self.spec)[0])
        D = int(round(min(self.demand_sum, BINOM_TRIALS * T)))
        avail = self.ledger.available(t)
        choices = []
        for i in range(inst.n_pools):
            cap = self.cum_hires[i] + avail[i]
            hi_idx = int(np.searchsorted(self.levels[i], cap + 1e-9,
                                         side="right") - 1)
            choices.append(range(self.grid_idx[i],
                                 max(hi_idx, self.grid_idx[i]) + 1))
        best, best_g, vals = None, None, []
        for combo in itertools.product(*choices):
            if t == T:
                h = sum(self.levels[i][g] for i, g in enumerate(combo))
                val = imbalance_cost(inst.under_cost, inst.over_cost, h,
                                     self.demand_sum)
            else:
                val = float(next_values[(D,) + tuple(combo)])
            vals.append(val)
            if best is None or val < best - 1e-12:
                best, best_g = val, combo
        self.scanned.append(vals.index(best) != int(np.argmin(vals)))
        hires = np.array([min(max(0.0, self.levels[i][g]
                                  - self.cum_hires[i]), avail[i])
                          for i, g in enumerate(best_g)])
        self.ledger.book(t, hires)
        self.cum_hires += hires
        self.grid_idx = [int(np.argmin(np.abs(lv - h)))
                         for lv, h in zip(self.levels, self.cum_hires)]
        return Decision.hire_only(hires)


def _three_pool_instance():
    # Pool 1 rises, pool 2 closes on day 3 and reopens, pool 3 falls.
    inst = make_instance([3.0, 2.0, 1.5],
                         [[0.2, 0.5, 0.9, 1.0], [1.0, 0.7, 0.0, 0.6],
                          [1.0, 0.9, 0.8, 0.7]], (0, 20), [20.0] * 4)
    return inst, DemandProcess(4)


def _play_pair(inst, proc, policies, seed):
    """Feed both policies the same seeded world; assert equal hires."""
    world = proc.sample_world(np.random.default_rng([seed, 9]))
    for t in range(1, inst.horizon + 1):
        obs = DayObservation(day=t, interval=None,
                             partial=float(world.partials[t - 1]),
                             samples=world.profiles[t - 1])
        a, b = (pol.step(obs).hires for pol in policies)
        assert a.tolist() == b.tolist(), f"day {t}"


@pytest.mark.parametrize("case,G", [("bench_long", 7), ("three_pools", 5)])
def test_empirical_mdp_plays_as_loop_oracle(case, G):
    inst, proc = (_bench_long_instance() if case == "bench_long"
                  else _three_pool_instance())
    spec = MdpSpec(grid_levels=G)
    tables = mdp_tables(inst, spec)
    for seed in range(3):
        _play_pair(inst, proc, [MdpPolicy(inst, proc, spec, tables=tables),
                                _LoopMdp(inst, spec)], seed)


class _OldCountMdp(MdpPolicy):
    """MdpPolicy with the earlier sample-count update (copied verbatim),
    the rest of its step played on the counts that update made."""

    def step(self, obs):
        t = self.day + 1
        T = self.inst.horizon
        if obs.samples is not None and self.values is None:
            future = np.asarray(obs.samples, float)[:T - t].astype(int)
            if len(future) < T - t:
                raise ValueError(f"day {t}'s samples cover {len(future)} of "
                                 f"the {T - t} days left")
            self.counts[np.arange(t + 1, T + 1), future] += 1
            self.n_profiles += 1
        return super().step(obs._replace(samples=None))


def test_empirical_mdp_counts_as_old_update_on_bench_long():
    inst, proc = _bench_long_instance()
    spec = MdpSpec(grid_levels=7)
    tables = mdp_tables(inst, spec)
    for seed in range(60):
        world = proc.sample_world(np.random.default_rng([seed, 11]))
        new = MdpPolicy(inst, proc, spec, tables=tables)
        old = _OldCountMdp(inst, proc, spec, tables=tables)
        for t in range(1, inst.horizon + 1):
            obs = DayObservation(day=t, interval=None,
                                 partial=float(world.partials[t - 1]),
                                 samples=world.profiles[t - 1])
            assert new.step(obs).hires.tobytes() == \
                old.step(obs).hires.tobytes(), (seed, t)
        assert new.counts.tobytes() == old.counts.tobytes()
        assert new.n_profiles == old.n_profiles == inst.horizon


def test_mdp_action_scan_keeps_first_best_within_1e12():
    # Value arrays whose entries are all within a few 1e-12 of each other:
    # the first entry (in product order) beating the best by more than
    # 1e-12 wins, which is often not the argmin.
    inst, proc = _three_pool_instance()
    spec = MdpSpec(grid_levels=4, transition="true")
    rng = np.random.default_rng(3)
    shape = (BINOM_TRIALS * inst.horizon + 1,) + (4,) * 3
    values = [1.0 + 0.4e-12 * rng.integers(0, 8, size=shape)
              for _ in range(inst.horizon - 1)]
    differs = 0
    for seed in range(6):
        oracle = _LoopMdp(inst, spec, values)
        _play_pair(inst, proc, [MdpPolicy(inst, proc, spec, values), oracle],
                   seed)
        differs += sum(oracle.scanned)
    assert differs > 0


@pytest.mark.parametrize("case", ["bench_long", "three_pools"])
def test_mdp_tables_match_per_call_recompute(case):
    inst, proc = (_bench_long_instance() if case == "bench_long"
                  else _three_pool_instance())
    spec = MdpSpec(grid_levels=5)
    tables = mdp_tables(inst, spec)
    levels = [np.linspace(0.0, float(s), 5) for s in inst.pool_sizes]
    assert all(np.array_equal(a, b) for a, b in zip(tables.levels, levels))
    n = inst.n_pools
    rng = np.random.default_rng(0)
    for t in range(1, inst.horizon + 1):
        W = rng.normal(size=(7,) + (5,) * n)
        day = tables.runs[t - 1]
        assert len(day) == n
        for axis, (runs, hi_idx) in enumerate(
                zip(day, _allowed_ranges_loop(inst, levels, t)), start=1):
            got = W.copy()
            _fold_runs(got, runs, axis)
            assert np.array_equal(got, _range_min_loop(W, hi_idx, axis))
    pmf = proc.marginal_pmf()
    pmfs = {t: pmf for t in range(1, inst.horizon + 1)}
    want = _backward_induction_loop(inst, pmfs, levels, 1, spec)
    assert np.array_equal(tables.last, want[-1])
    for got in (backward_induction(inst, pmfs, levels, 1, spec),
                backward_induction(inst, pmfs, levels, 1, spec,
                                   tables=tables)):
        assert len(got) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_band_rows_match_full_table(n):
    # Day 2's pmf has zeros at both ends, day 3's is uniform, day 4's has a
    # zero inside, day 5's support starts at 2, day 6's is a point mass at
    # 5 and day 7's has the gap {0, 5}; in a second set day 4's is all
    # zero.  Pools are drawn, one closes on day 3.
    rng = np.random.default_rng(n)
    T = 7
    rho = rng.uniform(0.1, 1.0, size=(n, T))
    rho[-1, 2] = 0.0
    inst = make_instance(rng.uniform(0.5, 3.0, size=n), rho, (0, 35),
                         [35.0] * T)
    spec = MdpSpec(grid_levels=4)
    tables = mdp_tables(inst, spec)
    pmfs = {1: rng.uniform(size=6), 2: np.array([0, 1, 2, 3, 4, 0.0]),
            3: np.ones(6), 4: np.array([3, 1, 0, 2, 1, 1.0]),
            5: np.array([0, 0, 1, 2, 1, 0.0]),
            6: np.array([0, 0, 0, 0, 0, 1.0]),
            7: np.array([1, 0, 0, 0, 0, 2.0])}
    pmfs = {t: p / p.sum() for t, p in pmfs.items()}
    d_max = BINOM_TRIALS * T
    seen = set()
    for pmf_set in (pmfs, {**pmfs, 4: np.zeros(6)}):
        supp = {t: np.flatnonzero(p) for t, p in pmf_set.items()}
        loop = _backward_induction_loop(inst, pmf_set, tables.levels, 1,
                                        spec)
        for t_start in range(1, T + 1):
            full = backward_induction(inst, pmf_set, tables.levels, t_start,
                                      spec, tables=tables)
            assert [V.tobytes() for V in full] == \
                [V.tobytes() for V in loop[t_start - 1:]]
            for D in range(d_max + 1):
                band = backward_induction(inst, pmf_set, tables.levels,
                                          t_start, spec, tables=tables,
                                          demand=D)
                assert len(band) == len(full) == T - t_start + 1
                # The clipped sums D + sum of min/max supp, lowered to the
                # first copied sum once a day's band holds one (a sum at or
                # above d_max + 2 - len(pmf) keeps the next day's row).
                lo = hi = D
                lo_sum = hi_sum = D
                copied = False
                reach = {D}
                for k, (f, b) in enumerate(zip(full, band)):
                    t = t_start + k
                    if k:
                        js = supp[t].tolist() or [0]
                        gone = d_max + 2 - len(pmf_set[t])
                        lo_sum += js[0]
                        hi_sum += js[-1]
                        new_lo = lo + js[0]
                        if hi >= gone:
                            copied = True
                            new_lo = min(new_lo, max(lo, gone))
                        lo, hi = min(new_lo, d_max), min(hi + js[-1], d_max)
                        reach = {r + j if r < gone else r for r in reach
                                 for j in js}
                    assert hi == min(hi_sum, d_max)
                    if not copied:
                        assert lo == min(lo_sum, d_max)
                    seen.add("copied" if copied else "exact")
                    if lo < min(lo_sum, d_max):
                        seen.add("lowered")
                    if hi_sum > d_max:
                        seen.add("clipped")
                    assert lo <= min(reach) and max(reach) <= hi
                    assert b.shape == (hi + 1 - lo,) + f.shape[1:]
                    assert b.tobytes() == f[lo:hi + 1].tobytes(), \
                        (t_start, D, k)
    assert seen == {"exact", "clipped", "copied", "lowered"}


def test_empirical_band_holds_few_rows_on_bench_long(monkeypatch):
    # The support band must stay engaged: the empirical re-solves of 5
    # bench_long worlds return at most 40% of the rows of the band that
    # lets every day add 0 to 5 (D..D + 5(k - 1) on the k-th day solved).
    inst, proc = _bench_long_instance()
    with open(instance_path("bench_long.json")) as f:
        config = json.load(f)
    table = CalibrationTable.from_dict(config["calibration"])
    spec = MdpSpec(grid_levels=7)
    tables = mdp_tables(inst, spec)
    d_max = BINOM_TRIALS * inst.horizon
    rows = {"band": 0, "wide": 0}
    solve = backward_induction

    def counted(*args, **kwargs):
        values = solve(*args, **kwargs)
        D = kwargs["demand"]
        rows["band"] += sum(len(V) for V in values)
        rows["wide"] += sum(min(D + BINOM_TRIALS * k, d_max) + 1 - D
                            for k in range(len(values)))
        return values

    monkeypatch.setattr("staffing_minimax.bayesian.backward_induction",
                        counted)
    run_bayesian_world(inst, proc, table, {
        "empirical_mdp": lambda: MdpPolicy(inst, proc, spec, tables=tables)},
        5, seed=int(config["seed"]))
    assert rows["wide"] > 0
    assert rows["band"] <= 0.4 * rows["wide"], rows


@pytest.mark.parametrize("case", ["bench_long", "three_pools"])
def test_value_arrays_are_nonnegative_and_match_loop(case):
    # backward_induction writes each row's first pmf term instead of adding
    # it to zeros, which keeps every bit only if no value is -0.0 or NaN.
    inst, proc = (_bench_long_instance() if case == "bench_long"
                  else _three_pool_instance())
    spec = MdpSpec(grid_levels=7 if case == "bench_long" else 5,
                   transition="true")
    tables = mdp_tables(inst, spec)
    values = full_info_values(inst, proc, spec, tables=tables)
    for V in [tables.last, *values]:
        assert not np.signbit(V).any()
        assert not np.isnan(V).any()
    pmf = proc.marginal_pmf()
    want = _backward_induction_loop(
        inst, {t: pmf for t in range(1, inst.horizon + 1)}, tables.levels,
        2, spec)
    assert len(values) == len(want)
    for got, loop in zip(values, want):
        assert got.tobytes() == loop.tobytes()


def test_nearest_is_first_argmin():
    grids = [np.linspace(0.0, 3.0, 7), np.linspace(0.0, 0.0, 5),
             np.array([0.0, 0.5, 0.5, 0.5, 1.0]), np.linspace(0.0, 1.0, 1)]
    for lv in grids:
        # Every level, every midpoint (a tie), and points between and
        # beyond them.
        xs = np.concatenate([lv, (lv[1:] + lv[:-1]) / 2,
                             np.linspace(-1.0, lv[-1] + 1.0, 41)])
        for x in xs.tolist():
            assert _nearest(lv.tolist(), x) == int(np.argmin(np.abs(lv - x)))


@pytest.mark.parametrize("transition", ["empirical", "true"])
def test_mdp_with_empty_pool_plays_as_loop_oracle(transition):
    # Pool 2 has size 0: its level grid is constant, so every snap ties.
    inst = make_instance([2.0, 0.0, 1.5],
                         [[1.0, 0.8, 0.6, 0.4], [1.0, 1.0, 1.0, 1.0],
                          [0.5, 0.7, 0.0, 0.9]], (0, 20), [20.0] * 4)
    proc = DemandProcess(4)
    spec = MdpSpec(grid_levels=5, transition=transition)
    values = None
    if transition == "true":
        pmf = proc.marginal_pmf()
        levels = [np.linspace(0.0, float(s), 5) for s in inst.pool_sizes]
        values = _backward_induction_loop(
            inst, {t: pmf for t in range(1, 5)}, levels, 2, spec)
    for seed in range(4):
        _play_pair(inst, proc, [MdpPolicy(inst, proc, spec),
                                _LoopMdp(inst, spec, values)], seed)


def test_mdp_tables_are_read_only():
    inst, _ = _three_pool_instance()
    tables = mdp_tables(inst, MdpSpec(grid_levels=3))
    arrays = [*tables.levels, tables.totals, tables.last]
    assert any(pool for day in tables.runs for pool in day)
    # The runs are tuples of slices all the way down: nothing to write.
    assert isinstance(tables.runs, tuple)
    for day in tables.runs:
        assert isinstance(day, tuple)
        for pool in day:
            assert isinstance(pool, tuple)
            for run in pool:
                assert isinstance(run, tuple) and len(run) == 3
                assert all(isinstance(index, tuple)
                           and all(isinstance(x, slice) for x in index)
                           for index in run)
    for a in arrays:
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = 1
    with pytest.raises(StateExplosion, match="states exceed the cap"):
        mdp_tables(inst, MdpSpec(grid_levels=3, state_cap=10))


def test_world_determinism_and_pairing():
    proc = DemandProcess(5)
    table = calibrate_intervals(proc, draws=20_000, seed=11)
    inst = forecast_instance([5.0, 5.0],
                             [[1.0, 1.0, 0.0, 0.0, 0.0],
                              [0.88, 0.73, 0.5, 0.27, 0.12]], table,
                             process=proc)
    policies = {
        "lp_emulator": lambda: LpEmulatorPolicy(inst),
        "naive_greedy": lambda: NaiveGreedyPolicy(inst),
    }
    def key(rows):
        # runtime_ms is wall-clock; everything else must reproduce exactly
        return [(r["replication"], r["policy"], r["cost"], r["seed"])
                for r in rows]

    rows_a = run_bayesian_world(inst, proc, table, policies, 10, seed=5)
    rows_b = run_bayesian_world(inst, proc, table, policies, 10, seed=5)
    assert key(rows_a) == key(rows_b)
    rows_c = run_bayesian_world(inst, proc, table, {}, 10, seed=5)
    assert rows_c == []
    # Worker-style splitting reproduces the full run.
    head = run_bayesian_world(inst, proc, table, policies, 6, seed=5)
    tail = run_bayesian_world(inst, proc, table, policies, 4, seed=5,
                              rep_offset=6)
    assert key(head + tail) == key(rows_a)


def test_summary_single_replication():
    proc = DemandProcess(3)
    table = calibrate_intervals(proc, draws=10_000, seed=2)
    inst = forecast_instance([5.0], [[1.0, 0.9, 0.8]], table, process=proc)
    rows = run_bayesian_world(inst, proc, table,
                              {"naive_greedy": lambda: NaiveGreedyPolicy(inst)},
                              1, seed=3)
    s = summarize(rows)["naive_greedy"]
    assert s["replications"] == 1
    assert s["mean_cost"] == rows[0]["cost"]
    assert s["stderr"] == 0.0
