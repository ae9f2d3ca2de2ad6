import hashlib
import json
import math
import os
import subprocess
import sys
from collections import OrderedDict
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from conftest import (fig3_instance, final_range, instance_path,
                      play_stations, random_multi_pool, random_single_pool)
from staffing_minimax import bayesian, cli, policies, programs
from staffing_minimax import emulator as emulator_module
from staffing_minimax.adversary import (brute_force_worst_case,
                                        configuration_sequence,
                                        enumerate_grid_sequences,
                                        random_nested_sequence,
                                        single_switch_sequence,
                                        worst_case_sequence, worst_demand_cost)
from staffing_minimax.lp import LpModel, refine_lexicographic, solve_lp
from staffing_minimax.model import (MultiStationInstance, PredictionInterval,
                                    PredictionSequence, ReleaseInstance,
                                    SequenceError, StationSpec,
                                    check_feasibility, make_instance,
                                    validate_instance)
from staffing_minimax.policies import (
    DayObservation, GreedyTargetPolicy, JointCostPolicy, LpEmulatorPolicy,
    LpResolvingPolicy, MultiPoolUnsupported, ParameterOutOfRange,
    MiscoverageWrapper, ReleasePolicy, UnsupportedBase,
    gamma_star_closed_form, gamma_star_single_pool, play, _t_dagger_scan)
from staffing_minimax.programs import (build_lp_release,
                                       build_lp_single_switch,
                                       extract_canonical,
                                       minimax_value_and_profile)


# --- Greedy target policy ----------------------------------------------------

def test_greedy_simple_cases():
    inst = make_instance([100.0], [[1.0]], (0, 1), [0.0])
    seq = PredictionSequence.build(inst, [(0.5, 0.5)])
    plan = play(GreedyTargetPolicy(inst, 0.0), inst, seq)
    assert plan.total_net == pytest.approx(0.5)

    tiny = make_instance([0.1], [[0.5, 0.4]], (0, 1), [0.8, 0.3])
    seq = PredictionSequence.build(tiny, [(0.2, 1.0), (0.7, 1.0)])
    plan = play(GreedyTargetPolicy(tiny, 0.3), tiny, seq)
    assert plan.hires[0, 0] == pytest.approx(0.5 * 0.1)
    assert plan.hires[0, 1] == pytest.approx(0.0)


def test_greedy_respects_cap_each_day():
    rng = np.random.default_rng(1)
    for _ in range(50):
        inst = random_single_pool(rng)
        res = gamma_star_single_pool(inst)
        seq = random_nested_sequence(inst, int(rng.integers(1 << 31)))
        gamma = res.gamma_star
        plan = play(GreedyTargetPolicy(inst, gamma), inst, seq)
        cum = 0.0
        for t in range(1, inst.horizon + 1):
            cum += plan.hires[0, t - 1]
            cap = seq.interval(t).lo + gamma / inst.over_cost
            assert cum <= cap + 1e-9


def test_greedy_rejects_multi_pool():
    inst = make_instance([1.0, 1.0], [[1.0], [1.0]], (0, 1), [0.5])
    with pytest.raises(MultiPoolUnsupported):
        GreedyTargetPolicy(inst, 0.0)


def test_greedy_worst_case_understaffing_is_gamma():
    inst = fig3_instance("b")
    res = gamma_star_single_pool(inst)
    plan = play(GreedyTargetPolicy(inst, res.gamma_star), inst,
                worst_case_sequence(inst))
    under = inst.under_cost * (inst.initial_range[1] - plan.total_net)
    assert under == pytest.approx(0.476, abs=5e-3)
    assert under == pytest.approx(res.gamma_star, abs=1e-7)


# --- Fixed point and closed form ---------------------------------------------

def test_fixed_point_low_supply_hand_case():
    inst = make_instance([1.0], [[0.5]], (0, 1), [0.9])
    res = gamma_star_single_pool(inst)
    assert res.branch == "low_supply"
    assert res.gamma_star == pytest.approx(0.5, abs=1e-12)


def test_fixed_point_fig3b():
    res = gamma_star_single_pool(fig3_instance("b"))
    assert res.gamma_star == pytest.approx(0.476, abs=5e-3)
    assert res.branch == "fixed_point"


def test_fixed_point_ample_supply_sharp_last_day():
    inst = make_instance([100.0], [[1.0, 1.0]], (0, 1), [0.5, 0.0])
    res = gamma_star_single_pool(inst)
    assert res.gamma_star == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("seed", range(4))
def test_fixed_point_equals_lp_on_random_instances(seed):
    rng = np.random.default_rng(500 + seed)
    for _ in range(25):
        inst = random_single_pool(rng)
        res = gamma_star_single_pool(inst)
        lp = solve_lp(build_lp_single_switch(inst).model).objective
        assert res.gamma_star == pytest.approx(lp, abs=1e-6)


LARGE_SCALE_BISECTIONS = """
from staffing_minimax.model import make_instance
from staffing_minimax.policies import (gamma_star_closed_form,
                                       gamma_star_single_pool)


def decaying(scale, T=10):
    return make_instance([scale], [[0.9 ** t for t in range(1, T + 1)]],
                         (0.0, scale),
                         [scale * (T - t) / T for t in range(1, T + 1)])


print(gamma_star_single_pool(decaying(1e8)).gamma_star
      / gamma_star_single_pool(decaying(1.0)).gamma_star)
print(gamma_star_closed_form(1.5, 0.5, 0.8, 10, 1e8, 1e8)
      / gamma_star_closed_form(1.5, 0.5, 0.8, 10))
"""


def test_bisections_end_at_large_scale():
    # At 1e8 the float spacing of gamma exceeds the absolute tolerance;
    # the script runs apart so that a bisection that never ends fails.
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    result = subprocess.run([sys.executable, "-c", LARGE_SCALE_BISECTIONS],
                            env=dict(os.environ, PYTHONPATH=src),
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    ratios = [float(x) for x in result.stdout.split()]
    assert ratios == pytest.approx([1e8, 1e8], rel=1e-8)


def test_closed_form_low_supply_limit():
    # c=1, eta=0.5, s=1, Delta -> 0, T=10: gamma* -> 1 - 0.5 = 0.5.
    val = gamma_star_closed_form(1.0, 0.5, 1e-9, 10)
    assert val == pytest.approx(0.5, abs=1e-6)


def test_closed_form_parameter_validation():
    with pytest.raises(ParameterOutOfRange):
        gamma_star_closed_form(1.0, -0.5, 0.5, 10)
    with pytest.raises(ParameterOutOfRange):
        gamma_star_closed_form(1.0, 0.5, 1.5, 10)


def test_closed_form_matches_lp_grid():
    T = 10
    for eta in (0.5, 1.0, 2.0):
        for dl in (0.3, 0.8):
            for s in (0.3, 1.5):
                cf = gamma_star_closed_form(s, eta, dl, T)
                rho = [eta ** t for t in range(1, T + 1)]
                deltas = [1 - dl ** (T - t) for t in range(1, T + 1)]
                inst = make_instance([s], [rho], (0, 1), deltas)
                lp = solve_lp(build_lp_single_switch(inst).model).objective
                assert cf == pytest.approx(lp, abs=1e-6), (eta, dl, s)


def test_closed_form_asymmetric_costs():
    T = 8
    eta, dl, s, c, C = 0.6, 0.4, 0.9, 0.7, 2.5
    cf = gamma_star_closed_form(s, eta, dl, T, c, C)
    rho = [eta ** t for t in range(1, T + 1)]
    deltas = [1 - dl ** (T - t) for t in range(1, T + 1)]
    inst = make_instance([s], [rho], (0, 1), deltas, under_cost=c, over_cost=C)
    lp = solve_lp(build_lp_single_switch(inst).model).objective
    assert cf == pytest.approx(lp, abs=1e-6)


def t_dagger_formula(s, eta, delta, T, C, gamma):
    """Closed-form last hiring day; None where the display degenerates.

    Valid on the sufficient-supply domain gamma <= C (eta s - delta^(T-1))
    with delta * eta < 1; returns None outside it (where the defining
    supply-inequality scan, policies._t_dagger_scan, still holds).
    """
    denom = -math.log(delta) - math.log(eta)
    if denom <= 1e-12:
        return None
    head = eta * s - gamma / C - delta ** (T - 1)
    if head < 0:
        return None
    q = head * delta ** (1 - T) / (1.0 - delta) * (1.0 - delta * eta) + 1.0
    if q <= 0:
        return None
    return min(math.ceil(math.log(q) / denom + 1.0), T)


def test_t_dagger_formula_matches_scan_and_caps_at_T():
    rng = np.random.default_rng(2)
    T = 10
    checked = 0
    for _ in range(300):
        eta = rng.uniform(0.3, 0.95)
        dl = rng.uniform(0.2, 0.9)
        s = rng.uniform(0.3, 4.0)
        head = eta * s - dl ** (T - 1)
        if head <= 0:
            continue
        g = rng.uniform(0.0, head)      # the formula's derivation domain
        f = t_dagger_formula(s, eta, dl, T, 1.0, g)
        if f is not None:
            assert f == _t_dagger_scan(s, eta, dl, T, 1.0, g)
            checked += 1
    assert checked > 100
    # Huge supply: hiring never exhausts the pool, so the day caps at T.
    assert _t_dagger_scan(50.0, 0.9, 0.5, T, 1.0, 0.0) == T


# --- LP emulator policy -------------------------------------------------------

def test_emulator_policy_zero_cost_when_pinned_early():
    inst = make_instance([5.0], [[1.0, 0.9]], (0, 1), [0.0, 0.0])
    pol = LpEmulatorPolicy(inst)
    seq = PredictionSequence.build(inst, [(0.6, 0.6), (0.6, 0.6)])
    plan = play(pol, inst, seq)
    cost, d = worst_demand_cost(inst, plan.total_net, *final_range(seq))
    assert cost == pytest.approx(0.0, abs=1e-9)


def test_emulator_policy_attains_gamma_on_fig3b():
    inst = fig3_instance("b")
    pol = LpEmulatorPolicy(inst)
    gamma = pol.gamma_star
    seq = single_switch_sequence(inst, inst.horizon)
    plan = play(pol, inst, seq)
    cost, d = worst_demand_cost(inst, plan.total_net, *final_range(seq))
    assert cost == pytest.approx(gamma, abs=1e-9)
    assert d == pytest.approx(inst.initial_range[1])


@pytest.mark.parametrize("seed", range(3))
def test_emulator_policy_never_exceeds_gamma(seed):
    rng = np.random.default_rng(900 + seed)
    for _ in range(40):
        inst = random_single_pool(rng)
        gamma, canonical = minimax_value_and_profile(inst)
        seq = random_nested_sequence(inst, int(rng.integers(1 << 31)))
        plan = play(LpEmulatorPolicy(inst, canonical, gamma), inst, seq)
        cost, _ = worst_demand_cost(inst, plan.total_net, *final_range(seq))
        assert cost <= gamma + 1e-7


# --- Resolving policy ---------------------------------------------------------

def test_resolving_equals_emulator_on_single_switch():
    inst = fig3_instance("b")
    gamma, canonical = minimax_value_and_profile(inst)
    for k in range(1, inst.horizon + 1):
        seq = single_switch_sequence(inst, k)
        pe = play(LpEmulatorPolicy(inst, canonical, gamma), inst, seq)
        pr = play(LpResolvingPolicy(inst), inst, seq)
        assert np.allclose(pe.hires, pr.hires, atol=1e-9)


def test_resolving_day1_value_is_gamma_star():
    inst = fig3_instance("b")
    pol = LpResolvingPolicy(inst)
    seq = worst_case_sequence(inst)
    play(pol, inst, seq)
    lp = solve_lp(build_lp_single_switch(inst).model).objective
    assert pol.gamma_star == pytest.approx(lp, abs=1e-9)


def test_resolving_fuzz_dominance_and_cap():
    """Per-draw dominance is empirical (so asserted at the Monte-Carlo
    measured floor for this seeded generator); the gamma* cap is exact."""
    inst = fig3_instance("b")
    gamma, canonical = minimax_value_and_profile(inst)
    wins = 0
    draws = 120
    worst = 0.0
    gap_sum = 0.0
    for s in range(draws):
        seq = random_nested_sequence(inst, 7000 + s)
        pe = play(LpEmulatorPolicy(inst, canonical, gamma), inst, seq)
        pr = play(LpResolvingPolicy(inst), inst, seq)
        ce, _ = worst_demand_cost(inst, pe.total_net, *final_range(seq))
        cr, _ = worst_demand_cost(inst, pr.total_net, *final_range(seq))
        wins += cr <= ce + 1e-9
        gap_sum += cr - ce
        worst = max(worst, cr)
    assert wins >= 0.85 * draws           # measured 90-94% on this generator
    assert gap_sum / draws <= 0.0         # resolving better on average
    assert worst <= gamma + 1e-7          # worst-case cap, exact


def test_resolving_grid_worst_case_small():
    inst = make_instance([0.8], [[1.0, 0.7]], (0, 1), [0.6, 0.25])
    gamma = solve_lp(build_lp_single_switch(inst).model).objective
    res = brute_force_worst_case(inst, lambda: LpResolvingPolicy(inst), 0.25)
    assert res.cost <= gamma + 1e-6


# --- Resolving memo ------------------------------------------------------------

def _bench_long_world():
    with open(instance_path("bench_long.json")) as f:
        config = json.load(f)
    process = bayesian.DemandProcess(int(config["horizon"]),
                                     float(config["prior_hi"]))
    table = bayesian.CalibrationTable.from_dict(config["calibration"])
    inst = bayesian.forecast_instance(
        config["pool_sizes"], config["availability"], table,
        float(config["under_cost"]), float(config["over_cost"]), process)
    return inst, process, table, int(config["seed"])


class _Recorded:
    """A policy that logs the bytes of every hire vector it plays."""

    def __init__(self, policy, log):
        self.policy, self.log = policy, log

    def step(self, obs):
        d = self.policy.step(obs)
        self.log.append(d.hires.tobytes())
        return d


def _world_hires_and_costs(make, reps=60):
    inst, process, table, seed = _bench_long_world()
    log = []
    rows = bayesian.run_bayesian_world(
        inst, process, table, {"lp_resolving": lambda: _Recorded(make(inst),
                                                                  log)},
        reps, seed)
    return log, [repr(r["cost"]) for r in rows]


def _shared(inst):
    return cli._policy_factories(["lp_resolving"], inst, None,
                                 {})["lp_resolving"]


def test_resolving_memo_shared_plays_as_private():
    private = _world_hires_and_costs(LpResolvingPolicy)
    factories = {}
    shared = _world_hires_and_costs(
        lambda inst: factories.setdefault("f", _shared(inst))())
    assert len(private[0]) == 60 * 14
    assert shared == private
    memo = factories["f"]().memo
    assert 0 < len(memo) < 60 * 14          # some states were reached twice


def test_resolving_memo_cap_two_plays_as_private(monkeypatch):
    private = _world_hires_and_costs(LpResolvingPolicy, reps=12)
    monkeypatch.setattr(policies, "RESOLVING_MEMO_CAP", 2)
    factories = {}
    capped = _world_hires_and_costs(
        lambda inst: factories.setdefault("f", _shared(inst))(), reps=12)
    assert capped == private
    assert len(factories["f"]().memo) == 2


def test_resolving_availability_depends_on_day_only():
    inst, _, _, _ = _bench_long_world()
    by_day = {}
    for seed in range(8):
        pol = LpResolvingPolicy(inst)
        seq = random_nested_sequence(inst, seed)
        for t in range(1, inst.horizon + 1):
            pol.step(DayObservation(t, seq.interval(t)))
            by_day.setdefault(t, set()).add(pol.state.availability.tobytes())
    assert all(len(seen) == 1 for seen in by_day.values())


def _counting_builds(monkeypatch):
    calls = []
    build = policies.build_lp_resolving

    def counted(*args):
        calls.append(args[2])
        return build(*args)
    monkeypatch.setattr(policies, "build_lp_resolving", counted)
    return calls


def test_resolving_rows_are_built_once_per_day(monkeypatch):
    # Over 5 bench_long replications the shared memo misses once per
    # distinct state, and each miss builds its program, but the rows of a
    # day are built once: every program of the day writes only its
    # right-hand sides and reads the day's dense A.
    inst, process, table, seed = _bench_long_world()
    monkeypatch.setattr(programs, "_day_rows", programs.DayMemo())
    row_sets = []
    make_rows = programs._resolving_rows
    monkeypatch.setattr(programs, "_resolving_rows",
                        lambda *a: row_sets.append(make_rows(*a)) or
                        row_sets[-1])
    builds = _counting_builds(monkeypatch)
    matrices = []
    solve = policies.solve_canonical
    monkeypatch.setattr(policies, "solve_canonical", lambda built, **kw: (
        matrices.append(built.model.dense()[0]) or solve(built, **kw)))
    factory = _shared(inst)
    bayesian.run_bayesian_world(inst, process, table,
                                {"lp_resolving": factory}, 5, seed)
    assert len(row_sets) <= inst.horizon
    assert len(builds) == len(factory().memo) == len(matrices) > 4 * 14
    rows_A = {id(rows.dense()[0]) for rows, _, _ in row_sets}
    assert {id(A) for A in matrices} == rows_A
    assert len(rows_A) == len(row_sets)


def test_resolving_step_equals_a_fresh_model_solve(monkeypatch):
    # bench_long's two pools over 6 days, pool 0 closing after day 3.  Each
    # policy has a memo of its own, whose keys hold the day, so every step
    # solves.  Its hires and gamma_star are those of a model that shares
    # nothing with the day's cached rows, targets or arrays: solve_lp,
    # refine_lexicographic over refine_targets(1), extract_canonical.
    with open(instance_path("bench_long.json")) as f:
        config = json.load(f)
    process = bayesian.DemandProcess(6, float(config["prior_hi"]))
    table = bayesian.calibrate_intervals(process, draws=10_000)
    rho = np.array(config["availability"])[:, :6]
    rho[0, 3:] = 0.0
    inst = bayesian.forecast_instance(
        config["pool_sizes"], rho, table, float(config["under_cost"]),
        float(config["over_cost"]), process)
    monkeypatch.setattr(programs, "_day_rows", programs.DayMemo())
    built = []
    build = policies.build_lp_resolving
    monkeypatch.setattr(policies, "build_lp_resolving",
                        lambda *a: built.append(build(*a)) or built[-1])
    days = []

    class Checked(LpResolvingPolicy):
        def step(self, obs):
            d = super().step(obs)
            (program,) = built
            built.clear()
            m = program.model
            fresh = LpModel(m.name, list(m.var_names), list(m.objective),
                            [(dict(c), rel, rhs) for c, rel, rhs in m.rows])
            # The targets made afresh, not read from the day's entry.
            targets = programs._DayPoolHires.refine_targets(program, 1)
            sol = refine_lexicographic(fresh, solve_lp(fresh), targets)
            hires = extract_canonical(program, sol)[:, self.day - 1]
            assert d.hires.tobytes() == hires.tobytes()
            if self.day == 1:
                assert np.float64(self.gamma_star).tobytes() == \
                    np.float64(sol.objective).tobytes()
            days.append(self.day)
            return d

    bayesian.run_bayesian_world(inst, process, table,
                                {"lp_resolving": lambda: Checked(inst)}, 60,
                                int(config["seed"]))
    assert days == list(range(1, 7)) * 60


def test_resolving_memo_hit_returns_fresh_hires(monkeypatch):
    inst = fig3_instance("b")
    obs = DayObservation(1, worst_case_sequence(inst).interval(1))
    expect = LpResolvingPolicy(inst).step(obs).hires.copy()
    calls = _counting_builds(monkeypatch)
    memo = OrderedDict()
    first = LpResolvingPolicy(inst, memo).step(obs)
    first.hires[:] = 99.0
    again = LpResolvingPolicy(inst, memo)
    hit = again.step(obs)
    assert calls == [1]
    assert hit.hires.tobytes() == expect.tobytes()
    assert again.state.cum_hires.tobytes() == expect.tobytes()


def test_resolving_memo_misses_one_ulp_away(monkeypatch):
    inst = fig3_instance("b")
    seq = worst_case_sequence(inst)
    memo = OrderedDict()
    pols = [LpResolvingPolicy(inst, memo) for _ in range(3)]
    for pol in pols:
        pol.step(DayObservation(1, seq.interval(1)))
    supply = pols[0].state.remaining_supply
    pols[2].state = replace(pols[2].state,
                            remaining_supply=np.nextafter(supply, np.inf))
    calls = _counting_builds(monkeypatch)
    for pol in pols:
        pol.step(DayObservation(2, seq.interval(2)))
    # The exact day-2 state is built once and then hit; one ulp more
    # supply is another state.
    assert calls == [2, 2]
    assert len(memo) == 3


def test_resolving_memo_sets_gamma_star_on_day1_hit(monkeypatch):
    inst = fig3_instance("b")
    obs = DayObservation(1, worst_case_sequence(inst).interval(1))
    memo = OrderedDict()
    first = LpResolvingPolicy(inst, memo)
    first.step(obs)
    calls = _counting_builds(monkeypatch)
    second = LpResolvingPolicy(inst, memo)
    assert second.gamma_star is None
    second.step(obs)
    assert calls == []
    assert second.gamma_star == first.gamma_star
    lp = solve_lp(build_lp_single_switch(inst).model).objective
    assert second.gamma_star == pytest.approx(lp, abs=1e-9)


def test_oracle_through_cli_factory_matches_fresh_policies():
    # Grid sequences share prefixes, so the factory's memo serves the
    # oracle too; its witness must be the one fresh policies give.
    inst = fig3_instance("c")
    factory = cli._policy_factory("lp_resolving", cli._PolicyContext(
        inst, inst, None, None, {}))
    shared = brute_force_worst_case(inst, factory, 0.5)
    fresh = brute_force_worst_case(inst, lambda: LpResolvingPolicy(inst),
                                   0.5)
    assert repr(shared.cost) == repr(fresh.cost)
    assert repr(shared.demand) == repr(fresh.demand)
    assert shared.sequence.intervals == fresh.sequence.intervals
    assert len(factory().memo) < 210 * inst.horizon


# --- Multi-station policy -----------------------------------------------------

def _two_station():
    rho = np.array([[1.0, 0.6], [0.9, 0.5]])
    st = StationSpec((0, 1), np.array([0.6, 0.2]))
    return MultiStationInstance(np.array([0.8, 0.5]), rho, (st, st), "sum")


def test_multi_m1_equals_emulator():
    msi = _two_station()
    single = MultiStationInstance(msi.pool_sizes, msi.availability,
                                  msi.stations[:1], "max")
    inst = single.station_instance(0)
    for k in (1, 2):
        seq = single_switch_sequence(inst, k)
        plans = play_stations(single, [seq])
        pe = play(LpEmulatorPolicy(inst), inst, seq)
        assert np.allclose(plans[0].hires, pe.hires, atol=1e-9)


def test_multi_station_independence():
    msi = _two_station()
    inst = msi.station_instance(0)
    seq_a = single_switch_sequence(inst, 1)
    seq_b = single_switch_sequence(inst, 2)
    plans_1 = play_stations(msi, [seq_a, seq_a])
    plans_2 = play_stations(msi, [seq_a, seq_b])
    assert np.array_equal(plans_1[0].hires, plans_2[0].hires)


def test_multi_station_integer_ranges_match_float_ranges():
    # R_hat must track the forecast bound exactly, whatever numeric type the
    # station's initial range was given in.
    def msi(initial_range):
        st = StationSpec(initial_range, np.array([0.6, 0.3, 0.2]))
        return MultiStationInstance(np.array([0.8, 0.5]),
                                    np.array([[1.0, 0.6, 0.5],
                                              [0.9, 0.5, 0.4]]),
                                    (st, st), "max")
    ints, floats = msi((0, 1)), msi((0.0, 1.0))
    for seed in range(5):
        seqs = [random_nested_sequence(ints.station_instance(j), 3 * seed + j)
                for j in range(2)]
        got = play_stations(ints, seqs)
        want = play_stations(floats, seqs)
        for a, b in zip(got, want):
            assert np.array_equal(a.hires, b.hires)


def test_multi_station_zero_range_station_costs_nothing():
    rho = np.array([[1.0, 0.6]])
    live = StationSpec((0, 1), np.array([0.6, 0.2]))
    pinned = StationSpec((0.3, 0.3), np.array([0.0, 0.0]))
    msi = MultiStationInstance(np.array([5.0]), rho, (live, pinned), "max")
    seq_live = single_switch_sequence(msi.station_instance(0), 2)
    seq_pin = PredictionSequence.build(msi.station_instance(1),
                                       [(0.3, 0.3), (0.3, 0.3)])
    plans = play_stations(msi, [seq_live, seq_pin])
    assert plans[1].total_net == pytest.approx(0.3, abs=1e-9)


# --- Release policy -----------------------------------------------------------

def test_release_reduces_to_emulator():
    inst = fig3_instance("b")
    ri = ReleaseInstance(base=inst)
    gamma, canonical = minimax_value_and_profile(inst)
    for seed in range(6):
        seq = random_nested_sequence(inst, seed)
        pe = play(LpEmulatorPolicy(inst, canonical, gamma), inst, seq)
        pr = play(ReleasePolicy(ri), inst, seq)
        assert np.allclose(pe.hires, pr.hires, atol=1e-9)
        assert np.all(pr.releases == 0)


def test_release_zero_budget_forces_no_hiring():
    inst = make_instance([2.0], [[1.0, 0.8]], (0, 1), [0.6, 0.3])
    ri = ReleaseInstance(base=inst, budget=0.0,
                         wages=np.full((1, 2), 0.5))
    built = build_lp_release(ri)
    sol = solve_lp(built.model)
    assert sol.objective == pytest.approx(inst.under_cost * 1.0, abs=1e-9)
    seq = single_switch_sequence(inst, 2)
    plan = play(ReleasePolicy(ri), inst, seq)
    assert plan.total_net == pytest.approx(0.0, abs=1e-12)


def test_release_worst_case_over_configurations():
    T = 4
    rho = [[1.0, 0.9, 0.7, 0.5], [0.8, 0.6, 0.5, 0.4]]
    deltas = [0.8, 0.6, 0.35, 0.2]
    inst = validate_instance(make_instance([0.7, 0.5], rho, (0, 1), deltas,
                                           under_cost=1.0, over_cost=2.0))
    ri = ReleaseInstance(base=inst, budget=1.0,
                         wages=np.full((2, T), 0.05),
                         epoch_breaks=(2, 4), release_fees=(0.1, None))
    built = build_lp_release(ri)
    objective = solve_lp(built.model).objective
    worst = 0.0
    for cfg in built.configs:
        seq = configuration_sequence(ri, cfg)
        plan = play(ReleasePolicy(ri), inst, seq)
        ok, viol = check_feasibility(ri, plan)
        assert ok, viol
        cost, _ = worst_demand_cost(inst, plan.total_net, *final_range(seq))
        worst = max(worst, cost)
    assert worst <= objective + 1e-6


def _release_decisions(name, make, monkeypatch):
    """(bytes of every day's hires and releases and of each policy's
    program value over the step-0.5 grid sequences of a release file,
    build_lp_release calls), with policies from make(problem)()."""
    problem = cli._load(instance_path(name))
    factory = make(problem)
    builds = []
    build = policies.build_lp_release
    monkeypatch.setattr(policies, "build_lp_release",
                        lambda *a: builds.append(1) or build(*a))
    out = []
    for seq in enumerate_grid_sequences(problem.base, 0.5):
        policy = factory()
        for t, iv in enumerate(seq.intervals, start=1):
            d = policy.step(DayObservation(t, iv))
            out.append(d.hires.tobytes() + d.releases.tobytes())
        out.append(np.float64(policy.objective).tobytes())
    monkeypatch.undo()
    return out, len(builds)


@pytest.mark.parametrize("name, private_builds, shared_builds",
                         [("release_demo.json", 11 * 2, 5),
                          ("joint_demo.json", 39, 1)])
def test_release_memo_shared_plays_as_private(name, private_builds,
                                              shared_builds, monkeypatch):
    # Each private policy solves the day-0 program and, on release_demo,
    # its second epoch's; the shared memo solves each distinct state once.
    private = _release_decisions(
        name, lambda ri: partial(ReleasePolicy, ri), monkeypatch)
    shared = _release_decisions(
        name, lambda ri: cli._policy_factory("release", cli._PolicyContext(
            ri.base, ri, None, None, {})), monkeypatch)
    assert shared[0] == private[0]
    assert (private[1], shared[1]) == (private_builds, shared_builds)


def test_release_memo_cap_and_read_only_entries(monkeypatch):
    problem = cli._load(instance_path("release_demo.json"))
    private, _ = _release_decisions(
        "release_demo.json", lambda ri: partial(ReleasePolicy, ri),
        monkeypatch)
    memo = OrderedDict()
    monkeypatch.setattr(policies, "RELEASE_MEMO_CAP", 1)
    capped, builds = _release_decisions(
        "release_demo.json", lambda ri: partial(ReleasePolicy, ri, memo),
        monkeypatch)
    assert capped == private
    assert len(memo) == 1 and builds == 22
    memo.clear()
    policy = ReleasePolicy(problem, memo)
    policy.step(DayObservation(1, PredictionInterval(0.0, 0.5)))
    (objective, hires, releases), = memo.values()
    assert objective == policy.objective
    for block in (hires, *releases.values()):
        with pytest.raises(ValueError):
            block[0] = 1.0
    with pytest.raises(TypeError):
        releases[0] = np.zeros(2)


@pytest.mark.parametrize("step, blocks, digest", [
    ("0.5", 4,
     "a62f5c5dde7e81b00cd934aa5a7df66d52d7ea06e909c20ca546e10488043e8e"),
    ("0.25", 11,
     "e60f290ec758721d7dda4b3aed3a38a3dfb5bb4495f1e8dd34dba02245827493")])
def test_release_oracle_builds_each_block_once(step, blocks, digest,
                                               monkeypatch, capsys):
    # Each sequence's two epochs play two blocks in turn.  The emulator's
    # block memo keeps both, so every distinct block's day tables are built
    # once per command and its tree serves the days it holds; the output
    # is the one a one-entry memo gave (digests of the stdout from before
    # the blocks were kept, but for gamma_star, now the release program's
    # value).  Both worst cases break that value (the release case that
    # test_adversary's oracle test xfails), so the command exits 4.
    monkeypatch.setattr(emulator_module, "_blocks", OrderedDict())
    tables, steps = [], []
    build = emulator_module._build_day_tables
    monkeypatch.setattr(emulator_module, "_build_day_tables",
                        lambda *a: tables.append(1) or build(*a))
    real_step = emulator_module.emulator_step
    monkeypatch.setattr(emulator_module, "emulator_step",
                        lambda *a: steps.append(1) or real_step(*a))
    path = instance_path("release_demo.json")
    assert cli.main(["oracle", "--instance", path, "--policy", "release",
                     "--grid-step", step]) == cli.GUARANTEE_BROKEN
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    base = cli._load(path).base
    days = len(enumerate_grid_sequences(base, float(step))) * base.horizon
    assert len(tables) == blocks
    assert len(steps) < days


def test_decisions_keep_their_outputs():
    # Hire-only decisions of one shape share one zero release vector, and
    # it refuses writes.
    d = policies.Decision.hire_only([0.5, 0.25])
    assert d.releases is policies.Decision.hire_only(np.zeros(2)).releases
    with pytest.raises(ValueError):
        d.releases[0] = 1.0
    assert not d.releases.any()
    # play hands out a fresh, writable releases block of its own.
    inst = fig3_instance("c")
    plans = [play(LpEmulatorPolicy(inst), inst, worst_case_sequence(inst))
             for _ in range(2)]
    assert plans[0].releases is not plans[1].releases
    assert plans[0].releases.flags.writeable
    plans[0].releases[0, 0] = 1.0
    assert not plans[1].releases.any()
    assert not policies.Decision.hire_only(np.zeros(1)).releases.any()
    # A policy's real releases reach the plan on their day.
    T = 5
    rho = [[1.0, 0.95, 0.85, 0.7, 0.55], [0.9, 0.8, 0.65, 0.5, 0.35]]
    base = validate_instance(make_instance(
        [0.6, 0.6], rho, (0, 1), [0.9, 0.75, 0.6, 0.45, 0.3],
        under_cost=1.0, over_cost=1.5))
    ri = ReleaseInstance(base=base, budget=2.0, wages=np.full((2, T), 0.08),
                         epoch_breaks=(2, 4, 5),
                         release_fees=(0.05, None, 0.3))
    policy = ReleasePolicy(ri)
    decided = []

    class Recording:
        def step(self, obs):
            decided.append(policy.step(obs))
            return decided[-1]

    plan = play(Recording(), base, configuration_sequence(ri, (0, 2, 4)))
    assert np.array_equal(plan.releases,
                          np.column_stack([d.releases for d in decided]))
    assert plan.releases[:, :4].sum() == 0 and np.all(plan.releases[:, 4] > 0)


def _column_play(policy, inst, sequence, trace=None):
    """The earlier `play` outside the Bayesian world: it wrote each day's
    decision into the plan's columns."""
    n, T = inst.availability.shape
    hires = np.zeros((n, T))
    releases = np.zeros((n, T))
    no_releases = policies._no_releases((n,))
    canonical = None if trace is None else getattr(policy, "canonical", None)
    intervals = sequence.intervals
    step = policy.step
    for t in range(1, T + 1):
        d = step(DayObservation(t, intervals[t - 1]))
        hires[:, t - 1] = d.hires
        if d.releases is not no_releases:
            releases[:, t - 1] = d.releases
        if trace is not None:
            net = hires.sum() - releases.sum()
            trace.record(t, net if canonical is None
                         else canonical[:, :t].sum(), net,
                         sequence.effective_hi[t - 1],
                         sequence.effective_lo[t - 1], d.hires, d.releases)
    return hires, releases


def _row_play_cases():
    """(label, instance, factory of fresh policies, sequences)."""
    fig3c = fig3_instance("c")
    release = cli._load(instance_path("release_demo.json"))
    joint = cli._load(instance_path("joint_demo.json"))
    rng = np.random.default_rng(34)
    multi = [random_multi_pool(rng, 3, 8) for _ in range(4)]
    cases = []
    for label, inst in [("fig3c", fig3c), ("release_demo", release.base)] + [
            (f"multi{k}", m) for k, m in enumerate(multi)]:
        first = LpEmulatorPolicy(inst)
        cases.append((f"lp_emulator[{label}]", inst, partial(
            LpEmulatorPolicy, inst, first.canonical, first.gamma_star)))
    # The joint program takes one epoch, no fees and no budget.
    unreleased = replace(release, budget=None, release_fees=(None,),
                         epoch_breaks=(release.base.horizon,))
    for label, ri in (("joint_demo", joint), ("release_demo", unreleased)):
        first = JointCostPolicy(ri)
        cases.append((f"joint[{label}]", ri.base, partial(
            LpEmulatorPolicy, ri.base, first.canonical, first.gamma_star)))
    for label, ri in (("joint_demo", joint), ("release_demo", release)):
        cases.append((f"release[{label}]", ri.base,
                      partial(ReleasePolicy, ri, OrderedDict())))
    base = LpEmulatorPolicy(fig3c)
    shocked = [t % 3 == 1 for t in range(fig3c.horizon)]
    for scenario in ("detect_before_hiring", "no_detect"):
        cases.append((f"wrapper[{scenario}]", fig3c, lambda sc=scenario: (
            MiscoverageWrapper(LpEmulatorPolicy(
                fig3c, base.canonical, base.gamma_star), sc, shocked))))
    return [(label, inst, factory,
             [random_nested_sequence(inst, seed) for seed in range(12)])
            for label, inst, factory in cases]


def test_play_writes_rows_as_columns(tmp_path):
    # play writes each day through the row views of its (n, T) blocks: the
    # same hires, releases and trace CSV bytes as the column writes.
    releasing = 0
    for label, inst, factory, sequences in _row_play_cases():
        for k, seq in enumerate(sequences):
            hires, releases = _column_play(factory(), inst, seq)
            plan = play(factory(), inst, seq)
            assert plan.hires.flags.c_contiguous, label
            assert plan.hires.tobytes() == hires.tobytes(), (label, k)
            assert plan.releases.tobytes() == releases.tobytes(), (label, k)
            releasing += bool(releases.any())
            old = emulator_module.EmulatorTrace()
            new = emulator_module.EmulatorTrace()
            _column_play(factory(), inst, seq, old)
            traced = play(factory(), inst, seq, new)
            assert traced.hires.tobytes() == hires.tobytes(), (label, k)
            assert traced.releases.tobytes() == releases.tobytes()
            old.write_csv(tmp_path / "old.csv")
            new.write_csv(tmp_path / "new.csv")
            assert ((tmp_path / "new.csv").read_bytes()
                    == (tmp_path / "old.csv").read_bytes()), (label, k)
    assert releasing > 0


def test_play_refuses_a_sequence_of_another_length():
    inst = fig3_instance("c")
    seq = random_nested_sequence(inst, 1)
    for intervals in (seq.intervals[:-1], seq.intervals + seq.intervals[-1:]):
        with pytest.raises(SequenceError, match="expected"):
            play(LpEmulatorPolicy(inst), inst, replace(seq,
                                                       intervals=intervals))


# --- Joint policy -------------------------------------------------------------

def test_joint_policy_reduces_and_respects_bound():
    inst = fig3_instance("b")
    free = ReleaseInstance(base=inst)
    pol_j = JointCostPolicy(free)
    gamma, canonical = minimax_value_and_profile(inst)
    seq = random_nested_sequence(inst, 3)
    pj = play(pol_j, inst, seq)
    pe = play(LpEmulatorPolicy(inst, canonical, gamma), inst, seq)
    assert np.allclose(pj.hires, pe.hires, atol=1e-9)

    # T=2 brute force: worst joint cost <= program objective.
    small = make_instance([0.9], [[1.0, 0.7]], (0, 1), [0.6, 0.25])
    ri = ReleaseInstance(base=small, wages=np.array([[0.05, 0.15]]))
    pol = JointCostPolicy(ri)
    objective = pol.objective
    from staffing_minimax.adversary import enumerate_grid_sequences
    worst = 0.0
    for seq in enumerate_grid_sequences(small, 0.25):
        p = play(JointCostPolicy(ri), small, seq)
        wage_bill = float((ri.wages * p.hires).sum())
        lo, hi = seq.effective_lo[-1], seq.effective_hi[-1]
        cost = wage_bill + max(small.under_cost * max(0.0, hi - p.total_net),
                               small.over_cost * max(0.0, p.total_net - lo))
        worst = max(worst, cost)
    assert worst <= objective + 1e-6


# --- Miscoverage wrapper -------------------------------------------------------

def _shock_setup():
    T = 6
    rho = [1 - 0.75 ** (T - t + 1) for t in range(1, T + 1)]
    deltas = [1 - 0.45 ** (T - t) for t in range(1, T + 1)]
    return validate_instance(make_instance([1.2], [rho], (0, 1), deltas))


def test_wrapper_unshocked_is_identical_to_base():
    inst = _shock_setup()
    gamma, canonical = minimax_value_and_profile(inst)
    seq = random_nested_sequence(inst, 5)
    base_plan = play(LpEmulatorPolicy(inst, canonical, gamma), inst, seq)
    wrapped = MiscoverageWrapper(LpEmulatorPolicy(inst, canonical, gamma),
                                 "detect_before_hiring", [False] * inst.horizon)
    wrapped_plan = play(wrapped, inst, seq)
    assert np.array_equal(base_plan.hires, wrapped_plan.hires)
    wrapped2 = MiscoverageWrapper(LpEmulatorPolicy(inst, canonical, gamma),
                                  "no_detect", [False] * inst.horizon)
    assert np.array_equal(play(wrapped2, inst, seq).hires, base_plan.hires)


def test_wrapper_all_shocked_hires_nothing():
    inst = _shock_setup()
    wrapped = MiscoverageWrapper(LpEmulatorPolicy(inst), "detect_before_hiring",
                                 [True] * inst.horizon)
    garbage = PredictionSequence.build(inst, [(0.0, 0.0)] * inst.horizon)
    plan = play(wrapped, inst, garbage)
    assert plan.total_net == 0.0


def test_wrapper_rejects_unsupported_base():
    inst = _shock_setup()
    with pytest.raises(UnsupportedBase):
        MiscoverageWrapper(LpResolvingPolicy(inst), "detect_before_hiring",
                           [False] * inst.horizon)


def test_wrapper_mean_extra_cost_monotone_small():
    inst = _shock_setup()
    gamma, canonical = minimax_value_and_profile(inst)
    means = [_mean_extra_cost(inst, canonical, gamma, d, reps=120)
             for d in (0.0, 0.05, 0.1)]
    assert means[0] == pytest.approx(0.0, abs=1e-12)
    assert means[0] <= means[1] + 1e-9 and means[1] <= means[2] + 1e-9


def _mean_extra_cost(inst, canonical, gamma, shock_prob, reps):
    T = inst.horizon
    total = 0.0
    for rep in range(reps):
        rng = np.random.default_rng([rep, 17])
        seq = random_nested_sequence(inst, 40000 + rep)
        u = rng.uniform(size=T)
        shocked = u < shock_prob            # coupled across shock levels
        intervals = list(seq.intervals)
        for t in range(T):
            if shocked[t]:
                intervals[t] = PredictionInterval(0.0, 0.0)
        shocked_seq = PredictionSequence.build(inst, intervals)
        wrapped = MiscoverageWrapper(
            LpEmulatorPolicy(inst, canonical, gamma),
            "detect_before_hiring", shocked)
        plan = play(wrapped, inst, shocked_seq)
        d = float(seq.effective_hi[-1])     # consistent worst-side demand
        cost = (inst.under_cost * max(0.0, d - plan.total_net)
                + inst.over_cost * max(0.0, plan.total_net - d))
        base_plan = play(LpEmulatorPolicy(inst, canonical, gamma), inst, seq)
        base_cost = (inst.under_cost * max(0.0, d - base_plan.total_net)
                     + inst.over_cost * max(0.0, base_plan.total_net - d))
        total += cost - base_cost
    return total / reps
