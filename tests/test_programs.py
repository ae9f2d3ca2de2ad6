import json
import math
import os
from dataclasses import replace

import numpy as np
import pytest

from conftest import (INSTANCE_DIR, fig3_instance, instance_path, plan_of,
                      random_multi_pool, random_single_pool)
from staffing_minimax import bayesian, cli, programs
from staffing_minimax.adversary import random_nested_sequence
from staffing_minimax.lp import solve_lp
from staffing_minimax.model import (Instance, MultiStationInstance,
                                    ReleaseInstance, StationSpec, fresh_state,
                                    make_instance)
from staffing_minimax.policies import DayObservation, LpResolvingPolicy
from staffing_minimax.programs import (
    ConfigurationExplosion, build_lp_joint_cost, build_lp_multi_station,
    build_lp_release, build_lp_resolving, build_lp_single_switch,
    extract_canonical, minimax_value_and_profile, single_switch_floor,
    solve_canonical)


def test_warmup_lp_demand_pinned():
    # T=1, ample supply, zero last-day error: demand is pinned, cost 0.
    inst = make_instance([10.0], [[1.0]], (0, 1), [0.0])
    built = build_lp_single_switch(inst)
    sol = solve_canonical(built)
    assert sol.objective == pytest.approx(0.0, abs=1e-9)
    x = extract_canonical(built, sol)
    assert x[0, 0] == pytest.approx(1.0, abs=1e-9)


def test_constraint_count_n_plus_t_plus_1():
    inst = make_instance([1.0], [[1.0]], (0, 1), [0.0])
    assert build_lp_single_switch(inst).model.n_rows == 1 + 1 + 1
    rng = np.random.default_rng(0)
    for _ in range(20):
        inst = random_multi_pool(rng)
        n, T = inst.availability.shape
        assert build_lp_single_switch(inst).model.n_rows == n + T + 1


def test_switch_floor_hand_value():
    # R0=1, L0=0, Delta=(0.5, 0.2), eps=(0.1, 0.05):
    # max(1-1-0, 1-0.5-0.2, 1-0.2-0.1) = 0.7
    inst = make_instance([1.0], [[1.0, 1.0]], (0, 1), [0.5, 0.2],
                         inconsistency=[0.1, 0.05])
    assert single_switch_floor(inst, 2) == pytest.approx(0.7)
    assert single_switch_floor(inst, 1) == pytest.approx(0.3)
    assert single_switch_floor(inst, 0) == pytest.approx(0.0)


def test_fig3_objectives():
    values = {"a": 0.0, "b": 0.476, "c": 0.338}
    for which, expect in values.items():
        sol = solve_lp(build_lp_single_switch(fig3_instance(which)).model)
        assert sol.objective == pytest.approx(expect, abs=5e-3)


def test_resolving_fresh_state_equals_base():
    rng = np.random.default_rng(2)
    for _ in range(20):
        inst = random_multi_pool(rng)
        base = build_lp_single_switch(inst)
        res = build_lp_resolving(inst, fresh_state(inst), 1)
        assert base.model.var_names == res.model.var_names
        assert base.model.objective == res.model.objective
        assert base.model.rows == res.model.rows


def test_resolving_state_shifts_rows():
    inst = make_instance([1.0], [[1.0, 1.0]], (0, 1), [0.5, 0.2])
    st = fresh_state(inst)
    # Hire 0.5 on day 1 at rho=1: s-bar = 0.5, z-bar = 0.5.
    st2 = type(st)(index=2, cum_hires=np.array([0.5]),
                   remaining_supply=np.array([0.5]),
                   remaining_budget=None, interval=(0.5, 1.0),
                   availability=inst.availability.copy())
    built = build_lp_resolving(inst, st2, 2)
    # Supply row rhs is the remaining 0.5.
    coeffs, rel, rhs = built.model.rows[0]
    assert rel == "<=" and rhs == pytest.approx(0.5)
    # Cap row: x_2 <= floor + gamma/C - z_total.
    coeffs, rel, rhs = built.model.rows[1]
    floor = max(0.5, 1.0 - 0.2)
    assert rhs == pytest.approx(floor - 0.5)


def test_multi_station_m1_matches_single():
    rng = np.random.default_rng(3)
    for _ in range(10):
        inst = random_multi_pool(rng)
        if np.any(inst.inconsistency != 0):
            continue
        st = StationSpec(inst.initial_range, inst.error_bounds,
                         inst.under_cost, inst.over_cost)
        for objective in ("max", "sum"):
            msi = MultiStationInstance(inst.pool_sizes, inst.availability,
                                       (st,), objective)
            g_multi = solve_lp(build_lp_multi_station(msi).model).objective
            g_single = solve_lp(build_lp_single_switch(inst).model).objective
            assert g_multi == pytest.approx(g_single, abs=1e-8)


def test_multi_station_epigraph_and_sum_split():
    rho = np.array([[1.0, 0.6], [0.9, 0.5]])
    st = StationSpec((0, 1), np.array([0.6, 0.2]))
    msi_max = MultiStationInstance(np.array([0.8, 0.5]), rho, (st, st), "max")
    built = build_lp_multi_station(msi_max)
    assert built.epigraph is not None
    assert "psi" in built.model.var_names
    # Symmetric utilitarian objective on doubled pools equals twice the
    # single-station objective (brute-force via the solver).
    single = MultiStationInstance(np.array([0.8, 0.5]), rho, (st,), "sum")
    doubled = MultiStationInstance(np.array([1.6, 1.0]), rho, (st, st), "sum")
    g1 = solve_lp(build_lp_multi_station(single).model).objective
    g2 = solve_lp(build_lp_multi_station(doubled).model).objective
    assert g2 == pytest.approx(2 * g1, abs=1e-8)


def test_joint_reductions_and_grid_oracle():
    inst = fig3_instance("b")
    free = ReleaseInstance(base=inst)
    g_joint = solve_lp(build_lp_joint_cost(free).model).objective
    g_base = solve_lp(build_lp_single_switch(inst).model).objective
    assert g_joint == pytest.approx(g_base, abs=1e-8)

    # c = 0 with huge wages: understaffing free, hire nothing.
    cheap = make_instance([10.0], [[1.0, 0.9]], (0, 1), [0.5, 0.2],
                          under_cost=0.0, over_cost=1.0)
    pricey = ReleaseInstance(base=cheap, wages=np.full((1, 2), 100.0))
    sol = solve_lp(build_lp_joint_cost(pricey).model)
    assert sol.objective == pytest.approx(0.0, abs=1e-9)

    # T=1 desk case against a grid enumeration of the exact piecewise cost.
    instT1 = make_instance([10.0], [[1.0]], (0, 1), [0.0])
    ri = ReleaseInstance(base=instT1, wages=np.array([[0.1]]))
    built = build_lp_joint_cost(ri)
    sol = solve_canonical(built)

    def exact_joint_worst(x):
        # max(c*(R0-x) + p*x, C*(x - floor_k)+ + p*x_k terms) for T=1
        under = 1.0 * max(0.0, 1.0 - x) + 0.1 * x
        over = 1.0 * max(0.0, x - 1.0) + 0.1 * x
        return max(under, over)

    grid = np.linspace(0, 2, 2001)
    best = min(exact_joint_worst(x) for x in grid)
    assert sol.objective == pytest.approx(best, abs=1e-6)
    assert sol.objective == pytest.approx(0.1, abs=1e-9)
    assert extract_canonical(built, sol)[0, 0] == pytest.approx(1.0, abs=1e-9)


def test_release_reduces_to_base_when_trivial():
    inst = fig3_instance("b")
    ri = ReleaseInstance(base=inst)    # L=1, fee None, no budget, no wages
    built = build_lp_release(ri)
    g = solve_lp(built.model).objective
    g_base = solve_lp(build_lp_single_switch(inst).model).objective
    assert g == pytest.approx(g_base, abs=1e-7)
    assert not built.y_index           # no release variables exist
    hires, releases = extract_canonical(built, solve_canonical(built))
    assert all(np.all(y == 0) for y in releases.values())


def test_release_configuration_count_and_prefix_sharing():
    inst = make_instance([1.0], [[1.0, 0.8]], (0, 1), [0.5, 0.25])
    ri = ReleaseInstance(base=inst, epoch_breaks=(1, 2),
                         release_fees=(0.1, 0.1), budget=10.0)
    built = build_lp_release(ri)
    assert len(built.configs) == 2 * 2
    # Configurations (1, 1) and (1, 2) share the day-1 hire variables.
    k11 = built.x_key(1, (1, 1))
    k12 = built.x_key(1, (1, 2))
    assert k11 == k12
    # ... and differ once epoch 1 switched at 0 vs 1.
    assert built.x_key(1, (0, 1)) != built.x_key(1, (1, 1))


def test_release_configuration_cap():
    T = 12
    inst = make_instance([1.0], [np.linspace(1, 0.5, T)], (0, 1),
                         np.linspace(0.9, 0.1, T))
    ri = ReleaseInstance(base=inst, epoch_breaks=tuple(range(1, T + 1)),
                         release_fees=(0.1,) * T, budget=10.0)
    with pytest.raises(ConfigurationExplosion):
        build_lp_release(ri, config_cap=100)


def test_release_free_hedging_cannot_hurt():
    # q = 0 everywhere with unlimited budget: objective <= base gamma*.
    T = 3
    inst = make_instance([0.8], [[1.0, 0.7, 0.45]], (0, 1), [0.7, 0.4, 0.15])
    ri = ReleaseInstance(base=inst, epoch_breaks=(1, 2, 3),
                         release_fees=(0.0, 0.0, 0.0))
    g_rel = solve_lp(build_lp_release(ri).model).objective
    g_base = solve_lp(build_lp_single_switch(inst).model).objective
    assert g_rel <= g_base + 1e-8


def test_canonical_profile_unique_and_feasible():
    from staffing_minimax.model import check_feasibility
    rng = np.random.default_rng(4)
    for _ in range(25):
        inst = random_multi_pool(rng)
        gamma, x = minimax_value_and_profile(inst)
        gamma2, x2 = minimax_value_and_profile(inst)
        assert gamma == gamma2 and np.array_equal(x, x2)
        ok, viol = check_feasibility(inst, plan_of(x))
        assert ok, viol


# --- Cap rows built in O(T) --------------------------------------------------
# The quadratic formulas the running-max floors and the day-by-day cap rows
# replaced; every program must come out the same, bit for bit.

def _quadratic_switch_floors(inst, interval, day):
    lo, hi = interval
    return [max([lo] + [hi - inst.delta(tau) - 2.0 * inst.eps(tau)
                        for tau in range(day, k + 1)])
            for k in range(day, inst.horizon + 1)]


def _quadratic_consistent_floors(spec, horizon):
    hi0 = spec.initial_range[1]
    return [max(hi0 - spec.delta(tau) for tau in range(0, k + 1))
            for k in range(1, horizon + 1)]


def _quadratic_caps_and_floor(m, x_index, first_day, caps, cap_coef,
                              floor_var, floor_coef, floor_rhs):
    for k, (var, rhs) in enumerate(caps, start=first_day):
        coeffs = {v: 1.0 for key, v in x_index.items() if key[-1] <= k}
        coeffs[var] = cap_coef
        m.add_row(coeffs, "<=", rhs)
    coeffs = dict.fromkeys(x_index.values(), 1.0)
    coeffs[floor_var] = floor_coef
    m.add_row(coeffs, ">=", floor_rhs)


def _program_bytes(model):
    A, sense, b = model.dense()
    return (model.dump(), A.tobytes(), sense.tobytes(), b.tobytes(),
            model.var_names, model.objective, model.rows)


def _assert_same_as_quadratic(monkeypatch, build):
    fast = _program_bytes(build().model)
    with monkeypatch.context() as mp:
        mp.setattr(programs, "_switch_floors", _quadratic_switch_floors)
        mp.setattr(programs, "_consistent_floors",
                   _quadratic_consistent_floors)
        mp.setattr(programs, "_caps_and_floor", _quadratic_caps_and_floor)
        slow = _program_bytes(build().model)
    assert fast == slow


def _resolving_states(inst, seed):
    """The state a resolving policy carries into each day of one random
    nested sequence (interval clamped as its step clamps it)."""
    policy = LpResolvingPolicy(inst)
    seq = random_nested_sequence(inst, seed)
    states = [policy.state]
    for t in range(1, inst.horizon):
        policy.step(DayObservation(t, seq.interval(t)))
        states.append(policy.state)
    return states


def _check_resolving_from_mid_horizon(monkeypatch, inst, seed):
    for st in _resolving_states(inst, seed):
        _assert_same_as_quadratic(
            monkeypatch, lambda: build_lp_resolving(inst, st, st.index))


def _world_instance(config):
    process = bayesian.DemandProcess(int(config["horizon"]),
                                     float(config.get("prior_hi", 0.5)))
    return bayesian.forecast_instance(
        config["pool_sizes"], config["availability"],
        bayesian.CalibrationTable.from_dict(config["calibration"]),
        float(config.get("under_cost", 1.0)),
        float(config.get("over_cost", 1.0)), process)


def test_cap_rows_match_quadratic_on_instance_files(monkeypatch):
    builders = {"single_switch": build_lp_single_switch,
                "multi_station": build_lp_multi_station,
                "joint": build_lp_joint_cost, "release": build_lp_release}
    names = sorted(f for f in os.listdir(INSTANCE_DIR) if f.endswith(".json"))
    assert len(names) >= 8
    for name in names:
        with open(instance_path(name)) as f:
            config = json.load(f)
        if "calibration" in config:            # a Bayesian-world config
            problem = _world_instance(config)
        else:
            problem = cli._load(instance_path(name))
        program = cli._infer_program(problem)
        _assert_same_as_quadratic(monkeypatch,
                                  lambda: builders[program](problem))
        inst = problem.base if isinstance(problem, ReleaseInstance) \
            else problem
        if isinstance(inst, Instance):
            _check_resolving_from_mid_horizon(monkeypatch, inst, 5)


def test_cap_rows_match_quadratic_on_random_draws(monkeypatch):
    rng = np.random.default_rng(123)
    draws = ([random_single_pool(rng) for _ in range(15)]
             + [random_multi_pool(rng, 3, 10) for _ in range(15)])
    assert any(np.any(inst.inconsistency != 0) for inst in draws)
    assert any(inst.n_pools > 1 for inst in draws)
    for k, inst in enumerate(draws):
        _assert_same_as_quadratic(monkeypatch,
                                  lambda: build_lp_single_switch(inst))
        _check_resolving_from_mid_horizon(monkeypatch, inst, k)
        if np.any(inst.inconsistency != 0):
            continue
        wages = rng.uniform(0.0, 0.3, size=inst.availability.shape)
        _assert_same_as_quadratic(monkeypatch, lambda: build_lp_joint_cost(
            ReleaseInstance(base=inst, wages=wages)))
        lo0, hi0 = inst.initial_range
        stations = (StationSpec(inst.initial_range, inst.error_bounds,
                                inst.under_cost, inst.over_cost),
                    StationSpec((lo0, 0.5 * (lo0 + hi0)),
                                0.5 * inst.error_bounds))
        for objective in ("max", "sum"):
            msi = MultiStationInstance(inst.pool_sizes, inst.availability,
                                       stations, objective)
            _assert_same_as_quadratic(monkeypatch,
                                      lambda: build_lp_multi_station(msi))


def test_cap_rows_keep_signed_zero_floor(monkeypatch):
    # Every term ties the carried -0.0 left end at +0.0: max() keeps the
    # first, -0.0, and so must the running max (the rhs bytes differ).
    inst = make_instance([1.0], [[1.0, 1.0, 1.0]], (0, 1), [1.0, 1.0, 1.0])
    st = replace(fresh_state(inst), interval=(-0.0, 1.0))
    built = build_lp_resolving(inst, st, 1)
    rhs = [rhs for _, rel, rhs in built.model.rows[1:4]]
    assert all(r == 0.0 and math.copysign(1.0, r) < 0 for r in rhs)
    _assert_same_as_quadratic(monkeypatch,
                              lambda: build_lp_resolving(inst, st, 1))
