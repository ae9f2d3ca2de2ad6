import itertools
import json
import math
import os
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import (INSTANCE_DIR, fig3_instance, instance_path, plan_of,
                      random_multi_pool, random_single_pool)
from staffing_minimax import bayesian, cli, policies, programs
from staffing_minimax.adversary import random_nested_sequence
from staffing_minimax.lp import (LpError, LpModel, refine_lexicographic,
                                  solve_lp)
from staffing_minimax.model import (Instance, InstanceError,
                                    MultiStationInstance, ReleaseInstance,
                                    StationSpec, fresh_state, make_instance)
from staffing_minimax.policies import DayObservation, LpResolvingPolicy
from staffing_minimax.programs import InfeasibleState
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
        # A resolving build must make its rows with the quadratic helpers,
        # not read the fast build's from the row memo, and no later build
        # may read theirs.
        mp.setattr(programs, "_day_rows", programs.DayMemo())
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


# --- Resolving rows built once per day -----------------------------------------
# build_lp_resolving reads its rows from a memo keyed by the day, the
# availability from the day on, the cost slopes and the horizon, and writes
# only the state's right-hand sides; a hit must be the fresh build.

def _resolving_bytes(built):
    m = built.model
    A, sense, b = m.dense()
    return (m.name, m.dump(), m.var_names, m.objective, m.rows,
            A.tobytes(), A.shape, sense.tobytes(), b.tobytes(),
            dict(built.x_index), built.gamma, built.day_range)


def _solved_bytes(built):
    sol = solve_canonical(built, refine_limit=1)
    return np.float64(sol.objective).tobytes(), sol.x.tobytes()


def _assert_hit_is_fresh_build(inst, st, day):
    first = build_lp_resolving(inst, st, day)
    hit = build_lp_resolving(inst, st, day)
    assert hit.model.dense()[0] is first.model.dense()[0]     # a hit
    programs._day_rows.days.clear()
    fresh = build_lp_resolving(inst, st, day)
    assert fresh.model.dense()[0] is not hit.model.dense()[0]  # a miss
    assert _resolving_bytes(hit) == _resolving_bytes(fresh)
    assert _solved_bytes(hit) == _solved_bytes(fresh)


def _built_states(monkeypatch, run):
    """(instance, state, day) of every program the resolving policies build
    while run() plays."""
    calls = []
    build = policies.build_lp_resolving
    with monkeypatch.context() as mp:
        mp.setattr(policies, "build_lp_resolving",
                   lambda *a: calls.append(a) or build(*a))
        run()
    return calls


def _bench_long_world(reps, monkeypatch):
    with open(instance_path("bench_long.json")) as f:
        config = json.load(f)
    inst = _world_instance(config)
    process = bayesian.DemandProcess(int(config["horizon"]),
                                     float(config["prior_hi"]))
    table = bayesian.CalibrationTable.from_dict(config["calibration"])
    factory = cli._policy_factories(["lp_resolving"], inst, None, {})
    return _built_states(monkeypatch, lambda: bayesian.run_bayesian_world(
        inst, process, table, factory, reps, int(config["seed"])))


def test_resolving_row_hits_equal_fresh_builds_on_bench_long(monkeypatch):
    calls = _bench_long_world(100, monkeypatch)
    assert len(calls) > 1000
    assert {day for _, _, day in calls} == set(range(1, 15))
    for inst, st, day in calls:
        _assert_hit_is_fresh_build(inst, st, day)


def test_resolving_row_hits_equal_fresh_builds_on_draws():
    draws = [fig3_instance(which) for which in "abc"]
    rng = np.random.default_rng(77)
    draws += [random_multi_pool(rng, 3, 10) for _ in range(25)]
    assert any(np.any(inst.inconsistency != 0) for inst in draws)
    assert any(inst.n_pools > 1 for inst in draws)
    states = 0
    for k, inst in enumerate(draws):
        for seed in range(4 if k < 3 else 1):
            for st in _resolving_states(inst, 100 * k + seed):
                _assert_hit_is_fresh_build(inst, st, st.index)
                states += 1
    assert states > 150


def test_resolving_rows_key_covers_what_they_read():
    # Programs that differ in one input their rows read never share rows,
    # whichever is built first.
    inst = fig3_instance("c")
    st = _resolving_states(inst, 2)[3]
    rho = st.availability.copy()
    rho[:, st.index - 1] *= 0.5            # the day's own column
    variants = [(inst, st), (replace(inst, over_cost=2.0), st),
                (replace(inst, under_cost=0.5), st),
                (inst, replace(st, availability=rho))]
    for first, then in itertools.permutations(variants, 2):
        programs._day_rows.days.clear()
        build_lp_resolving(*first, st.index)
        after = _resolving_bytes(build_lp_resolving(*then, st.index))
        programs._day_rows.days.clear()
        assert after == _resolving_bytes(build_lp_resolving(*then, st.index))


def _error_of(build):
    try:
        build()
    except (InstanceError, LpError) as err:
        return type(err), str(err)
    raise AssertionError("no error")


def test_resolving_row_hit_raises_as_a_miss():
    inst = fig3_instance("c")
    st = _resolving_states(inst, 3)[2]
    nan = float("nan")
    bad = [SimpleNamespace(**{**vars(st), **change}) for change in (
        {"remaining_supply": -1.0 - np.abs(st.remaining_supply)},
        {"interval": (st.interval[1] + 0.5, st.interval[1])},
        {"remaining_supply": np.full_like(st.remaining_supply, nan)},
        {"cum_hires": np.full_like(st.cum_hires, nan)},
        {"interval": (st.interval[0], nan)})]
    expect = [InfeasibleState, InfeasibleState] + [LpError] * 3
    for state, kind in zip(bad, expect):
        programs._day_rows.days.clear()
        miss = _error_of(lambda: build_lp_resolving(inst, state, 3))
        build_lp_resolving(inst, st, 3)                  # the day's rows
        hit = _error_of(lambda: build_lp_resolving(inst, state, 3))
        assert miss == hit and miss[0] is kind
    assert hit[1] == "non-finite rhs"


def test_resolving_programs_share_no_mutable_state():
    inst = fig3_instance("b")
    st = _resolving_states(inst, 1)[1]
    before = _resolving_bytes(build_lp_resolving(inst, st, 2))
    built = build_lp_resolving(inst, st, 2)
    built.model.name = "renamed"
    extra = built.model.add_var("extra", obj=2.0)
    built.model.add_row({0: 1.0, extra: -1.0}, "<=", 3.0)
    assert built.model.dense()[0].shape == (built.model.n_rows,
                                            built.model.n_vars)
    assert _resolving_bytes(build_lp_resolving(inst, st, 2)) == before
    # build_lp_single_switch renames its model; the day-1 rows are kept.
    day1 = _resolving_bytes(build_lp_resolving(inst, fresh_state(inst), 1))
    assert build_lp_single_switch(inst).model.name == "single_switch"
    assert _resolving_bytes(
        build_lp_resolving(inst, fresh_state(inst), 1)) == day1


def _fresh_dense(model):
    copy = LpModel(model.name, list(model.var_names), list(model.objective),
                   list(model.rows))
    return tuple(a.tobytes() for a in copy.dense()) + (copy.dense()[0].shape,)


def test_dense_rows_are_built_once_until_the_model_grows():
    m = LpModel()
    m.add_var("x", obj=1.0)
    m.add_row({0: 2.0}, ">=", 1.0)
    A, sense, b = m.dense()
    A2, sense2, b2 = m.dense()
    assert A2 is A and sense2 is sense and b2 is not b
    assert not A.flags.writeable and not sense.flags.writeable
    assert b.flags.writeable
    grow = (lambda: m.add_var("y"),
            lambda: m.add_row({1: 1.0}, "<=", 4.0),
            lambda: m.rows.append(({0: 1.0, 1: -1.0}, "=", 0.0)))
    for step in grow:
        step()
        A3, sense3, b3 = m.dense()
        assert A3 is not A and A3.shape == (m.n_rows, m.n_vars)
        assert tuple(a.tobytes() for a in (A3, sense3, b3)) + (A3.shape,) \
            == _fresh_dense(m)
        A = A3
    # A model made from these rows carries their A and sense.
    copy = m.with_rhs("copy", [5.0, -1.0, 0.5])
    A4, sense4, b4 = copy.dense()
    assert A4 is A and b4.tolist() == [5.0, -1.0, 0.5]
    assert copy.rows[0][0] is m.rows[0][0] and copy.rows is not m.rows
    with pytest.raises(LpError, match="3 rows"):
        m.with_rhs("short", [1.0, 2.0])
    with pytest.raises(LpError, match="non-finite rhs"):
        m.with_rhs("nan", [1.0, float("nan"), 2.0])


# --- Cached solve inputs follow their sources --------------------------------
# A solve reads the dense rows, the right-hand sides, the objective array and
# the refinement's stacked rows and cost vectors from caches; after a change
# to what one was made from, the next solve is that of a model sharing
# nothing.

def _unshared(model):
    return LpModel(model.name, list(model.var_names), list(model.objective),
                   [(dict(coeffs), rel, rhs)
                    for coeffs, rel, rhs in model.rows])


def _refined_bytes(model, targets):
    """solve_lp, then refine_lexicographic over targets, as bytes."""
    sol = solve_lp(model)
    out = refine_lexicographic(model, sol, targets)
    return (np.float64(sol.objective).tobytes(), sol.x.tobytes(),
            sol.reduced_costs.tobytes(), np.float64(out.objective).tobytes(),
            out.x.tobytes())


def _solves_as_unshared(model, targets):
    got = _refined_bytes(model, targets)
    assert got == _refined_bytes(_unshared(model),
                                 [(dict(c), goal) for c, goal in targets])
    return got


def test_cached_solve_inputs_follow_their_sources(monkeypatch):
    monkeypatch.setattr(programs, "_day_rows", programs.DayMemo())
    inst = fig3_instance("c")
    st = fresh_state(inst)
    built = build_lp_resolving(inst, st, st.index)
    m, targets = built.model, built.refine_targets()
    seen = [_solves_as_unshared(m, targets)]
    # The objective edited in place: the day's first hire now costs.
    first = built.x_index[min(built.x_index)]
    m.objective[first] = 0.5
    seen.append(_solves_as_unshared(m, targets))
    # A with_rhs copy, with the supply rows halved; the model it was taken
    # from keeps its own right-hand sides.
    n = inst.n_pools
    copy = m.with_rhs("copy", [rhs * 0.5 if r < n else rhs
                               for r, (_, _, rhs) in enumerate(m.rows)])
    seen.append(_solves_as_unshared(copy, targets))
    assert _solves_as_unshared(m, targets) == seen[1]
    # Rows appended by add_row and by rows.append, each capping a hire the
    # solve before made.
    for append in (lambda row: m.add_row(*row), m.rows.append):
        x = np.frombuffer(seen[-1][-1])
        v = int(np.argmax(x[:built.gamma]))
        append(({v: 1.0}, "<=", float(x[v]) * 0.5))
        seen.append(_solves_as_unshared(m, targets))
    # The day's rows move to another instance and back.
    other = replace(inst, over_cost=2.0)
    moved = build_lp_resolving(other, st, st.index)
    assert moved.model.dense()[0] is not built.model.dense()[0]
    seen.append(_solves_as_unshared(moved.model, moved.refine_targets()))
    again = build_lp_resolving(inst, st, st.index)
    assert _solves_as_unshared(again.model, again.refine_targets()) \
        == seen[0]
    # The targets negated, each with its sense turned: the same cost
    # vectors, other pins.
    _solves_as_unshared(again.model, [
        ({j: -a for j, a in coeffs.items()}, {"max": "min", "min": "max"}[g])
        for coeffs, g in again.refine_targets()])
    # The day keeps one target list per refine_limit.
    for limit in (None, 1, 2, 1, None):
        assert again.refine_targets(limit) == \
            programs._DayPoolHires.refine_targets(again, limit)
    # Every change moved the solve.
    assert len(set(seen)) == len(seen) == 6
