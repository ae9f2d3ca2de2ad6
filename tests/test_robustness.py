"""Heavier-duty checks: inconsistent forecasts, bigger release models, and a
wider random-LP sweep against the vertex-enumeration oracle."""

import itertools

import numpy as np
import pytest

from conftest import final_range, plan_of, random_multi_pool
from staffing_minimax.adversary import (configuration_sequence,
                                        worst_demand_cost)
from staffing_minimax.lp import LpInfeasible, LpModel, solve_lp
from staffing_minimax.model import (PredictionSequence, ReleaseInstance,
                                    check_feasibility, make_instance,
                                    validate_instance,
                                    validate_release_instance)
from staffing_minimax.policies import (LpEmulatorPolicy, LpResolvingPolicy,
                                       ReleasePolicy, play)
from staffing_minimax.programs import (build_lp_release,
                                       build_lp_single_switch,
                                       minimax_value_and_profile)
from test_simplex import brute_force_min


def _valid_inconsistent_sequence(rng, inst):
    """Intervals drawn around a hidden moving estimate within eps_t of a
    hidden demand; honors the width bounds but need not be nested."""
    lo0, hi0 = inst.initial_range
    d = rng.uniform(lo0, hi0)
    ivs = []
    for t in range(1, inst.horizon + 1):
        eps = inst.eps(t)
        width = inst.delta(t) * rng.uniform()
        center = d + rng.uniform(-eps, eps)
        a = center - width * rng.uniform()
        ivs.append((a, a + width))
    return d, PredictionSequence.build(inst, ivs)


@pytest.mark.parametrize("seed", range(3))
def test_policies_respect_cap_under_inconsistent_forecasts(seed):
    rng = np.random.default_rng(7700 + seed)
    checked = 0
    while checked < 25:
        inst = random_multi_pool(rng)
        if not np.any(inst.inconsistency > 0):
            continue
        checked += 1
        gamma, canonical = minimax_value_and_profile(inst)
        d, seq = _valid_inconsistent_sequence(rng, inst)
        for policy in (LpEmulatorPolicy(inst, canonical, gamma),
                       LpResolvingPolicy(inst)):
            plan = play(policy, inst, seq)
            ok, viol = check_feasibility(inst, plan)
            assert ok, viol
            cost, _ = worst_demand_cost(inst, plan.total_net,
                                        *final_range(seq))
            assert cost <= gamma + 1e-7
            # The hidden demand also lies in the effective range.
            direct = (inst.under_cost * max(0.0, d - plan.total_net)
                      + inst.over_cost * max(0.0, plan.total_net - d))
            assert direct <= cost + 1e-9


def test_release_three_epochs_with_infinite_middle_fee():
    T = 5
    rho = [[1.0, 0.95, 0.85, 0.7, 0.55],
           [0.9, 0.8, 0.65, 0.5, 0.35]]
    deltas = [0.9, 0.75, 0.6, 0.45, 0.3]
    inst = validate_instance(make_instance(
        [0.6, 0.6], rho, (0, 1), deltas, under_cost=1.0, over_cost=1.5))
    ri = validate_release_instance(ReleaseInstance(
        base=inst, budget=2.0, wages=np.full((2, T), 0.08),
        epoch_breaks=(2, 4, 5), release_fees=(0.05, None, 0.3)))
    built = build_lp_release(ri)
    assert len(built.configs) == 3 * 3 * 2
    objective = solve_lp(built.model).objective
    worst = -np.inf
    for cfg in built.configs:
        seq = configuration_sequence(ri, cfg)
        plan = play(ReleasePolicy(ri), inst, seq)
        ok, viol = check_feasibility(ri, plan)
        assert ok, (cfg, viol)
        # No releasing during the infinite-fee epoch (days 3..4).
        assert np.all(plan.releases[:, 2:4] == 0)
        cost, _ = worst_demand_cost(inst, plan.total_net, *final_range(seq))
        worst = max(worst, cost)
    assert worst <= objective + 1e-6


def test_release_pre_hires_enter_the_balance():
    T = 2
    inst = make_instance([1.0], [[1.0, 0.8]], (0, 1), [0.6, 0.3])
    ri = ReleaseInstance(base=inst, budget=5.0, wages=np.zeros((1, T)),
                         epoch_breaks=(2,), release_fees=(0.1,),
                         pre_hires=np.array([0.4]))
    built = build_lp_release(ri)
    sol = solve_lp(built.model)
    # With 0.4 already committed, the no-release-needed scenario keeps the
    # overstaffing bounded: objective stays finite and small.
    assert 0.0 <= sol.objective <= inst.over_cost * 0.4 + 1e-9
    for cfg in built.configs:
        seq = configuration_sequence(ri, cfg)
        plan = play(ReleasePolicy(ri), inst, seq)
        ok, viol = check_feasibility(ri, plan)
        assert ok, viol
        total = ri.pre_hires.sum() + plan.total_net
        cost, _ = worst_demand_cost(inst, total, *final_range(seq))
        assert cost <= sol.objective + 1e-6


@pytest.mark.parametrize("policy_name", ["emulator", "resolving", "release"])
def test_decisions_are_online_causal(policy_name):
    """Two sequences that agree through day k produce identical decisions
    through day k: no policy peeks ahead."""
    from staffing_minimax.policies import DayObservation

    T = 6
    rho = [1 - 0.7 ** (T - t + 1) for t in range(1, T + 1)]
    deltas = [1 - 0.5 ** (T - t) for t in range(1, T + 1)]
    inst = validate_instance(make_instance([0.8], [rho], (0, 1), deltas))
    ri = ReleaseInstance(base=inst, budget=5.0, wages=np.full((1, T), 0.05),
                         epoch_breaks=(3, 6), release_fees=(0.1, 0.2))

    def fresh():
        if policy_name == "emulator":
            return LpEmulatorPolicy(inst)
        if policy_name == "resolving":
            return LpResolvingPolicy(inst)
        return ReleasePolicy(ri)

    rng = np.random.default_rng(31)
    for trial in range(6):
        base_seed = int(rng.integers(1 << 30))
        seq_a = _nested(inst, base_seed)
        k = int(rng.integers(1, T))
        # seq_b shares days 1..k with seq_a, then diverges.
        seq_b_tail = _nested_from(inst, seq_a, k, base_seed + 1)
        pa, pb = fresh(), fresh()
        for t in range(1, T + 1):
            da = pa.step(DayObservation(day=t, interval=seq_a.interval(t)))
            db = pb.step(DayObservation(day=t,
                                        interval=seq_b_tail.interval(t)))
            if t <= k:
                assert np.array_equal(da.hires, db.hires), (trial, t)


def _nested(inst, seed):
    from staffing_minimax.adversary import random_nested_sequence
    return random_nested_sequence(inst, seed)


def _nested_from(inst, seq, k, seed):
    """A sequence equal to seq through day k, random nested afterwards."""
    rng = np.random.default_rng(seed)
    ivs = [(iv.lo, iv.hi) for iv in seq.intervals[:k]]
    lo, hi = ivs[-1]
    for t in range(k + 1, inst.horizon + 1):
        cap = min(inst.delta(t), hi - lo)
        w = cap * rng.uniform()
        a = lo + (hi - lo - w) * rng.uniform() if hi - lo > w else lo
        lo, hi = a, a + w
        ivs.append((lo, hi))
    return PredictionSequence.build(inst, ivs)


@pytest.mark.parametrize("seed", range(60))
def test_simplex_wider_random_sweep(seed):
    rng = np.random.default_rng(40_000 + seed)
    n = int(rng.integers(2, 6))
    m_rows = int(rng.integers(2, 8))
    c = rng.normal(size=n)
    rows = []
    for _ in range(m_rows):
        coeffs = {j: float(rng.normal()) for j in range(n)}
        if rng.uniform() < 0.2:      # inject degeneracy: duplicated row
            rows.append((dict(coeffs), "<=", 1.0))
        rel = str(rng.choice(["<=", ">=", "="]))
        rows.append((coeffs, rel, float(rng.normal())))
    rows.append(({j: 1.0 for j in range(n)}, "<=", 6.0))

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


def test_gamma_program_scales_to_larger_instances():
    rng = np.random.default_rng(5)
    T, n = 25, 4
    rho = np.sort(rng.uniform(0.05, 1.0, size=(n, T)), axis=1)[:, ::-1]
    deltas = np.sort(rng.uniform(0.0, 1.0, size=T))[::-1]
    inst = validate_instance(make_instance(
        rng.uniform(0.05, 0.6, size=n), rho, (0, 1), deltas))
    built = build_lp_single_switch(inst)
    sol = solve_lp(built.model)
    assert 0.0 <= sol.objective <= max(inst.under_cost, inst.over_cost)
    gamma, canonical = minimax_value_and_profile(inst)
    assert gamma == pytest.approx(sol.objective, abs=1e-9)
    ok, viol = check_feasibility(inst, plan_of(canonical))
    assert ok, viol
