import itertools

import numpy as np
import pytest

from conftest import fig3_instance, random_multi_pool
from staffing_minimax import adversary
from staffing_minimax.adversary import (
    BudgetExceeded, EmptyGrid, brute_force_worst_case, configuration_sequence,
    demand_candidates, enumerate_grid_sequences, random_nested_sequence,
    sequence_from_csv, single_switch_sequence, worst_case_sequence)
from staffing_minimax.model import (InstanceError, ReleaseInstance,
                                    make_instance)
from staffing_minimax.policies import (GreedyTargetPolicy, LpEmulatorPolicy,
                                       gamma_star_single_pool, play)
from staffing_minimax.programs import minimax_value_and_profile


def test_single_switch_hand_construction():
    inst = make_instance([1.0], [[1.0, 1.0]], (0, 1), [0.5, 0.25])
    seq = single_switch_sequence(inst, 1)
    assert (seq.intervals[0].lo, seq.intervals[0].hi) == (0.5, 1.0)
    assert (seq.intervals[1].lo, seq.intervals[1].hi) == (0.5, 0.75)


def test_single_switch_at_T_is_worst_case():
    inst = fig3_instance("b")
    a = single_switch_sequence(inst, inst.horizon)
    b = worst_case_sequence(inst)
    for iv_a, iv_b in zip(a.intervals, b.intervals):
        assert iv_a.lo == pytest.approx(iv_b.lo)
        assert iv_a.hi == pytest.approx(iv_b.hi)


def test_single_switch_final_point_interval():
    inst = make_instance([1.0], [[1.0, 1.0]], (0, 1), [0.5, 0.0])
    seq = single_switch_sequence(inst, 2)
    assert seq.intervals[1].lo == seq.intervals[1].hi == 1.0


def test_worst_case_hand_values():
    inst = make_instance([1.0], [[1.0, 1.0]], (0, 1), [0.5, 0.25])
    seq = worst_case_sequence(inst)
    assert (seq.intervals[0].lo, seq.intervals[0].hi) == (0.5, 1.0)
    assert (seq.intervals[1].lo, seq.intervals[1].hi) == (0.75, 1.0)
    flat = make_instance([1.0], [[1.0, 1.0]], (0, 1), [1.0, 1.0])
    seq = worst_case_sequence(flat)
    for iv in seq.intervals:
        assert (iv.lo, iv.hi) == (0.0, 1.0)


def test_worst_case_sequence_at_large_demand_scale():
    # hi0 - Delta_1 rounds to a width one ulp above Delta_1 here.
    inst = make_instance([1e10], [[1.0, 1.0]], (1e7, 1.1e8 + 0.987654321),
                         [30000000.2, 0.0])
    seq = worst_case_sequence(inst)
    assert [iv.hi for iv in seq.intervals] == [inst.initial_range[1]] * 2
    assert seq.interval(1).width == pytest.approx(30000000.2, rel=1e-15)
    assert gamma_star_single_pool(inst).gamma_star == 0.0


def test_sequences_pass_their_own_width_check_at_large_demand_scale():
    # As above, each day-1 width rounds to one ulp above Delta_1.
    inst = make_instance([1e10], [[1.0, 1.0]], (1e7, 1.1e8 + 0.987654321),
                         [30000000.2, 0.0])
    ri = ReleaseInstance(base=inst)
    for seq in (single_switch_sequence(inst, 1),
                single_switch_sequence(inst, 2),
                configuration_sequence(ri, (0,)),
                configuration_sequence(ri, (2,))):
        assert seq.interval(1).width == pytest.approx(30000000.2, rel=1e-15)
        assert seq.interval(2).width == 0.0


def test_worst_case_attains_gamma_for_greedy():
    for which in ("b", "c"):
        inst = fig3_instance(which)
        res = gamma_star_single_pool(inst)
        seq = worst_case_sequence(inst)
        plan = play(GreedyTargetPolicy(inst, res.gamma_star), inst, seq)
        under = inst.under_cost * max(
            0.0, inst.initial_range[1] - plan.total_net)
        assert under == pytest.approx(res.gamma_star, abs=1e-7)


def test_configuration_sequence_hand_values():
    inst = make_instance([1.0], [[1.0, 1.0]], (0, 1), [0.5, 0.25])
    ri = ReleaseInstance(base=inst, epoch_breaks=(1, 2),
                         release_fees=(0.1, 0.1), budget=10.0)
    seq = configuration_sequence(ri, (1, 2))
    assert (seq.intervals[0].lo, seq.intervals[0].hi) == (0.5, 1.0)
    assert (seq.intervals[1].lo, seq.intervals[1].hi) == (0.75, 1.0)
    seq = configuration_sequence(ri, (0, 1))
    assert (seq.intervals[0].lo, seq.intervals[0].hi) == (0.0, 0.5)
    # L = 1 configuration coincides with the single-switch construction.
    ri1 = ReleaseInstance(base=inst)
    for k in (1, 2):
        a = configuration_sequence(ri1, (k,))
        b = single_switch_sequence(inst, k)
        for iv_a, iv_b in zip(a.intervals, b.intervals):
            assert iv_a.lo == pytest.approx(iv_b.lo)
            assert iv_a.hi == pytest.approx(iv_b.hi)


def test_configuration_prefix_identity():
    T = 4
    inst = make_instance([1.0], [np.linspace(1, 0.6, T)], (0, 1),
                         [0.8, 0.6, 0.4, 0.2])
    ri = ReleaseInstance(base=inst, epoch_breaks=(2, 4),
                         release_fees=(0.1, 0.1), budget=10.0)
    ranges = [(0, 2), (2, 4)]
    configs = list(itertools.product(range(0, 3), range(2, 5)))
    for (j1, j2), (k1, k2) in itertools.combinations(configs, 2):
        sa = configuration_sequence(ri, (j1, j2))
        sb = configuration_sequence(ri, (k1, k2))
        if j1 == k1:
            agree_until = min(j2, k2)
        else:
            agree_until = min(j1, k1)
        for t in range(1, agree_until + 1):
            assert sa.intervals[t - 1] == sb.intervals[t - 1], (
                (j1, j2), (k1, k2), t)


def test_random_nested_properties():
    inst = make_instance([1.0], [[1.0, 1.0, 1.0]], (0, 1), [0.5, 0.0, 0.0])
    a = random_nested_sequence(inst, 42)
    b = random_nested_sequence(inst, 42)
    assert a.intervals == b.intervals
    # Zero error bounds after day 1 freeze the interval to a point.
    assert a.intervals[1].lo == a.intervals[1].hi
    assert a.intervals[2] == a.intervals[1]
    rng = np.random.default_rng(0)
    for _ in range(300):
        inst = random_multi_pool(rng)
        seq = random_nested_sequence(inst, int(rng.integers(1 << 31)))
        assert seq.is_nested(inst)
        for t, iv in enumerate(seq.intervals, start=1):
            assert iv.width <= inst.delta(t) + 1e-9


def test_sequence_csv_ingestion(tmp_path):
    inst = make_instance([1.0], [[1.0, 1.0]], (0, 1), [0.5, 0.25])
    path = tmp_path / "seq.csv"
    path.write_text("day,lo,hi\n1,0.5,1.0\n2,0.75,1.0\n")
    seq = sequence_from_csv(path, inst)
    assert seq.intervals[1].lo == 0.75
    path.write_text("day,lo,hi\n1,0.5,1.0\n")
    with pytest.raises(Exception):
        sequence_from_csv(path, inst)


def test_grid_contains_single_switch_family():
    """On grid-aligned instances the switch sequences are themselves grid
    sequences, so any policy's grid worst case dominates its worst case over
    that family; combined with the program's lower-bound role this pins the
    best online policy's grid value from below."""
    inst = make_instance([0.4, 0.5],
                         [[1.0, 0.75, 0.5], [0.9, 0.6, 0.35]], (0, 1),
                         [0.75, 0.5, 0.25])
    grid_seqs = {tuple((iv.lo, iv.hi) for iv in seq.intervals)
                 for seq in enumerate_grid_sequences(inst, 0.25)}
    for k in range(1, inst.horizon + 1):
        seq = single_switch_sequence(inst, k)
        key = tuple((iv.lo, iv.hi) for iv in seq.intervals)
        assert key in grid_seqs, k


def test_grid_enumeration_counts_and_cap():
    inst = make_instance([1.0], [[1.0, 1.0]], (0, 1), [1.0, 0.5])
    seqs = enumerate_grid_sequences(inst, 0.5)
    # Day 1: any [a,b] on {0,.5,1}: 6 choices; day 2 nested with width <= .5.
    assert len(seqs) > 0
    for seq in seqs:
        assert seq.is_nested(inst)
    with pytest.raises(BudgetExceeded):
        enumerate_grid_sequences(inst, 0.25, cap=3)


@pytest.mark.parametrize("step", [0.0, -0.25])
def test_demand_candidates_reject_nonpositive_step(step):
    seq = single_switch_sequence(fig3_instance("a"), 3)
    with pytest.raises(InstanceError, match="grid step must be positive"):
        demand_candidates(seq, step)


@pytest.mark.parametrize("step", [np.inf, np.nan])
def test_grid_adversary_rejects_non_finite_step(step):
    # An infinite step made the grid nan: no sequence was enumerated and
    # brute_force_worst_case returned None.
    inst = fig3_instance("c")
    match = "grid step must be positive and finite"
    with pytest.raises(InstanceError, match=match):
        enumerate_grid_sequences(inst, step)
    with pytest.raises(InstanceError, match=match):
        demand_candidates(single_switch_sequence(inst, 3), step)
    with pytest.raises(InstanceError, match=match):
        brute_force_worst_case(inst, lambda: LpEmulatorPolicy(inst), step)


def test_brute_force_without_sequences_names_the_error(monkeypatch):
    inst = fig3_instance("a")
    monkeypatch.setattr(adversary, "enumerate_grid_sequences",
                        lambda *args: [])
    with pytest.raises(EmptyGrid, match="no nested grid sequence at step "
                                        "0.5"):
        brute_force_worst_case(inst, lambda: LpEmulatorPolicy(inst), 0.5)


def test_clairvoyant_worst_case_zero_with_ample_supply():
    # A clairvoyant planner sees each grid sequence whole and hires its
    # final upper end on day 1; it pays only for a shortfall beyond the
    # day-1 supply, and the worst case over the grid is its largest one.
    inst = make_instance([10.0], [[1.0, 0.9]], (0, 1), [0.8, 0.3])
    max_total = float((inst.availability[:, 0] * inst.pool_sizes).sum())
    worst = max(inst.under_cost * max(0.0, float(seq.effective_hi[-1])
                                      - max_total)
                for seq in enumerate_grid_sequences(inst, 0.5))
    assert worst == pytest.approx(0.0, abs=1e-12)


def test_brute_force_certifies_emulator_and_lower_bounds_heuristics():
    inst = make_instance([0.8], [[1.0, 0.7]], (0, 1), [0.6, 0.25])
    gamma, canonical = minimax_value_and_profile(inst)
    res = brute_force_worst_case(
        inst, lambda: LpEmulatorPolicy(inst, canonical, gamma), 0.25)
    assert res.cost <= gamma + 1e-6
    # A single-switch sequence attains the maximum up to grid slack.
    attained = max(
        _policy_cost_on(inst, single_switch_sequence(inst, k), canonical, gamma)
        for k in range(1, inst.horizon + 1))
    assert res.cost <= attained + 1e-9
    # Every online heuristic is lower-bounded by gamma*.
    from staffing_minimax.bayesian import NaiveGreedyPolicy
    res_ng = brute_force_worst_case(inst, lambda: NaiveGreedyPolicy(inst), 0.25)
    assert res_ng.cost >= gamma - 1e-6


def _policy_cost_on(inst, seq, canonical, gamma):
    plan = play(LpEmulatorPolicy(inst, canonical, gamma), inst, seq)
    total = plan.total_net
    lo, hi = seq.effective_lo[-1], seq.effective_hi[-1]
    return max(inst.under_cost * max(0.0, hi - total),
               inst.over_cost * max(0.0, total - lo))
