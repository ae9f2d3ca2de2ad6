import numpy as np
import pytest

from conftest import fig3_instance, random_multi_pool
from staffing_minimax.adversary import (random_nested_sequence,
                                        single_switch_sequence,
                                        worst_case_sequence)
from staffing_minimax.emulator import (EmulatorTrace, EpochRunner,
                                       SplitInfeasible, emulator_step,
                                       split_hires)
from staffing_minimax.model import (PredictionInterval, PredictionSequence,
                                    ReleaseInstance, check_feasibility,
                                    fresh_state, make_instance)
from staffing_minimax.policies import LpEmulatorPolicy, play
from staffing_minimax.programs import (minimax_value_and_profile,
                                       single_switch_floor)


def test_step_follows_canonical_when_upper_bound_holds():
    inst = make_instance([2.0], [[1.0, 0.9, 0.8]], (0, 1), [1.0, 0.5, 0.2])
    canonical = np.array([[0.2, 0.3, 0.4]])
    realized = np.zeros((1, 3))
    for t in (1, 2, 3):
        h = emulator_step(canonical, realized, t, 1.0, 1.0,
                          inst.availability[:, t - 1])
        realized[:, t - 1] = h
        assert h[0] == pytest.approx(canonical[0, t - 1])


def test_step_hand_value_after_drop():
    # canonical (0.5, 0.5); day-2 upper bound drops to 0.7 with R0 = 1:
    # day-2 total = (1.0 - 0.5 - 0.3)+ = 0.2
    canonical = np.array([[0.5, 0.5]])
    realized = np.array([[0.5, 0.0]])
    h = emulator_step(canonical, realized, 2, 0.7, 1.0, np.array([1.0]))
    assert h[0] == pytest.approx(0.2)


def test_step_zero_canonical():
    canonical = np.zeros((2, 3))
    realized = np.zeros((2, 3))
    for t in (1, 2, 3):
        h = emulator_step(canonical, realized, t, 0.4, 1.0, np.array([1.0, 0.9]))
        assert np.all(h == 0)


def test_split_scarcest_first_and_caps():
    caps = np.array([0.4, 0.3, 0.2])
    rho = np.array([0.9, 0.2, 0.5])
    h = split_hires(0.6, caps, rho)
    # Fill order: pool 1 (rho .2), pool 2 (rho .5), pool 0 (rho .9).
    assert h[1] == pytest.approx(0.3)
    assert h[2] == pytest.approx(0.2)
    assert h[0] == pytest.approx(0.1)
    with pytest.raises(SplitInfeasible):
        split_hires(1.0, caps, rho)


def test_single_switch_final_sequence_follows_canonical():
    inst = fig3_instance("b")
    gamma, canonical = minimax_value_and_profile(inst)
    seq = single_switch_sequence(inst, inst.horizon)
    plan = play(LpEmulatorPolicy(inst, canonical), inst, seq)
    assert np.allclose(plan.hires, canonical, atol=1e-12)


def test_fig3c_worst_sequence_cost():
    inst = fig3_instance("c")
    gamma, canonical = minimax_value_and_profile(inst)
    seq = worst_case_sequence(inst)
    plan = play(LpEmulatorPolicy(inst, canonical), inst, seq)
    total = plan.total_net
    hi = seq.effective_hi[-1]
    lo = seq.effective_lo[-1]
    worst = max(inst.under_cost * max(0.0, hi - total),
                inst.over_cost * max(0.0, total - lo))
    assert worst == pytest.approx(0.338, abs=5e-3)
    assert worst <= gamma + 1e-9


def _random_canonical(rng, inst):
    """Supply-feasible random nonnegative profile (not necessarily optimal)."""
    n, T = inst.availability.shape
    x = rng.uniform(0.0, 1.0, size=(n, T)) * (inst.availability > 0)
    for i in range(n):
        usage = sum(x[i, t] / inst.availability[i, t]
                    for t in range(T) if inst.availability[i, t] > 0)
        if usage > 0:
            scale = rng.uniform(0.2, 1.0) * float(inst.pool_sizes[i]) / usage
            x[i] *= min(1.0, scale)
    return x


def _random_valid_sequence(rng, inst):
    """Random sequence honoring the declared error bounds, eps-aware."""
    lo0, hi0 = inst.initial_range
    d_hat = rng.uniform(lo0, hi0)          # hidden trajectory anchor
    ivs = []
    lo_eff, hi_eff = lo0, hi0
    for t in range(1, inst.horizon + 1):
        eps = inst.eps(t)
        width = inst.delta(t) * rng.uniform()
        center = d_hat + rng.uniform(-eps, eps)
        a = center - width * rng.uniform()
        ivs.append((a, a + width))
    return PredictionSequence.build(inst, ivs)


@pytest.mark.parametrize("seed", range(4))
def test_emulator_invariants_fuzz(seed):
    """Step always solvable, x <= canonical, bounded-cost inequalities, and
    the realized plan is supply feasible (500 cases per seed here; the
    acceptance suite runs the full 10^4)."""
    rng = np.random.default_rng(100 + seed)
    for _ in range(500):
        inst = random_multi_pool(rng)
        canonical = _random_canonical(rng, inst)
        if np.any(inst.inconsistency != 0):
            seq = _random_valid_sequence(rng, inst)
        else:
            seq = random_nested_sequence(inst, int(rng.integers(1 << 31)))
        # never raises
        plan = play(LpEmulatorPolicy(inst, canonical), inst, seq)
        assert np.all(plan.hires <= canonical + 1e-12)
        ok, viol = check_feasibility(inst, plan)
        assert ok, viol
        total = plan.total_hired
        T = inst.horizon
        # Bounded overstaffing via the last hiring day k (trivial if no
        # hiring happened): total - L_hat_T <= canon_cum_k - floor_k.
        day_totals = plan.hires.sum(axis=0)
        hired_days = np.nonzero(day_totals > 1e-12)[0]
        if hired_days.size:
            k = int(hired_days[-1]) + 1
            bound = canonical[:, :k].sum() - single_switch_floor(inst, k)
            assert total - seq.effective_lo[-1] <= bound + 1e-9
        # Bounded understaffing: R_hat_T - total <= R0 - canonical total
        assert (seq.effective_hi[-1] - total
                <= inst.initial_range[1] - canonical.sum() + 1e-9)


def test_trace_csv_round_trip(tmp_path):
    inst = fig3_instance("a")
    gamma, canonical = minimax_value_and_profile(inst)
    seq = random_nested_sequence(inst, 9)
    trace = EmulatorTrace()
    plan = play(LpEmulatorPolicy(inst, canonical), inst, seq, trace)
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "day,pool,canonical,hired,released,R_hat,L_hat"
    assert len(rows) == 1 + inst.horizon * inst.n_pools


def test_release_epoch_run_trivial_epoch_state():
    # Zero hires and unchanged predictions: z unchanged, supply rescaled,
    # budget unchanged.
    inst = make_instance([1.0], [[1.0, 0.8, 0.6, 0.5]], (0, 1),
                         [1.0, 0.8, 0.6, 0.4])
    ri = ReleaseInstance(base=inst, budget=5.0, epoch_breaks=(2, 4),
                         release_fees=(0.1, 0.1))
    state = fresh_state(inst, ri.budget, ri.pre_hires)
    canonical = np.zeros((1, 2))
    from staffing_minimax.model import PredictionInterval
    ivs = [PredictionInterval(0.0, 1.0), PredictionInterval(0.0, 1.0)]
    runner = EpochRunner(ri, state, canonical, {0: np.zeros(1)})
    for iv in ivs:
        runner.observe(iv)
    releases, _k, st = runner.finish()
    assert np.all(runner.realized == 0) and np.all(releases == 0)
    assert st.index == 2
    assert np.all(st.cum_hires == 0)
    assert st.remaining_budget == 5.0
    assert st.remaining_supply[0] == pytest.approx(0.8 * 1.0)
    # availability rescaled relative to day 2
    assert st.availability[0, 2] == pytest.approx(0.6 / 0.8)
    # carried interval is [R_2 - Delta_2, R_2]
    assert st.interval == (pytest.approx(1.0 - 0.8), 1.0)


def _idle_epoch_runner():
    inst = make_instance([1.0], [[1.0, 0.8, 0.6, 0.5]], (0, 1),
                         [1.0, 0.8, 0.6, 0.4])
    ri = ReleaseInstance(base=inst, budget=5.0, epoch_breaks=(2, 4),
                         release_fees=(0.1, 0.1))
    state = fresh_state(inst, ri.budget, ri.pre_hires)
    return EpochRunner(ri, state, np.zeros((1, 2)), {0: np.zeros(1)})


def test_epoch_runner_observe_past_epoch_end_raises():
    runner = _idle_epoch_runner()
    for _ in range(2):
        runner.observe(PredictionInterval(0.0, 1.0))
    with pytest.raises(ValueError, match="epoch already complete"):
        runner.observe(PredictionInterval(0.0, 1.0))


def test_epoch_runner_finish_before_epoch_end_raises():
    runner = _idle_epoch_runner()
    runner.observe(PredictionInterval(0.0, 1.0))
    with pytest.raises(ValueError, match="epoch not fully observed"):
        runner.finish()


def test_release_epoch_critical_index_exists():
    # k = t0 always satisfies the matching equality trivially.
    from staffing_minimax.emulator import critical_switch_day
    k = critical_switch_day([1.0, 0.9], [0.0, 0.1], [0.0, 0.2], 0)
    assert k >= 0
