from collections import OrderedDict

import numpy as np
import pytest

from conftest import (fig3_instance, instance_path, random_multi_pool,
                      random_single_pool)
from staffing_minimax.adversary import (enumerate_grid_sequences,
                                        random_nested_sequence,
                                        single_switch_sequence,
                                        worst_case_sequence)
from staffing_minimax import emulator as emulator_module
from staffing_minimax.emulator import (Decision, Emulator, EmulatorTrace,
                                       SplitInfeasible, _block, _fill,
                                       _no_releases, _scarcest_first,
                                       emulator_step, split_hires)
from staffing_minimax.model import (PredictionInterval, PredictionSequence,
                                    ReleaseInstance, check_feasibility,
                                    fresh_state, load_instance, make_instance,
                                    validate_release_instance)
from staffing_minimax.policies import (DayObservation, LpEmulatorPolicy,
                                       ReleasePolicy, play)
from staffing_minimax.programs import (minimax_value_and_profile,
                                       single_switch_floor)


def day_tables(canonical, availability):
    """The block's day tables, from the emulator's block memo."""
    return _block(canonical, availability).tables


def fill_scarcest_first(total, caps, rho):
    """Fill a total into pools up to their caps, scarcest first: the fill
    of the emulator's split and of the naive heuristics."""
    return _fill(total, np.asarray(caps, float).tolist(),
                 _scarcest_first(rho))


def test_step_follows_canonical_when_upper_bound_holds():
    inst = make_instance([2.0], [[1.0, 0.9, 0.8]], (0, 1), [1.0, 0.5, 0.2])
    canonical = np.array([[0.2, 0.3, 0.4]])
    realized = np.zeros((1, 3))
    tables = day_tables(canonical, inst.availability)
    for t in (1, 2, 3):
        h = emulator_step(tables[t - 1], realized, t, 1.0, 1.0)
        realized[:, t - 1] = h
        assert h[0] == pytest.approx(canonical[0, t - 1])


def test_step_hand_value_after_drop():
    # canonical (0.5, 0.5); day-2 upper bound drops to 0.7 with R0 = 1:
    # day-2 total = (1.0 - 0.5 - 0.3)+ = 0.2
    canonical = np.array([[0.5, 0.5]])
    realized = np.array([[0.5, 0.0]])
    tables = day_tables(canonical, np.ones((1, 2)))
    h = emulator_step(tables[1], realized, 2, 0.7, 1.0)
    assert h[0] == pytest.approx(0.2)


def test_step_zero_canonical():
    canonical = np.zeros((2, 3))
    realized = np.zeros((2, 3))
    tables = day_tables(canonical, np.array([[1.0] * 3, [0.9] * 3]))
    for t in (1, 2, 3):
        h = emulator_step(tables[t - 1], realized, t, 0.4, 1.0)
        assert np.all(h == 0)


def test_split_scarcest_first_and_caps():
    caps = np.array([0.4, 0.3, 0.2])
    rho = np.array([0.9, 0.2, 0.5])
    table = day_tables(caps[:, None], rho[:, None])[0]
    h = split_hires(0.6, table, 1)
    # Fill order: pool 1 (rho .2), pool 2 (rho .5), pool 0 (rho .9).
    assert h[1] == pytest.approx(0.3)
    assert h[2] == pytest.approx(0.2)
    assert h[0] == pytest.approx(0.1)
    with pytest.raises(SplitInfeasible):
        split_hires(1.0, table, 1)


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
    policy = ReleasePolicy(ri)
    policy._open_epoch((0.0, np.zeros((1, 2)), {0: np.zeros(1)}))
    for t in (1, 2):
        d = policy.step(DayObservation(t, PredictionInterval(0.0, 1.0)))
    assert np.all(policy.emulator.realized == 0) and np.all(d.releases == 0)
    st = policy.state
    assert st.index == 2
    assert np.all(st.cum_hires == 0)
    assert st.remaining_budget == 5.0
    assert st.remaining_supply[0] == pytest.approx(0.8 * 1.0)
    # availability rescaled relative to day 2
    assert st.availability[0, 2] == pytest.approx(0.6 / 0.8)
    # carried interval is [R_2 - Delta_2, R_2]
    assert st.interval == (pytest.approx(1.0 - 0.8), 1.0)


def test_release_epoch_critical_index_exists():
    # k = t0 always satisfies the matching equality trivially.
    from staffing_minimax.emulator import critical_switch_day
    k = critical_switch_day([1.0, 0.9], [0.0, 0.1], [0.0, 0.2], 0)
    assert k >= 0


# --- Day tables against the step path they replace ---------------------------
#
# The three functions below are the earlier step path, copied verbatim
# except for their names and the exception the split raises (the earlier
# SplitInfeasible took a message).  The day tables must reproduce their
# every output bit.

class _OldSplitInfeasible(RuntimeError):
    pass


def _old_fill_scarcest_first(total: float, caps: np.ndarray, rho: np.ndarray
                             ) -> np.ndarray:
    hires = np.zeros(len(caps))
    remaining = total
    for i in sorted(range(len(caps)), key=lambda i: (rho[i], i)):
        hires[i] = max(0.0, min(remaining, caps[i]))
        remaining -= hires[i]
        if remaining <= 1e-15:
            break
    return hires


def _old_split_hires(total: float, caps: np.ndarray, rho_today: np.ndarray
                     ) -> np.ndarray:
    if total > caps.sum() + 1e-9:
        raise _OldSplitInfeasible(
            f"day total {total:.12g} exceeds canonical caps {caps.sum():.12g}")
    return _old_fill_scarcest_first(total, caps, rho_today)


def _old_emulator_step(canonical: np.ndarray, realized: np.ndarray, day: int,
                       r_hat: float, r0: float, rho_today: np.ndarray
                       ) -> np.ndarray:
    canon_cum = float(canonical[:, :day].sum())
    real_cum = float(realized[:, :day - 1].sum())
    total = max(0.0, canon_cum - real_cum - (r0 - r_hat))
    return _old_split_hires(total, canonical[:, day - 1].astype(float),
                            rho_today)


def _old_run(canonical, availability, r0, bounds):
    """The earlier Emulator: each day's hires and realized total."""
    realized = np.zeros(canonical.shape)
    r_hat = r0
    hires, totals = [], []
    for t, bound in enumerate(bounds, start=1):
        r_hat = min(r_hat, bound)
        h = _old_emulator_step(canonical, realized, t, r_hat, r0,
                               availability[:, t - 1])
        realized[:, t - 1] = h
        hires.append(h)
        totals.append(float(realized.sum()))
    return hires, totals


def _assert_plays_as_old(canonical, availability, r0, bounds):
    """Hires and realized totals bit for bit, or the same failure day."""
    em = Emulator(canonical, availability, r0)
    try:
        old_hires, old_totals = _old_run(canonical, availability, r0, bounds)
    except _OldSplitInfeasible:
        with pytest.raises(SplitInfeasible):
            for bound in bounds:
                em.step(bound)
        return 0
    for t, bound in enumerate(bounds, start=1):
        h = em.step(bound).hires
        assert not h.flags.writeable
        assert h.dtype == old_hires[t - 1].dtype
        assert h.tobytes() == old_hires[t - 1].tobytes(), t
        assert (np.float64(em.realized.sum()).tobytes()
                == np.float64(old_totals[t - 1]).tobytes()), t
        assert (np.float64(em.tables[t - 1].canon_cum).tobytes()
                == np.float64(float(canonical[:, :t].sum())).tobytes())
    return 1


def _sequence_bounds(rng, inst):
    if np.any(inst.inconsistency != 0):
        seq = _random_valid_sequence(rng, inst)
    else:
        seq = random_nested_sequence(inst, int(rng.integers(1 << 31)))
    # What LpEmulatorPolicy hands its emulator each day.
    return [seq.interval(t).hi + inst.eps(t)
            for t in range(1, inst.horizon + 1)]


@pytest.mark.parametrize("draw", ["single", "multi"])
def test_day_tables_play_as_old_step_on_draws(draw):
    rng = np.random.default_rng(2024 if draw == "single" else 2025)
    played = 0
    for k in range(300):
        inst = (random_single_pool(rng) if draw == "single"
                else random_multi_pool(rng, 3, 10))
        if k < 10:
            canonical = minimax_value_and_profile(inst)[1]
        else:
            canonical = _random_canonical(rng, inst)
        bounds = _sequence_bounds(rng, inst)
        if k % 3 == 0:      # sharp drops, which shrink the day totals
            bounds = [b - rng.uniform(0.0, 0.5) for b in bounds]
        played += _assert_plays_as_old(canonical, inst.availability,
                                       inst.initial_range[1], bounds)
    assert played > 250


def _families(rng, bounds):
    """Bound sequences that share a prefix with `bounds`, then diverge:
    the sequence again, a raised bound (the running bound holds, so the
    day repeats) and fresh tails from random days."""
    T = len(bounds)
    out = [list(bounds), list(bounds)]
    k = int(rng.integers(T))
    out.append(bounds[:k] + [bounds[k] + 1.0] + bounds[k + 1:])
    for _ in range(4):
        k = int(rng.integers(T))
        out.append(bounds[:k] + [b - float(rng.uniform(0.0, 0.5))
                                 for b in bounds[k:]])
    return out


@pytest.fixture
def count_misses(monkeypatch):
    """A fresh day-table memo and a list that grows by one per day the
    emulator computes instead of reading from its block's day tree."""
    monkeypatch.setattr(emulator_module, "_blocks", OrderedDict())
    misses = []
    real_step = emulator_module.emulator_step
    monkeypatch.setattr(emulator_module, "emulator_step",
                        lambda *a: misses.append(a[2]) or real_step(*a))
    return misses


@pytest.mark.parametrize("draw", ["single", "multi"])
def test_day_tree_plays_as_old_step_on_families(draw, count_misses):
    rng = np.random.default_rng(2026 if draw == "single" else 2027)
    days = played = with_eps = 0
    for k in range(120):
        inst = (random_single_pool(rng) if draw == "single"
                else random_multi_pool(rng, 3, 10))
        canonical = (minimax_value_and_profile(inst)[1] if k < 10
                     else _random_canonical(rng, inst))
        bounds = _sequence_bounds(rng, inst)
        if k % 3 == 0:
            bounds = [b - rng.uniform(0.0, 0.5) for b in bounds]
        for member in _families(rng, bounds):
            played += _assert_plays_as_old(canonical, inst.availability,
                                           inst.initial_range[1], member)
            days += len(member)
        with_eps += bool(np.any(inst.inconsistency != 0))
    assert played > 700
    assert with_eps > 0 or draw == "single"
    # The repeats and shared prefixes were read from the tree.
    assert 0 < len(count_misses) < 0.7 * days


def test_day_tree_signed_zeros(count_misses):
    # 0.0 and -0.0 are one key; the day total's (...)+ gives both 0.0.
    availability = np.array([[1.0, 0.9, 0.8], [0.5, 0.5, 0.5]])
    values = [0.0, -0.0, 0.25, -0.25]
    sequences = [[a, b, c] for a in values for b in values for c in values]
    days = 0
    for canonical in (np.array([[-0.0, 0.3, -0.0], [0.0, -0.0, 0.2]]),
                      np.full((2, 3), -0.0),
                      np.array([[0.25, 0.0, 0.25], [-0.0, 0.25, 0.0]])):
        for r0 in (0.0, -0.0, 0.25, 0.0, -0.0):
            for bounds in sequences:
                assert _assert_plays_as_old(canonical, availability, r0,
                                            bounds)
                days += len(bounds)
    assert len(count_misses) < days / 4


def test_tree_days_share_one_decision(count_misses):
    # Emulators of one block that run through the same bounds get the very
    # Decision the tree holds on each day it serves: read-only hires and
    # the shared zero release vector.  A computed day returns the same
    # kind of decision.
    rng = np.random.default_rng(17)
    availability = np.array([[1.0, 0.8, 0.6, 0.5], [0.9, 0.9, 0.7, 0.2]])
    canonical = rng.uniform(0.0, 0.3, size=(2, 4))
    bounds = list(1.0 - np.cumsum(rng.uniform(0.0, 0.1, size=4)))
    first, second, third = (Emulator(canonical, availability, 1.0)
                            for _ in range(3))
    for t, bound in enumerate(bounds, start=1):
        d = first.step(bound)
        misses = len(count_misses)
        assert second.step(bound) is d
        assert third.step(bound) is d
        assert len(count_misses) == misses
        assert isinstance(d, Decision)
        assert not d.hires.flags.writeable
        assert d.releases is _no_releases((2,))
        with pytest.raises(ValueError):
            d.hires[0] = 1.0
    assert count_misses == [1, 2, 3, 4]
    off_tree = Emulator(canonical, availability, 1.0)
    d = off_tree.step(np.float32(bounds[0]))
    assert count_misses == [1, 2, 3, 4, 1]
    assert not d.hires.flags.writeable
    assert d.releases is _no_releases((2,))


def test_day_tree_two_blocks_alternating(count_misses):
    # One emulator per station, each on a strided view of one (n, m, T)
    # block, as the multi_station policies are, stepped in turn each day.
    rng = np.random.default_rng(12)
    availability = np.array([[1.0, 0.8, 0.6, 0.5], [0.9, 0.9, 0.7, 0.2]])
    block = rng.uniform(0.0, 0.3, size=(2, 2, 4))
    r0s = (1.0, 1.0)          # one R0: only the block tells them apart
    for _ in range(30):
        bounds = [list(r0 - np.cumsum(rng.choice([0.0, 0.1, 0.2], size=4)))
                  for r0 in r0s]
        old = [_old_run(block[:, j, :], availability, r0s[j], bounds[j])[0]
               for j in range(2)]
        ems = [Emulator(block[:, j, :], availability, r0s[j])
               for j in range(2)]
        assert ems[0].tree is not ems[1].tree
        for t in range(4):
            for j in range(2):
                h = ems[j].step(bounds[j][t]).hires
                assert not h.flags.writeable
                assert h.tobytes() == old[j][t].tobytes(), (j, t)
    # The memo keeps both blocks, so each station's tree serves the
    # prefixes its earlier runs played.
    assert len(count_misses) < 30 * 2 * 4


def test_block_memo_keeps_the_cap_least_recently_used(count_misses,
                                                      monkeypatch):
    # Three blocks in rotation through a memo of two: a block played again
    # before two others is a hit, and one evicted is built afresh.
    monkeypatch.setattr(emulator_module, "RELEASE_MEMO_CAP", 2)
    rng = np.random.default_rng(16)
    availability = np.array([[1.0, 0.8, 0.6, 0.5], [0.9, 0.9, 0.7, 0.2]])
    blocks = [rng.uniform(0.0, 0.3, size=(2, 4)) for _ in range(3)]
    builds = []
    real_build = emulator_module._build_day_tables
    monkeypatch.setattr(
        emulator_module, "_build_day_tables",
        lambda *a: builds.append(next(j for j, b in enumerate(blocks)
                                      if b.tobytes() == a[0].tobytes()))
        or real_build(*a))
    bounds = [1.0, 0.9, 0.7, 0.6]
    trees = {}
    for j in [0, 1, 0, 2, 0, 1] * 2:
        misses = len(count_misses)
        assert _assert_plays_as_old(blocks[j], availability, 1.0, bounds)
        assert len(emulator_module._blocks) <= 2
        tree = Emulator(blocks[j], availability, 1.0).tree
        # A kept block's tree served the whole run; a rebuilt one played it.
        assert (len(count_misses) == misses) == (trees.get(j) is tree)
        trees[j] = tree
    assert builds == [0, 1, 2, 1, 2, 1]


def test_day_tree_cap_reached_mid_sequence(count_misses, monkeypatch):
    monkeypatch.setattr(emulator_module, "DAY_TREE_CAP", 5)
    rng = np.random.default_rng(13)
    availability = np.ones((2, 8))
    canonical = rng.uniform(0.0, 0.2, size=(2, 8))
    bounds = list(1.0 - np.cumsum(rng.uniform(0.0, 0.1, size=8)))
    # The root and days 1-4 fill the tree; days 5-8 are computed.
    assert _assert_plays_as_old(canonical, availability, 1.0, bounds)
    assert count_misses == list(range(1, 9))
    tree = Emulator(canonical, availability, 1.0).tree
    assert tree.size == 5
    # Days 1-4 are read from the tree, the rest computed again.
    del count_misses[:]
    assert _assert_plays_as_old(canonical, availability, 1.0, bounds)
    assert count_misses == list(range(5, 9))
    # A branch after day 2 and a new root find no room.
    del count_misses[:]
    branch = bounds[:2] + [b - 0.05 for b in bounds[2:]]
    assert _assert_plays_as_old(canonical, availability, 1.0, branch)
    assert _assert_plays_as_old(canonical, availability, 0.9, bounds)
    assert count_misses == list(range(3, 9)) + list(range(1, 9))
    assert tree.size == 5


def test_day_tree_plays_non_double_bounds_off_the_tree(count_misses):
    # A float32 bound equal to a double one computes in float32: it must
    # not be served the double's hires.
    availability = np.ones((1, 2))
    canonical = np.array([[0.5, 0.5]])
    as_double = [float(np.float32(0.1)), float(np.float32(0.05))]
    as_single = [np.float32(0.1), np.float32(0.05)]
    assert as_double == as_single

    def direct(bounds):
        tables = day_tables(canonical, availability)
        realized, r_hat, out = np.zeros((1, 2)), 1.0, []
        for t, bound in enumerate(bounds, start=1):
            r_hat = min(r_hat, bound)
            out.append(emulator_step(tables[t - 1], realized, t, r_hat, 1.0))
            realized[:, t - 1] = out[-1]
        return out

    expected = {id(b): direct(b) for b in (as_double, as_single)}
    assert (expected[id(as_single)][1].tobytes()
            != expected[id(as_double)][1].tobytes())
    for bounds in (as_double, as_single, as_double):
        em = Emulator(canonical, availability, 1.0)
        for t, bound in enumerate(bounds):
            h = em.step(bound).hires
            assert h.dtype == expected[id(bounds)][t].dtype
            assert h.tobytes() == expected[id(bounds)][t].tobytes()
    assert count_misses == [1, 2, 1, 2]


def test_day_tables_keep_the_order_on_availability_ties():
    rng = np.random.default_rng(7)
    availability = np.array([[1.0, 0.8, 0.8, 0.5],
                             [1.0, 0.8, 0.6, 0.5],
                             [1.0, 0.9, 0.6, 0.5]])
    for _ in range(50):
        canonical = rng.uniform(0.0, 0.4, size=(3, 4))
        bounds = list(1.5 - np.cumsum(rng.uniform(0.0, 0.3, size=4)))
        assert _assert_plays_as_old(canonical, availability, 1.5, bounds)
    assert day_tables(canonical, availability)[0].order == (0, 1, 2)


def test_day_tables_on_closed_pools():
    # rho = 0 sorts first; a closed pool's cap may still be positive.
    rng = np.random.default_rng(8)
    availability = np.array([[1.0, 0.0, 0.0],
                             [0.7, 0.7, 0.0],
                             [0.0, 0.0, 0.0]])
    for _ in range(50):
        canonical = rng.uniform(0.0, 0.4, size=(3, 3)) * (rng.uniform(
            size=(3, 3)) < 0.7)
        bounds = list(1.2 - np.cumsum(rng.uniform(0.0, 0.4, size=3)))
        assert _assert_plays_as_old(canonical, availability, 1.2, bounds)


def test_day_tables_keep_negative_zeros():
    availability = np.array([[1.0, 0.9, 0.8], [0.5, 0.5, 0.5]])
    for canonical in (np.array([[-0.0, 0.3, -0.0], [0.0, -0.0, 0.2]]),
                      np.full((2, 3), -0.0),
                      np.array([[-0.0, 0.0, -0.0], [-0.0, -0.0, 0.0]])):
        for bounds in ([1.0, 1.0, 1.0], [1.0, 0.5, 0.1], [0.0, 0.0, 0.0]):
            assert _assert_plays_as_old(canonical, availability, 1.0, bounds)
    caps = day_tables(np.full((2, 3), -0.0), availability)[0].caps
    assert [np.float64(c).tobytes() for c in caps] == \
        [np.float64(-0.0).tobytes()] * 2


def test_day_tables_follow_the_memory_order():
    # NumPy sums a view in memory order, so a C- and an F-ordered block
    # with equal values may sum to different last bits; each keeps its own.
    rng = np.random.default_rng(9)
    availability = np.ones((3, 12))
    for _ in range(20):
        c = rng.uniform(size=(3, 12)) * 10.0 ** rng.uniform(-5, 5, (3, 12))
        f = np.asfortranarray(c)
        for canonical in (c, f, c):
            assert _assert_plays_as_old(canonical, availability, 1e6,
                                        [1e6] * 12)


def test_epoch_runner_plays_as_old_step():
    rng = np.random.default_rng(10)
    inst = make_instance([1.0, 1.5], [[1.0, 0.8, 0.6, 0.5],
                                      [0.9, 0.9, 0.7, 0.2]], (0, 1),
                         [1.0, 0.8, 0.6, 0.4])
    ri = ReleaseInstance(base=inst, budget=5.0, epoch_breaks=(3, 4),
                         release_fees=(0.1, 0.1))
    state = fresh_state(inst, ri.budget, ri.pre_hires)
    for _ in range(20):
        canonical = rng.uniform(0.0, 0.3, size=(2, 3))
        his = list(1.0 - np.cumsum(rng.uniform(0.0, 0.2, size=3)))
        policy = ReleasePolicy(ri)
        policy._open_epoch((0.0, canonical, {0: np.zeros(2)}))
        old_hires, old_totals = _old_run(
            canonical, state.availability[:, policy.t0:], policy.r_bar, his)
        for idx, hi in enumerate(his):
            d = policy.step(DayObservation(idx + 1,
                                           PredictionInterval(hi - 0.3, hi)))
            assert d.hires.tobytes() == old_hires[idx].tobytes()
            assert (np.float64(policy.realized_cum[-1]).tobytes()
                    == np.float64(old_totals[idx]).tobytes())
        assert policy.canon_cum == [0.0] + [
            float(canonical[:, :d].sum()) for d in (1, 2, 3)]
        assert policy.state.index == 2      # the epoch ended on day 3


def test_fill_scarcest_first_as_old():
    rng = np.random.default_rng(11)
    for _ in range(500):
        n = int(rng.integers(1, 6))
        caps = rng.uniform(-0.1, 1.0, size=n) * (rng.uniform(size=n) < 0.8)
        caps[rng.uniform(size=n) < 0.1] = -0.0
        rho = rng.choice([0.0, 0.3, 0.5, 1.0], size=n)
        total = float(rng.uniform(0.0, 1.5 * n))
        new = fill_scarcest_first(total, caps, rho)
        assert new.tobytes() == _old_fill_scarcest_first(total, caps,
                                                         rho).tobytes()


def test_float32_total_fills_float64_as_old():
    # A NumPy float32 day total (from a float32 forecast bound) fills
    # float64 hires with the values the earlier fill gave: its remainder
    # turned double at the first pool, as a float32 one must not stay.
    rng = np.random.default_rng(12)
    for _ in range(300):
        n = int(rng.integers(1, 5))
        caps = rng.uniform(0.0, 1.0, size=n)
        rho = rng.choice([0.0, 0.3, 0.5, 1.0], size=n)
        total = np.float32(rng.uniform(0.0, 1.5 * n))
        new = fill_scarcest_first(total, caps, rho)
        assert new.dtype == np.float64
        assert new.tobytes() == _old_fill_scarcest_first(total, caps,
                                                         rho).tobytes()
    played = 0
    for _ in range(60):
        n = int(rng.integers(2, 4))
        canonical = rng.uniform(0.0, 0.5, size=(n, 4))
        availability = rng.choice([0.3, 0.5, 1.0], size=(n, 4))
        r0 = float(canonical.sum())
        bounds = [np.float32(b) for b in
                  np.sort(rng.uniform(0.0, r0, size=4))[::-1]]
        played += _assert_plays_as_old(canonical, availability, r0, bounds)
    assert played > 0


def test_day_tables_memo_is_keyed_by_content():
    availability = np.ones((2, 3))
    a = np.arange(6.0).reshape(2, 3)
    tables_a = day_tables(a, availability)
    assert day_tables(a.copy(), availability.copy()) is tables_a
    # A wider availability is read over the block's days only.
    assert day_tables(a, np.ones((2, 7))) is tables_a
    # Other availability: other tables.
    other = day_tables(a, np.array([[0.5, 1.0, 1.0], [1.0, 0.5, 1.0]]))
    assert [d.order for d in other] == [(0, 1), (1, 0), (0, 1)]
    # The memo keeps both blocks.
    assert day_tables(a, availability) is tables_a
    # Equal bytes and strides, other shape: other tables.
    wide = np.zeros((3, 3))
    wide[:, :2] = np.arange(6.0).reshape(3, 2)
    b = wide[:, :2]
    assert b.tobytes() == a.tobytes() and b.strides == a.strides
    tables_b = day_tables(b, np.ones((3, 2)))
    assert len(tables_a) == 3 and len(tables_b) == 2
    assert tables_b[0].caps == (0.0, 2.0, 4.0)
    # Mutated in place: a miss, and the tables read the new values.
    tables_b2 = day_tables(b, np.ones((3, 2)))
    assert tables_b2 is tables_b
    b[0, 0] = 5.0
    tables_b3 = day_tables(b, np.ones((3, 2)))
    assert tables_b3 is not tables_b
    assert tables_b3[0].caps == (5.0, 2.0, 4.0)
    assert tables_b3[0].canon_cum == 11.0


def test_emulators_of_one_block_share_tables(monkeypatch):
    inst = fig3_instance("a")
    gamma, canonical = minimax_value_and_profile(inst)
    builds = []
    real_build = emulator_module._build_day_tables
    monkeypatch.setattr(emulator_module, "_build_day_tables",
                        lambda *a: builds.append(1) or real_build(*a))
    monkeypatch.setattr(emulator_module, "_blocks", OrderedDict())
    first = LpEmulatorPolicy(inst, canonical, gamma)
    assert LpEmulatorPolicy(inst, canonical.copy(), gamma).emulator.tables \
        is first.emulator.tables
    assert len(builds) == 1
    # The shock wrapper builds an emulator on every clean day: all hits.
    from staffing_minimax.policies import MiscoverageWrapper
    seq = random_nested_sequence(inst, 3)
    shocked = [t % 3 == 1 for t in range(inst.horizon)]
    play(MiscoverageWrapper(first, "detect_before_hiring", shocked), inst,
         seq)
    assert len(builds) == 1


def test_split_infeasible_names_day_total_caps_and_tolerance():
    table = day_tables(np.array([[0.4], [0.3], [0.2]]), np.ones((3, 1)))[0]
    with pytest.raises(SplitInfeasible) as info:
        split_hires(1.0, table, 7)
    err = info.value
    assert (err.day, err.total, err.tol) == (7, 1.0, 1e-9)
    assert err.caps_sum == float(np.array([0.4, 0.3, 0.2]).sum())
    assert str(err) == ("day 7: day total 1 exceeds canonical caps 0.9 "
                        "by more than 1e-09")
    # Through the emulator: a negative day-2 cap leaves the caps below the
    # day total 0.
    em = Emulator(np.array([[0.5, -0.25]]), np.ones((1, 2)), 1.0)
    em.step(1.0)
    with pytest.raises(SplitInfeasible) as info:
        em.step(1.0)
    assert (info.value.day, info.value.total, info.value.caps_sum) == \
        (2, 0.0, -0.25)


# --- The realized block, filled at the first miss or read ---------------------

def _eager_block(canonical, availability, r0, bounds):
    """The realized block the earlier emulator wrote day by day."""
    block = np.zeros(canonical.shape)
    for t, h in enumerate(_old_run(canonical, availability, r0, bounds)[0],
                          start=1):
        block[:, t - 1] = h
    return block


@pytest.mark.parametrize("cap", [9, 60])
def test_realized_is_the_eager_block_after_hits_and_misses(
        cap, count_misses, monkeypatch):
    # The tree fills mid-run, so runs go from hits to misses; some read
    # the block on the way, which fills it early.
    monkeypatch.setattr(emulator_module, "DAY_TREE_CAP", cap)
    rng = np.random.default_rng(15)
    runs = []
    for which in "abc":
        inst = fig3_instance(which)
        canonical = minimax_value_and_profile(inst)[1]
        for seq in enumerate_grid_sequences(inst, 0.5) + [
                random_nested_sequence(inst, s) for s in range(20)]:
            runs.append((inst, canonical,
                         [seq.interval(t).hi
                          for t in range(1, inst.horizon + 1)]))
    for k in range(40):
        inst = random_multi_pool(rng, 3, 8)
        canonical = (minimax_value_and_profile(inst)[1] if k < 5
                     else _random_canonical(rng, inst))
        runs += [(inst, canonical, member)
                 for member in _families(rng, _sequence_bounds(rng, inst))]
    hit_then_miss = reads = 0
    for inst, canonical, bounds in runs:
        r0 = inst.initial_range[1]
        try:
            eager = _eager_block(canonical, inst.availability, r0, bounds)
        except _OldSplitInfeasible:
            continue
        em = Emulator(canonical, inst.availability, r0)
        read_after = set(rng.integers(1, len(bounds) + 1,
                                      size=int(rng.integers(0, 3))))
        hit = False
        for t, bound in enumerate(bounds, start=1):
            misses = len(count_misses)
            em.step(bound)
            if len(count_misses) == misses:
                hit = True
            elif hit:
                hit_then_miss += 1
                hit = False
            if t in read_after:
                reads += 1
                assert em.realized[:, :t].tobytes() == eager[:, :t].tobytes()
                assert em.realized[:, t:].tobytes() == \
                    np.zeros_like(eager[:, t:]).tobytes()
        assert em.realized.tobytes() == eager.tobytes()
        assert em.path == []
    assert hit_then_miss > 20 and reads > 20


def test_all_hit_replay_writes_no_realized_block(count_misses):
    inst = fig3_instance("c")
    gamma, canonical = minimax_value_and_profile(inst)
    seq = random_nested_sequence(inst, 5)
    first = LpEmulatorPolicy(inst, canonical, gamma)
    play(first, inst, seq)
    assert count_misses == list(range(1, inst.horizon + 1))
    assert first.emulator._realized is not None
    again = LpEmulatorPolicy(inst, canonical, gamma)
    plan = play(again, inst, seq)
    assert len(count_misses) == inst.horizon            # all hits
    # No block was allocated, so none was written; the days wait on the path.
    assert again.emulator._realized is None
    assert [day for day, _ in again.emulator.path] == list(
        range(1, inst.horizon + 1))
    assert all(not h.flags.writeable for _, h in again.emulator.path)
    assert again.emulator.realized.tobytes() == plan.hires.tobytes()
    assert again.emulator.realized.tobytes() == \
        first.emulator.realized.tobytes()
    assert again.emulator.path == []


def test_epoch_runner_realized_cum_as_eager_on_release_demo(monkeypatch):
    ri = validate_release_instance(load_instance(
        instance_path("release_demo.json")))
    opened, ended = [], []
    open_epoch, end_epoch = ReleasePolicy._open_epoch, ReleasePolicy._end_epoch

    def recorded_open(self, program):
        open_epoch(self, program)
        opened.append((program[1], self.state.availability[:, self.t0:],
                       self.r_bar))

    def recorded_end(self):
        ended.append((self.r_observed, self.realized_cum,
                      self.emulator.realized.copy()))
        return end_epoch(self)

    monkeypatch.setattr(ReleasePolicy, "_open_epoch", recorded_open)
    monkeypatch.setattr(ReleasePolicy, "_end_epoch", recorded_end)
    sequences = enumerate_grid_sequences(ri.base, 0.5) + [
        random_nested_sequence(ri.base, s) for s in range(20)]
    memo = OrderedDict()
    for seq in sequences:
        play(ReleasePolicy(ri, memo), ri.base, seq)
    assert len(opened) == len(ended) == 2 * len(sequences)
    for (canonical, availability, r_bar), (r_observed, realized_cum,
                                           realized) in zip(opened, ended):
        bounds = r_observed[1:]
        old_hires, old_totals = _old_run(canonical, availability, r_bar,
                                         bounds)
        assert [np.float64(x).tobytes() for x in realized_cum] == [
            np.float64(x).tobytes() for x in [0.0] + old_totals]
        assert realized.tobytes() == _eager_block(
            canonical, availability, r_bar, bounds).tobytes()
