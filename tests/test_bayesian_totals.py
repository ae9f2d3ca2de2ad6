"""The Bayesian world's running totals against the code they replaced.

The world's partials and sampled profiles are binomial counts (integers of
at most 5 stored as doubles), so every partial sum of them is exact in any
order.  `sample_world` draws them in one binomial call, and the point
estimator, the naive policies and the MDP's pmfs read running totals in
place of the per-day reductions.  Each test below writes the earlier code
in and compares bit for bit.
"""

import json
import math

import numpy as np
import pytest

from conftest import instance_path
from staffing_minimax.bayesian import (
    BINOM_TRIALS, CalibrationTable, DemandProcess, MdpPolicy, MdpSpec,
    NaiveBayesianPolicy, NaiveGreedyPolicy, SampleTotals, forecast_instance,
    point_estimator)
from staffing_minimax.model import (PredictionSequence, SupplyLedger,
                                    make_instance)
from staffing_minimax.policies import DayObservation, Decision, play


# --- The earlier code, as it was ---------------------------------------------

def _old_sample_world(process, rng):
    """Priors, partials and profiles drawn with one binomial call a day."""
    T = process.horizon
    priors = rng.uniform(0.0, process.prior_hi, size=T)
    partials = rng.binomial(BINOM_TRIALS, priors).astype(float)
    profiles = [rng.binomial(BINOM_TRIALS, priors[t:]).astype(float)
                for t in range(1, T + 1)]
    return priors, partials, profiles


def _old_point_estimator(partials_so_far, profiles_so_far):
    t = len(partials_so_far)
    realized = float(np.sum(partials_so_far))
    future = 0.0
    for tau, prof in enumerate(profiles_so_far, start=1):
        future += float(np.sum(prof[t - tau:]))
    return realized + future / t


def _old_lower_quantile(samples, q):
    xs = np.sort(np.asarray(samples, float))
    idx = max(1, math.ceil(q * len(xs)))
    return float(xs[idx - 1])


class _OldGreedyTowardTarget:
    """The masked fill: open pools only, scarcest first, into np.zeros."""

    def __init__(self, inst):
        self.inst = inst
        self.ledger = SupplyLedger(inst)
        self.total = 0.0
        self.day = 0

    def _hire_toward(self, target):
        t = self.day
        rho_t = self.inst.availability[:, t - 1]
        live = rho_t > 0
        caps = np.array(self.ledger.available(t))[live]
        rho = rho_t[live]
        fill = np.zeros(len(caps))
        remaining = max(0.0, target - self.total)
        for i in sorted(range(len(caps)), key=lambda i: (rho[i], i)):
            fill[i] = max(0.0, min(remaining, caps[i]))
            remaining -= fill[i]
            if remaining <= 1e-15:
                break
        hires = np.zeros(self.inst.n_pools)
        hires[live] = fill
        self.ledger.book(t, hires)
        self.total += float(hires.sum())
        return hires


class _OldNaiveGreedy(_OldGreedyTowardTarget):
    def step(self, obs):
        self.day += 1
        inst = self.inst
        target = ((inst.over_cost * obs.interval.lo
                   + inst.under_cost * obs.interval.hi)
                  / (inst.over_cost + inst.under_cost))
        return Decision.hire_only(self._hire_toward(target))


class _OldNaiveBayesian(_OldGreedyTowardTarget):
    def __init__(self, inst):
        super().__init__(inst)
        self.realized = 0.0
        self.profiles = []

    def step(self, obs):
        self.day += 1
        t = self.day
        self.realized += float(obs.partial)
        self.profiles.append(np.asarray(obs.samples, float))
        draws = [self.realized + float(np.sum(prof[t - tau:]))
                 for tau, prof in enumerate(self.profiles, start=1)]
        q = self.inst.under_cost / (self.inst.under_cost + self.inst.over_cost)
        return Decision.hire_only(
            self._hire_toward(_old_lower_quantile(draws, q)))


def _old_pmfs(policy):
    """`MdpPolicy._pmfs` as it was: a cast, a mask and a per-row sum."""
    counts = policy.counts[policy.day + 1:].astype(float)
    counts[counts.sum(axis=1) == 0] = 1.0
    return dict(zip(range(policy.day + 1, policy.inst.horizon + 1),
                    counts / counts.sum(axis=1, keepdims=True)))


# --- Worlds -------------------------------------------------------------------

def _bench_world(name):
    with open(instance_path(f"{name}.json")) as f:
        config = json.load(f)
    proc = DemandProcess(int(config["horizon"]), float(config["prior_hi"]))
    table = CalibrationTable.from_dict(config["calibration"])
    inst = forecast_instance(
        config["pool_sizes"], config["availability"], table,
        float(config["under_cost"]), float(config["over_cost"]), proc)
    return inst, proc, table, int(config["seed"])


@pytest.mark.parametrize("horizon,prior_hi", [(14, 0.5), (5, 0.5), (1, 0.5),
                                              (3, 0.9), (2, 0.0)])
def test_sample_world_draws_as_per_day_calls(horizon, prior_hi):
    proc = DemandProcess(horizon, prior_hi)
    for seed in range(200):
        rng, old_rng = (np.random.default_rng([seed, 4]) for _ in range(2))
        world = proc.sample_world(rng)
        priors, partials, profiles = _old_sample_world(proc, old_rng)
        assert world.priors.tobytes() == priors.tobytes()
        assert world.partials.dtype == partials.dtype
        assert world.partials.tobytes() == partials.tobytes()
        assert len(world.profiles) == len(profiles) == horizon
        for got, want in zip(world.profiles, profiles):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        assert rng.bit_generator.state == old_rng.bit_generator.state
        assert rng.random() == old_rng.random()


def test_world_partials_and_profiles_are_counts():
    # The running totals are exact only on integer counts.
    for T in (1, 5, 14):
        proc = DemandProcess(T)
        for seed in range(50):
            world = proc.sample_world(np.random.default_rng([seed, 8]))
            for counts in [world.partials, *world.profiles]:
                assert counts.dtype == np.float64
                assert np.array_equal(counts, np.floor(counts))
                assert np.all((0 <= counts) & (counts <= BINOM_TRIALS))


def _intervals(world, table, hi_cap):
    """Each day's point estimate (old and running) and the interval the
    world's run builds from it."""
    T = len(world.partials)
    totals = SampleTotals()
    intervals = []
    for t in range(1, T + 1):
        totals.observe(world.partials[t - 1], world.profiles[t - 1])
        est = point_estimator(totals)
        old = _old_point_estimator(world.partials[:t], world.profiles[:t])
        assert repr(est) == repr(old), t
        lo = min(max(est - table.lower[t - 1], 0.0), hi_cap)
        hi = min(max(est + table.upper[t - 1], 0.0), hi_cap)
        intervals.append((min(lo, hi), hi))
    return intervals


@pytest.mark.parametrize("name", ["bench_short", "bench_long"])
def test_naive_policies_play_as_old(name):
    inst, proc, table, seed = _bench_world(name)
    for rep in range(60):
        world = proc.sample_world(np.random.default_rng([seed, rep]))
        sequence = PredictionSequence.build(
            inst, _intervals(world, table, proc.max_demand))
        for new, old in ((NaiveBayesianPolicy, _OldNaiveBayesian),
                         (NaiveGreedyPolicy, _OldNaiveGreedy)):
            got = play(new(inst), inst, sequence, world=world)
            want = play(old(inst), inst, sequence, world=world)
            assert got.hires.tobytes() == want.hires.tobytes(), (rep, new)


def test_naive_bayesian_reads_profiles_of_any_length():
    # A profile shorter than the days left runs out into zeros; a longer
    # one keeps its extra entries, as the summing code did.
    inst = make_instance([9.0, 4.0], [[1.0] * 4, [0.5] * 4], (0, 30),
                         [30.0] * 4, under_cost=2.0)
    days = [(1.0, [2.0, 0.0]), (3.0, [4.0, 1.0, 5.0, 2.0]), (0.0, []),
            (2.0, [1.0])]
    new, old = NaiveBayesianPolicy(inst), _OldNaiveBayesian(inst)
    for t, (partial, samples) in enumerate(days, start=1):
        obs = DayObservation(t, None, partial, np.array(samples))
        assert new.step(obs).hires.tobytes() == old.step(obs).hires.tobytes()
        assert new.totals.remaining == [float(np.sum(prof[t - tau:])) for
                                        tau, prof in enumerate(old.profiles,
                                                               start=1)]
        assert repr(point_estimator(new.totals)) == repr(
            _old_point_estimator([p for p, _ in days[:t]], old.profiles))


def _fill_cases():
    # Three pools with tied rho (and a fourth that closes), a closed pool on
    # some days, and a pool of size 0.
    yield make_instance([2.0, 1.5, 3.0, 1.0],
                        [[0.5, 0.5, 0.7, 0.2], [0.5, 0.9, 0.7, 0.2],
                         [0.5, 0.5, 0.7, 0.2], [0.3, 0.0, 0.7, 0.0]],
                        (0, 20), [20.0] * 4)
    yield make_instance([2.0, 0.0, 1.5],
                        [[1.0, 0.0, 0.4], [0.6, 0.6, 0.6], [0.0, 0.9, 0.0]],
                        (0, 20), [20.0] * 3)


@pytest.mark.parametrize("case", [0, 1])
def test_hire_toward_fills_as_masked_fill(case):
    inst = list(_fill_cases())[case]
    rng = np.random.default_rng(case)
    for _ in range(300):
        new, old = NaiveGreedyPolicy(inst), _OldGreedyTowardTarget(inst)
        for t in range(1, inst.horizon + 1):
            new.day = old.day = t
            target = float(rng.uniform(-1.0, 8.0))
            got, want = new._hire_toward(target), old._hire_toward(target)
            assert got.dtype == want.dtype == np.float64
            assert got.tobytes() == want.tobytes(), t
            assert repr(new.total) == repr(old.total)
            assert new.ledger.usage == old.ledger.usage


def _mdp_days(proc, seed, gaps):
    """The seeded world's observations, with no samples on `gaps` days."""
    world = proc.sample_world(np.random.default_rng([seed, 2]))
    for t in range(1, proc.horizon + 1):
        yield DayObservation(t, None, float(world.partials[t - 1]),
                             None if t in gaps else world.profiles[t - 1])


@pytest.mark.parametrize("gaps", [(), (1,), (2, 3), (1, 2, 3, 4)])
def test_mdp_pmfs_as_old(gaps):
    inst = make_instance([2.0, 2.0], [[1.0, 0.8, 0.6, 0.5, 0.2],
                                      [0.9, 0.6, 0.3, 0.0, 0.4]],
                         (0, 25), [25.0] * 5)
    proc = DemandProcess(5)
    spec = MdpSpec(grid_levels=3)
    for seed in range(4):
        pol = MdpPolicy(inst, proc, spec)
        # Before day 1, then after each day's step: the state each day's
        # re-solve reads.
        for obs in [None, *_mdp_days(proc, seed, gaps)]:
            if obs is not None:
                pol.step(obs)
            got, want = pol._pmfs(), _old_pmfs(pol)
            assert list(got) == list(want)
            for k in got:
                assert got[k].tobytes() == want[k].tobytes(), (obs, k)


def test_mdp_rejects_a_short_profile():
    inst = make_instance([2.0], [[1.0, 1.0, 1.0]], (0, 15), [15.0] * 3)
    pol = MdpPolicy(inst, DemandProcess(3), MdpSpec(grid_levels=3))
    with pytest.raises(ValueError, match="day 1's samples cover 1 of the 2"):
        pol.step(DayObservation(1, None, 1.0, np.array([2.0])))
