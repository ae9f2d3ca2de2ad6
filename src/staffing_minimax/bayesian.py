"""Bayesian benchmark world: demand process, calibrated intervals, heuristic
policies, and discretized MDP baselines.

Total demand accumulates from per-day partial demands, each Binomial(5, xi_t)
with a uniform random prior xi_t.  Each day the platform also receives one
sampled trajectory of the remaining partials, sharing the hidden priors.
Point estimates plus empirically calibrated offsets turn these into interval
forecasts for the minimax policies; the heuristics and MDPs consume the
samples directly.

Partials and samples are binomial counts, integers of at most BINOM_TRIALS
stored as doubles: their partial sums are exact in any order, which lets
`SampleTotals` keep them as running totals.
"""

from __future__ import annotations

import math
import numbers
import time
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .emulator import _fill, _scarcest_first
from .model import (Instance, PredictionSequence, SupplyLedger,
                    imbalance_cost, make_instance, staffing_cost,
                    validate_instance)
from .policies import DayObservation, Decision, play

BINOM_TRIALS = 5
# Rows per uniform and binomial call in calibration (`_row_sums`): a day
# holds its row sums and one block, never all its (draws, days) uniforms.
CALIBRATION_BLOCK = 2_048


class InsufficientDraws(ValueError):
    pass


class StateExplosion(RuntimeError):
    pass


@dataclass(frozen=True)
class DemandProcess:
    """Per-day priors xi_t ~ U(0, prior_hi); partials Binomial(5, xi_t)."""

    horizon: int
    prior_hi: float = 0.5

    @property
    def max_demand(self) -> float:
        return float(BINOM_TRIALS * self.horizon)

    def marginal_pmf(self) -> np.ndarray:
        """Exact per-day marginal of a partial demand (same for every day).

        P(j) = (1/p) * C(5,j) * int_0^p xi^j (1-xi)^(5-j) dxi, expanded as a
        polynomial so no special functions are needed.
        """
        p = self.prior_hi
        pmf = np.zeros(BINOM_TRIALS + 1)
        for j in range(BINOM_TRIALS + 1):
            total = 0.0
            for mth in range(BINOM_TRIALS - j + 1):
                total += (math.comb(BINOM_TRIALS - j, mth) * (-1.0) ** mth
                          * p ** (j + mth) / (j + mth + 1))
            pmf[j] = math.comb(BINOM_TRIALS, j) * total
        return pmf / pmf.sum()

    def sample_world(self, rng: np.random.Generator) -> "World":
        """T priors, then the partials and the T profiles in one binomial
        draw over priors[t:] for t = 0..T, split into its T + 1 pieces.

        A draw over an array takes its variates from the stream element by
        element, so this takes the variates of a draw for the partials and
        one for each profile, in that order, and leaves the generator in
        the same state.  The counts are integers of at most BINOM_TRIALS,
        stored as doubles; the partials and profiles are views of one array.
        """
        T = self.horizon
        priors = rng.uniform(0.0, self.prior_hi, size=T)
        counts = rng.binomial(BINOM_TRIALS, np.concatenate(
            [priors[t:] for t in range(T + 1)])).astype(float)
        # Piece t (t = 0..T) holds T - t counts and starts at t*T - t(t-1)/2.
        starts = [t * T - t * (t - 1) // 2 for t in range(T + 2)]
        partials, *profiles = [counts[a:b]
                               for a, b in zip(starts, starts[1:])]
        return World(priors, partials, profiles)


@dataclass(frozen=True)
class World:
    """One realization: hidden priors, realized partials, and the sampled
    future-partial profile revealed on each day (profiles[t-1][j] samples
    day t+1+j)."""

    priors: np.ndarray
    partials: np.ndarray
    profiles: List[np.ndarray]

    @property
    def demand(self) -> float:
        return float(self.partials.sum())


class SampleTotals:
    """Running totals of what a world has revealed through day `day`.

    `realized` sums the partials observed so far.  `remaining[tau - 1]`
    sums day tau's profile over the days after `day`, and `future` sums
    `remaining`.  Day tau's profile covers days tau+1..T, so each
    `observe` adds the day's partial and its profile's total, and takes
    from every earlier profile the one entry that has just fallen into the
    past (a profile shorter than the days left runs out into zeros).

    Count premise: on the world's counts (integers stored as doubles)
    every partial sum is exact, so these totals equal `sum(partials[:t])`
    and each `sum(profile[t - tau:])` bit for bit.  On non-integer samples
    they are the same sums rounded in another order.
    """

    def __init__(self):
        self.day = 0
        self.realized = 0.0
        self.future = 0.0
        self.remaining: List[float] = []
        self._entries: List[Iterator[float]] = []

    def observe(self, partial: float, samples: Sequence[float]) -> None:
        self.day += 1
        self.realized += float(partial)
        remaining = self.remaining
        for i, entries in enumerate(self._entries):
            past = next(entries, 0.0)
            remaining[i] -= past
            self.future -= past
        profile = np.asarray(samples, float).tolist()
        total = sum(profile, 0.0)
        remaining.append(total)
        self.future += total
        self._entries.append(iter(profile))


def point_estimator(totals: SampleTotals) -> float:
    """Realized total plus the average sampled future total on day t =
    `totals.day`: O(1) from the running totals.

    Day-tau profiles cover days tau+1..T; only their entries beyond day t
    contribute.  On count data this is bit for bit the value of summing
    the revealed arrays again (`SampleTotals`).
    """
    if totals.day < 1:
        raise ValueError("need at least one observed day")
    return totals.realized + totals.future / totals.day


@dataclass(frozen=True)
class CalibrationTable:
    """Per-day interval offsets (l_t, r_t) hitting the target coverage.

    Also carries the day-0 interval (offsets around the prior demand mean,
    calibrated the same way) that the minimax policies use as their initial
    demand range.
    """

    lower: np.ndarray
    upper: np.ndarray
    coverage: float = 0.95
    prior_mean: float = 0.0
    lower0: float = 0.0
    upper0: float = 0.0

    def width(self) -> np.ndarray:
        return self.lower + self.upper

    def initial_range(self, cap: float) -> Tuple[float, float]:
        lo = min(max(self.prior_mean - self.lower0, 0.0), cap)
        hi = min(max(self.prior_mean + self.upper0, 0.0), cap)
        return lo, max(lo, hi)

    def to_dict(self) -> dict:
        return {"lower": self.lower.tolist(), "upper": self.upper.tolist(),
                "coverage": self.coverage, "prior_mean": self.prior_mean,
                "lower0": self.lower0, "upper0": self.upper0}

    @staticmethod
    def from_dict(d: dict) -> "CalibrationTable":
        return CalibrationTable(np.asarray(d["lower"], float),
                                np.asarray(d["upper"], float),
                                float(d.get("coverage", 0.95)),
                                float(d.get("prior_mean", 0.0)),
                                float(d.get("lower0", 0.0)),
                                float(d.get("upper0", 0.0)))


def _row_sums(seed: Sequence[int], hi: float, draws: int, k: int,
              trials: Sequence[int]) -> List[np.ndarray]:
    """For each n in `trials`, the row sums of Binomial(n, xi) over
    xi = uniform(0, hi, size=(draws, k)), drawn from `default_rng(seed)`:
    the uniforms, then one binomial pass per n, as one call each would.

    Each pass runs CALIBRATION_BLOCK rows at a time, on that block's
    uniforms drawn again from a fresh `default_rng(seed)`, so no (draws, k)
    array is held.  The binomial generator starts past the uniforms
    (`advance(draws * k)`: a uniform double takes one 64-bit output).
    """
    rng = np.random.default_rng(seed)
    rng.bit_generator.advance(draws * k)
    passes = []
    for n in trials:
        uniforms = np.random.default_rng(seed)
        sums = np.empty(draws, np.int64)
        for a in range(0, draws, CALIBRATION_BLOCK):
            xi = uniforms.uniform(0.0, hi, size=(
                min(CALIBRATION_BLOCK, draws - a), k))
            sums[a:a + len(xi)] = rng.binomial(n, xi).sum(axis=1)
        passes.append(sums)
    return passes


def _residual_draws(process: DemandProcess, t: int, draws: int,
                    seed: Sequence[int]) -> np.ndarray:
    """Residual (future actual - averaged sampled future) at day t < T,
    from the day's own generator `default_rng(seed)`.

    Summing the t sampled trajectories day by day is a Binomial(5t, xi_k)
    draw, which keeps calibration exact and fast.
    """
    actual, pooled = _row_sums(seed, process.prior_hi, draws,
                               process.horizon - t,
                               (BINOM_TRIALS, BINOM_TRIALS * t))
    return actual - pooled / t


def _per_day(work: Callable, days: Sequence) -> list:
    """`[work(day) for day in days]`, two days at a time: the calling
    thread and one pool worker pop days from one deque (its pops are
    thread-safe).  Calibration's later days take less time, so the two
    threads finish close together.  `concurrent.futures` is imported only
    when a calibration runs.
    """
    from concurrent.futures import ThreadPoolExecutor

    todo = deque(enumerate(days))
    results = [None] * len(todo)

    def drain() -> None:
        while True:
            try:
                i, day = todo.popleft()
            except IndexError:
                return
            results[i] = work(day)

    with ThreadPoolExecutor(max_workers=1) as pool:
        helper = pool.submit(drain)
        drain()
        helper.result()
    return results


def calibrate_intervals(process: DemandProcess, coverage: float = 0.95,
                        draws: int = 20_000, seed: int = 0
                        ) -> CalibrationTable:
    """Empirical tail quantiles of the per-day point-estimate residuals.

    Each day draws from its own generator: day t (1..T-1) its residuals
    from `default_rng([seed, t])`, the day-0 interval from
    `default_rng([seed, 0])`.  No day's numbers depend on when another
    runs, so `_per_day` runs two at a time; nearly all their time is
    `Generator.binomial`, which releases the GIL.  Its thread pool lives
    inside this call, so no thread outlives it (`bench --workers` forks
    after calibrating).  Each day's draws run in row blocks (`_row_sums`):
    a draw over an array takes its variates element by element, and the
    generator keeps its binomial set-up between calls, so the blocks take
    the variates of one call, and integer row sums are exact.  The table
    is bit for bit that of one call per draw and one day after another.
    """
    if draws < 10_000:
        raise InsufficientDraws("calibration needs at least 10^4 draws")
    T = process.horizon
    lo_q, hi_q = (1.0 - coverage) / 2.0, 1.0 - (1.0 - coverage) / 2.0

    def offsets(resid: np.ndarray) -> Tuple[float, float]:
        return (max(0.0, -float(np.quantile(resid, lo_q))),
                max(0.0, float(np.quantile(resid, hi_q))))

    def day(t: int) -> tuple:
        if t > 0:
            return offsets(_residual_draws(process, t, draws, [seed, t]))
        # Day-0 interval: quantiles of the demand around its prior mean.
        totals, = _row_sums([seed, 0], process.prior_hi, draws, T,
                            (BINOM_TRIALS,))
        mean_d = float(totals.mean())
        return offsets(totals - mean_d) + (mean_d,)

    # Day 0 first, and at T = 0 too (its table is then empty).
    (lower0, upper0, mean_d), *days = _per_day(day, [0, *range(1, T)])
    lower = np.zeros(T)
    upper = np.zeros(T)
    lower[:T - 1] = [lo for lo, _ in days]
    upper[:T - 1] = [hi for _, hi in days]
    return CalibrationTable(lower, upper, coverage, mean_d, lower0, upper0)


def empirical_coverage(process: DemandProcess, table: CalibrationTable,
                       draws: int = 20_000, seed: int = 1) -> np.ndarray:
    """Held-out per-day coverage of the calibrated intervals.  Day t draws
    its residuals from its own generator, `default_rng([seed, 7919 + t])`,
    and the days run two at a time, as in `calibrate_intervals`."""
    T = process.horizon

    def day(t: int) -> float:
        resid = _residual_draws(process, t, draws, [seed, 7919 + t])
        return float(np.mean(
            (-table.lower[t - 1] <= resid) & (resid <= table.upper[t - 1])))

    cov = np.ones(T)
    cov[:T - 1] = _per_day(day, range(1, T))
    return cov


def forecast_instance(pool_sizes, availability, table: CalibrationTable,
                      under_cost=1.0, over_cost=1.0,
                      process: Optional[DemandProcess] = None) -> Instance:
    """Instance the minimax policies see: the calibrated day-0 interval as
    the initial range, per-day widths from the calibration table, eps = 0.

    The declared eps = 0 does not hold in this world.  The calibrated
    intervals cover the demand about 95% of the time on each day, not
    always, so the running intersection of the day-0 range and the daily
    intervals can exclude the realised demand: it does in 112 of the first
    800 worlds of `bench_short.json` (T=5) and 191 of 800 of
    `bench_long.json` (T=14), at their pinned seed.  The LP policies'
    worst-case guarantee therefore does not cover the costs measured here.
    """
    T = len(table.lower)
    cap = float(BINOM_TRIALS * T if process is None else process.max_demand)
    lo0, hi0 = table.initial_range(cap)
    return validate_instance(make_instance(
        pool_sizes, availability, (lo0, hi0), table.width(),
        under_cost=under_cost, over_cost=over_cost))


def lower_quantile(samples: Sequence[float], q: float) -> float:
    """Smallest sample whose empirical CDF reaches q (documented convention).

    The samples are sorted as Python floats."""
    xs = sorted(map(float, samples))
    idx = max(1, math.ceil(q * len(xs)))
    return xs[idx - 1]


class _GreedyTowardTarget:
    """Shared mechanics: hire as much as possible toward a staffing target."""

    def __init__(self, inst: Instance):
        self.inst = inst
        self.ledger = SupplyLedger(inst)
        self.total = 0.0
        self.day = 0
        # Each day's open pools, scarcest first.  Pools closed that day are
        # left out: they take no hire and must not end the fill early.
        self._orders = [tuple(i for i in _scarcest_first(rho) if rho[i] > 0)
                        for rho in inst.availability.T.tolist()]

    def _hire_toward(self, target: float) -> np.ndarray:
        t = self.day
        hires = _fill(max(0.0, target - self.total),
                      self.ledger.available(t), self._orders[t - 1])
        self.ledger.book(t, hires)
        self.total += float(hires.sum())
        return hires


class NaiveGreedyPolicy(_GreedyTowardTarget):
    """Hire immediately toward the worst-case-balancing point
    (C L_t + c R_t) / (C + c); never looks ahead."""

    def step(self, obs: DayObservation) -> Decision:
        self.day += 1
        inst = self.inst
        target = ((inst.over_cost * obs.interval.lo
                   + inst.under_cost * obs.interval.hi)
                  / (inst.over_cost + inst.under_cost))
        return Decision.hire_only(self._hire_toward(target))


class NaiveBayesianPolicy(_GreedyTowardTarget):
    """Single-shot newsvendor on the empirical total-demand samples.

    On day t the samples are the realized total plus each received
    profile's total over days t+1..T, read from running totals
    (`SampleTotals`; exact on the world's counts)."""

    def __init__(self, inst: Instance):
        super().__init__(inst)
        self.totals = SampleTotals()
        self.q = inst.under_cost / (inst.under_cost + inst.over_cost)

    def step(self, obs: DayObservation) -> Decision:
        self.day += 1
        if obs.partial is None or obs.samples is None:
            raise ValueError("naive bayesian policy needs partial demand and "
                             "sample observations")
        totals = self.totals
        totals.observe(obs.partial, obs.samples)
        draws = [totals.realized + rest for rest in totals.remaining]
        return Decision.hire_only(self._hire_toward(
            lower_quantile(draws, self.q)))


@dataclass(frozen=True)
class MdpSpec:
    """Discretization and transition source for the MDP baselines.

    State: (day, integer partial-demand sum, per-pool cumulative-hire grid
    index).  Action: per-pool hire increments on the grid.  Supply enters
    through the conservative charge rule (prior hires charged at the
    previous day's rate), which is exact for T <= 2 and for on/off pools.
    """

    grid_levels: int = 21
    transition: str = "empirical"       # "empirical" | "true"
    state_cap: int = 2_000_000

    def __post_init__(self):
        for key in ("grid_levels", "state_cap"):
            value = getattr(self, key)
            if (not isinstance(value, numbers.Integral)
                    or isinstance(value, bool) or value < 1):
                raise ValueError(f"mdp {key} must be an integer >= 1, "
                                 f"got {value!r}")
        if self.transition not in ("empirical", "true"):
            raise ValueError("mdp transition must be 'empirical' or 'true', "
                             f"got {self.transition!r}")


def _level_grid(inst: Instance, spec: MdpSpec) -> List[np.ndarray]:
    return [np.linspace(0.0, float(s), spec.grid_levels)
            for s in inst.pool_sizes]


def _allowed_ranges(inst: Instance, levels: List[np.ndarray], t: int
                    ) -> List[np.ndarray]:
    """For each pool, the largest reachable grid index from each index."""
    out = []
    for i, lv in enumerate(levels):
        rho_t = inst.availability[i, t - 1]
        rho_prev = 1.0 if t == 1 else inst.availability[i, t - 2]
        g = np.arange(len(lv))
        if rho_t <= 0 or rho_prev <= 0:
            out.append(g)
            continue
        cap = lv + rho_t * np.maximum(0.0, float(inst.pool_sizes[i])
                                      - lv / rho_prev)
        out.append(np.maximum(
            np.searchsorted(lv, cap + 1e-9, side="right") - 1, g))
    return out


def _reach_runs(hi_idx: np.ndarray, axis: int) -> Tuple[tuple, ...]:
    """Pool reach `hi_idx` (hi_idx[g] >= g) as runs for `_fold_runs` along
    `axis`.

    Consecutive indices g that share one reach h form a run [a, b).  Its
    answers min(W[g..h]) are the suffix minima of W[a..h], so a run is one
    minimum-accumulate over that slice reversed, read back at h - g for g
    in [a, b).  A run (dst, src, back) holds the index tuples of W[a:b],
    of W[a..h] reversed and of the read-back.  Indices whose reach is
    themselves get no run, so a pool with the identity reach has none.
    """
    lead = (slice(None),) * axis
    hi = [int(h) for h in hi_idx]
    runs = []
    a = 0
    for b in range(1, len(hi) + 1):
        if b < len(hi) and hi[b] == hi[a]:
            continue
        h = hi[a]
        if h > a:
            runs.append((lead + (slice(a, b),),
                         lead + (slice(h, a - 1 if a else None, -1),),
                         lead + (slice(h - a, h - b if h >= b else None,
                                       -1),)))
        a = b
    return tuple(runs)


def _fold_runs(W: np.ndarray, runs: Tuple[tuple, ...], axis: int) -> None:
    """Replace W[..., g, ...] along `axis` by the minimum over its reach,
    in place, from `_reach_runs`.  A run reads only indices at or above its
    own start, which earlier runs do not write, so the runs may go in
    order.  A minimum is exact, so this is the range minimum bit for bit
    for any reach, monotone or not."""
    for dst, src, back in runs:
        W[dst] = np.minimum.accumulate(W[src], axis=axis)[back]


@dataclass(frozen=True)
class MdpTables:
    """What the MDP's backward induction needs that no sample changes.

    Built once per instance and grid (`mdp_tables`) and shared read-only by
    every solve of every run: `levels` per pool; `runs[t-1][i]`, pool i's
    day-t reach as `_reach_runs` along axis 1 + i (tuples of slices, so
    immutable); `totals[g...]`, the staffing level at grid indices g; and
    `last`, the day-T value V[T] over (demand sum, grid indices), which is
    the terminal cost minimised over day T's reach by the same runs.  A
    cost is at least +0.0, never -0.0 or NaN, which `backward_induction`'s
    first-term write needs of every value array.
    """

    levels: List[np.ndarray]
    runs: Tuple[Tuple[Tuple[tuple, ...], ...], ...]
    totals: np.ndarray
    last: np.ndarray


def mdp_tables(inst: Instance, spec: MdpSpec,
               levels: Optional[List[np.ndarray]] = None) -> MdpTables:
    """The sample-independent part of the MDP on a copy of `levels` (the
    spec's grid by default); raises StateExplosion past the spec's state
    cap."""
    n, T = inst.availability.shape
    d_max = BINOM_TRIALS * T
    states = (d_max + 1) * spec.grid_levels ** n
    if states > spec.state_cap:
        raise StateExplosion(f"{states} states exceed the cap")
    levels = [np.array(lv, dtype=float) for lv in
              (_level_grid(inst, spec) if levels is None else levels)]
    totals = levels[0].reshape(-1, *([1] * (n - 1)))
    for i in range(1, n):
        shape = [1] * n
        shape[i] = -1
        totals = totals + levels[i].reshape(shape)
    runs = tuple(tuple(_reach_runs(hi, 1 + i) for i, hi in
                       enumerate(_allowed_ranges(inst, levels, t)))
                 for t in range(1, T + 1))
    demands = np.arange(d_max + 1, dtype=float).reshape(-1, *([1] * n))
    last = (inst.under_cost * np.maximum(demands - totals, 0.0)
            + inst.over_cost * np.maximum(totals - demands, 0.0))
    for i, pool in enumerate(runs[T - 1]):
        _fold_runs(last, pool, 1 + i)
    for a in [*levels, totals, last]:
        a.setflags(write=False)
    return MdpTables(levels, runs, totals, last)


def backward_induction(inst: Instance, pmfs: Dict[int, np.ndarray],
                       levels: List[np.ndarray], t_start: int,
                       spec: MdpSpec, *, tables: Optional[MdpTables] = None,
                       demand: Optional[int] = None) -> List[np.ndarray]:
    """Value arrays V[t] for t = t_start..T over (demand sum, grid indices).

    V[t][D, g...] is the optimal expected terminal cost when day t's partial
    sum is D, cumulative hires sit at grid levels g, and day t's hire is
    still to be chosen.  pmfs[t] is day t's partial-demand distribution.
    `tables` are `mdp_tables(inst, spec, levels)`, built here when not
    given (given, they stand in for `levels`); V[T] is their read-only
    `last`.

    With `demand` = D, only the sums reachable from sum D on day t_start
    are solved, a band that follows each pmf's support: day t_start holds
    row D alone, and each later day k the sums lo[k-1] + min supp(pmfs[k])
    to hi[k-1] + max supp(pmfs[k]), capped at 5T.  Row r of V[t] is the
    full table's row lo[t] + r (row 0 of V[t_start] is V[t_start][D]).
    Sums at or above 5T + 2 - len(pmfs[k]) copy day k's row at the same
    sum, so when day k - 1 holds one, day k's band reaches down to it.
    The full table (`demand` None) is the band 0..5T on every day.

    Each kept row adds p_j * V[k][row + j] over the pmf's nonzero j in
    ascending order, as the full table does, so the two agree bit for bit.
    The first term is written, not added to zeros: the same bits, as the
    value arrays hold costs, their mixtures and their minima, all >= +0.0
    (no -0.0, no NaN), and pmfs are >= 0.  Each pool's reach minimum is
    exact, whatever order its runs take (`_fold_runs`).
    """
    if tables is None:
        tables = mdp_tables(inst, spec, levels)
    T = inst.horizon
    d_max = BINOM_TRIALS * T
    if t_start > T:
        return []
    # band[t]: the lowest and highest demand sums solved on day t;
    # support[t]: pmfs[t]'s nonzero entries in ascending order.
    band = {t_start: (0, d_max) if demand is None else (demand, demand)}
    support = {}
    for t in range(t_start, T):
        pmf = pmfs[t + 1]
        support[t + 1] = js = np.flatnonzero(pmf).tolist()
        if demand is None:
            band[t + 1] = (0, d_max)
            continue
        lo, hi = band[t]
        j_min, j_max = (js[0], js[-1]) if js else (0, 0)
        lo_next = lo + j_min
        gone = d_max + 2 - len(pmf)
        if hi >= gone:
            lo_next = min(lo_next, max(lo, gone))
        band[t + 1] = (min(lo_next, d_max), min(hi + j_max, d_max))
    lo, hi = band[T]
    values: Dict[int, np.ndarray] = {T: tables.last[lo:hi + 1]}
    for t in range(T - 1, t_start - 1, -1):
        pmf = pmfs[t + 1]
        V_next = values[t + 1]
        lo, hi = band[t]
        off = lo - band[t + 1][0]
        rows = hi + 1 - lo
        W = np.empty((rows,) + V_next.shape[1:])
        # Rows from `below` on are demand sums that can no longer occur:
        # they keep the next day's row (the terminal shape) and are never
        # queried from reachable states.
        below = min(max(d_max + 2 - len(pmf) - lo, 0), rows)
        js = support[t + 1]
        if js:
            j = js[0]
            np.multiply(pmf[j], V_next[off + j:off + j + below],
                        out=W[:below])
        else:
            W[:below] = 0.0
        for j in js[1:]:
            W[:below] += pmf[j] * V_next[off + j:off + j + below]
        W[below:] = V_next[off + below:off + rows]
        for i, pool in enumerate(tables.runs[t - 1]):
            _fold_runs(W, pool, 1 + i)
        values[t] = W
    return [values[t] for t in range(t_start, T + 1)]


def full_info_values(inst: Instance, process: DemandProcess, spec: MdpSpec,
                     *, tables: Optional[MdpTables] = None
                     ) -> List[np.ndarray]:
    """V[t] for t = 2..T under the process marginal, read-only.

    They depend on nothing a run observes, so one solve serves every run of
    the full-info MDP; a run that wrote into them would corrupt the next.
    """
    if tables is None:
        tables = mdp_tables(inst, spec)
    pmf = process.marginal_pmf()
    pmfs = {t: pmf for t in range(1, inst.horizon + 1)}
    values = backward_induction(inst, pmfs, tables.levels, 2, spec,
                                tables=tables)
    for V in values:
        V.setflags(write=False)
    return values


class MdpPolicy:
    """Finite-horizon backward induction over a discretized state.

    The empirical variant re-solves every day, with each future day's
    partial-demand pmf estimated from the sampled trajectories received so
    far (kept as a running count per future day and value).  Each profile
    covers every day after its own, so every future day holds one sample
    per profile received; a shorter profile raises ValueError.  The re-solve
    on day t covers only the demand sums reachable from today's sum
    (`backward_induction`'s `demand`), a band that grows each day by that
    day's pmf support, so it stays narrow while the pmfs count few
    profiles.  The true variant uses the process marginal, so its value
    arrays are solved once (`full_info_values`) and may be shared by every
    run; it keeps no sample counts.  Both take the sample-independent
    `MdpTables` (each day's reach as runs of suffix minima), which may be
    shared too.  Every value is a cost or a mixture or minimum of costs,
    at least +0.0, so a solve writes each row's first pmf term instead of
    adding it to zeros.  Played hires are capped at the true availability
    and the internal state snaps to the nearest grid level (the first one
    on a tie).
    """

    def __init__(self, inst: Instance, process: DemandProcess, spec: MdpSpec,
                 values: Optional[List[np.ndarray]] = None, *,
                 tables: Optional[MdpTables] = None):
        self.inst = inst
        self.process = process
        self.spec = spec
        self.tables = mdp_tables(inst, spec) if tables is None else tables
        if values is None and spec.transition == "true":
            values = full_info_values(inst, process, spec, tables=self.tables)
        self.values = values
        self.levels = self.tables.levels
        # The per-pool state lives in Python floats and ints: one day's
        # arithmetic on them is the same IEEE arithmetic as on arrays.
        self._level_lists = [lv.tolist() for lv in self.levels]
        self.demand_sum = 0.0
        self.grid_idx = [0] * inst.n_pools
        self.cum_hires = [0.0] * inst.n_pools
        self.ledger = SupplyLedger(inst)
        self.day = 0
        # counts[k, v]: samples of day k's partial demand equal to v, also
        # written through its flat view at row_starts[k] + v.
        self.counts = np.zeros((inst.horizon + 1, BINOM_TRIALS + 1),
                               dtype=int)
        self._flat_counts = self.counts.reshape(-1)
        self._row_starts = np.arange(0, self._flat_counts.size,
                                     BINOM_TRIALS + 1)
        self.n_profiles = 0     # profiles counted: one sample of each day

    def _pmfs(self) -> Dict[int, np.ndarray]:
        """Empirical pmfs of days t+1..T from the samples received so far:
        each day's counts over the number of profiles, uniform before the
        first one."""
        counts = self.counts[self.day + 1:]
        if self.n_profiles:
            pmfs = counts / float(self.n_profiles)
        else:                                   # no information: uniform
            pmfs = np.full(counts.shape, 1.0 / (BINOM_TRIALS + 1))
        return dict(zip(range(self.day + 1, self.inst.horizon + 1), pmfs))

    def step(self, obs: DayObservation) -> Decision:
        self.day += 1
        t = self.day
        inst = self.inst
        if obs.partial is None:
            raise ValueError("MDP policies need partial-demand observations")
        self.demand_sum += float(obs.partial)
        T = inst.horizon
        if obs.samples is not None and self.values is None:
            # Day t's profile samples days t+1..T in order; a sample is a
            # count in 0..BINOM_TRIALS, so it lands in its own day's row.
            future = np.asarray(obs.samples, float)[:T - t].astype(int)
            if len(future) < T - t:
                raise ValueError(f"day {t}'s samples cover {len(future)} of "
                                 f"the {T - t} days left")
            self._flat_counts[self._row_starts[t + 1:] + future] += 1
            self.n_profiles += 1
        # Today's action box uses the exactly-known remaining availability
        # (the Markov charge rule is only needed for future days inside the
        # backward induction).
        avail = self.ledger.available(t)
        box = []
        for lv, g, cum, a in zip(self._level_lists, self.grid_idx,
                                 self.cum_hires, avail):
            hi_idx = bisect_right(lv, cum + a + 1e-9) - 1
            box.append(slice(g, max(hi_idx, g) + 1))
        box = tuple(box)
        if t < T:
            D = int(round(min(self.demand_sum, BINOM_TRIALS * T)))
            if self.values is not None:
                window = self.values[t - 1][(D,) + box]
            else:
                window = backward_induction(
                    inst, self._pmfs(), self.levels, t + 1, self.spec,
                    tables=self.tables, demand=D)[0][(0,) + box]
            vals = window.ravel().tolist()
        else:
            window = self.tables.totals[box]
            vals = [imbalance_cost(inst.under_cost, inst.over_cost, h,
                                   self.demand_sum)
                    for h in window.ravel().tolist()]
        # The box in C order is itertools.product order over the ranges;
        # the first value beating the best by more than 1e-12 wins.
        best, best_pos = None, 0
        for pos, val in enumerate(vals):
            if best is None or val < best - 1e-12:
                best, best_pos = val, pos
        best_g = []
        for s, size in zip(reversed(box), reversed(window.shape)):
            best_pos, g = divmod(best_pos, size)
            best_g.append(s.start + g)
        best_g.reverse()
        hires = [min(max(0.0, lv[g] - cum), a) for lv, g, cum, a in
                 zip(self._level_lists, best_g, self.cum_hires, avail)]
        self.ledger.book(t, hires)
        self.cum_hires = [cum + h for cum, h in zip(self.cum_hires, hires)]
        self.grid_idx = [_nearest(lv, cum) for lv, cum in
                         zip(self._level_lists, self.cum_hires)]
        return Decision.hire_only(hires)


def _nearest(levels: List[float], x: float) -> int:
    """np.argmin(np.abs(levels - x)) for ascending levels: the index of the
    nearest level, the first one on a tie (a constant grid gives 0)."""
    k = bisect_left(levels, x)
    if k == len(levels) or (k > 0 and abs(levels[k - 1] - x)
                            <= abs(levels[k] - x)):
        k -= 1
        while k > 0 and abs(levels[k - 1] - x) == abs(levels[k] - x):
            k -= 1
    return k


def run_bayesian_world(inst: Instance, process: DemandProcess,
                       table: CalibrationTable,
                       policies: Dict[str, Callable[[], object]],
                       replications: int, seed: int,
                       rep_offset: int = 0) -> List[dict]:
    """Paired Monte-Carlo evaluation: every policy sees the same worlds.

    Returns one row per (replication, policy): cost, runtime_ms, seed.
    Replication streams are seeded by global index, so splitting the range
    across workers (via rep_offset) reproduces the single-worker results.
    """
    hi_cap = process.max_demand
    rows: List[dict] = []
    for rep in range(rep_offset, rep_offset + replications):
        world = process.sample_world(np.random.default_rng([seed, rep]))
        totals = SampleTotals()
        intervals = []
        for t, (partial, profile) in enumerate(
                zip(world.partials.tolist(), world.profiles), start=1):
            totals.observe(partial, profile)
            est = point_estimator(totals)
            lo = min(max(est - table.lower[t - 1], 0.0), hi_cap)
            hi = min(max(est + table.upper[t - 1], 0.0), hi_cap)
            intervals.append((min(lo, hi), hi))
        sequence = PredictionSequence.build(inst, intervals)
        for name, factory in policies.items():
            t0 = time.perf_counter()
            plan = play(factory(), inst, sequence, world=world)
            elapsed = (time.perf_counter() - t0) * 1e3
            rows.append({"replication": rep, "policy": name,
                         "cost": staffing_cost(inst, plan, world.demand),
                         "runtime_ms": elapsed, "seed": seed})
    return rows


def summarize(rows: List[dict]) -> Dict[str, dict]:
    """Per-policy mean cost, standard error, and total runtime."""
    out: Dict[str, dict] = {}
    by_policy: Dict[str, List[float]] = {}
    runtime: Dict[str, float] = {}
    for row in rows:
        by_policy.setdefault(row["policy"], []).append(row["cost"])
        runtime[row["policy"]] = runtime.get(row["policy"], 0.0) \
            + row["runtime_ms"]
    for name, costs in by_policy.items():
        arr = np.asarray(costs)
        out[name] = {
            "mean_cost": float(arr.mean()),
            "stderr": float(arr.std(ddof=1) / np.sqrt(len(arr)))
            if len(arr) > 1 else 0.0,
            "runtime_ms": runtime[name],
            "replications": len(arr),
        }
    return out


def paired_differences(rows: List[dict], a: str, b: str) -> Tuple[float, float]:
    """Mean and standard error of cost(a) - cost(b) on shared replications."""
    costs_a = {r["replication"]: r["cost"] for r in rows if r["policy"] == a}
    costs_b = {r["replication"]: r["cost"] for r in rows if r["policy"] == b}
    common = sorted(set(costs_a) & set(costs_b))
    diffs = np.array([costs_a[k] - costs_b[k] for k in common])
    se = float(diffs.std(ddof=1) / np.sqrt(len(diffs))) if len(diffs) > 1 else 0.0
    return float(diffs.mean()), se
