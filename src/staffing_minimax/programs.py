"""Builders for every staffing linear program, plus canonical extraction.

The first four program families below share one row skeleton, built by
`_hires_and_supply` (hire variables on open days, one supply row per pool)
and `_caps_and_floor` (an overstaffing cap per adversary switch day, then an
understaffing floor); each of their builders adds only its cost variables
and rows.  The release program writes its own per-scenario rows.

* single-switch program: one demand, cost target gamma;
* resolving program: the same model restarted from a mid-horizon state;
* multi-station program: per-station gammas aggregated by max or sum;
* joint-cost program: hiring wages folded into a piecewise-linear objective;
* release configuration program: one scenario per multi-switch configuration,
  with hire/release variables deduplicated by shared prediction prefixes.

Optimal solutions are refined to a canonical representative (earliest-maximal
hiring, minimal canonical releases) so that downstream equalities between
policies do not depend on simplex pivoting accidents.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from .lp import LpModel, LpSolution, refine_lexicographic, solve_lp
from .model import (EpochState, Instance, InstanceError, MultiStationInstance,
                    ReleaseInstance, UNLIMITED, fresh_state)


class ConfigurationExplosion(Exception):
    """Release program would need more configurations than the cap allows."""


class InfeasibleState(InstanceError):
    """Resolving state is inconsistent with any feasible continuation."""


def single_switch_floor(inst: Instance, k: int) -> float:
    """Left endpoint the switch-at-k adversary settles on.

    max of L0 and (R0 - Delta_tau - 2 eps_tau) over tau in [1:k]: L0 for
    k = 0, else _switch_floors' entry from the initial range.  L0 is the
    tau = 0 term R0 - Delta_0 - 2 eps_0 exactly, so the floor is never below
    L0.
    """
    if k == 0:
        return inst.initial_range[0]
    return _switch_floors(inst, inst.initial_range, 1)[k - 1]


def _prefix_max(first: float, terms: Iterable[float]) -> List[float]:
    """max(first, terms[0..k]) for each k, as one running max.

    Each step compares the next term to the best so far with `>`, as max()
    does, so every entry is the very float max() of that prefix returns
    (the first of tied values, signed zeros included)."""
    best, out = first, []
    for v in terms:
        if v > best:
            best = v
        out.append(best)
    return out


def _switch_floors(inst: Instance, interval: Tuple[float, float],
                   day: int) -> List[float]:
    """For k in [day:T], the left endpoint the switch-at-k adversary settles
    on from the interval [L, R] carried into `day`: max of L and
    (R - Delta_tau - 2 eps_tau) over tau in [day:k]."""
    lo, hi = interval
    # inst.delta(tau) and inst.eps(tau) for tau in [day:T], day >= 1.
    deltas = inst.error_bounds[day - 1:inst.horizon].tolist()
    eps = inst.inconsistency[day - 1:inst.horizon].tolist()
    return _prefix_max(lo, [hi - d - 2.0 * e for d, e in zip(deltas, eps)])


def _consistent_floors(inst: Instance, horizon: int) -> List[float]:
    """Floors max(R0 - Delta_tau, tau in [0:k]), k in [1:T], when eps = 0."""
    hi0 = inst.initial_range[1]
    return _prefix_max(hi0 - inst.delta(0), (hi0 - inst.delta(tau)
                                             for tau in range(1, horizon + 1)))


def _hires_and_supply(m: LpModel, rho: np.ndarray, supply, first_day: int,
                      n_stations: Optional[int] = None) -> dict:
    """Hire variables x[pool,(station,)day] on the open days from first_day
    on, and one supply row per pool: sum of x / rho <= supply."""
    n, T = rho.shape
    tags = [()] if n_stations is None else [(j,) for j in range(n_stations)]
    x_index = {}
    for i in range(n):
        coeffs = {}
        for tag in tags:
            head = (i, *tag)
            name = f"x[{','.join(map(str, head))},"
            for t in range(first_day, T + 1):
                if rho[i, t - 1] > 0:
                    v = x_index[(*head, t)] = m.add_var(f"{name}{t}]")
                    coeffs[v] = 1.0 / rho[i, t - 1]
        m.add_row(coeffs, "<=", float(supply[i]))
    return x_index


def _caps_and_floor(m: LpModel, x_index: dict, first_day: int, caps,
                    cap_coef: float, floor_var: int, floor_coef: float,
                    floor_rhs: float) -> None:
    """A cap on the hires through each switch day k >= first_day, with
    caps[k - first_day] = (slack variable, rhs), then the floor on all hires.
    The hires through day k are grown day by day (x_index keys end in the
    day)."""
    by_day = sorted((key[-1], v) for key, v in x_index.items())
    through, pos = {}, 0
    for k, (var, rhs) in enumerate(caps, start=first_day):
        while pos < len(by_day) and by_day[pos][0] <= k:
            through[by_day[pos][1]] = 1.0
            pos += 1
        m.add_row({**through, var: cap_coef}, "<=", rhs)
    coeffs = dict.fromkeys(x_index.values(), 1.0)
    coeffs[floor_var] = floor_coef
    m.add_row(coeffs, ">=", floor_rhs)


def _require_positive_slopes(under_cost: float, over_cost: float) -> None:
    if under_cost <= 0 or over_cost <= 0:
        raise InstanceError("gamma-form programs need strictly positive "
                            "cost slopes")


def _lex_targets(blocks, sense: str) -> list:
    """Refinement targets: each block's sum, then each of its variables
    when it has more than one, in block order."""
    targets = []
    for block in blocks:
        if block:
            targets.append(({v: 1.0 for v in block}, sense))
            if len(block) > 1:
                targets.extend(({v: 1.0}, sense) for v in block)
    return targets


class _DayPoolHires:
    """Hire variables x_index[(pool i, day t)] over the days in day_range:
    refined day by day, then pool by pool; extracted as an (n, T) block."""

    def refine_targets(self, refine_limit: Optional[int] = None) -> list:
        lo, hi = self.day_range
        if refine_limit is not None:
            hi = min(hi, lo + refine_limit - 1)
        return _lex_targets(
            ([self.x_index[(i, t)] for i in range(self.inst.n_pools)
              if (i, t) in self.x_index] for t in range(lo, hi + 1)), "max")

    def canonical(self, sol: LpSolution) -> np.ndarray:
        x = np.zeros((self.inst.n_pools, self.inst.horizon))
        for (i, t), v in self.x_index.items():
            x[i, t - 1] = sol.x[v]
        return x


@dataclass
class SingleSwitchLp(_DayPoolHires):
    model: LpModel
    inst: Instance
    x_index: Dict[Tuple[int, int], int]     # (pool i, day t) -> variable
    gamma: int
    day_range: Tuple[int, int]               # decided days [t0, T]
    # refine_targets' tuples by refine_limit, shared by the day's programs.
    targets: dict = field(default_factory=dict, repr=False, compare=False)

    def refine_targets(self, refine_limit: Optional[int] = None) -> tuple:
        """_DayPoolHires' targets as a tuple, made once per refine_limit for
        the day's rows (see build_lp_resolving)."""
        targets = self.targets.get(refine_limit)
        if targets is None:
            targets = self.targets[refine_limit] = \
                tuple(super().refine_targets(refine_limit))
        return targets


def build_lp_single_switch(inst: Instance) -> SingleSwitchLp:
    """Program with variables {x_it, gamma} and n + T + 1 constraints.

    Supply rows per pool; for each switch day k a cap
      sum_{t<=k} sum_i x_it <= floor_k + gamma / C
    and one understaffing floor sum x >= R0 - gamma / c.  This is the
    resolving program at day 1 from the fresh state.
    """
    built = build_lp_resolving(inst, fresh_state(inst), 1)
    built.model.name = "single_switch"
    return built


class DayMemo:
    """Values that depend on one instance's day alone, at most one per day.

    get(day, key, make) returns the value stored for the day when it was
    made under the same key, and otherwise stores and returns make()'s.  A
    day that held another key belongs to another instance, so every day
    is dropped first: the memo holds one instance's days at a time, and so
    at most T entries.  Keys are compared by value, so they hold bytes and
    floats, never object ids.
    """

    def __init__(self):
        self.days: dict = {}

    def get(self, day: int, key, make):
        entry = self.days.get(day)
        if entry is None or entry[0] != key:
            if entry is not None:
                self.days.clear()
            entry = self.days[day] = (key, make())
        return entry[1]


def _resolving_rows(inst: Instance, availability: np.ndarray, day: int
                    ) -> Tuple[LpModel, dict, int]:
    """The resolving program's rows for `day` with every right-hand side
    zero: (model, x_index, gamma).  Built with the shared skeleton, from the
    availability's columns day - 1 on, the cost slopes and the horizon."""
    m = LpModel()
    x_index = _hires_and_supply(m, availability,
                                np.zeros(availability.shape[0]), day)
    gamma = m.add_var("gamma", obj=1.0)
    _caps_and_floor(m, x_index, day,
                    [(gamma, 0.0)] * (inst.horizon - day + 1),
                    -1.0 / inst.over_cost, gamma, 1.0 / inst.under_cost, 0.0)
    return m, x_index, gamma


# The resolving rows of the last instance's days, each with its refine
# targets by refine_limit (see build_lp_resolving).
_day_rows = DayMemo()


def build_lp_resolving(inst: Instance, state: EpochState, day: int
                       ) -> SingleSwitchLp:
    """The single-switch program for the subproblem starting at `day`.

    Uses the carried state: cumulative hires shift the cap and floor rows,
    remaining supply and rescaled availability replace the originals, and the
    carried interval supplies the subproblem's day-0 term.

    Only the right-hand sides depend on the state beyond its availability:
    the variables, the coefficient rows and relations, the objective,
    x_index, gamma and the refinement targets read only the day, the
    availability from column day - 1 on, the cost slopes and the horizon.
    So what a solve reads besides b is made once per day, in the
    `_day_rows` entry, keyed by the horizon, that availability's shape,
    dtype and bytes, and the two coefficients the slopes give (a day whose
    key differs rebuilds the instance's days):
    - the rows, by _resolving_rows on a miss, a model fixed at its first
      with_rhs with its solver inputs and pivot-path memo (see LpModel);
    - refine_targets' tuple for each refine_limit, on its first call;
    - the stacked refinement rows and cost vectors, which
      refine_lexicographic keeps with the rows (lp._Paths.stages).
    Per state, every call, hit or miss, computes the right-hand sides
    (remaining supply, switch floors and the floor's hi, less the
    cumulative hires) and writes them into a fixed model of the day's rows
    (with_rhs), which checks and keeps them as one array.  The returned
    model may be renamed, which changes no later program; it shares
    everything else, as do the returned x_index and targets, with every
    program of the day.
    """
    _require_positive_slopes(inst.under_cost, inst.over_cost)
    T = inst.horizon
    if not (1 <= day <= T):
        raise InfeasibleState(f"day {day} outside horizon")
    if (state.remaining_supply < -1e-9).any():
        raise InfeasibleState("negative remaining supply")
    lo_bar, hi_bar = state.interval
    if lo_bar > hi_bar + 1e-9:
        raise InfeasibleState("carried interval is empty")
    z_total = float(state.cum_hires.sum())

    rho = state.availability
    key = (T, rho.shape, rho.dtype.str, rho[:, day - 1:].tobytes(),
           -1.0 / inst.over_cost, 1.0 / inst.under_cost)
    rows, x_index, gamma, targets = _day_rows.get(
        day, key, lambda: (*_resolving_rows(inst, rho, day), {}))
    rhs = state.remaining_supply[:rho.shape[0]].tolist()
    rhs += [f - z_total for f in _switch_floors(inst, state.interval, day)]
    rhs.append(hi_bar - z_total)
    return SingleSwitchLp(rows.with_rhs(f"resolving[{day}]", rhs), inst,
                          x_index, gamma, (day, T), targets)


@dataclass
class MultiStationLp:
    model: LpModel
    msi: MultiStationInstance
    x_index: Dict[Tuple[int, int, int], int]    # (pool i, station j, day t)
    gamma_index: List[int]
    epigraph: Optional[int]

    def refine_targets(self, refine_limit: Optional[int] = None) -> list:
        """Every per-station cost shrunk to its true minimum first (under
        the max objective the non-binding gammas are otherwise free slack
        that would let a station overstaff for no reason), then hires
        early, day by day and station by station.  refine_limit is
        ignored."""
        msi = self.msi
        hires = ([self.x_index[(i, j, t)] for i in range(msi.n_pools)
                  if (i, j, t) in self.x_index]
                 for t in range(1, msi.horizon + 1)
                 for j in range(msi.n_stations))
        return ([({g: 1.0}, "min") for g in self.gamma_index]
                + _lex_targets(hires, "max"))

    def canonical(self, sol: LpSolution) -> np.ndarray:
        msi = self.msi
        x = np.zeros((msi.n_pools, msi.n_stations, msi.horizon))
        for (i, j, t), v in self.x_index.items():
            x[i, j, t - 1] = sol.x[v]
        return x


def build_lp_multi_station(msi: MultiStationInstance) -> MultiStationLp:
    """Shared-pool generalization with per-station gammas.

    Psi = max is linearized with an epigraph variable u >= gamma_j; Psi = sum
    goes into the objective directly.  Station forecasts are perfectly
    consistent here (eps = 0), matching the extension model.
    """
    T = msi.horizon
    m = LpModel(name=f"multi_station[{msi.objective}]")
    x_index = _hires_and_supply(m, msi.availability, msi.pool_sizes, 1,
                                msi.n_stations)
    is_sum = msi.objective == "sum"
    gamma_index = [m.add_var(f"gamma[{j}]", obj=1.0 if is_sum else 0.0)
                   for j in range(msi.n_stations)]
    epigraph = None if is_sum else m.add_var("psi", obj=1.0)

    for j, g in enumerate(gamma_index):
        st = msi.station_instance(j)
        _require_positive_slopes(st.under_cost, st.over_cost)
        _caps_and_floor(m, {key: v for key, v in x_index.items()
                            if key[1] == j}, 1,
                        [(g, f) for f in _consistent_floors(st, T)],
                        -1.0 / st.over_cost, g, 1.0 / st.under_cost,
                        st.initial_range[1])
        if epigraph is not None:
            m.add_row({g: 1.0, epigraph: -1.0}, "<=", 0.0)
    return MultiStationLp(m, msi, x_index, gamma_index, epigraph)


@dataclass
class JointLp(_DayPoolHires):
    model: LpModel
    ri: ReleaseInstance
    x_index: Dict[Tuple[int, int], int]
    lam_index: List[int]        # lam_index[k-1] for k in 1..T
    theta: int
    epigraph: int

    @property
    def inst(self) -> Instance:
        return self.ri.base

    @property
    def day_range(self) -> Tuple[int, int]:
        return (1, self.ri.base.horizon)


def build_lp_joint_cost(ri: ReleaseInstance) -> JointLp:
    """Wage-aware program: minimize the worst of T + 1 affine cost pieces.

    Piece 0 is understaffing plus the full wage bill; piece k is overstaffing
    after a switch at k plus wages paid through day k.  Releases and budgets
    do not exist in joint mode.
    """
    inst = ri.base
    if ri.budget is not UNLIMITED:
        raise InstanceError("joint-cost mode has no budget")
    if any(q is not UNLIMITED for q in ri.release_fees):
        raise InstanceError("joint-cost mode has no releasing")
    if np.any(inst.inconsistency != 0):
        raise InstanceError("joint-cost mode assumes perfectly consistent "
                            "forecasts (eps = 0)")
    T = inst.horizon
    p = ri.wages
    m = LpModel(name="joint_cost")
    x_index = _hires_and_supply(m, inst.availability, inst.pool_sizes, 1)
    lam_index = [m.add_var(f"lam[{k}]") for k in range(1, T + 1)]
    theta = m.add_var("theta")
    epigraph = m.add_var("objective", obj=1.0)
    _caps_and_floor(m, x_index, 1,
                    list(zip(lam_index, _consistent_floors(inst, T))), -1.0,
                    theta, 1.0, inst.initial_range[1])
    # Epigraph pieces.
    coeffs = {x_index[(i, t)]: float(p[i, t - 1])
              for (i, t) in x_index if p[i, t - 1] != 0}
    coeffs[theta] = coeffs.get(theta, 0.0) + inst.under_cost
    coeffs[epigraph] = -1.0
    m.add_row(coeffs, "<=", 0.0)
    for k in range(1, T + 1):
        coeffs = {x_index[(i, t)]: float(p[i, t - 1])
                  for (i, t) in x_index if t <= k and p[i, t - 1] != 0}
        coeffs[lam_index[k - 1]] = inst.over_cost
        coeffs[epigraph] = coeffs.get(epigraph, 0.0) - 1.0
        m.add_row(coeffs, "<=", 0.0)
    return JointLp(m, ri, x_index, lam_index, theta, epigraph)


# --- Release configuration program ------------------------------------------

def configuration_space(ranges: List[Tuple[int, int]], cap: int
                        ) -> List[Tuple[int, ...]]:
    count = 1
    for lo, hi in ranges:
        count *= hi - lo + 1
    if count > cap:
        raise ConfigurationExplosion(
            f"{count} configurations exceed the cap {cap}")
    return list(itertools.product(*[range(lo, hi + 1) for lo, hi in ranges]))


def configuration_walk(ri: ReleaseInstance, state: EpochState,
                       config: Tuple[int, ...]
                       ) -> Iterator[Tuple[float, float]]:
    """Intervals (L_t, R_t), day by day from the state's epoch on, of the
    multi-switch sequence encoded by one switch day per epoch.

    Within each epoch the right endpoint holds through the switch day, then
    the left endpoint holds while the interval tightens from above.
    """
    inst = ri.base
    lo, hi = state.interval
    for ell, switch in zip(range(state.index, ri.n_epochs + 1), config):
        lo_e, hi_e = ri.epoch_range(ell)
        if not lo_e <= switch <= hi_e:
            raise InstanceError(
                f"switch day {switch} outside epoch range [{lo_e},{hi_e}]")
        for t in range(lo_e + 1, hi_e + 1):
            if t <= switch:
                lo, hi = hi - inst.delta(t), hi
            else:
                lo, hi = lo, lo + inst.delta(t)
            yield lo, hi


@dataclass
class ReleaseLp:
    model: LpModel
    ri: ReleaseInstance
    state: EpochState
    ranges: List[Tuple[int, int]]             # closed ranges, epochs ell..L
    configs: List[Tuple[int, ...]]
    x_index: Dict[Tuple[int, int, tuple], int]   # (i, t, xkey)
    y_index: Dict[Tuple[int, int, tuple], int]   # (i, epoch offset, prefix)
    lam_index: Dict[Tuple[int, ...], int]
    theta_index: Dict[Tuple[int, ...], int]
    epigraph: int

    def x_key(self, t: int, config: Tuple[int, ...]) -> tuple:
        """Deduplication key: shared prediction prefix seen by day t."""
        e = 0
        while t > self.ranges[e][1]:
            e += 1
        prefix = config[:e]
        return (prefix, min(config[e], t))

    def refine_targets(self, refine_limit: Optional[int] = None) -> list:
        """Hire early along the first epoch's high chain, then shrink the
        canonical releases of each first-epoch switch day.  refine_limit is
        ignored."""
        n = self.ri.base.n_pools
        lo, hi = self.ranges[0]
        hires = ([self.x_index[(i, t, ((), t))] for i in range(n)
                  if (i, t, ((), t)) in self.x_index]
                 for t in range(lo + 1, hi + 1))
        releases = ([self.y_index[(i, 0, (k,))] for i in range(n)
                     if (i, 0, (k,)) in self.y_index]
                    for k in range(lo, hi + 1))
        return _lex_targets(hires, "max") + _lex_targets(releases, "min")

    def canonical(self, sol: LpSolution):
        """(hires for the first epoch's days, canonical release vector per
        switch day of the first epoch's closed range)."""
        n = self.ri.base.n_pools
        lo, hi = self.ranges[0]
        hires = np.zeros((n, hi - lo))
        for t in range(lo + 1, hi + 1):
            key = ((), min(hi, t))
            for i in range(n):
                v = self.x_index.get((i, t, key))
                if v is not None:
                    hires[i, t - lo - 1] = sol.x[v]
        releases = {}
        for k in range(lo, hi + 1):
            y = np.zeros(n)
            for i in range(n):
                v = self.y_index.get((i, 0, (k,)))
                if v is not None:
                    y[i] = sol.x[v]
            releases[k] = y
        return hires, releases


def build_lp_release(ri: ReleaseInstance, state: Optional[EpochState] = None,
                     config_cap: int = 100_000) -> ReleaseLp:
    """Configuration program for the costly hiring and releasing model.

    One scenario per configuration (one switch day per epoch).  Variables are
    deduplicated by shared prediction prefix, which makes the identical
    allocation and identical cancellation constraints hold by construction.
    Epochs with the infinite-fee sentinel get no release variables; an
    unlimited budget omits the budget row.
    """
    inst = ri.base
    if state is None:
        state = fresh_state(inst, ri.budget, ri.pre_hires)
    first = state.index
    # Closed switch-day ranges [t_{l-1}, t_l] of epochs first..L.
    ranges = [ri.epoch_range(ell) for ell in range(first, ri.n_epochs + 1)]
    configs = configuration_space(ranges, config_cap)
    n, T = inst.availability.shape
    t0 = ranges[0][0]
    rho = state.availability
    z = state.cum_hires
    z_total = float(z.sum())
    c, C = inst.under_cost, inst.over_cost

    lp = ReleaseLp(LpModel(name=f"release[{first}]"), ri, state, ranges,
                   configs, {}, {}, {}, {}, -1)
    m = lp.model

    days = range(t0 + 1, T + 1)
    fees = [ri.release_fees[ell - 1] for ell in range(first, ri.n_epochs + 1)]
    # Hire variables, one per (pool, day, shared prefix key).
    for cfg in configs:
        for t in days:
            key = lp.x_key(t, cfg)
            for i in range(n):
                if rho[i, t - 1] > 0 and (i, t, key) not in lp.x_index:
                    lp.x_index[(i, t, key)] = m.add_var(
                        f"x[{i},{t}|{key}]")
    # Release variables, one per (pool, epoch, configuration prefix).
    for cfg in configs:
        for e, fee in enumerate(fees):
            if fee is UNLIMITED:
                continue
            prefix = cfg[:e + 1]
            for i in range(n):
                if (i, e, prefix) not in lp.y_index:
                    lp.y_index[(i, e, prefix)] = m.add_var(
                        f"y[{i},{first + e}|{prefix}]")
    for cfg in configs:
        lp.lam_index[cfg] = m.add_var(f"lam{cfg}")
        lp.theta_index[cfg] = m.add_var(f"theta{cfg}")
    lp.epigraph = m.add_var("objective", obj=1.0)

    seen_rows = set()

    def add_row(coeffs, rel, rhs):
        items = tuple(sorted((j, a) for j, a in coeffs.items() if a != 0.0))
        sig = (items, rel, float(rhs))
        if sig not in seen_rows:
            seen_rows.add(sig)
            m.add_row(coeffs, rel, rhs)

    for cfg in configs:
        # Each pool's (day, hire variable) and (epoch offset, release
        # variable) under this configuration, read by every row below.
        keys = [(t, lp.x_key(t, cfg)) for t in days]
        hires = [[(t, lp.x_index[(i, t, key)]) for t, key in keys
                  if (i, t, key) in lp.x_index] for i in range(n)]
        releases = [[(e, lp.y_index[(i, e, cfg[:e + 1])])
                     for e, fee in enumerate(fees) if fee is not UNLIMITED]
                    for i in range(n)]
        add_row({lp.theta_index[cfg]: c, lp.epigraph: -1.0}, "<=", 0.0)
        add_row({lp.lam_index[cfg]: C, lp.epigraph: -1.0}, "<=", 0.0)
        # Supply feasibility under this scenario.
        for i in range(n):
            add_row({v: 1.0 / rho[i, t - 1] for t, v in hires[i]}, "<=",
                    float(state.remaining_supply[i]))
        # Budget feasibility.
        if state.remaining_budget is not UNLIMITED:
            coeffs = {v: float(ri.wages[i, t - 1]) for i in range(n)
                      for t, v in hires[i] if ri.wages[i, t - 1] != 0}
            for per_pool in zip(*releases):     # epoch by epoch
                coeffs.update((v, float(fees[e])) for e, v in per_pool)
            add_row(coeffs, "<=", float(state.remaining_budget))
        # Releasing feasibility: cumulative releases within cumulative hires.
        for e, (_, t_end) in enumerate(ranges):
            for i in range(n):
                coeffs = {v: 1.0 for e2, v in releases[i] if e2 <= e}
                if coeffs:
                    coeffs.update((v, -1.0) for t, v in hires[i]
                                  if t <= t_end)
                    add_row(coeffs, "<=", float(z[i]))
        # Bounded overstaffing / understaffing at the horizon.
        lo_T, hi_T = state.interval
        for lo_T, hi_T in configuration_walk(ri, state, cfg):
            pass
        net = {}
        for i in range(n):
            net.update((v, 1.0) for _, v in hires[i])
            net.update((v, -1.0) for _, v in releases[i])
        add_row({**net, lp.lam_index[cfg]: -1.0}, "<=", lo_T - z_total)
        add_row({**net, lp.theta_index[cfg]: 1.0}, ">=", hi_T - z_total)
    return lp


# --- Canonical solutions -----------------------------------------------------

def solve_canonical(built, refine_limit: Optional[int] = None
                    ) -> LpSolution:
    """Solve a built program and canonicalize the optimal solution.

    Hiring blocks are refined to hire as much as early as possible (day by
    day, then pool by pool); release programs additionally shrink canonical
    releases to their minimum.  Every refined solution is still optimal.
    refine_limit caps how many leading days are refined (resolving policies
    only play the first block, so refining one day suffices there).
    """
    sol = solve_lp(built.model)
    targets = built.refine_targets(refine_limit)
    return refine_lexicographic(built.model, sol, targets) if targets else sol


def extract_canonical(built, sol: LpSolution):
    """Canonical staffing profile(s) encoded by an optimal solution.

    Base / resolving / joint: the (n, T) hire block (zeros for closed days;
    resolving blocks cover the remaining days only).  Multi-station: an
    (n, m, T) block.  Release: (hires for the first epoch's days, canonical
    release vectors per switch day of the first epoch's closed range).
    """
    return built.canonical(sol)


def minimax_value_and_profile(inst: Instance):
    """Solve the base program: (gamma_star, canonical (n, T) hire profile)."""
    built = build_lp_single_switch(inst)
    sol = solve_canonical(built)
    return sol.objective, extract_canonical(built, sol)
