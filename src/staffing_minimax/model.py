"""Domain types for online staffing under interval demand forecasts.

A staffing problem runs over days 1..T.  Workers are hired from pools whose
availability decays over time; an unknown demand d is revealed on day T+1 and
the planner pays `under_cost` per unit of understaffing and `over_cost` per
unit of overstaffing.  Each day the planner sees a forecast interval
[lo_t, hi_t] whose width is bounded by a known error schedule and which
contains (a point within eps_t of) the demand.

Everything here is plain value data: instances, forecast sequences, staffing
plans, and the cost/feasibility functionals over them.  All operations are
pure; types are safe to share across workers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

FEAS_TOL = 1e-9


class InstanceError(ValueError):
    """Base class for instance validation failures."""


class EmptyHorizon(InstanceError):
    pass


class NegativeParameter(InstanceError):
    pass


class NonMonotoneAvailability(InstanceError):
    pass


class SequenceError(ValueError):
    """Raised for forecast sequences violating the declared error bounds."""


def _as_float_array(x, shape=None) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if shape is not None and a.shape != shape:
        raise InstanceError(f"expected shape {shape}, got {a.shape}")
    return a


@dataclass(frozen=True)
class Instance:
    """Single-demand staffing instance.

    availability[i, t-1] is the probability that a pool-i worker is still
    hireable on day t; hiring x workers on day t consumes x / availability
    units of the initial pool.  error_bounds[t-1] caps the forecast interval
    width on day t; inconsistency[t-1] is the eps_t slack of approximately
    consistent forecasts (0 everywhere for perfectly consistent ones).
    """

    pool_sizes: np.ndarray          # (n,)
    availability: np.ndarray        # (n, T)
    initial_range: tuple            # (L0, R0)
    error_bounds: np.ndarray        # (T,)
    inconsistency: np.ndarray       # (T,)
    under_cost: float
    over_cost: float

    @property
    def n_pools(self) -> int:
        return len(self.pool_sizes)

    @property
    def horizon(self) -> int:
        return self.availability.shape[1]

    @property
    def delta0(self) -> float:
        """Day-0 error bound: the initial range width."""
        lo, hi = self.initial_range
        return hi - lo

    def delta(self, t: int) -> float:
        """Error bound for day t, with the day-0 convention delta(0) = R0 - L0."""
        return self.delta0 if t == 0 else float(self.error_bounds[t - 1])

    def eps(self, t: int) -> float:
        """Inconsistency bound for day t, with eps(0) = 0."""
        return 0.0 if t == 0 else float(self.inconsistency[t - 1])

    def single_pool(self) -> bool:
        return self.n_pools == 1


def make_instance(pool_sizes, availability, initial_range, error_bounds,
                  inconsistency=None, under_cost=1.0, over_cost=1.0) -> Instance:
    """Assemble an Instance from loose values; no validation beyond shapes."""
    s = np.atleast_1d(_as_float_array(pool_sizes))
    rho = np.atleast_2d(_as_float_array(availability))
    T = rho.shape[1]
    if inconsistency is None:
        inconsistency = np.zeros(T)
    return Instance(
        pool_sizes=s,
        availability=rho,
        initial_range=(float(initial_range[0]), float(initial_range[1])),
        error_bounds=_as_float_array(error_bounds, (T,)),
        inconsistency=_as_float_array(inconsistency, (T,)),
        under_cost=float(under_cost),
        over_cost=float(over_cost),
    )


def _check_finite(name: str, value) -> None:
    """Raise InstanceError naming the field if value (a number or an array
    of them) holds a NaN or an infinity."""
    bad = np.asarray(value, dtype=float)[~np.isfinite(value)]
    if bad.size:
        raise InstanceError(f"{name} must be finite, got {bad[0]}")


def validate_instance(inst: Instance) -> Instance:
    """Check instance invariants and return the (normalized) instance.

    Raises EmptyHorizon, NegativeParameter, or NonMonotoneAvailability, and
    InstanceError for a non-finite number.  Availability zeros are allowed
    (a pool can be closed on some days); availability must be nonincreasing
    over time within each pool.
    """
    n, T = inst.availability.shape
    if T < 1 or n < 1:
        raise EmptyHorizon(f"need n >= 1 pools and T >= 1 days, got n={n}, T={T}")
    if inst.pool_sizes.shape != (n,):
        raise InstanceError("pool_sizes length does not match availability rows")
    for name in ("pool_sizes", "availability", "initial_range",
                 "error_bounds", "inconsistency", "under_cost", "over_cost"):
        _check_finite(name, getattr(inst, name))
    if np.any(inst.pool_sizes < 0):
        raise NegativeParameter("pool sizes must be nonnegative")
    if inst.under_cost < 0 or inst.over_cost < 0:
        raise NegativeParameter("cost slopes must be nonnegative")
    if np.any(inst.error_bounds < 0):
        raise NegativeParameter("error bounds must be nonnegative")
    if np.any(inst.inconsistency < 0):
        raise NegativeParameter("inconsistency bounds must be nonnegative")
    lo, hi = inst.initial_range
    if lo > hi:
        raise InstanceError(f"initial range [{lo}, {hi}] is empty")
    rho = inst.availability
    if np.any(rho < 0) or np.any(rho > 1 + 1e-12):
        raise NegativeParameter("availability rates must lie in [0, 1]")
    if np.any(rho[:, 1:] > rho[:, :-1] + 1e-12):
        raise NonMonotoneAvailability(
            "availability must be nonincreasing over time in each pool")
    return inst


@dataclass(frozen=True)
class PredictionInterval:
    lo: float
    hi: float

    def __post_init__(self):
        if self.lo > self.hi + 1e-12:
            raise SequenceError(f"empty interval [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo


def narrow_day(t: int, iv: PredictionInterval, bound: float, eps: float,
               lo: float, hi: float) -> Tuple[float, float]:
    """Day t of a sequence: check its interval, then narrow the running
    effective bounds (lo, hi) through day t-1 to day t.

    Raises SequenceError naming the day unless both endpoints are finite
    and the width is at most `bound` up to a relative 1e-9.
    `PredictionSequence.build` steps through here day by day; the grid
    adversary's walk checks each interval of a window here once, narrowing
    (-inf, inf) to the day's own bounds.
    """
    if not (math.isfinite(iv.lo) and math.isfinite(iv.hi)):
        raise SequenceError(
            f"day {t} interval [{iv.lo}, {iv.hi}] is not finite")
    if iv.width > bound + 1e-9 * max(1.0, abs(iv.lo), abs(iv.hi)):
        raise SequenceError(
            f"day {t} interval width {iv.width:.9g} exceeds bound "
            f"{bound:.9g}")
    return max(lo, iv.lo - eps), min(hi, iv.hi + eps)


@dataclass(frozen=True)
class PredictionSequence:
    """Forecast intervals for days 1..T plus running effective bounds.

    effective_lo[t-1] = max over tau <= t (including day 0) of lo_tau - eps_tau
    effective_hi[t-1] = min over tau <= t (including day 0) of hi_tau + eps_tau
    These bracket the demand whenever the forecasts are (eps, 0)-consistent.
    """

    intervals: tuple                # tuple[PredictionInterval], length T
    effective_lo: np.ndarray        # (T,)
    effective_hi: np.ndarray        # (T,)

    def __len__(self) -> int:
        return len(self.intervals)

    def interval(self, t: int) -> PredictionInterval:
        return self.intervals[t - 1]

    @staticmethod
    def build(inst: Instance, intervals: Sequence) -> "PredictionSequence":
        ivs = tuple(iv if isinstance(iv, PredictionInterval)
                    else PredictionInterval(float(iv[0]), float(iv[1]))
                    for iv in intervals)
        if len(ivs) != inst.horizon:
            raise SequenceError(
                f"expected {inst.horizon} intervals, got {len(ivs)}")
        lo_run, hi_run = inst.initial_range
        eff_lo, eff_hi = [], []
        for t, (iv, bound, eps) in enumerate(
                zip(ivs, inst.error_bounds.tolist(),            # inst.delta(t)
                    inst.inconsistency.tolist()),               # inst.eps(t)
                start=1):
            lo_run, hi_run = narrow_day(t, iv, bound, eps, lo_run, hi_run)
            eff_lo.append(lo_run)
            eff_hi.append(hi_run)
        return PredictionSequence(ivs, np.array(eff_lo), np.array(eff_hi))


@dataclass(frozen=True)
class StaffingPlan:
    """Per-pool per-day hires (and releases, all-zero outside release mode)."""

    hires: np.ndarray               # (n, T)
    releases: np.ndarray            # (n, T)

    @property
    def total_hired(self) -> float:
        return float(self.hires.sum())

    @property
    def total_net(self) -> float:
        return float(self.hires.sum() - self.releases.sum())


@dataclass(frozen=True)
class StationSpec:
    """Per-station demand range, error schedule, and cost slopes."""

    initial_range: tuple
    error_bounds: np.ndarray        # (T,)
    under_cost: float = 1.0
    over_cost: float = 1.0


@dataclass(frozen=True)
class MultiStationInstance:
    """Shared pools feeding m stations, each with its own demand forecast.

    objective is "max" (egalitarian: worst station) or "sum" (utilitarian).
    """

    pool_sizes: np.ndarray
    availability: np.ndarray
    stations: tuple                 # tuple[StationSpec]
    objective: str = "max"

    @property
    def n_pools(self) -> int:
        return len(self.pool_sizes)

    @property
    def n_stations(self) -> int:
        return len(self.stations)

    @property
    def horizon(self) -> int:
        return self.availability.shape[1]

    def station_instance(self, j: int) -> Instance:
        """The single-station instance seen by station j (full shared pools)."""
        st = self.stations[j]
        return make_instance(self.pool_sizes, self.availability,
                             st.initial_range, st.error_bounds,
                             under_cost=st.under_cost, over_cost=st.over_cost)


def validate_multi_station(msi: MultiStationInstance) -> MultiStationInstance:
    if msi.objective not in ("max", "sum"):
        raise InstanceError(f"unknown objective {msi.objective!r}")
    if msi.n_stations < 1:
        raise InstanceError("need at least one station")
    for j in range(msi.n_stations):
        validate_instance(msi.station_instance(j))
    return msi


#: Documented sentinel for an infinite release fee or an unlimited budget.
#: Kept as None (not float inf) so LP construction can omit the variable or
#: constraint cleanly.
UNLIMITED = None


@dataclass(frozen=True)
class ReleaseInstance:
    """Costly hiring and releasing: budget, wages, and per-epoch release fees.

    epoch_breaks = [t_1, ..., t_L] with t_L = T partitions days into epochs
    (t_{l-1}, t_l] on which the per-worker release fee q_l is constant
    (None = releasing forbidden in that epoch).  pre_hires are workers already
    committed on day 0.
    """

    base: Instance
    budget: Optional[float] = UNLIMITED
    wages: Optional[np.ndarray] = None       # (n, T), zeros if None
    epoch_breaks: tuple = ()                  # (t_1, ..., t_L), t_L = T
    release_fees: tuple = ()                  # per-epoch fee or None
    pre_hires: Optional[np.ndarray] = None    # (n,), zeros if None

    def __post_init__(self):
        n, T = self.base.availability.shape
        if self.wages is None:
            object.__setattr__(self, "wages", np.zeros((n, T)))
        if self.pre_hires is None:
            object.__setattr__(self, "pre_hires", np.zeros(n))
        if not self.epoch_breaks:
            object.__setattr__(self, "epoch_breaks", (T,))
            if not self.release_fees:
                object.__setattr__(self, "release_fees", (UNLIMITED,))

    @property
    def n_epochs(self) -> int:
        return len(self.epoch_breaks)

    def epoch_range(self, ell: int) -> tuple:
        """Closed day range [t_{ell-1}, t_ell] of epoch ell (1-based)."""
        lo = 0 if ell == 1 else self.epoch_breaks[ell - 2]
        return lo, self.epoch_breaks[ell - 1]


def validate_release_fields(ri: ReleaseInstance) -> ReleaseInstance:
    """Check the base instance and the fields of a release file: epoch
    breaks, one release fee per epoch, and finite nonnegative fees, budget,
    wages and pre-hires.  Joint-cost runs need no more than this.  Returns
    the instance with its epoch breaks as ints."""
    inst = validate_instance(ri.base)
    T = inst.horizon
    _check_finite("epoch_breaks", ri.epoch_breaks)
    odd = [b for b in ri.epoch_breaks if b != int(b)]
    if odd:
        raise InstanceError(f"epoch_breaks must be whole days, got {odd[0]}")
    breaks = tuple(int(b) for b in ri.epoch_breaks)
    if len(breaks) == 0 or breaks[-1] != T or any(
            b2 <= b1 for b1, b2 in zip((0,) + breaks, breaks)):
        raise InstanceError(f"epoch breaks {breaks} must be strictly "
                            f"increasing and end at T={T}")
    if len(ri.release_fees) != len(breaks):
        raise InstanceError("need one release fee per epoch")
    fees = [q for q in ri.release_fees if q is not UNLIMITED]
    _check_finite("release_fees", fees)
    if any(q < 0 for q in fees):
        raise NegativeParameter("release fees must be nonnegative")
    if ri.budget is not UNLIMITED:
        _check_finite("budget", ri.budget)
        if ri.budget < 0:
            raise NegativeParameter("budget must be nonnegative")
    for name in ("wages", "pre_hires"):
        _check_finite(name, getattr(ri, name))
    if np.any(ri.wages < 0):
        raise NegativeParameter("wages must be nonnegative")
    if np.any(ri.pre_hires < 0):
        raise NegativeParameter("pre-hires must be nonnegative")
    return replace(ri, epoch_breaks=breaks)


def validate_release_instance(ri: ReleaseInstance) -> ReleaseInstance:
    """validate_release_fields, then release mode's premises: error bounds
    that do not increase, and perfectly consistent forecasts."""
    ri = validate_release_fields(ri)
    inst = ri.base
    if np.any(np.diff(np.concatenate(([inst.delta0], inst.error_bounds))) > 1e-12):
        raise InstanceError("release mode requires nonincreasing error bounds "
                            "(nested forecast constructions)")
    if np.any(inst.inconsistency != 0):
        raise InstanceError("release mode supports perfectly consistent "
                            "forecasts only (eps = 0)")
    return ri


@dataclass(frozen=True)
class EpochState:
    """Carried state between resolving days or release epochs.

    index is the current day t (resolving) or epoch ell (release mode).
    availability is the remaining-horizon schedule rescaled so that entries
    are relative to the state's reference day; cum_hires are net hires so far.
    """

    index: int
    cum_hires: np.ndarray           # (n,)
    remaining_supply: np.ndarray    # (n,)
    remaining_budget: Optional[float]
    interval: tuple                 # (L-bar, R-bar)
    availability: np.ndarray        # (n, T) rescaled; columns before the
                                    # reference day are unused

    def __post_init__(self):
        lo, hi = self.interval
        if lo > hi + 1e-9:
            raise InstanceError(f"carried interval [{lo}, {hi}] is empty")
        if (self.remaining_supply < -1e-9).any():
            raise InstanceError("negative remaining supply in state")
        if self.remaining_budget is not None and self.remaining_budget < -1e-9:
            raise InstanceError("negative remaining budget in state")


def rescaled_availability(availability: np.ndarray, day: int) -> np.ndarray:
    """The schedule after day `day` (1-based) relative to that day, as the
    next EpochState carries it: each pool's later columns are divided by its
    availability on `day`, a pool closed on `day` is zero from then on, and
    the columns through `day` are zero (no reader looks at them)."""
    ref = availability[:, day - 1:day]
    out = np.zeros_like(availability)
    np.divide(availability[:, day:], ref, out=out[:, day:], where=ref > 0)
    return out


def fresh_state(inst: Instance, budget=UNLIMITED, pre_hires=None) -> EpochState:
    n = inst.n_pools
    z = np.zeros(n) if pre_hires is None else np.asarray(pre_hires, float).copy()
    return EpochState(
        index=1,
        cum_hires=z,
        remaining_supply=inst.pool_sizes.astype(float).copy(),
        remaining_budget=budget,
        interval=inst.initial_range,
        availability=inst.availability.astype(float).copy(),
    )


def imbalance_cost(under_cost: float, over_cost: float, staffed: float,
                   demand: float) -> float:
    """c * (d - H)^+ + C * (H - d)^+ for net staffing level H."""
    return (under_cost * max(0.0, demand - staffed)
            + over_cost * max(0.0, staffed - demand))


def staffing_cost(inst: Instance, plan: StaffingPlan, demand: float) -> float:
    """Terminal imbalance cost of a plan against a realized demand."""
    return imbalance_cost(inst.under_cost, inst.over_cost,
                          plan.total_net, demand)


def multi_station_cost(msi: MultiStationInstance, plans: Sequence[StaffingPlan],
                       demands: Sequence[float]) -> float:
    """Egalitarian (max) or utilitarian (sum) aggregate of per-station costs."""
    if len(plans) != msi.n_stations or len(demands) != msi.n_stations:
        raise ValueError("need one plan and one demand per station")
    per = [imbalance_cost(st.under_cost, st.over_cost, plans[j].total_net,
                          demands[j])
           for j, st in enumerate(msi.stations)]
    return max(per) if msi.objective == "max" else float(sum(per))


def wage_bill(wages: np.ndarray, hires: np.ndarray) -> float:
    """Wages paid for a hire schedule: the sum of wage times hires over
    pools and days, for arrays of one shape."""
    return float((wages * hires).sum())


def joint_cost(ri: ReleaseInstance, plan: StaffingPlan, demand: float) -> float:
    """Staffing cost plus wage bill.  Joint mode has no releases."""
    if np.any(plan.releases != 0):
        raise ValueError("joint cost mode does not admit releases")
    return staffing_cost(ri.base, plan, demand) + wage_bill(ri.wages,
                                                            plan.hires)


def supply_usage(availability: np.ndarray, hires: np.ndarray) -> np.ndarray:
    """Initial-pool units consumed by an (n, days) hire schedule: sum_t
    x_it / rho_it, with rho = availability over the schedule's days.

    Hires on rho = 0 days count as infeasible unless exactly zero.
    """
    rho = availability
    n, days = hires.shape
    usage = np.zeros(n)
    for i in range(n):
        for t in range(days):
            x = hires[i, t]
            if x > FEAS_TOL and rho[i, t] <= 0:
                usage[i] = np.inf
            elif rho[i, t] > 0:
                usage[i] += x / rho[i, t]
    return usage


class SupplyLedger:
    """Initial-pool units a policy has used so far, and what each pool can
    still supply: hiring x on day t uses x / rho_t units (none if rho_t = 0).

    `available` returns a list: the naive fill and the MDP's action box
    read it entry by entry, and the greedy policy's `np.minimum` takes it
    as it is.
    """

    def __init__(self, inst: Instance):
        self.usage = [0.0] * inst.n_pools
        self._sizes = inst.pool_sizes.tolist()
        # _rho[t-1][i]: pool i's availability on day t.
        self._rho = inst.availability.T.tolist()

    def available(self, t: int) -> List[float]:
        return [max(rho * (size - used), 0.0) for rho, size, used
                in zip(self._rho[t - 1], self._sizes, self.usage)]

    def book(self, t: int, hires: Sequence[float]) -> None:
        for i, rho in enumerate(self._rho[t - 1]):
            if rho > 0:
                self.usage[i] += hires[i] / rho


def check_feasibility(problem, plan: StaffingPlan):
    """Verify supply (and, in release mode, budget and release) feasibility.

    problem is an Instance or a ReleaseInstance.  Returns (ok, violations)
    where violations is a list of human-readable strings; nothing is raised.
    """
    if isinstance(problem, ReleaseInstance):
        inst, ri = problem.base, problem
    else:
        inst, ri = problem, None
    violations = []
    if np.any(plan.hires < -FEAS_TOL):
        violations.append("negative hires")
    if np.any(plan.releases < -FEAS_TOL):
        violations.append("negative releases")
    usage = supply_usage(inst.availability, np.maximum(plan.hires, 0.0))
    for i in range(inst.n_pools):
        if usage[i] > inst.pool_sizes[i] + FEAS_TOL:
            violations.append(
                f"pool {i}: supply usage {usage[i]:.12g} exceeds "
                f"size {inst.pool_sizes[i]:.12g}")
    if ri is not None:
        z = ri.pre_hires
        cum_x = np.cumsum(plan.hires, axis=1)
        cum_y = np.cumsum(plan.releases, axis=1)
        for i in range(inst.n_pools):
            bad = np.nonzero(cum_y[i] > z[i] + cum_x[i] + FEAS_TOL)[0]
            if bad.size:
                violations.append(
                    f"pool {i}: releases exceed prior hires by day {bad[0] + 1}")
        if ri.budget is not UNLIMITED:
            fee_by_day = epoch_fee_by_day(ri)
            spend = wage_bill(ri.wages, plan.hires)
            for i in range(inst.n_pools):
                for t in range(inst.horizon):
                    y = plan.releases[i, t]
                    if y > FEAS_TOL:
                        q = fee_by_day[t]
                        if q is UNLIMITED:
                            violations.append(
                                f"pool {i}: release on day {t + 1} has an "
                                f"infinite fee")
                        else:
                            spend += q * y
            if spend > ri.budget + FEAS_TOL:
                violations.append(
                    f"budget: spend {spend:.12g} exceeds {ri.budget:.12g}")
    elif np.any(plan.releases > FEAS_TOL):
        violations.append("releases present outside release mode")
    return (not violations), violations


def epoch_fee_by_day(ri: ReleaseInstance):
    """Per-day release fee list (None where releasing is forbidden)."""
    fees = []
    for ell in range(1, ri.n_epochs + 1):
        lo, hi = ri.epoch_range(ell)
        fees.extend([ri.release_fees[ell - 1]] * (hi - lo))
    return fees


# --- JSON serialization ----------------------------------------------------
# Field names are part of the documented file schema: n_pools, horizon,
# pool_sizes, availability, initial_range, error_bounds, inconsistency,
# under_cost, over_cost, stations, budget, wages, epoch_breaks, release_fees,
# objective.

def instance_to_dict(inst: Instance) -> dict:
    return {
        "n_pools": inst.n_pools,
        "horizon": inst.horizon,
        "pool_sizes": inst.pool_sizes.tolist(),
        "availability": inst.availability.tolist(),
        "initial_range": list(inst.initial_range),
        "error_bounds": inst.error_bounds.tolist(),
        "inconsistency": inst.inconsistency.tolist(),
        "under_cost": inst.under_cost,
        "over_cost": inst.over_cost,
    }


def multi_station_to_dict(msi: MultiStationInstance) -> dict:
    return {
        "n_pools": msi.n_pools,
        "horizon": msi.horizon,
        "pool_sizes": msi.pool_sizes.tolist(),
        "availability": msi.availability.tolist(),
        "objective": msi.objective,
        "stations": [{
            "initial_range": list(st.initial_range),
            "error_bounds": st.error_bounds.tolist(),
            "under_cost": st.under_cost,
            "over_cost": st.over_cost,
        } for st in msi.stations],
    }


def release_to_dict(ri: ReleaseInstance) -> dict:
    d = instance_to_dict(ri.base)
    d.update({
        "budget": ri.budget,
        "wages": ri.wages.tolist(),
        "epoch_breaks": list(ri.epoch_breaks),
        "release_fees": list(ri.release_fees),
        "pre_hires": ri.pre_hires.tolist(),
    })
    return d


def instance_from_dict(d: dict):
    """Rebuild an Instance / MultiStationInstance / ReleaseInstance.

    Dispatch: "stations" marks a multi-station file; any of budget, wages,
    epoch_breaks, release_fees marks a release file; otherwise a base file.
    """
    if "stations" in d:
        T = int(d["horizon"])
        stations = tuple(
            StationSpec(
                initial_range=tuple(st["initial_range"]),
                error_bounds=_as_float_array(st["error_bounds"], (T,)),
                under_cost=float(st.get("under_cost", 1.0)),
                over_cost=float(st.get("over_cost", 1.0)),
            ) for st in d["stations"])
        return MultiStationInstance(
            pool_sizes=_as_float_array(d["pool_sizes"]),
            availability=_as_float_array(d["availability"]),
            stations=stations,
            objective={"egalitarian": "max", "utilitarian": "sum"}.get(
                d.get("objective", "max"), d.get("objective", "max")),
        )
    base = make_instance(
        d["pool_sizes"], d["availability"], d["initial_range"],
        d["error_bounds"], d.get("inconsistency"),
        d.get("under_cost", 1.0), d.get("over_cost", 1.0))
    release_keys = ("budget", "wages", "epoch_breaks", "release_fees",
                    "pre_hires")
    if any(k in d for k in release_keys):
        n, T = base.availability.shape
        wages = d.get("wages")
        return ReleaseInstance(
            base=base,
            budget=d.get("budget", UNLIMITED),
            wages=None if wages is None else _as_float_array(wages, (n, T)),
            epoch_breaks=tuple(d.get("epoch_breaks", (T,))),
            release_fees=tuple(d.get("release_fees", (UNLIMITED,) * len(
                d.get("epoch_breaks", (T,))))),
            pre_hires=(None if d.get("pre_hires") is None
                       else _as_float_array(d["pre_hires"], (n,))),
        )
    return base


def save_instance(problem, path) -> None:
    if isinstance(problem, MultiStationInstance):
        d = multi_station_to_dict(problem)
    elif isinstance(problem, ReleaseInstance):
        d = release_to_dict(problem)
    else:
        d = instance_to_dict(problem)
    with open(path, "w") as f:
        json.dump(d, f, indent=1)
        f.write("\n")


def load_instance(path):
    with open(path) as f:
        return instance_from_dict(json.load(f))
