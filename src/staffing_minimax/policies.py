"""Online staffing policies with a uniform step interface.

Each policy is a single-consumer object: construct it, then feed one
observation per day and collect the day's decision.  Decisions depend only
on prior information, history, and the current observation.  The provably
minimax-optimal set lives here; Bayesian heuristics and MDP baselines live
in the bayesian module and follow the same protocol.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from types import MappingProxyType
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .adversary import worst_case_sequence
from .emulator import (RELEASE_MEMO_CAP, Decision, Emulator, EmulatorTrace,
                       _memo_entry, _no_releases, critical_switch_day)
from .model import (UNLIMITED, EpochState, Instance, InstanceError,
                    PredictionInterval, PredictionSequence, ReleaseInstance,
                    SequenceError, StaffingPlan, SupplyLedger, fresh_state,
                    make_instance, rescaled_availability, supply_usage,
                    validate_release_instance, wage_bill)
from .programs import (DayMemo, build_lp_joint_cost, build_lp_release,
                       build_lp_resolving, extract_canonical,
                       minimax_value_and_profile, solve_canonical)

BISECT_TOL = 1e-9     # bracket width at which the gamma* bisections stop


class MultiPoolUnsupported(InstanceError):
    pass


class ParameterOutOfRange(ValueError):
    pass


class UnsupportedBase(TypeError):
    pass


class DayObservation(NamedTuple):
    """What a policy sees on one day.

    interval is always present; partial demand and the day's sampled future
    partials exist only in the Bayesian world (None otherwise).
    """

    day: int
    interval: PredictionInterval
    partial: Optional[float] = None
    samples: Optional[np.ndarray] = None


def play(policy, inst: Instance, sequence: PredictionSequence,
         trace: Optional[EmulatorTrace] = None, world=None) -> StaffingPlan:
    """Drive a policy over a full sequence; returns the realized plan.

    In a Bayesian world (`bayesian.World`) each day's observation also
    carries the day's partial demand and sampled future partials.  With a
    trace, each day records the policy's canonical cumulative total
    (the realized net total when it has no canonical profile), the realized
    net total, the effective bounds R_hat and L_hat, and the day's decision.
    A hire-only decision leaves its day's releases column at zero.  The
    sequence must hold exactly T intervals.
    """
    n, T = inst.availability.shape
    intervals = sequence.intervals
    if len(intervals) != T:
        raise SequenceError(f"expected {T} intervals, got {len(intervals)}")
    hires = np.zeros((n, T))
    releases = np.zeros((n, T))
    hire_rows, release_rows = hires.T, releases.T   # day t is row t - 1
    no_releases = _no_releases((n,))
    canonical = None if trace is None else getattr(policy, "canonical", None)
    step = policy.step
    for t, interval in enumerate(intervals, 1):
        if world is None:
            d = step(DayObservation(t, interval))
        else:
            d = step(DayObservation(t, interval,
                                    float(world.partials[t - 1]),
                                    world.profiles[t - 1]))
        hire_rows[t - 1] = d.hires
        if d.releases is not no_releases:
            release_rows[t - 1] = d.releases
        if trace is not None:
            net = hires.sum() - releases.sum()
            trace.record(t, net if canonical is None
                         else canonical[:, :t].sum(), net,
                         sequence.effective_hi[t - 1],
                         sequence.effective_lo[t - 1], d.hires, d.releases)
    return StaffingPlan(hires, releases)


# --- Warm-up: greedy staffing with a target overstaffing cost ---------------

class GreedyTargetPolicy:
    """Single-pool greedy: hire to the moving cap L_t + gamma/C while supply
    lasts.  Needs perfectly consistent nested forecasts."""

    def __init__(self, inst: Instance, gamma: float):
        if not inst.single_pool():
            raise MultiPoolUnsupported("greedy target staffing is single-pool")
        if np.any(inst.inconsistency != 0):
            raise InstanceError("greedy target staffing assumes eps = 0")
        self.inst = inst
        self.gamma = float(gamma)
        self.day = 0
        self.ledger = SupplyLedger(inst)
        self.prev_lo = None

    def step(self, obs: DayObservation) -> Decision:
        self.day += 1
        t = self.day
        if t == 1:
            want = obs.interval.lo + self.gamma / self.inst.over_cost
        else:
            if obs.interval.lo < self.prev_lo - 1e-9:
                raise InstanceError("greedy target staffing needs nested "
                                    "forecasts (nondecreasing lower bounds)")
            want = obs.interval.lo - self.prev_lo
        hires = np.minimum(max(0.0, want), self.ledger.available(t))
        self.ledger.book(t, hires)
        self.prev_lo = obs.interval.lo
        return Decision.hire_only(hires)


# --- Fixed-point characterizations of the optimal cost ----------------------

@dataclass(frozen=True)
class FixedPointResult:
    gamma_star: float
    branch: str                  # "low_supply" | "fixed_point"
    t_dagger: int


def _clamped_single_pool(inst: Instance) -> Instance:
    """Normalize to the WLOG setting: nonincreasing error bounds capped by
    the initial width (running-min clamp, documented and reversible)."""
    deltas = np.minimum.accumulate(np.minimum(inst.error_bounds, inst.delta0))
    return make_instance(inst.pool_sizes, inst.availability,
                         inst.initial_range, deltas,
                         under_cost=inst.under_cost, over_cost=inst.over_cost)


def _greedy_understaffing(inst: Instance, gamma: float,
                          sequence: PredictionSequence) -> Tuple[float, int]:
    """Understaffing cost of the greedy under the supply-draining sequence.

    Returns (cost, last hiring day).  Assumes the clamped single-pool form.
    """
    hires = play(GreedyTargetPolicy(inst, gamma), inst, sequence).hires[0]
    hired = np.nonzero(hires > 1e-15)[0]
    # Summed day by day; NumPy's pairwise sum() can differ in the last bit.
    total = float(np.add.accumulate(hires)[-1])
    return (inst.under_cost * max(0.0, inst.initial_range[1] - total),
            int(hired[-1]) + 1 if hired.size else 1)


def _bisect_fixed_point(underst, cap: float, gamma_hi: float) -> float:
    """Fixed point of the weakly decreasing map underst, bisected on
    [0, cap], or on [0, gamma_hi] when underst(cap) > cap; 0 when
    underst(0) <= 0.

    Bisects until the bracket is at most BISECT_TOL wide or its midpoint
    equals an endpoint (float spacing above BISECT_TOL), and returns the
    last midpoint.
    """
    lo_g, hi_g = 0.0, (cap if underst(cap) <= cap else gamma_hi)
    if underst(lo_g) <= lo_g:
        return lo_g
    while hi_g - lo_g > BISECT_TOL:
        mid = 0.5 * (lo_g + hi_g)
        if mid in (lo_g, hi_g):
            break
        if underst(mid) > mid:
            lo_g = mid
        else:
            hi_g = mid
    return 0.5 * (lo_g + hi_g)


def gamma_star_single_pool(inst: Instance) -> FixedPointResult:
    """Optimal minimax cost of a single-pool instance via the fixed point.

    Either the low-supply branch fires (all supply hired on day 1 and the
    understaffing still dominates) or gamma* is the fixed point of the
    weakly decreasing worst-case-understaffing map, found by bisection.
    """
    if not inst.single_pool():
        raise MultiPoolUnsupported("fixed-point characterization is "
                                   "single-pool")
    if np.any(inst.inconsistency != 0):
        raise InstanceError("fixed-point characterization assumes eps = 0")
    work = _clamped_single_pool(inst)
    draining = worst_case_sequence(work)
    lo0, hi0 = work.initial_range
    rho1 = float(work.availability[0, 0])
    s = float(work.pool_sizes[0])
    lbar1 = hi0 - work.delta(1)
    gamma_hi = work.over_cost * (rho1 * s - lbar1)

    def underst(g):
        return _greedy_understaffing(work, g, draining)[0]

    if gamma_hi <= 0 or underst(gamma_hi) > gamma_hi:
        gamma = work.under_cost * (hi0 - rho1 * s)
        return FixedPointResult(gamma, "low_supply", 1)
    gamma = _bisect_fixed_point(
        underst, min(gamma_hi, work.under_cost * (hi0 - lo0)), gamma_hi)
    return FixedPointResult(gamma, "fixed_point",
                            _greedy_understaffing(work, gamma, draining)[1])


def _t_dagger_scan(s, eta, delta, T, C, gamma) -> int:
    """Last hiring day from the defining supply inequality (always valid)."""
    used = (delta ** (T - 1) + gamma / C) / eta
    if used > s:
        return 1
    for t in range(2, T + 1):
        used += delta ** (T - t) * (1.0 - delta) / eta ** t
        if used > s:
            return t
    return T


def gamma_star_closed_form(s: float, eta: float, delta: float, T: int,
                           c: float = 1.0, C: float = 1.0) -> float:
    """Optimal cost for the stylized family rho_t = eta^t,
    Delta_t = 1 - delta^(T-t), demand range [0, 1].

    Low supply gives the explicit c * (1 - eta * s); otherwise the scalar
    fixed-point equation is solved by bisection with the integer last hiring
    day recomputed inside.  Geometric sums are evaluated term by term so the
    delta * eta = 1 degeneracy of the displayed form never arises; the
    supply-never-exhausts boundary case clamps the final-day hire at the
    greedy increment.
    """
    if not (eta > 0):
        raise ParameterOutOfRange(f"eta must be positive, got {eta}")
    if not (0 < delta < 1):
        raise ParameterOutOfRange(f"delta must lie in (0, 1), got {delta}")
    if T < 1 or s < 0 or c <= 0 or C <= 0:
        raise ParameterOutOfRange("need T >= 1, s >= 0, c > 0, C > 0")
    if s <= (c + C * delta ** (T - 1)) / ((c + C) * eta):
        return c * (1.0 - eta * s)

    lbar = [delta ** (T - t) for t in range(0, T + 1)]   # lbar[t], lbar[0] unused

    def underst(gamma: float) -> float:
        td = _t_dagger_scan(s, eta, delta, T, C, gamma)
        if td == 1:
            total = min(lbar[1] + gamma / C, eta * s)
        else:
            used = (lbar[1] + gamma / C) / eta + sum(
                (lbar[t] - lbar[t - 1]) / eta ** t for t in range(2, td))
            before = lbar[td - 1] + gamma / C
            blue = min(eta ** td * max(0.0, s - used),
                       max(0.0, lbar[td] - lbar[td - 1]))
            total = before + blue
        return c * max(0.0, 1.0 - total)

    gamma_hi = C * (eta * s - delta ** (T - 1))
    return _bisect_fixed_point(underst, min(gamma_hi, c), gamma_hi)


# --- LP-backed minimax-optimal policies --------------------------------------

class LpEmulatorPolicy:
    """Solve the base program once, then emulate its canonical profile."""

    def __init__(self, inst: Instance, canonical: Optional[np.ndarray] = None,
                 gamma_star: Optional[float] = None):
        self.inst = inst
        if canonical is None:
            gamma_star, canonical = minimax_value_and_profile(inst)
        self.canonical = canonical
        self.gamma_star = gamma_star
        self.emulator = Emulator(canonical, inst.availability,
                                 inst.initial_range[1])
        self.eps = inst.inconsistency.tolist()      # inst.eps(t), t >= 1

    def step(self, obs: DayObservation) -> Decision:
        em = self.emulator
        return em.step(obs.interval.hi + self.eps[em.day])


# Entries a resolving memo keeps, least recently used first out.  On
# bench_long one entry takes about 350 bytes (1.5 MB at the cap), and the
# cap keeps nearly all of the repeats an unbounded memo finds: most are the
# day-1 and day-2 states that many replications share.
RESOLVING_MEMO_CAP = 4096

# The availability each resolving day carries into the next, read-only, by
# day and the exact bytes of the day's own.
_carried_availability = DayMemo()


def _next_availability(availability: np.ndarray, t: int) -> np.ndarray:
    key = (availability.shape, availability.dtype.str, availability.tobytes())

    def rescale():
        out = rescaled_availability(availability, t)
        out.flags.writeable = False
        return out
    return _carried_availability.get(t, key, rescale)


class LpResolvingPolicy:
    """Rebuild and re-solve the program each day on the remaining horizon,
    then play its first-day block.

    Each day's solve goes through `memo`, an OrderedDict from the day's
    exact state to (program value, day-t hires as bytes), bounded by
    RESOLVING_MEMO_CAP entries and evicted least recently used first.  The
    key is the bytes of the day t, the clamped carried interval, the
    cumulative hires and the remaining supply.  The carried availability
    is left out: each step rescales the previous day's schedule, so for one
    instance it depends on t alone.  Solving is deterministic, so a hit
    plays the very hires a fresh solve would.  A memo serves one instance;
    policies sharing one (as `cli.POLICIES` makes them) solve each state
    they reach once, and a policy built without one gets its own.

    A step builds one EpochState, the state it carries into the next day;
    a miss also builds the day's own for build_lp_resolving.  The carried
    availability is rescaled once per instance and day and shared
    read-only by every state of that day.  What a miss solves besides the
    state's right-hand sides is made once per day of the instance (see
    build_lp_resolving, whose day key, compared by value, rebuilds them
    for another instance): the rows with their dense A, sense, objective
    array and pivot-path memo, the refinement targets, and the stacked
    refinement rows and cost vectors.  Per state, a miss computes the
    right-hand sides and solves through solve_canonical (solve_lp, then
    refine_lexicographic) and extract_canonical.
    """

    def __init__(self, inst: Instance, memo: Optional[OrderedDict] = None):
        self.inst = inst
        self.memo = OrderedDict() if memo is None else memo
        self.state = fresh_state(inst)
        self.day = 0
        self.gamma_star = None       # day-1 program value, set on first step

    def step(self, obs: DayObservation) -> Decision:
        self.day += 1
        t = self.day
        inst = self.inst
        st = self.state
        lo_bar, hi_bar = st.interval
        hi_bar = min(hi_bar, obs.interval.hi + inst.eps(t))
        lo_bar = max(lo_bar, obs.interval.lo - inst.eps(t))
        lo_bar = min(lo_bar, hi_bar)     # inconsistent input guard
        key = np.concatenate(([t, lo_bar, hi_bar], st.cum_hires,
                              st.remaining_supply)).tobytes()

        def solve():
            day_state = EpochState(t, st.cum_hires, st.remaining_supply,
                                   st.remaining_budget, (lo_bar, hi_bar),
                                   st.availability)
            built = build_lp_resolving(inst, day_state, t)
            sol = solve_canonical(built, refine_limit=1)
            return (sol.objective,
                    extract_canonical(built, sol)[:, t - 1].tobytes())
        objective, hire_bytes = _memo_entry(self.memo, key,
                                            RESOLVING_MEMO_CAP, solve)
        if self.gamma_star is None:
            self.gamma_star = objective
        hires = np.frombuffer(hire_bytes).copy()
        rho_t = st.availability[:, t - 1]
        new_supply = np.maximum(rho_t * st.remaining_supply - hires, 0.0)
        self.state = EpochState(
            index=t + 1, cum_hires=st.cum_hires + hires,
            remaining_supply=new_supply, remaining_budget=st.remaining_budget,
            interval=(lo_bar, hi_bar),
            availability=_next_availability(st.availability, t))
        return Decision.hire_only(hires)


class JointCostPolicy(LpEmulatorPolicy):
    """Emulate the joint-cost program's canonical profile (wage-aware).

    The joint program assumes eps = 0, so this is the LP emulator over the
    joint profile; objective is the joint program's value.
    """

    def __init__(self, ri: ReleaseInstance):
        built = build_lp_joint_cost(ri)
        sol = solve_canonical(built)
        super().__init__(ri.base, extract_canonical(built, sol),
                         sol.objective)
        self.ri = ri
        self.objective = sol.objective


class ReleasePolicy:
    """Costly-release policy: per epoch, update the state, re-solve the
    configuration program, emulate its canonical hires, and apply the
    critical-index release rule on the epoch's last day.

    Each epoch's solve goes through `memo`, an OrderedDict from the bytes
    of everything `build_lp_release` reads from the epoch's state to (program
    value, canonical hire block, canonical release vector by switch day),
    all read-only, bounded by RELEASE_MEMO_CAP entries as the resolving
    memo is.  A memo serves one release instance; the policies of one
    `cli.POLICIES` factory share one, and a policy built without one gets
    its own.  Each epoch's emulator finds its block's tables and DayTree
    in the emulator's block memo, so the epochs of one sequence, each on
    its own block, replay the days their trees already hold.

    An epoch opens on the day after the last one ended.  Until its last
    day, `state` is the state the epoch opened with; `emulator` plays the
    epoch's days, and `r_observed`, `realized_cum` and `canon_cum` hold the
    upper bound, realized total and canonical total the epoch's days ran
    through, each led by the epoch's opening value.
    """

    def __init__(self, ri: ReleaseInstance,
                 memo: Optional[OrderedDict] = None):
        self.ri = ri = validate_release_instance(ri)
        self.memo = OrderedDict() if memo is None else memo
        self.state = fresh_state(ri.base, ri.budget, ri.pre_hires)
        self.day = 0
        self.t_end = 0               # last day of the epoch played
        self.objective = None        # day-0 program value, set on first step

    def _epoch_program(self) -> tuple:
        """(program value, canonical hires, canonical releases) of the
        release program from the current epoch state, through the memo."""
        st = self.state
        budget = st.remaining_budget
        key = (None if budget is UNLIMITED else np.float64(budget).tobytes(),
               np.concatenate(([st.index], st.interval, st.cum_hires,
                               st.remaining_supply,
                               st.availability.ravel())).tobytes())

        def solve():
            built = build_lp_release(self.ri, st)
            sol = solve_canonical(built)
            canon_x, canon_y = extract_canonical(built, sol)
            for block in (canon_x, *canon_y.values()):
                block.flags.writeable = False
            return sol.objective, canon_x, MappingProxyType(canon_y)
        return _memo_entry(self.memo, key, RELEASE_MEMO_CAP, solve)

    def _open_epoch(self, program: tuple) -> None:
        """Start the current state's epoch on its program's (value,
        canonical hire block, canonical releases by switch day)."""
        objective, canonical, self.canonical_releases = program
        if self.objective is None:
            self.objective = objective
        st = self.state
        self.t0, self.t_end = self.ri.epoch_range(st.index)
        self.l_bar, self.r_bar = st.interval
        self.emulator = Emulator(canonical, st.availability[:, self.t0:],
                                 self.r_bar)
        self.r_observed = [self.r_bar]
        self.realized_cum = [0.0]
        self.canon_cum = [0.0]

    def _end_epoch(self) -> Tuple[np.ndarray, Optional[EpochState]]:
        """The critical-index releases on the epoch's last day, and the
        state the next epoch opens with (None after the last epoch)."""
        ri, state, inst = self.ri, self.state, self.ri.base
        ell = state.index
        n = inst.n_pools
        t0, t_end = self.t0, self.t_end
        k = critical_switch_day(self.r_observed, self.realized_cum,
                                self.canon_cum, t0)
        y = np.zeros(n)
        y_canon = self.canonical_releases.get(k)
        fee = ri.release_fees[ell - 1]
        if y_canon is not None and fee is not UNLIMITED:
            idx_k = k - t0
            delta_k = (self.r_bar - self.l_bar) if k == t0 else inst.delta(k)
            r_target = self.r_bar - delta_k + inst.delta(t_end)
            r_actual = self.r_observed[-1]
            gap = self.canon_cum[idx_k] - self.realized_cum[idx_k]
            y_total = r_target - r_actual - gap + float(y_canon.sum())
            if -1e-9 <= y_total <= float(y_canon.sum()) + 1e-9:
                y_total = min(max(y_total, 0.0), float(y_canon.sum()))
                remaining = y_total
                for i in range(n):
                    y[i] = min(remaining, float(y_canon[i]))
                    remaining -= y[i]
            # Otherwise: no releasing this epoch.

        next_state = None
        if ell < ri.n_epochs:
            realized = self.emulator.realized
            rho = state.availability
            usage = supply_usage(rho[:, t0:t_end], realized)
            new_supply = rho[:, t_end - 1] * (state.remaining_supply - usage)
            budget = state.remaining_budget
            if budget is not UNLIMITED:
                wages = wage_bill(ri.wages[:, t0:t_end], realized)
                fee_bill = (0.0 if fee is UNLIMITED
                            else float(fee) * float(y.sum()))
                budget = budget - wages - fee_bill
            r_last = self.r_observed[-1]
            next_state = EpochState(
                index=ell + 1,
                cum_hires=state.cum_hires + realized.sum(axis=1) - y,
                remaining_supply=np.maximum(new_supply, 0.0),
                remaining_budget=budget,
                interval=(r_last - inst.delta(t_end), r_last),
                availability=rescaled_availability(rho, t_end),
            )
        return y, next_state

    def step(self, obs: DayObservation) -> Decision:
        self.day += 1
        if self.day > self.t_end:
            self._open_epoch(self._epoch_program())
        em = self.emulator
        idx = em.day
        decision = em.step(obs.interval.hi)
        self.r_observed.append(obs.interval.hi)
        self.realized_cum.append(float(em.realized.sum()))
        self.canon_cum.append(em.tables[idx].canon_cum)
        if self.day < self.t_end:
            return decision
        releases, next_state = self._end_epoch()
        if next_state is not None:
            self.state = next_state
        return Decision(decision.hires, releases)


class MiscoverageWrapper:
    """Shock-aware wrapper for the base emulator (single pool).

    detect_before_hiring: hire nothing on shocked days; on a clean day play
    the wrapper's own emulator over the shocked days since the last clean
    day, each with the clean day's interval, and then over the clean day,
    and hire what it plays today.  Its bounds are those of the repaired
    history, where each shocked day's interval is replaced by the next
    clean day's.  no_detect: run the base policy unmodified.
    """

    def __init__(self, base, scenario: str, shocked: Sequence[bool]):
        if not isinstance(base, LpEmulatorPolicy):
            raise UnsupportedBase("wrapper supports the base LP emulator only")
        if not base.inst.single_pool():
            raise UnsupportedBase("wrapper is single-pool")
        if np.any(base.inst.inconsistency != 0):
            raise UnsupportedBase("wrapper assumes eps = 0 forecasts")
        if scenario not in ("detect_before_hiring", "no_detect"):
            raise ValueError(f"unknown scenario {scenario!r}")
        self.base = base
        self.inst = base.inst
        self.scenario = scenario
        self.shocked = list(bool(b) for b in shocked)
        self.emulator = Emulator(base.canonical, self.inst.availability,
                                 self.inst.initial_range[1])
        self.day = 0

    def step(self, obs: DayObservation) -> Decision:
        if self.scenario == "no_detect":
            return self.base.step(obs)
        self.day += 1
        if self.shocked[self.day - 1]:
            return Decision.hire_only(np.zeros(self.inst.n_pools))
        em = self.emulator
        while em.day < self.day:
            decision = em.step(obs.interval.hi)
        return decision
