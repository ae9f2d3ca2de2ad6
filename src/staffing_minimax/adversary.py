"""Adversarial prediction sequences and a brute-force worst-case oracle.

The generators produce the structured sequences the theory is built on
(single-switch, the worst-case supply-draining sequence, multi-switch
configuration sequences) plus seeded random nested sequences for fuzzing.
The oracle exhaustively grids small instances to certify worst-case cost,
playing each leaf of one tree walk as its intervals and final range.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import (Callable, Iterator, List, NamedTuple, Optional,
                    Sequence, Tuple)

import numpy as np

from .model import (Instance, InstanceError, PredictionInterval,
                    PredictionSequence, ReleaseInstance, fresh_state,
                    imbalance_cost, narrow_day, wage_bill)
from .programs import configuration_walk, single_switch_floor


class BudgetExceeded(RuntimeError):
    """Grid enumeration would exceed the configured size cap."""


class EmptyGrid(InstanceError):
    """The grid adversary has no sequence to play."""


def check_grid_step(grid_step: float) -> None:
    """The grid adversary's step must be a positive finite number."""
    if not 0 < grid_step < np.inf:
        raise InstanceError(
            f"grid step must be positive and finite, got {grid_step}")


def single_switch_sequence(inst: Instance, k: int) -> PredictionSequence:
    """High-signal intervals through day k, then the left endpoint freezes.

    Days t <= k show [R0 - eps_t - Delta_t, R0 - eps_t]; afterwards the left
    endpoint sits at the switch floor and the width stays at Delta_t.
    """
    T = inst.horizon
    if not (1 <= k <= T):
        raise InstanceError(f"switch day {k} outside [1, {T}]")
    lo0, hi0 = inst.initial_range
    floor = single_switch_floor(inst, k)
    intervals = []
    for t in range(1, T + 1):
        if t <= k:
            intervals.append(PredictionInterval(
                hi0 - inst.eps(t) - inst.delta(t), hi0 - inst.eps(t)))
        else:
            intervals.append(PredictionInterval(floor, floor + inst.delta(t)))
    return PredictionSequence.build(inst, intervals)


def worst_case_sequence(inst: Instance) -> PredictionSequence:
    """The supply-draining sequence [R0 - Delta_t, R0] (single pool, eps 0)."""
    if not inst.single_pool():
        raise InstanceError("worst-case sequence is a single-pool construction")
    if np.any(inst.inconsistency != 0):
        raise InstanceError("worst-case sequence assumes eps = 0")
    lo0, hi0 = inst.initial_range
    intervals = [PredictionInterval(hi0 - inst.delta(t), hi0)
                 for t in range(1, inst.horizon + 1)]
    return PredictionSequence.build(inst, intervals)


def configuration_sequence(ri: ReleaseInstance, config: Sequence[int]
                           ) -> PredictionSequence:
    """Multi-switch sequence encoded by one switch day per fee epoch.

    Within each epoch the right endpoint holds until the epoch's switch day,
    then the left endpoint holds while the interval tightens from above.
    Sequences with equal epoch prefixes agree through the earlier switch day.
    """
    inst = ri.base
    config = tuple(int(j) for j in config)
    if len(config) != ri.n_epochs:
        raise InstanceError(f"config {config} needs {ri.n_epochs} entries")
    state = fresh_state(inst, ri.budget, ri.pre_hires)
    return PredictionSequence.build(
        inst, list(configuration_walk(ri, state, config)))


def random_nested_sequence(inst: Instance, seed: int) -> PredictionSequence:
    """Seeded nested sequence honoring the width bounds (eps treated as 0).

    Each day's endpoints are drawn uniformly over the valid set
    {lo ≤ a ≤ b ≤ hi, b - a ≤ Delta_t} by rejection from the parent box.
    """
    rng = np.random.default_rng(seed)
    lo, hi = inst.initial_range
    intervals = []
    for t in range(1, inst.horizon + 1):
        big_w = hi - lo
        cap = min(inst.delta(t), big_w)
        if big_w <= 1e-15:
            a, w = lo, 0.0
        elif cap <= 1e-15:
            a, w = rng.uniform(lo, hi), 0.0
        else:
            # Width density is proportional to (W - w) on [0, cap]; invert
            # the CDF, then place the left endpoint uniformly.
            z = rng.uniform()
            area = big_w * cap - 0.5 * cap * cap
            w = big_w - np.sqrt(max(big_w * big_w - 2.0 * z * area, 0.0))
            w = min(w, cap)
            a = rng.uniform(lo, hi - w)
        lo, hi = float(a), float(a + w)
        intervals.append(PredictionInterval(lo, hi))
    return PredictionSequence.build(inst, intervals)


def sequence_from_csv(path, inst: Instance) -> PredictionSequence:
    """Ingest a day,lo,hi CSV of external forecasts, one row a day."""
    with open(path, newline="") as f:
        rows = sorted((int(row["day"]), float(row["lo"]), float(row["hi"]))
                      for row in csv.DictReader(f))
    days = [t for t, _, _ in rows]
    if days != list(range(1, inst.horizon + 1)):
        raise InstanceError(f"sequence file has days {days}; need each of "
                            f"1 to {inst.horizon} once")
    return PredictionSequence.build(inst, [(lo, hi) for _, lo, hi in rows])


@dataclass(frozen=True)
class WorstCaseWitness:
    cost: float
    sequence: PredictionSequence
    demand: float


def worst_demand_cost(inst: Instance, total_net: float, lo: float,
                      hi: float) -> Tuple[float, float]:
    """(cost, demand) maximizing the imbalance over the final effective
    range [lo, hi]: the imbalance is convex in the demand, so the worse end
    (the lower one on a tie) attains it.  Crossed bounds leave the upper
    end alone, as in `demand_candidates`."""
    c, C = inst.under_cost, inst.over_cost
    if lo < hi:
        cost_lo = imbalance_cost(c, C, total_net, lo)
        cost_hi = imbalance_cost(c, C, total_net, hi)
        return (cost_hi, hi) if cost_hi > cost_lo else (cost_lo, lo)
    return imbalance_cost(c, C, total_net, hi), hi


def grid_nested_intervals(lo: float, hi: float, width_cap: float,
                          grid: Sequence[float]) -> List[PredictionInterval]:
    pts = [p for p in grid if lo - 1e-12 <= p <= hi + 1e-12]
    out = []
    for a in pts:
        for b in pts:
            if a <= b + 1e-12 and b - a <= width_cap + 1e-12:
                out.append(PredictionInterval(a, b))
    return out


class _Leaf(NamedTuple):
    """A grid sequence as the oracle plays it: its intervals, which are all
    `policies.play` reads untraced, and its final effective range."""
    intervals: tuple
    lo: float
    hi: float


def _grid_leaves(inst: Instance, grid_step: float,
                 cap: int) -> Iterator[_Leaf]:
    """The enumeration tree's leaves, in `enumerate_grid_sequences` order.

    A node's children are the grid intervals nested in its interval within
    the next day's width cap.  Each distinct window's list is made, reversed,
    once per walk, and `model.narrow_day` checks each of its intervals once:
    narrowing (-inf, inf) gives the day's own bounds, which each node folds
    into its running bounds by `narrow_day`'s max and min.  The stack pops
    children in window order; last-day leaves come out in reverse, as the
    enumeration has always ordered them.
    """
    check_grid_step(grid_step)
    if np.any(inst.inconsistency != 0):
        raise InstanceError("the grid adversary certifies eps = 0 instances "
                            "only")
    lo0, hi0 = inst.initial_range
    span = (hi0 - lo0) / grid_step
    if span >= cap:     # more than cap grid points, each ends a sequence
        raise BudgetExceeded(f"more than {cap} grid sequences")
    n_steps = int(round(span))
    grid = (lo0 + grid_step * np.arange(n_steps + 1)).tolist()
    bounds = inst.error_bounds.tolist()         # inst.delta(t)
    epss = inst.inconsistency.tolist()          # inst.eps(t)
    T = inst.horizon
    windows: dict = {}
    # (day, nested window, running effective bounds through the day before,
    #  the prefix's intervals)
    stack: List[Tuple[int, float, float, float, float, tuple]] = [
        (1, lo0, hi0, lo0, hi0, ())]
    count = 0
    while stack:
        t, lo, hi, lo_run, hi_run, prefix = stack.pop()
        bound, eps = bounds[t - 1], epss[t - 1]
        window = windows.get((lo, hi, bound, eps))
        if window is None:
            window = windows[lo, hi, bound, eps] = [
                (iv, *narrow_day(t, iv, bound, eps, -np.inf, np.inf))
                for iv in reversed(grid_nested_intervals(lo, hi, bound,
                                                         grid))]
        for iv, own_lo, own_hi in window:
            day_lo, day_hi = max(lo_run, own_lo), min(hi_run, own_hi)
            if t == T:
                count += 1
                if count > cap:
                    raise BudgetExceeded(
                        f"more than {cap} grid sequences")
                yield _Leaf(prefix + (iv,), day_lo, day_hi)
            else:
                stack.append((t + 1, iv.lo, iv.hi, day_lo, day_hi,
                              prefix + (iv,)))


def enumerate_grid_sequences(inst: Instance, grid_step: float,
                             cap: int = 2_000_000) -> List[PredictionSequence]:
    """All nested sequences with endpoints on the grid (eps = 0 only): the
    walk's leaves, built by `PredictionSequence.build`.  Sequences through
    one tree node share its interval objects."""
    return [PredictionSequence.build(inst, leaf.intervals)
            for leaf in _grid_leaves(inst, grid_step, cap)]


def demand_candidates(sequence: PredictionSequence) -> List[float]:
    """The demands `worst_demand_cost` weighs: the final effective range's
    endpoints, one value when they meet.  Inconsistent inputs can cross the
    bounds; the lower end is then clamped to the upper one."""
    lo = float(sequence.effective_lo[-1])
    hi = float(sequence.effective_hi[-1])
    return [lo, hi] if lo < hi else [hi]


def brute_force_worst_case(inst: Instance, policy_factory: Callable,
                           grid_step: float, cap: int = 2_000_000,
                           wages: Optional[np.ndarray] = None
                           ) -> WorstCaseWitness:
    """Exact worst case of a deterministic policy over the grid adversary.

    Walks every nested grid sequence before the first play (so a grid of
    more than `cap` plays none), plays a fresh policy against each (policies
    are single-consumer), and scores the plan as `run` does, by
    `worst_demand_cost`.  With wages (pools by days), each plan's wage bill
    is added, the cost `model.joint_cost` charges.  Only the witness becomes
    a `PredictionSequence`, the one `enumerate_grid_sequences` gives.
    """
    from .policies import play     # local import to avoid a cycle

    best: Optional[Tuple[float, _Leaf, float]] = None
    for leaf in list(_grid_leaves(inst, grid_step, cap)):
        plan = play(policy_factory(), inst, leaf)
        cost, demand = worst_demand_cost(inst, plan.total_net, leaf.lo,
                                         leaf.hi)
        if wages is not None:
            cost += wage_bill(wages, plan.hires)
        if best is None or cost > best[0]:
            best = (cost, leaf, demand)
    if best is None:
        raise EmptyGrid(f"no nested grid sequence at step {grid_step}")
    cost, leaf, demand = best
    return WorstCaseWitness(cost, PredictionSequence.build(inst,
                                                           leaf.intervals),
                            demand)
