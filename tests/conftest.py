import os

import numpy as np

from staffing_minimax import cli
from staffing_minimax.bayesian import backward_induction, mdp_tables
from staffing_minimax.model import (StaffingPlan, make_instance,
                                    validate_instance)
from staffing_minimax.policies import play

INSTANCE_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "instances")


def fig3_instance(which: str):
    """The three illustration instances: T=10, c=C=1, rho_t = 1-0.8^(T-t+1),
    demand range [0,1]; (a)/(b) use Delta_t = 1-0.5^(T-t) with s=4 / s=0.6,
    (c) uses an uninformative schedule with a sharp last day and s=2."""
    T = 10
    rho = [1 - 0.8 ** (T - t + 1) for t in range(1, T + 1)]
    informative = [1 - 0.5 ** (T - t) for t in range(1, T + 1)]
    flat = [1.0] * (T - 1) + [0.3]
    s, deltas = {"a": (4.0, informative), "b": (0.6, informative),
                 "c": (2.0, flat)}[which]
    return validate_instance(make_instance([s], [rho], (0, 1), deltas))


def instance_path(name: str) -> str:
    return os.path.join(INSTANCE_DIR, name)


def final_range(sequence) -> tuple:
    """A sequence's final effective range, the (lo, hi) that
    `adversary.worst_demand_cost` scores."""
    return (float(sequence.effective_lo[-1]),
            float(sequence.effective_hi[-1]))


def plan_of(hires, releases=None) -> StaffingPlan:
    """A plan from loose hires (and releases, zero if None), each made a
    2-D float array; the two shapes must agree."""
    h = np.atleast_2d(np.asarray(hires, dtype=float))
    r = np.zeros_like(h) if releases is None else np.atleast_2d(
        np.asarray(releases, dtype=float))
    if r.shape != h.shape:
        raise ValueError("hires and releases shapes differ")
    return StaffingPlan(h, r)


def station_factories(msi) -> list:
    """The `multi_station` policy's factories of fresh policies, one per
    station of `msi`, as `run` and `oracle` make them."""
    return [factory for _, _, factory in cli._stations(msi, "multi_station",
                                                       None)]


def play_stations(msi, sequences) -> list:
    """Each station's plan: a fresh `multi_station` policy of the station
    played over the station's own sequence."""
    return [play(factory(), inst, seq) for (_, inst, factory), seq
            in zip(cli._stations(msi, "multi_station", None), sequences)]


def random_single_pool(rng: np.random.Generator):
    """Random single-pool instance with monotone error bounds (eps = 0)."""
    T = int(rng.integers(1, 11))
    rho = np.sort(rng.uniform(0.05, 1.0, size=T))[::-1]
    hi0 = rng.uniform(0.5, 3.0)
    deltas = np.sort(rng.uniform(0.0, hi0, size=T))[::-1]
    s = rng.uniform(0.1, 3.0)
    c = rng.uniform(0.2, 3.0)
    C = rng.uniform(0.2, 3.0)
    return validate_instance(make_instance(
        [s], [rho], (0.0, hi0), deltas, under_cost=c, over_cost=C))


def random_multi_pool(rng: np.random.Generator, n_max=3, t_max=6):
    n = int(rng.integers(1, n_max + 1))
    T = int(rng.integers(1, t_max + 1))
    rho = np.sort(rng.uniform(0.05, 1.0, size=(n, T)), axis=1)[:, ::-1]
    lo0 = rng.uniform(0.0, 0.5)
    hi0 = lo0 + rng.uniform(0.2, 2.0)
    deltas = rng.uniform(0.0, (hi0 - lo0) * 1.2, size=T)
    eps = (rng.uniform(0.0, 0.1, size=T)
           if rng.uniform() < 0.3 else np.zeros(T))
    s = rng.uniform(0.1, 2.5, size=n)
    return validate_instance(make_instance(
        s, rho, (lo0, hi0), deltas, inconsistency=eps,
        under_cost=rng.uniform(0.2, 3.0), over_cost=rng.uniform(0.2, 3.0)))


def mdp_root_value(inst, pmfs, spec) -> float:
    """Expected optimal MDP cost before day 1, mixing over the day-1
    partial (pmfs[1]) on the spec's grid."""
    tables = mdp_tables(inst, spec)
    V = backward_induction(inst, pmfs, tables.levels, 1, spec,
                           tables=tables)[0]
    zero = (0,) * inst.n_pools
    return float(sum(pj * V[(j,) + zero] for j, pj in enumerate(pmfs[1])))
