"""Command-line entry points.

Subcommands: solve, run, bench, sweep-eta, oracle, calibrate.
Exit codes: 0 ok, 2 input error, 3 solver failure, 4 an `oracle` worst
case above the program value that bounds a policy with a guarantee (see
UNBOUNDED).  Every command is deterministic under a fixed seed and writes
machine-readable output next to the human summary.  `run` and `oracle`
play each station of a stations file.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from collections import OrderedDict
from functools import lru_cache, partial
from typing import NamedTuple, Optional

import numpy as np

from . import bayesian
from .adversary import (BudgetExceeded, brute_force_worst_case,
                        check_grid_step, configuration_sequence,
                        random_nested_sequence, sequence_from_csv,
                        single_switch_sequence, worst_case_sequence,
                        worst_demand_cost)
from .emulator import EmulatorTrace
from .lp import LpError, solve_lp
from .model import (Instance, InstanceError, MultiStationInstance,
                    ReleaseInstance, SequenceError, imbalance_cost,
                    load_instance, make_instance, multi_station_cost,
                    validate_instance, validate_multi_station,
                    validate_release_fields, validate_release_instance,
                    wage_bill)
from .policies import (GreedyTargetPolicy, JointCostPolicy, LpEmulatorPolicy,
                       LpResolvingPolicy, ReleasePolicy,
                       gamma_star_single_pool, play)
from .programs import (ConfigurationExplosion, build_lp_joint_cost,
                       build_lp_multi_station, build_lp_release,
                       build_lp_single_switch, extract_canonical,
                       solve_canonical)

INPUT_ERROR, SOLVER_ERROR, GUARANTEE_BROKEN = 2, 3, 4
# oracle's worst case breaks the guarantee above bound * (1 + RTOL) + ATOL.
GUARANTEE_RTOL, GUARANTEE_ATOL = 1e-9, 1e-12


class CliInputError(Exception):
    pass


def _load(path):
    """Read and validate an instance file.  Anything wrong with it, a field
    that is not a number included, becomes a CliInputError naming the file."""
    try:
        problem = load_instance(path)
        if isinstance(problem, MultiStationInstance):
            return validate_multi_station(problem)
        if isinstance(problem, ReleaseInstance):
            return validate_release_fields(problem)
        return validate_instance(problem)
    except (OSError, KeyError, ValueError, TypeError) as exc:
        raise CliInputError(f"cannot read instance {path}: {exc}") from exc


def _infer_program(problem) -> str:
    if isinstance(problem, MultiStationInstance):
        return "multi_station"
    if isinstance(problem, ReleaseInstance):
        if all(q is None for q in problem.release_fees) \
                and problem.budget is None:
            return "joint"
        return "release"
    return "single_switch"


# Program name -> (instance type it needs, the file that holds one, builder).
# A builder takes the instance and an optional `config_cap` that only the
# release program reads (build_lp_release's default when left out); the
# release builder is where release mode's premises are checked.
PROGRAMS = {
    "single_switch": (Instance, "a base instance file",
                      lambda problem, **cap: build_lp_single_switch(problem)),
    "multi_station": (MultiStationInstance, "a stations file",
                      lambda problem, **cap: build_lp_multi_station(problem)),
    "joint": (ReleaseInstance, "a wages file",
              lambda problem, **cap: build_lp_joint_cost(problem)),
    "release": (ReleaseInstance, "a release instance file",
                lambda problem, **cap: build_lp_release(
                    validate_release_instance(problem), **cap)),
}


def _check_at_least_one(value: int, name: str) -> None:
    if value < 1:
        raise CliInputError(f"{name} must be at least 1, got {value}")


def cmd_solve(args) -> int:
    _check_at_least_one(args.config_cap, "--config-cap")
    problem = _load(args.instance)
    program = args.program or _infer_program(problem)
    needs, noun, build = PROGRAMS[program]
    if not isinstance(problem, needs):
        raise CliInputError(f"{program} needs {noun}")
    built = build(problem, config_cap=args.config_cap)
    sol = solve_canonical(built)
    profile = extract_canonical(built, sol)
    payload = {"program": program, "objective": sol.objective}
    if program == "multi_station":
        payload["objective_kind"] = problem.objective
        payload["gamma"] = [float(sol.x[v]) for v in built.gamma_index]
    if program == "release":
        hires, releases = profile
        payload["epoch_hires"] = hires.tolist()
        payload["epoch_releases"] = {str(k): y.tolist()
                                     for k, y in releases.items()}
    else:
        payload["hires"] = profile.tolist()
    print(f"{payload['objective']:.6f}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(payload, f, indent=1)
            f.write("\n")
        print(f"canonical profile written to {args.out}")
    return 0


def _build_sequence(spec: str, problem, inst: Instance):
    try:
        if spec == "worst_case":
            return worst_case_sequence(inst)
        if spec.startswith("single_switch:"):
            return single_switch_sequence(inst, int(spec.split(":", 1)[1]))
        if spec.startswith("configuration:"):
            if not isinstance(problem, ReleaseInstance):
                raise CliInputError("configuration sequences need a release "
                                    "instance")
            config = tuple(int(x) for x in spec.split(":", 1)[1].split(","))
            return configuration_sequence(problem, config)
        if spec.startswith("random:"):
            return random_nested_sequence(inst, int(spec.split(":", 1)[1]))
        if spec.startswith("file:"):
            if isinstance(problem, MultiStationInstance):
                raise CliInputError("file sequences need a single-demand file")
            return sequence_from_csv(spec.split(":", 1)[1], inst)
    except (KeyError, OSError, TypeError, ValueError, SequenceError,
            InstanceError) as exc:
        why = f"no column {exc}" if isinstance(exc, KeyError) else exc
        raise CliInputError(f"bad sequence spec {spec!r}: {why}") from exc
    raise CliInputError(f"unknown sequence spec {spec!r}")


class _PolicyContext(NamedTuple):
    """What a policy constructor may draw on besides the base instance."""

    inst: Instance                  # or the stations file (multi_station)
    problem: object                 # the instance file (run, oracle)
    gamma: Optional[float]          # greedy target; None means gamma*
    process: Optional[bayesian.DemandProcess]   # Bayesian world (bench)
    mdp_cfg: dict


def _emulating(policy: LpEmulatorPolicy):
    """Fresh LP emulators of the profile `policy` solved, so that one solve
    serves every run."""
    return partial(LpEmulatorPolicy, policy.inst, policy.canonical,
                   policy.gamma_star)


def _station_emulators(c: _PolicyContext) -> list:
    """(station instance, factory of fresh LP emulators of its block of the
    multi-station program's profile) per station, all from one solve."""
    msi = c.problem
    built = build_lp_multi_station(msi)
    sol = solve_canonical(built)
    canonical = extract_canonical(built, sol)          # (n, m, T)
    stations = [msi.station_instance(j) for j in range(msi.n_stations)]
    return [(inst, partial(LpEmulatorPolicy, inst, canonical[:, j, :],
                           sol.objective))
            for j, inst in enumerate(stations)]


def _greedy_target(c: _PolicyContext):
    if c.gamma is not None and c.gamma < 0:
        raise CliInputError(f"--gamma must be non-negative, got {c.gamma}")
    gamma = (gamma_star_single_pool(c.inst).gamma_star if c.gamma is None
             else c.gamma)
    return partial(GreedyTargetPolicy, c.inst, gamma)


def _mdp(transition: str):
    """Fresh MDP policies; the sample-independent tables, and the full-info
    variant's value arrays, are built once here and shared, as `_emulating`
    shares a solved profile."""
    def make(c: _PolicyContext):
        if not isinstance(c.mdp_cfg, dict):
            raise CliInputError(f"mdp must be an object, got {c.mdp_cfg!r}")
        try:
            spec = bayesian.MdpSpec(
                grid_levels=c.mdp_cfg.get("grid_levels", 11),
                transition=transition,
                state_cap=c.mdp_cfg.get("state_cap", 2_000_000))
        except ValueError as exc:
            raise CliInputError(str(exc)) from exc
        tables = bayesian.mdp_tables(c.inst, spec)
        values = (bayesian.full_info_values(c.inst, c.process, spec,
                                            tables=tables)
                  if transition == "true" else None)
        return partial(bayesian.MdpPolicy, c.inst, c.process, spec, values,
                       tables=tables)
    return make


# Policy name -> (context it needs beyond the base instance, constructor of
# a zero-argument factory of fresh policies, or for `multi_station` of one
# (station instance, factory) pair per station).  The factory constructor
# does the work every run shares, such as solving the program an emulator
# plays; the resolving and the release policies of one factory share one
# memo of the solves they repeat, keyed by the day's or the epoch's exact
# state and bounded by policies.RESOLVING_MEMO_CAP or RELEASE_MEMO_CAP
# entries.
POLICIES = {
    "lp_emulator": (None, lambda c: _emulating(LpEmulatorPolicy(c.inst))),
    "lp_resolving": (None, lambda c: partial(LpResolvingPolicy, c.inst,
                                             OrderedDict())),
    "naive_greedy": (None,
                     lambda c: partial(bayesian.NaiveGreedyPolicy, c.inst)),
    "greedy_target": (None, _greedy_target),
    "naive_bayesian": ("world",
                       lambda c: partial(bayesian.NaiveBayesianPolicy, c.inst)),
    "empirical_mdp": ("world", _mdp("empirical")),
    "full_info_mdp": ("world", _mdp("true")),
    "release": ("release",
                lambda c: partial(ReleasePolicy, c.problem, OrderedDict())),
    "joint": ("release", lambda c: _emulating(JointCostPolicy(c.problem))),
    "multi_station": ("stations", _station_emulators),
}


# Policies no program bounds, as the naive_greedy baseline.  They and
# greedy_target given --gamma, which aims at that target and not at gamma*,
# have no guarantee: oracle prints their worst case against single_switch's
# value and exits 0 whatever it is.
UNBOUNDED = frozenset({"naive_greedy"})


def _policy_factory(name: str, c: _PolicyContext):
    if name not in POLICIES:
        raise CliInputError(f"unknown policy {name!r}")
    need, make = POLICIES[name]
    if (need == "stations") != isinstance(c.problem, MultiStationInstance):
        raise CliInputError(f"policy {name!r} " + (
            "needs a stations file" if need == "stations"
            else "cannot play a stations file; use multi_station"))
    if need == "world" and c.process is None:
        raise CliInputError(f"policy {name!r} runs only in the Bayesian "
                            "world (bench)")
    if need == "release" and not isinstance(c.problem, ReleaseInstance):
        raise CliInputError(f"policy {name!r} needs a release instance")
    return make(c)


def _stations(problem, name: str, gamma) -> list:
    """(label, instance, factory of fresh `name` policies) for each station
    `run` and `oracle` drive; a single-demand file is one, unlabelled.
    Only greedy_target reads gamma."""
    if gamma is not None and name != "greedy_target":
        raise CliInputError(f"--gamma sets greedy_target's target; policy "
                            f"{name!r} does not read it")
    inst = problem.base if isinstance(problem, ReleaseInstance) else problem
    made = _policy_factory(name, _PolicyContext(inst, problem, gamma, None,
                                                {}))
    if isinstance(problem, MultiStationInstance):
        return [(f"station {j}: ", *pair) for j, pair in enumerate(made)]
    return [("", inst, made)]


def cmd_run(args) -> int:
    problem = _load(args.instance)
    if args.out and isinstance(problem, MultiStationInstance):
        raise CliInputError("--out writes one trace, not one per station")
    plans, demands = [], []
    for label, inst, factory in _stations(problem, args.policy, args.gamma):
        sequence = _build_sequence(args.sequence, problem, inst)
        trace = EmulatorTrace()
        plan = play(factory(), inst, sequence, trace)
        total = plan.total_net
        if args.demand is not None:
            d = args.demand
            cost = imbalance_cost(inst.under_cost, inst.over_cost, total, d)
        else:
            cost, d = worst_demand_cost(
                inst, total, float(sequence.effective_lo[-1]),
                float(sequence.effective_hi[-1]))
        if args.out:
            trace.write_csv(args.out)
            print(f"trace written to {args.out}")
        print(f"{label}total_staffed = {total:.6f}")
        print(f"{label}cost = {cost:.6f} against demand {d:.6f}")
        plans.append(plan)
        demands.append(d)
    if isinstance(problem, ReleaseInstance) and np.any(problem.wages != 0):
        bill = wage_bill(problem.wages, plan.hires)
        print(f"wage_bill = {bill:.6f}")
        print(f"joint_cost = {cost + bill:.6f}")
    if isinstance(problem, MultiStationInstance):
        print(f"aggregate cost ({problem.objective}) = "
              f"{multi_station_cost(problem, plans, demands):.6f}")
    return 0


def _policy_factories(names, inst, process, mdp_cfg):
    """Factories for the Bayesian world's policies, keyed by name."""
    c = _PolicyContext(inst, None, None, process, mdp_cfg)
    return {name: _policy_factory(name, c) for name in names}


def _bench_rows(config: dict, reps: int, rep_offset: int = 0):
    process = bayesian.DemandProcess(config["horizon"], config["prior_hi"])
    table = bayesian.CalibrationTable.from_dict(config["calibration"])
    inst = bayesian.forecast_instance(
        config["pool_sizes"], config["availability"], table,
        config["under_cost"], config["over_cost"], process)
    factories = _policy_factories(config["policies"], inst, process,
                                  config.get("mdp", {}))
    rows = bayesian.run_bayesian_world(
        inst, process, table, factories, reps, config["seed"],
        rep_offset=rep_offset)
    return rows


def _policy_names(value) -> list:
    if not (isinstance(value, list) and value
            and all(isinstance(name, str) for name in value)):
        raise ValueError(f"need a non-empty list of policy names, got "
                         f"{value!r}")
    return value


# The bench config fields the run reads -> their conversion; those in
# BENCH_DEFAULTS may be left out (no calibration: calibrate for the run).
# The calibration, read last, must have one offset pair per day.
BENCH_FIELDS = {"horizon": int, "seed": int, "prior_hi": float,
                "pool_sizes": partial(np.asarray, dtype=float),
                "availability": partial(np.asarray, dtype=float),
                "under_cost": float, "over_cost": float,
                "policies": _policy_names, "replications": int}
BENCH_DEFAULTS = {"prior_hi": 0.5, "under_cost": 1.0, "over_cost": 1.0,
                  "replications": 100, "calibration": None}


def _read_config(path: str, seed: Optional[int]) -> dict:
    """A bench config with `seed` in place of its seed unless None, each
    field the run reads converted up front, before any replication runs.
    Anything wrong becomes a CliInputError naming the file and the field,
    as in _load."""
    field = ""
    try:
        with open(path) as f:
            config = {**BENCH_DEFAULTS, **json.load(f)}
        if seed is not None:
            config["seed"] = seed
        for name, convert in BENCH_FIELDS.items():
            field = f"field {name!r}: " if name in config else ""
            config[name] = convert(config[name])
        field = "field 'calibration': "
        T = config["horizon"]
        if config["calibration"] is not None:
            table = bayesian.CalibrationTable.from_dict(config["calibration"])
            if not table.lower.shape == table.upper.shape == (T,):
                raise ValueError(f"need {T} lower and upper offsets, got "
                                 f"{table.lower.size} and {table.upper.size}")
    except (OSError, KeyError, ValueError, TypeError) as exc:
        why = f"missing {exc}" if isinstance(exc, KeyError) else exc
        raise CliInputError(f"cannot read config {path}: {field}{why}") \
            from exc
    return config


def _check_seed(seed: int, name: str) -> None:
    """A seed, checked before any draw: default_rng refuses negative ones."""
    if seed < 0:
        raise CliInputError(f"{name} must be non-negative, got {seed}")


def _check_prior_hi(prior_hi: float, name: str) -> float:
    """The demand prior's upper end, which must lie in (0, 1]."""
    if not 0 < prior_hi <= 1:
        raise CliInputError(f"{name} must lie in (0, 1], got {prior_hi}")
    return prior_hi


def cmd_bench(args) -> int:
    if args.reps is not None:
        _check_at_least_one(args.reps, "--reps")
    _check_at_least_one(args.workers, "--workers")
    config = _read_config(args.config, args.seed)
    _check_seed(config["seed"], "seed")
    _check_prior_hi(config["prior_hi"], "prior_hi")
    if config["calibration"] is None:
        process = bayesian.DemandProcess(config["horizon"], config["prior_hi"])
        config["calibration"] = bayesian.calibrate_intervals(
            process, draws=20_000, seed=config["seed"]).to_dict()
    reps = config["replications"] if args.reps is None else args.reps
    if reps < 1:
        raise CliInputError("need at least one replication")

    if args.workers > 1:
        import multiprocessing as mp
        chunks = np.array_split(np.arange(reps), min(args.workers, reps))
        with mp.get_context("fork").Pool(len(chunks)) as pool:
            parts = pool.starmap(_bench_rows, [
                (config, len(chunk), int(chunk[0])) for chunk in chunks])
        rows = [row for part in parts for row in part]
    else:
        rows = _bench_rows(config, reps)

    if args.out:
        with open(args.out, "w", newline="") as f:
            w = csv.DictWriter(f, fieldnames=["replication", "policy", "cost",
                                              "runtime_ms", "seed"])
            w.writeheader()
            for row in rows:
                w.writerow({k: repr(v) if isinstance(v, float) else v
                            for k, v in row.items()})
        print(f"results written to {args.out}")
    summary = bayesian.summarize(rows)
    baseline = config["policies"][0]
    print(f"{'policy':16s} {'mean_cost':>10s} {'stderr':>8s} "
          f"{'runtime_ms':>11s} {'vs_' + baseline:>12s} {'diff_se':>8s}")
    for name in config["policies"]:
        s = summary[name]
        if name == baseline:
            diff, dse = 0.0, 0.0
        else:
            diff, dse = bayesian.paired_differences(rows, name, baseline)
        print(f"{name:16s} {s['mean_cost']:10.6f} {s['stderr']:8.4f} "
              f"{s['runtime_ms']:11.1f} {diff:+12.6f} {dse:8.4f}")
    return 0


def companion_sweep_instance(T: int, size: float, eta: float,
                             under_cost: float, over_cost: float) -> Instance:
    """Two-pool construction used for the convergence-rate sweep: fixed
    workers available through day T-10, ready workers on an s-shaped curve,
    error bounds 1/sqrt(t*eta) - 1/sqrt((T+1)*eta), demand range [0, 1]."""
    cutoff = max(1, T - 10)
    midpoint = T - 5
    rho1 = [1.0 if t <= cutoff else 0.0 for t in range(1, T + 1)]
    rho2 = [1.0 / (1.0 + np.exp(t - midpoint)) for t in range(1, T + 1)]
    deltas = [1.0 / np.sqrt(t * eta) - 1.0 / np.sqrt((T + 1) * eta)
              for t in range(1, T + 1)]
    return make_instance([size, size], [rho1, rho2], (0.0, 1.0), deltas,
                         under_cost=under_cost, over_cost=over_cost)


def _parse_etas(text: str) -> list:
    etas = []
    for token in text.split(","):
        try:
            etas.append(float(token))
        except ValueError:
            raise CliInputError(f"bad eta value {token!r} in --etas") from None
    if not all(e > 0 for e in etas):
        raise CliInputError("eta values must be positive")
    return etas


def cmd_sweep_eta(args) -> int:
    etas = _parse_etas(args.etas)
    results = []
    for eta in sorted(etas):
        inst = validate_instance(
            companion_sweep_instance(args.T, args.s, eta, args.c, args.C))
        built = build_lp_single_switch(inst)
        results.append((eta, solve_lp(built.model).objective))
    print(f"{'eta':>8s} {'gamma_star':>12s}")
    for eta, g in results:
        print(f"{eta:8.4f} {g:12.6f}")
    monotone = all(results[i + 1][1] <= results[i][1] + 1e-9
                   for i in range(len(results) - 1))
    print(f"nonincreasing: {'yes' if monotone else 'NO'}")
    if args.out:
        with open(args.out, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["eta", "gamma_star"])
            for eta, g in results:
                w.writerow([repr(eta), repr(g)])
        print(f"sweep written to {args.out}")
    return 0 if monotone else SOLVER_ERROR


def _grid_oracle(problem, name: str, grid_step: float, cap: int,
                 gamma=None):
    """(worst cost, value of the program that bounds the policy, stations,
    their witnesses) over the grid adversary.  A policy named after a
    program plays that program; any other is bounded by single_switch on its
    station's instance.  The joint program bounds the imbalance plus the
    wage bill, so `joint` is scored with its wages."""
    stations = _stations(problem, name, gamma)
    program, bounded = ((name, problem) if name in PROGRAMS
                        else ("single_switch", stations[0][1]))
    bound = solve_lp(PROGRAMS[program][2](bounded).model).objective
    wages = problem.wages if program == "joint" else None
    witnesses = [brute_force_worst_case(inst, factory, grid_step, cap=cap,
                                        wages=wages)
                 for _, inst, factory in stations]
    # Stations play apart, so the worst aggregate combines their worst cases.
    costs = [w.cost for w in witnesses]
    worst = (sum(costs) if program == "multi_station"
             and problem.objective == "sum" else max(costs))
    return worst, bound, stations, witnesses


def cmd_oracle(args) -> int:
    _check_at_least_one(args.cap, "--cap")
    problem = _load(args.instance)
    check_grid_step(args.grid_step)
    worst, gamma, stations, witnesses = _grid_oracle(
        problem, args.policy, args.grid_step, args.cap, args.gamma)
    print(f"max_cost = {worst:.6f}")
    print(f"gamma_star = {gamma:.6f}")
    for (label, _, _), witness in zip(stations, witnesses):
        if label:
            print(f"{label}max_cost = {witness.cost:.6f}")
        print(f"{label}witness demand = {witness.demand:.6f}")
        print(f"{label}witness sequence:")
        for t, iv in enumerate(witness.sequence.intervals, start=1):
            print(f"  day {t}: [{iv.lo:.4f}, {iv.hi:.4f}]")
    guaranteed = args.policy not in UNBOUNDED and args.gamma is None
    if guaranteed and worst > gamma * (1 + GUARANTEE_RTOL) + GUARANTEE_ATOL:
        print(f"guarantee broken: max_cost {worst!r} > gamma_star {gamma!r} "
              f"(tolerance {GUARANTEE_RTOL:g} relative, {GUARANTEE_ATOL:g} "
              "absolute)", file=sys.stderr)
        return GUARANTEE_BROKEN
    return 0


def cmd_calibrate(args) -> int:
    if not 0 < args.coverage < 1:
        raise CliInputError(f"--coverage must lie in (0, 1), got "
                            f"{args.coverage}")
    _check_at_least_one(args.T, "--T")
    _check_seed(args.seed, "--seed")
    process = bayesian.DemandProcess(
        args.T, _check_prior_hi(args.prior_hi, "--prior-hi"))
    table = bayesian.calibrate_intervals(process, coverage=args.coverage,
                                         draws=args.draws, seed=args.seed)
    cov = bayesian.empirical_coverage(process, table, draws=args.draws,
                                      seed=args.seed + 1)
    print(f"{'day':>4s} {'l_t':>9s} {'r_t':>9s} {'coverage':>9s}")
    for t in range(args.T):
        print(f"{t + 1:4d} {table.lower[t]:9.4f} {table.upper[t]:9.4f} "
              f"{cov[t]:9.4f}")
    print(f"day-0 range around prior mean {table.prior_mean:.3f}: "
          f"[-{table.lower0:.3f}, +{table.upper0:.3f}]")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(table.to_dict(), f, indent=1)
            f.write("\n")
        print(f"calibration table written to {args.out}")
    return 0


def _finite_float(text: str) -> float:
    """argparse type: a float, refusing NaN and infinities."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="staffing-minimax",
        description="Minimax-optimal online staffing under interval "
                    "demand forecasts")
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="solve a staffing program")
    ps.add_argument("--instance", required=True)
    ps.add_argument("--program", choices=["single_switch", "multi_station",
                                          "release", "joint"])
    ps.add_argument("--out", help="canonical profile JSON")
    ps.add_argument("--config-cap", type=int, default=100_000)

    pr = sub.add_parser("run", help="drive a policy against a sequence")
    pr.add_argument("--instance", required=True)
    pr.add_argument("--policy", required=True)
    pr.add_argument("--sequence", required=True,
                    help="worst_case | single_switch:K | configuration:J1,J2 "
                         "| random:SEED | file:PATH")
    pr.add_argument("--demand", type=_finite_float)
    pr.add_argument("--gamma", type=_finite_float)
    pr.add_argument("--out", help="trace CSV")

    pb = sub.add_parser("bench", help="run the Bayesian benchmark world")
    pb.add_argument("--config", required=True)
    pb.add_argument("--reps", type=int)
    pb.add_argument("--seed", type=int, help="override the config seed")
    pb.add_argument("--out", help="results CSV")
    pb.add_argument("--workers", type=int, default=1)

    pe = sub.add_parser("sweep-eta", help="optimal cost vs forecast "
                                          "convergence rate")
    pe.add_argument("--T", type=int, default=14)
    pe.add_argument("--s", type=_finite_float, default=1.0)
    pe.add_argument("--c", type=_finite_float, default=1.0)
    pe.add_argument("--C", type=_finite_float, default=1.0)
    pe.add_argument("--etas", default="0.25,0.5,1,2,4")
    pe.add_argument("--out", help="sweep CSV")

    po = sub.add_parser("oracle", help="brute-force worst case on a grid")
    po.add_argument("--instance", required=True)
    po.add_argument("--policy", default="lp_emulator")
    po.add_argument("--grid-step", type=float, default=0.25)
    po.add_argument("--gamma", type=_finite_float)
    po.add_argument("--cap", type=int, default=2_000_000)

    pc = sub.add_parser("calibrate", help="calibrate forecast offsets")
    pc.add_argument("--T", type=int, required=True)
    pc.add_argument("--prior-hi", type=float, default=0.5)
    pc.add_argument("--coverage", type=float, default=0.95)
    pc.add_argument("--draws", type=int, default=20_000)
    pc.add_argument("--seed", type=int, default=0)
    pc.add_argument("--out", help="calibration JSON")
    return p


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """build_parser() once per process: parse_args keeps no state between
    calls, and no default is mutable."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return INPUT_ERROR if exc.code not in (0, None) else 0
    # The command runs by name, so a rebound cmd_* is the one called.
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except (CliInputError, InstanceError, SequenceError,
            bayesian.InsufficientDraws) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except (LpError, ConfigurationExplosion, BudgetExceeded,
            bayesian.StateExplosion) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return SOLVER_ERROR


if __name__ == "__main__":
    sys.exit(main())
