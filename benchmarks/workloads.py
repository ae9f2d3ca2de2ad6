"""The four benchmark workloads.

Each workload is closed-loop and single-process: the next op starts when the
previous one ends.  A *pass* is the workload's fixed work (100 replications,
about 110 solves, or 10,395 oracle sequences); a run repeats passes on fresh
inputs.  Inputs are drawn from the run's seed out of pools whose outputs are
pinned in ``reference.json`` (see ``make_reference.py``), so every op is
checked against the output of the commit that defined the benchmark.

Interface used by ``run.py``:

* ``setup()``: instance/config load, calibration or canonical precompute,
  and one untimed warm-up op (checked);
* ``prepare(k)``: untimed input generation for pass k;
* ``run_pass(inputs, probing)``: the timed pass, returning a ``Pass``;
* ``check(inputs, outputs)``: one bool per op.

The host this runs on is shared, and its speed drifts by up to 2x within
seconds.  With ``probing`` on, a pass also times ``probe()``, a fixed
small-array NumPy loop that does not touch the package, after every op
(``oracle_grid``: before every PROBE_EVERY-th sequence, with the probe's time
taken out of the op and the pass).  ``Pass.probe_s`` is the probe time
weighted by the duration of the op next to it, so the run can express times
at the reference host speed PROBE_REF_S.  ``Pass.op_probe`` gives each op
the median of the LOCAL_PROBES probes nearest to it (``oracle_grid``: of
its block of PROBE_EVERY sequences and the blocks around it), which scales
its latency: the host's speed also drifts within a pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import statistics
import time
from pathlib import Path
from typing import List, NamedTuple, Optional

import numpy as np

from staffing_minimax import adversary, bayesian, cli, model, programs
from staffing_minimax.policies import (DayObservation, LpEmulatorPolicy,
                                       play)

MAX_PASSES = 8

WORLD_CONFIG = "instances/bench_long.json"
WORLD_REPS = 100            # replications per pass
WORLD_POOL = 1000           # replication indices with pinned rows
MDP_POLICIES = ["naive_greedy", "naive_bayesian", "empirical_mdp",
                "full_info_mdp"]
MDP_GRID_LEVELS = 7
CALIBRATION_DRAWS = 20_000
CALIBRATION_SEEDS = 4       # config seed + 0..3

SOLVE_INSTANCES = ["fig3a", "fig3b", "fig3c", "joint_demo", "multi_demo",
                   "release_demo"]
POOL_SCALES = [1.0, 0.7, 0.8, 0.9, 1.1, 1.2, 1.3, 1.5]
SWEEP_T = list(range(6, 31, 2))
WARMUP_T = 4
# Sizes below 1 make the canonical solve raise NumericFailure at T >= 20
# (see SCOPE.md); a timing workload needs ops that succeed.
SWEEP_SIZES = [1.0, 1.25, 1.5, 1.75, 2.0, 2.5, 3.0, 4.0]
SWEEP_ETAS = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0]

ORACLE_INSTANCE = "instances/fig3c.json"
GRID_STEP = 0.25
GAMMA_RTOL, GAMMA_ATOL = 1e-9, 1e-12

PROBE_REPS = 150
PROBE_REF_S = 1.15e-3       # one probe on the reference host, undisturbed
PROBE_EVERY = 100
LOCAL_PROBES = 5            # probes in the window that scales one op

_PROBE_BASE = np.arange(64.0).reshape(8, 8)


def probe() -> float:
    """Seconds taken by a fixed loop of small-array NumPy operations, the
    kind of work the solver and the policies do between Python steps."""
    clock = time.perf_counter
    t0 = clock()
    for _ in range(PROBE_REPS):
        b = _PROBE_BASE.copy()
        b[3] *= -1.0
        b -= 0.5 * b[2]
        c = b[:, 4] / (np.abs(b[:, 1]) + 1.0)
        int(np.argmin(c))
    return clock() - t0


class Pass(NamedTuple):
    wall: float                 # seconds, probes excluded
    lat: List[float]            # seconds per op, probes excluded
    probe_s: Optional[float]    # op-time-weighted probe seconds
    outputs: object
    op_probe: Optional[List[float]] = None  # local probe seconds per op


def running_median(xs: List[float], half: int) -> List[float]:
    """Median of each value and its ``half`` neighbours on either side."""
    return [statistics.median(xs[max(0, i - half):i + half + 1])
            for i in range(len(xs))]


def closed_loop(items, op, probing: bool) -> Pass:
    """Run op(item) for each item back to back; an op that raises is
    recorded as its exception."""
    clock = time.perf_counter
    lat, probes, out = [], [], []
    for item in items:
        t0 = clock()
        try:
            out.append(op(item))
        except Exception as exc:                # a failed op, not a crash
            out.append(exc)
        lat.append(clock() - t0)
        if probing:
            probes.append(probe())
    wall = sum(lat)
    if not probing:
        return Pass(wall, lat, None, out)
    probe_s = sum(t * p for t, p in zip(lat, probes)) / wall
    return Pass(wall, lat, probe_s, out,
                running_median(probes, LOCAL_PROBES // 2))


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def rows_digest(rows) -> str:
    """Digest of world rows on (replication, policy, repr(cost))."""
    text = "\n".join(f"{r['replication']}|{r['policy']}|{float(r['cost'])!r}"
                     for r in rows)
    return digest(text.encode())


def load_reference() -> dict:
    with open(Path(__file__).with_name("reference.json")) as f:
        return json.load(f)


# --- world_lp / world_mdp ---------------------------------------------------

class World:
    """Replications of the T = 14 Bayesian world of bench_long.json; one op
    is one ``run_bayesian_world(..., replications=1, rep_offset=r)`` call."""

    def __init__(self, name: str, root: Path, seed: int, ref: dict):
        self.name, self.root = name, root
        rng = random.Random(f"{name}:{seed}")
        self.calibration_offset = (rng.randrange(CALIBRATION_SEEDS)
                                   if name == "world_mdp" else None)
        *self.reps, self.warmup = rng.sample(range(WORLD_POOL),
                                             MAX_PASSES * WORLD_REPS + 1)
        self.ref = ref[name]

    def configure(self) -> dict:
        with open(self.root / WORLD_CONFIG) as f:
            config = json.load(f)
        if self.name == "world_mdp":
            config["policies"] = MDP_POLICIES
            config["mdp"] = {"grid_levels": MDP_GRID_LEVELS}
            process = bayesian.DemandProcess(int(config["horizon"]),
                                             float(config["prior_hi"]))
            config["calibration"] = bayesian.calibrate_intervals(
                process, draws=CALIBRATION_DRAWS,
                seed=int(config["seed"]) + self.calibration_offset).to_dict()
        return config

    def load(self) -> None:
        config = self.configure()
        T = int(config["horizon"])
        self.world_seed = int(config["seed"])
        self.process = bayesian.DemandProcess(T, float(config["prior_hi"]))
        self.table = bayesian.CalibrationTable.from_dict(config["calibration"])
        self.inst = bayesian.forecast_instance(
            config["pool_sizes"], config["availability"], self.table,
            float(config["under_cost"]), float(config["over_cost"]),
            self.process)
        self.factories = cli._policy_factories(
            config["policies"], self.inst, self.process,
            config.get("mdp", {}))

    def setup(self) -> bool:
        self.load()
        return self.check([self.warmup], [self.op(self.warmup)])[0]

    def op(self, rep: int):
        return bayesian.run_bayesian_world(
            self.inst, self.process, self.table, self.factories, 1,
            self.world_seed, rep_offset=rep)

    def prepare(self, k: int):
        return self.reps[k * WORLD_REPS:(k + 1) * WORLD_REPS]

    def run_pass(self, reps, probing: bool) -> Pass:
        return closed_loop(reps, self.op, probing)

    def check(self, reps, outputs):
        ref = self.ref
        if self.calibration_offset is not None:
            ref = ref[str(self.calibration_offset)]
        return [not isinstance(rows, Exception)
                and rows_digest(rows) == ref[str(rep)]
                for rep, rows in zip(reps, outputs)]


# --- solve_scaling ----------------------------------------------------------

def instance_variant(root: Path, name: str, scale: float) -> dict:
    """A checked-in instance with its pool sizes scaled."""
    with open(root / "instances" / f"{name}.json") as f:
        d = json.load(f)
    d["pool_sizes"] = [s * scale for s in d["pool_sizes"]]
    return d


def sweep_variant(T: int, size: float, eta: float) -> dict:
    inst = cli.companion_sweep_instance(T, size, eta, 1.0, 1.0)
    return model.instance_to_dict(inst)


def variant(root: Path, key: tuple) -> dict:
    if key[0] == "instance":
        return instance_variant(root, key[1], key[2])
    return sweep_variant(*key[1:])


def variant_name(key: tuple) -> str:
    if key[0] == "instance":
        return f"{key[1]}@x{key[2]!r}"
    return f"sweep@T={key[1]},s={key[2]!r},eta={key[3]!r}"


BUILDERS = {"single_switch": programs.build_lp_single_switch,
            "multi_station": programs.build_lp_multi_station,
            "joint": programs.build_lp_joint_cost,
            "release": programs.build_lp_release}


def program_dump(path: Path) -> str:
    """The LP that ``solve --instance path`` solves, as LpModel text."""
    problem = cli._load(path)
    return BUILDERS[cli._infer_program(problem)](problem).model.dump()


def solve(in_path: Path, out_path: Path) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(["solve", "--instance", str(in_path),
                         "--out", str(out_path)])


class SolveScaling:
    """Distinct canonical solves through ``cli.main(["solve", ...])``: every
    checked-in instance (pool sizes scaled per pass) and the companion
    sweep instance at T = 6, 8, ..., 30 with seeded pool size and eta."""

    name = "solve_scaling"

    def __init__(self, root: Path, seed: int, ref: dict, work: Path):
        self.root, self.work = root, work
        self.ref = ref[self.name]
        rng = random.Random(f"{self.name}:{seed}")
        # Per horizon, a seeded Latin square over (size, eta): every pass
        # solves each size and each eta once, and no pair twice in a run.
        n = len(SWEEP_SIZES)
        self.sweep = {T: rng.sample(range(n), n) for T in SWEEP_T}
        grid = [(s, e) for s in SWEEP_SIZES for e in SWEEP_ETAS]
        self.scales = {name: rng.sample(POOL_SCALES, len(POOL_SCALES))
                       for name in SOLVE_INSTANCES}
        self.warmup = rng.choice(grid)
        self.order_rng = rng
        self.programs: set = set()

    def materialize(self, keys, tag):
        """Write the instance files of the given variants; the programs
        they define must be new to this run."""
        ops = []
        for j, key in enumerate(keys):
            in_path = self.work / f"{tag}-{j}-in.json"
            with open(in_path, "w") as f:
                json.dump(variant(self.root, key), f, indent=1)
            dump = digest(program_dump(in_path).encode())
            if dump in self.programs:
                raise RuntimeError(f"{variant_name(key)} repeats a program")
            self.programs.add(dump)
            ops.append((key, in_path, self.work / f"{tag}-{j}-out.json"))
        return ops

    def setup(self) -> bool:
        [op] = self.materialize([("sweep", WARMUP_T, *self.warmup)],
                                "warmup")
        return self.check([op], [solve(op[1], op[2])])[0]

    def prepare(self, k: int):
        keys = [("instance", name, self.scales[name][k])
                for name in SOLVE_INSTANCES]
        for T, perm in self.sweep.items():
            keys += [("sweep", T, size, SWEEP_ETAS[(perm[i] + k) % len(perm)])
                     for i, size in enumerate(SWEEP_SIZES)]
        self.order_rng.shuffle(keys)
        return self.materialize(keys, f"pass{k}")

    def run_pass(self, ops, probing: bool) -> Pass:
        return closed_loop(ops, lambda op: solve(op[1], op[2]), probing)

    def check(self, ops, outputs):
        return [rc == 0 and digest(out_path.read_bytes())
                == self.ref[variant_name(key)]
                for (key, _, out_path), rc in zip(ops, outputs)]


# --- oracle_grid ------------------------------------------------------------

class _Recording:
    """Policy proxy that keeps the net total it staffed."""

    __slots__ = ("policy", "total")

    def __init__(self, policy):
        self.policy, self.total = policy, 0.0

    def step(self, obs: DayObservation):
        d = self.policy.step(obs)
        self.total += float(d.hires.sum() - d.releases.sum())
        return d


class OracleGrid:
    """``brute_force_worst_case`` on fig3c (pool size and cost slopes drawn
    from the seed) at grid step 0.25 against the LP emulator, whose profile
    is solved during set-up.  One op is one sequence, timed between
    successive factory calls."""

    name = "oracle_grid"

    def __init__(self, root: Path, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        self.pool_scale = rng.uniform(0.75, 1.25)
        self.slopes = (rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0))
        self.warmup_seed = rng.randrange(2 ** 31)
        self.root = root

    def bound(self) -> float:
        return self.gamma * (1.0 + GAMMA_RTOL) + GAMMA_ATOL

    def cost(self, total: float, seq) -> float:
        """Worst cost of a staffed total over the final effective range
        (convex in the demand, so an endpoint attains it)."""
        inst = self.inst
        lo, hi = float(seq.effective_lo[-1]), float(seq.effective_hi[-1])
        lo = min(lo, hi)
        return max(inst.under_cost * max(0.0, d - total)
                   + inst.over_cost * max(0.0, total - d) for d in (lo, hi))

    def setup(self) -> bool:
        with open(self.root / ORACLE_INSTANCE) as f:
            spec = json.load(f)
        spec["pool_sizes"] = [s * self.pool_scale for s in spec["pool_sizes"]]
        spec["under_cost"], spec["over_cost"] = self.slopes
        self.inst = model.validate_instance(model.instance_from_dict(spec))
        self.gamma, self.canonical = programs.minimax_value_and_profile(
            self.inst)
        seq = adversary.random_nested_sequence(self.inst, self.warmup_seed)
        policy = LpEmulatorPolicy(self.inst, self.canonical, self.gamma)
        total = play(policy, self.inst, seq).total_net
        return self.cost(total, seq) <= self.bound()

    def prepare(self, k: int):
        return None

    def run_pass(self, _, probing: bool) -> Pass:
        """Outputs are the witness and the total staffed against each
        sequence; only the policy in play is kept alive, as in
        ``brute_force_worst_case`` itself."""
        inst, canonical, gamma = self.inst, self.canonical, self.gamma
        clock = time.perf_counter
        stamps, totals, probes = [], [], {}
        last = None

        def factory():
            nonlocal last
            if probing and len(stamps) % PROBE_EVERY == 0:
                probes[len(stamps)] = probe()
            stamps.append(clock())
            if last is not None:
                totals.append(last.total)
            last = _Recording(LpEmulatorPolicy(inst, canonical, gamma))
            return last

        t_pass = clock()
        try:
            witness = adversary.brute_force_worst_case(inst, factory,
                                                       GRID_STEP)
        except Exception as exc:                # a failed pass, not a crash
            witness = exc
        t_end = clock()
        stamps.append(t_end)
        if last is not None:
            totals.append(last.total)
        # The probe before sequence i + 1 ran inside op i.
        lat = [stamps[i + 1] - stamps[i] - probes.get(i + 1, 0.0)
               for i in range(len(stamps) - 1)]
        wall = t_end - t_pass - sum(probes.values())
        if probing and not probes:              # no sequence was played
            probes[0] = probe()
        if not probing:
            return Pass(wall, lat, None, (witness, totals))
        probe_s = sum(probes.values()) / len(probes)
        local = running_median([probes[j] for j in sorted(probes)],
                               LOCAL_PROBES // 2)
        op_probe = [local[min(i // PROBE_EVERY, len(local) - 1)]
                    for i in range(len(lat))]
        return Pass(wall, lat, probe_s, (witness, totals), op_probe)

    def check(self, _, outputs):
        witness, totals = outputs
        sequences = adversary.enumerate_grid_sequences(self.inst, GRID_STEP)
        bound = self.bound()
        if isinstance(witness, Exception) or witness.cost > bound \
                or len(totals) != len(sequences):
            return [False] * max(len(totals), 1)
        return [self.cost(total, seq) <= bound
                for total, seq in zip(totals, sequences)]


def make(name: str, root: Path, seed: int, work: Path):
    if name in ("world_lp", "world_mdp"):
        return World(name, root, seed, load_reference())
    if name == "solve_scaling":
        return SolveScaling(root, seed, load_reference(), work)
    if name == "oracle_grid":
        return OracleGrid(root, seed)
    raise ValueError(f"unknown workload {name!r}")
