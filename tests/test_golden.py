"""Golden digests: every program, canonical profile and emulated plan is
pinned bit for bit.

Each case hashes exact text (``repr`` of Python floats, ``LpModel.dump()``,
the bytes the CLI writes), so a refactor of the programs, the emulator or the
policy registry passes only when it reproduces every number exactly.  To
regenerate after a deliberate change of outputs, run

    PYTHONPATH=src python tests/test_golden.py

and paste the printed table over ``GOLDEN``.
"""

import contextlib
import csv
import hashlib
import io
import json
import os
import tempfile

import numpy as np
import pytest

from conftest import (instance_path, play_stations, random_multi_pool,
                      random_single_pool, station_factories)
from staffing_minimax.adversary import random_nested_sequence
from staffing_minimax.cli import main as cli_main
from staffing_minimax.emulator import EmulatorTrace
from staffing_minimax.lp import (LpError, LpModel, refine_lexicographic,
                                 solve_lp)
from staffing_minimax.model import load_instance
from staffing_minimax.policies import (JointCostPolicy, LpEmulatorPolicy,
                                       MiscoverageWrapper, ReleasePolicy,
                                       gamma_star_closed_form,
                                       gamma_star_single_pool, play)
from staffing_minimax.programs import (build_lp_joint_cost,
                                       build_lp_multi_station,
                                       build_lp_release,
                                       build_lp_single_switch,
                                       minimax_value_and_profile)

SOLVED = ["fig3a", "fig3b", "fig3c", "joint_demo", "multi_demo",
          "release_demo"]
BUILDERS = {"fig3a": build_lp_single_switch, "fig3b": build_lp_single_switch,
            "fig3c": build_lp_single_switch, "joint_demo": build_lp_joint_cost,
            "multi_demo": build_lp_multi_station,
            "release_demo": build_lp_release}
SEEDS = range(8)
MDP_BENCH_POLICIES = ["lp_resolving", "lp_emulator", "naive_greedy",
                      "naive_bayesian", "empirical_mdp", "full_info_mdp"]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _plan_text(plan) -> str:
    return repr((plan.hires.tolist(), plan.releases.tolist()))


def _load(name):
    return load_instance(instance_path(f"{name}.json"))


def _cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(list(argv))
    return code, out.getvalue()


def _solve_out(name):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out.json")
        code, _ = _cli("solve", "--instance", instance_path(f"{name}.json"),
                       "--out", path)
        with open(path) as f:
            return f"{code}\n{f.read()}"


def _run_out(name, policy, sequence):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.csv")
        code, stdout = _cli("run", "--instance",
                            instance_path(f"{name}.json"), "--policy", policy,
                            "--sequence", sequence, "--out", path)
        with open(path) as f:
            trace = f.read()
    stdout = "\n".join(l for l in stdout.splitlines()
                       if not l.startswith("trace written"))
    return f"{code}\n{stdout}\n{trace}"


def _bench_out(name, reps, extra=None):
    """Bench rows without runtime_ms; `extra` updates the config first."""
    with open(instance_path(f"{name}.json")) as f:
        config = json.load(f)
    config.update(extra or {})
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bench.csv")
        config_path = os.path.join(tmp, "config.json")
        with open(config_path, "w") as f:
            json.dump(config, f)
        code, _ = _cli("bench", "--config", config_path,
                       "--reps", str(reps), "--out", path)
        with open(path, newline="") as f:
            rows = [(r["replication"], r["policy"], r["cost"], r["seed"])
                    for r in csv.DictReader(f)]
    return f"{code}\n{rows!r}"


def _emulator_instances():
    """Single- and multi-pool base instances, two of them with eps > 0."""
    out = [(name, _load(name)) for name in ("fig3a", "fig3b", "fig3c")]
    out.append(("release_demo.base", _load("release_demo").base))
    for seed in (4, 5, 17):
        out.append((f"random_multi_pool[{seed}]",
                    random_multi_pool(np.random.default_rng(seed))))
    return out


def _lp_emulator(inst):
    gamma, canonical = minimax_value_and_profile(inst)
    return "\n".join(_plan_text(play(LpEmulatorPolicy(inst, canonical, gamma),
                                     inst, random_nested_sequence(inst, s)))
                     for s in SEEDS)


def _run_emulator(inst):
    _, canonical = minimax_value_and_profile(inst)
    lines = []
    for s in SEEDS:
        trace = EmulatorTrace()
        plan = play(LpEmulatorPolicy(inst, canonical), inst,
                    random_nested_sequence(inst, s), trace)
        lines.append(_plan_text(plan) + repr(
            (trace.canonical_total, trace.realized_total, trace.r_hat,
             trace.l_hat)))
    return "\n".join(lines)


def _joint():
    ri = _load("joint_demo")
    lines = []
    for s in SEEDS:
        pol = JointCostPolicy(ri)
        plan = play(pol, ri.base, random_nested_sequence(ri.base, s))
        lines.append(repr(pol.objective) + _plan_text(plan))
    return "\n".join(lines)


def _multi():
    msi = _load("multi_demo")
    lines = []
    for s in SEEDS:
        seqs = [random_nested_sequence(msi.station_instance(j), 10 * s + j)
                for j in range(msi.n_stations)]
        gamma = station_factories(msi)[0]().gamma_star
        lines.append(repr(gamma) + "".join(
            _plan_text(p) for p in play_stations(msi, seqs)))
    return "\n".join(lines)


def _miscoverage(inst):
    gamma, canonical = minimax_value_and_profile(inst)
    lines = []
    for s in SEEDS:
        shocked = np.random.default_rng([s, 7]).uniform(
            size=inst.horizon) < 0.3
        shocked[-1] = False
        wrapped = MiscoverageWrapper(LpEmulatorPolicy(inst, canonical, gamma),
                                     "detect_before_hiring", shocked)
        lines.append(_plan_text(play(wrapped, inst,
                                     random_nested_sequence(inst, s))))
    return "\n".join(lines)


def _release():
    ri = _load("release_demo")
    lines = []
    for s in SEEDS:
        pol = ReleasePolicy(ri)
        plan = play(pol, ri.base, random_nested_sequence(ri.base, s))
        lines.append(repr(pol.objective) + _plan_text(plan))
    return "\n".join(lines)


def _random_lp(seed, bounded=True, fill=None):
    """A seeded LP with a known feasible point x0 on the half-integer grid.

    Integer coefficients in [-3, 3] make right sides negative about half the
    time and keep every row sum exact, so the odd seeds' extra = row (the sum
    of the first two = rows) is exactly redundant and reaches the drive-out
    step's drop path.  About half the variables get an upper bound, written
    as a trailing <= row in variable order (fill, when given, bounds the
    rest); with bounded=False the box row on the total is left out, so a
    negative cost on an unbounded variable makes the LP unbounded.
    """
    rng = np.random.default_rng([seed, 11])
    n, m = int(rng.integers(2, 7)), int(rng.integers(1, 7))
    x0 = rng.integers(0, 5, size=n) * 0.5
    model = LpModel(name=f"random[{seed}]")
    uppers = []
    for j in range(n):
        uppers.append(float(x0[j] + rng.integers(0, 3))
                      if rng.uniform() < 0.5 else fill)
        model.add_var(f"x{j}", obj=float(rng.integers(-3, 4)))
    equalities = []
    for _ in range(m):
        a = rng.integers(-3, 4, size=n)
        coeffs = {j: float(v) for j, v in enumerate(a)}
        rel = str(rng.choice(["<=", ">=", "="]))
        lhs = float(a @ x0)
        rhs = {"<=": lhs + rng.integers(0, 2), ">=": lhs - rng.integers(0, 2),
               "=": lhs}[rel]
        model.add_row(coeffs, rel, float(rhs))
        if rel == "=":
            equalities.append((a, lhs))
    if seed % 2 and len(equalities) < 2:
        a = rng.integers(-3, 4, size=n)
        for _ in range(2 - len(equalities)):
            model.add_row({j: float(v) for j, v in enumerate(a)}, "=",
                          float(a @ x0))
            equalities.append((a, float(a @ x0)))
            a = rng.integers(-3, 4, size=n)
    if seed % 2:
        (a1, b1), (a2, b2) = equalities[:2]
        model.add_row({j: float(v) for j, v in enumerate(a1 + a2)}, "=",
                      b1 + b2)
    if bounded:
        model.add_row(dict.fromkeys(range(n), 1.0), "<=",
                      float(x0.sum() + 4))
    for j, upper in enumerate(uppers):
        if upper is not None:
            model.add_row({j: 1.0}, "<=", upper)
    return model


def _lp_text(model):
    try:
        sol = solve_lp(model)
    except LpError as exc:
        return type(exc).__name__
    return repr(("optimal", sol.objective, sol.x.tolist()))


def _solver_edges():
    """m == 0 (optimal and unbounded), an infeasible and an unbounded
    model."""
    texts = []
    for obj in ([1.0, 0.0, 2.0], [1.0, -1.0]):
        m = LpModel(name="empty")
        for j, c in enumerate(obj):
            m.add_var(f"x{j}", obj=c)
        texts.append(_lp_text(m))
    infeasible = LpModel(name="infeasible")
    x, y = infeasible.add_var("x", obj=1.0), infeasible.add_var("y")
    infeasible.add_row({x: 1.0, y: 1.0}, "<=", -1.0)
    unbounded = LpModel(name="unbounded")
    x, y = unbounded.add_var("x", obj=-1.0), unbounded.add_var("y", obj=1.0)
    unbounded.add_row({x: 1.0, y: -1.0}, ">=", -2.0)
    for m in (infeasible, unbounded):
        texts.append(_lp_text(m))
    return "\n".join(texts)


def _refine_text(seed):
    """Refinement on a bounded LP whose objective leaves a face of optima
    (every variable bounded, the undrawn bounds at 3.0)."""
    model = _random_lp(seed, fill=3.0)
    for j in range(model.n_vars):
        model.objective[j] = float(j % 2)
    try:
        sol = solve_lp(model)
        targets = [({j: 1.0 for j in range(0, model.n_vars, 2)}, "max")]
        targets += [({j: 1.0}, ("min", "max")[j % 2])
                    for j in range(model.n_vars)]
        out = refine_lexicographic(model, sol, targets)
    except LpError as exc:
        return type(exc).__name__
    return repr((out.objective, out.x.tolist()))


def _gamma_single_pool():
    lines = []
    for seed in range(20):
        res = gamma_star_single_pool(
            random_single_pool(np.random.default_rng([seed, 3])))
        lines.append(repr((res.gamma_star, res.branch, res.t_dagger)))
    return "\n".join(lines)


def _gamma_closed_form():
    return "\n".join(
        repr(gamma_star_closed_form(s, eta, delta, T))
        for s in (0.3, 1.0, 2.5) for eta in (0.5, 1.0, 2.0)
        for delta in (0.3, 0.7) for T in (1, 4, 9))


def cases():
    """Name -> zero-argument producer of the text that is hashed."""
    out = {}
    for name in SOLVED:
        out[f"solve_out[{name}]"] = lambda name=name: _solve_out(name)
        out[f"dump[{name}]"] = (lambda name=name:
                                BUILDERS[name](_load(name)).model.dump())
    for label, inst in _emulator_instances():
        out[f"lp_emulator[{label}]"] = lambda inst=inst: _lp_emulator(inst)
        out[f"run_emulator[{label}]"] = lambda inst=inst: _run_emulator(inst)
    for name in ("fig3a", "fig3b", "fig3c"):
        out[f"miscoverage[{name}]"] = (lambda name=name:
                                       _miscoverage(_load(name)))
    out["joint[joint_demo]"] = _joint
    out["multi_station[multi_demo]"] = _multi
    out["release[release_demo]"] = _release
    for name, policy, seq in [("fig3c", "lp_emulator", "worst_case"),
                              ("fig3b", "lp_emulator", "random:5"),
                              ("fig3b", "greedy_target", "random:1"),
                              ("joint_demo", "joint", "random:3"),
                              ("release_demo", "release", "configuration:1,3")]:
        out[f"cli_run[{name},{policy},{seq}]"] = (
            lambda a=(name, policy, seq): _run_out(*a))
    out["cli_bench[bench_short]"] = lambda: _bench_out("bench_short", 3)
    out["cli_bench[bench_short,mdp]"] = lambda: _bench_out(
        "bench_short", 4, {"policies": MDP_BENCH_POLICIES,
                           "mdp": {"grid_levels": 5}})
    out["cli_bench[bench_long,mdp]"] = lambda: _bench_out(
        "bench_long", 3, {"policies": ["naive_greedy", "empirical_mdp",
                                       "full_info_mdp"],
                          "mdp": {"grid_levels": 7}})
    out["solve_lp[random]"] = lambda: "\n".join(
        _lp_text(_random_lp(seed)) for seed in range(40))
    out["solve_lp[random,unboxed]"] = lambda: "\n".join(
        _lp_text(_random_lp(seed, bounded=False)) for seed in range(40))
    out["solve_lp[edges]"] = _solver_edges
    out["refine_lexicographic[bounded]"] = lambda: "\n".join(
        _refine_text(seed) for seed in range(20))
    out["gamma_star_single_pool[random]"] = _gamma_single_pool
    out["gamma_star_closed_form[grid]"] = _gamma_closed_form
    return out


GOLDEN = {
    'cli_bench[bench_long,mdp]':
        '4205bbd221b3f225ccfce39a33109040fbc96c5db7b05113681e74134f781235',
    'cli_bench[bench_short]':
        '783d38d7f49e826abd31e247a6eb4cf6995f5fe520dc7b5c3bfd224d7e2fe803',
    'cli_bench[bench_short,mdp]':
        '18d308ca6e4a2ced0d994215473755a4b2177173cd1256e2be258c8129923494',
    'cli_run[fig3b,greedy_target,random:1]':
        '15de6ae9fb47a1cb02f8d83689c1385eb375fc90e286d0b821115d44aad80435',
    'cli_run[fig3b,lp_emulator,random:5]':
        'be5aac72879824fd48eb6309f3bd11ced18fe4205bec0106c689b5dbe8300a8e',
    'cli_run[fig3c,lp_emulator,worst_case]':
        'b44d475b508976b43cfc57c1bee3d5c9710f630ad7f4f9b9df48808c9d2d55e4',
    'cli_run[joint_demo,joint,random:3]':
        '78f506da48b037c8816539b4ecb607a17bf3d098f4e8d4d2ec33658d04da6141',
    'cli_run[release_demo,release,configuration:1,3]':
        'd74f861724546e75e1a2c0319b9d5e6fff3a272a724128d197afe51da572ef59',
    'dump[fig3a]':
        '25a4cb99a66515e5e7687007d864035f1adffbce5b5d042e92fed94468a1ff3a',
    'dump[fig3b]':
        'daf83cea7997b025cdad643487ad92eb7bca961edc1321aad23c19497dcdbe3b',
    'dump[fig3c]':
        '0d3c9222893a03cdb22cb22e9b064040175064d6f5cfe289152caf4ea485d464',
    'dump[joint_demo]':
        'd06221e7290584fb72140c4b378feab72db8ae60b842e497e59ffe2433862437',
    'dump[multi_demo]':
        'ae3bbc21360ffa2d4e7e56498764390f01e0bcf77a2a1deb8335a09dcdb9830d',
    'dump[release_demo]':
        'e7250150b258016c8e0ac3d1d9f33b8269a35f8884d795d698f920c3e9c8f84c',
    'gamma_star_closed_form[grid]':
        '064c608444f4c7c94e2306a85ec9698a2f331ee6e212a37dc046a13c23906ac7',
    'gamma_star_single_pool[random]':
        '4e463a088188bdf9c1566107615192483d00846d017994d7cca33c6fbdaa3e18',
    'joint[joint_demo]':
        'b4421cb5d17238a39d493a4bc0bd3a4c6a1f00610eeedc020e5192d746312dd4',
    'lp_emulator[fig3a]':
        'def26e8ddc0fb79dc45d328d8c843e522f14659a859ac4980507e2be8d0acd12',
    'lp_emulator[fig3b]':
        '85a62af8da15172540709b587d6a09eff83e5073a767c92093d806a69cb130f6',
    'lp_emulator[fig3c]':
        '8183ce50557c5afa2160349c6df2836928b38b6ec2b5e0e15a42e014e2371e25',
    'lp_emulator[random_multi_pool[17]]':
        '3195dd888133722f802b48449f3f47f77753cd2d987be64106cf1bbbc998fa08',
    'lp_emulator[random_multi_pool[4]]':
        '1ac8dc28e156a3f1f96c94978673930ea77f5ca70efdb53bcf5a793dc9382304',
    'lp_emulator[random_multi_pool[5]]':
        '7083464107171340cadd6513220e95ad133088e90a44b201ea7997684720894c',
    'lp_emulator[release_demo.base]':
        'a2aaf8270d800a76b31999aa4e0482cd2bd2c9e779406d771ca66be3082a4d19',
    'miscoverage[fig3a]':
        '70feb94c86b6686c8ddc16b175ef5bacbb453a6924d05911fa30e88a32781d32',
    'miscoverage[fig3b]':
        '2c9e88359b3e54c72d9cf1b5f8f43100f5b3ca66d30c1c2fad2873531d7f3cb5',
    'miscoverage[fig3c]':
        'e4979200bcb48ebd5129235b38c3771001074b200a54994971d8eb57aa64c499',
    'multi_station[multi_demo]':
        '72c2685893cc03c89823892257ccd99cdebf41a92419f85609fe5ec37260956b',
    'refine_lexicographic[bounded]':
        '225fe49ea1fe6d8ba4cf6eb4afa0852afa7df2fc813a10fc36a10f22513a9741',
    'release[release_demo]':
        'a7a32c271941d446e9ea21ae2b71c12f7687f15b5214489c3d08309f8b241c91',
    'run_emulator[fig3a]':
        '4ffa03d0ec80df3a6c4e7b3163bf0838d2648a4a5ebe88f1b7c1d62c970ba2b1',
    'run_emulator[fig3b]':
        '2813a3f2ac9403d7607af132f1bc6bed5e216bca9a520f2acf99cc3cd51ed700',
    'run_emulator[fig3c]':
        'b0f84e2d2280ed1946557d9d2c3d346646873e0bc6b392cd40458eac14c0255e',
    'run_emulator[random_multi_pool[17]]':
        '2af66eb363a92e103be5e21644980a96c3ac1fa16fd1b2b7034f4d24e44d136f',
    'run_emulator[random_multi_pool[4]]':
        '95fd7fb2fc6ee8e450f71061e3ca45dd918a190611d3e7b79e67e7090074b4d7',
    'run_emulator[random_multi_pool[5]]':
        'b63ba8b4d5631938a492ae3bef96aeffbd34103a11e857a2d9c7f01b5ba41627',
    'run_emulator[release_demo.base]':
        '771427879d6d9c91be4a1ae977f985ab178335078d157a8425540ed126d639aa',
    'solve_lp[edges]':
        '8fb5fc86f021ba7f9f0b9d746a21714f611f81e21d4b2b0f6000e519a7d022b7',
    'solve_lp[random,unboxed]':
        '6b06e60ad20862251d5fb5b9b3487cb938374e171f724861d03d51f6c8b1f03e',
    'solve_lp[random]':
        '59a04926fe6cdc7338deaa94f26f217c42527c3289176b770bec2951e588dc95',
    'solve_out[fig3a]':
        '87f183d819badc7d3fb8525e5ad102e059c03d272cab341ce2ff9521a03b3880',
    'solve_out[fig3b]':
        'c0796a76709fb10f26de948a21661037ae34475b84f925cbee6ba3c71a475784',
    'solve_out[fig3c]':
        '6e460fcac0dddd2a03276fba90db4770ee10ba2902485f41ef9cfcc003ff920c',
    'solve_out[joint_demo]':
        '94a81d7f5465f5785bf7c1bc9c89a6d45411d9f55fdde98a5eeae385efa9d124',
    'solve_out[multi_demo]':
        '85121335e8b40a0223c5d78ad1d1dbe239466a5dcbc1df232171577abd4a1dce',
    'solve_out[release_demo]':
        '9fa528f5ed36294afcb740d8139b1c0e1aa6c4171113c67cd1851f84767ec606',
}


@pytest.mark.parametrize("key", sorted(cases()))
def test_golden(key):
    assert _digest(cases()[key]()) == GOLDEN[key]


if __name__ == "__main__":
    print("GOLDEN = {")
    for key, make in sorted(cases().items()):
        print(f"    {key!r}:\n        {_digest(make())!r},")
    print("}")
