import csv
import json
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import instance_path, play_stations
from staffing_minimax import cli
from staffing_minimax.cli import main
from staffing_minimax.lp import solve_lp
from staffing_minimax.model import instance_to_dict, make_instance


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_solve_fig3_values(capsys):
    code, out, _ = run_cli(capsys, "solve", "--instance",
                           instance_path("fig3a.json"))
    assert code == 0
    assert out.splitlines()[0] == "0.000000"
    code, out, _ = run_cli(capsys, "solve", "--instance",
                           instance_path("fig3b.json"))
    assert code == 0
    assert abs(float(out.splitlines()[0]) - 0.476) <= 5e-3


def test_solve_matches_fixed_point(capsys):
    from staffing_minimax.model import load_instance
    from staffing_minimax.policies import gamma_star_single_pool
    for name in ("fig3a", "fig3b", "fig3c"):
        code, out, _ = run_cli(capsys, "solve", "--instance",
                               instance_path(f"{name}.json"))
        assert code == 0
        printed = float(out.splitlines()[0])
        fp = gamma_star_single_pool(load_instance(
            instance_path(f"{name}.json")))
        assert printed == pytest.approx(fp.gamma_star, abs=1e-6)


def test_solve_writes_canonical_profile(capsys, tmp_path):
    out_path = tmp_path / "canon.json"
    code, out, _ = run_cli(capsys, "solve", "--instance",
                           instance_path("fig3c.json"), "--out",
                           str(out_path))
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["objective"] == pytest.approx(0.338, abs=5e-3)
    assert len(payload["hires"][0]) == 10


def test_solve_malformed_file_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "solve", "--instance", str(bad))
    assert code == 2
    assert "error" in err


def test_zero_horizon_rejected_exit_2(capsys, tmp_path):
    inst = make_instance([1.0], np.zeros((1, 1)), (0, 1), [0.0])
    d = instance_to_dict(inst)
    d["availability"] = [[]]
    d["error_bounds"] = []
    d["inconsistency"] = []
    d["horizon"] = 0
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(d))
    code, _, err = run_cli(capsys, "solve", "--instance", str(path))
    assert code == 2


def test_run_emulator_fig3c_worst_case(capsys, tmp_path):
    trace = tmp_path / "trace.csv"
    code, out, _ = run_cli(capsys, "run", "--instance",
                           instance_path("fig3c.json"), "--policy",
                           "lp_emulator", "--sequence", "worst_case",
                           "--out", str(trace))
    assert code == 0
    cost = float([l for l in out.splitlines()
                  if l.startswith("cost =")][0].split()[2])
    assert cost == pytest.approx(0.338, abs=5e-3)
    rows = list(csv.DictReader(trace.open()))
    assert len(rows) == 10


def test_run_file_sequence_replays_identically(capsys, tmp_path):
    seq_path = tmp_path / "seq.csv"
    with seq_path.open("w") as f:
        f.write("day,lo,hi\n")
        lo, hi = 0.0, 1.0
        T = 10
        for t in range(1, T + 1):
            width = min(1 - 0.5 ** (T - t), hi - lo)
            lo = min(lo + 0.01, hi - width)
            hi = lo + width
            f.write(f"{t},{lo},{hi}\n")
    outputs = []
    for rep in range(2):
        trace = tmp_path / f"trace{rep}.csv"
        code, out, _ = run_cli(capsys, "run", "--instance",
                               instance_path("fig3b.json"), "--policy",
                               "lp_resolving", "--sequence",
                               f"file:{seq_path}", "--out", str(trace))
        assert code == 0
        cost_lines = [l for l in out.splitlines()
                      if l.startswith(("total_staffed", "cost"))]
        outputs.append((cost_lines, trace.read_text()))
    assert outputs[0] == outputs[1]


def test_run_release_policy_on_configuration(capsys):
    code, out, _ = run_cli(capsys, "run", "--instance",
                           instance_path("release_demo.json"), "--policy",
                           "release", "--sequence", "configuration:1,3")
    assert code == 0
    assert "cost =" in out


def test_bench_single_replication_and_reproducibility(capsys, tmp_path):
    out1 = tmp_path / "r1.csv"
    code, text, _ = run_cli(capsys, "bench", "--config",
                            instance_path("bench_short.json"), "--reps", "1",
                            "--out", str(out1))
    assert code == 0
    rows = list(csv.DictReader(out1.open()))
    by_policy = {r["policy"]: float(r["cost"]) for r in rows}
    for line in text.splitlines():
        parts = line.split()
        if parts and parts[0] in by_policy:
            assert float(parts[1]) == pytest.approx(by_policy[parts[0]])
    out2 = tmp_path / "r2.csv"
    code, _, _ = run_cli(capsys, "bench", "--config",
                         instance_path("bench_short.json"), "--reps", "1",
                         "--out", str(out2))
    strip = lambda p: [(r["replication"], r["policy"], r["cost"], r["seed"])
                       for r in csv.DictReader(p.open())]
    # Byte-identical up to the wall-clock runtime column.
    assert strip(out1) == strip(out2)


def test_sweep_eta_monotone(capsys, tmp_path):
    out = tmp_path / "sweep.csv"
    code, text, _ = run_cli(capsys, "sweep-eta", "--T", "14", "--s", "1",
                            "--etas", "0.25,0.5,1,2,4", "--out", str(out))
    assert code == 0
    assert "nonincreasing: yes" in text
    rows = list(csv.reader(out.open()))
    values = [float(r[1]) for r in rows[1:]]
    assert all(values[i + 1] <= values[i] + 1e-9 for i in range(len(values) - 1))


def test_sweep_eta_single_point(capsys):
    code, text, _ = run_cli(capsys, "sweep-eta", "--T", "6", "--s", "0.8",
                            "--etas", "1.0")
    assert code == 0
    assert "nonincreasing: yes" in text


def test_oracle_command(capsys, tmp_path):
    inst = make_instance([0.8], [[1.0, 0.7]], (0, 1), [0.6, 0.25])
    path = tmp_path / "small.json"
    path.write_text(json.dumps(instance_to_dict(inst)))
    code, out, _ = run_cli(capsys, "oracle", "--instance", str(path),
                           "--policy", "lp_emulator", "--grid-step", "0.25")
    assert code == 0
    lines = {l.split(" = ")[0]: l.split(" = ")[1]
             for l in out.splitlines() if " = " in l}
    assert float(lines["max_cost"]) <= float(lines["gamma_star"]) + 1e-6


def test_oracle_release_prints_release_program_value(capsys):
    # The release policy plays the release program, so gamma_star is that
    # program's value, the one solve prints (0.142857), not the base
    # program's (0.151746).  Its worst case on this grid, 0.8, breaks
    # that bound, so oracle exits 4 and says so on stderr.
    path = instance_path("release_demo.json")
    code, out, err = run_cli(capsys, "oracle", "--instance", path,
                             "--policy", "release", "--grid-step", "0.5")
    assert code == cli.GUARANTEE_BROKEN == 4
    assert out.splitlines()[:2] == ["max_cost = 0.800000",
                                    "gamma_star = 0.142857"]
    assert err.startswith("guarantee broken: max_cost 0.7999999999999999 "
                          "> gamma_star 0.14285714285714285 (tolerance")
    code, out, _ = run_cli(capsys, "solve", "--instance", path)
    assert code == 0 and out.splitlines()[0] == "0.142857"


@pytest.mark.parametrize("file, argv, head", [
    ("fig3a", ["--policy", "naive_greedy"],
     ["max_cost = 0.250000", "gamma_star = 0.000000"]),
    ("fig3c", ["--policy", "naive_greedy"],
     ["max_cost = 0.500000", "gamma_star = 0.337849"]),
    ("release_demo", ["--policy", "naive_greedy"],
     ["max_cost = 0.333333", "gamma_star = 0.151746"]),
    ("fig3a", ["--policy", "greedy_target", "--gamma", "0.05"],
     ["max_cost = 0.050000", "gamma_star = 0.000000"]),
], ids=["naive_greedy-fig3a", "naive_greedy-fig3c",
        "naive_greedy-release_demo", "greedy_target-gamma-fig3a"])
def test_oracle_without_a_guarantee_exits_0(capsys, file, argv, head):
    # naive_greedy is a baseline no program bounds, and greedy_target given
    # --gamma aims at that target, not gamma*: a worst case above the
    # printed value breaks no guarantee, so oracle prints in full and
    # exits 0, with nothing on stderr.
    code, out, err = run_cli(capsys, "oracle", "--instance",
                             instance_path(f"{file}.json"), *argv,
                             "--grid-step", "0.5")
    assert code == 0 and err == ""
    assert out.splitlines()[:2] == head
    assert "witness sequence:" in out


def test_calibrate_command(capsys, tmp_path):
    out = tmp_path / "table.json"
    code, text, _ = run_cli(capsys, "calibrate", "--T", "4", "--draws",
                            "10000", "--out", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    assert len(payload["lower"]) == 4


def test_unknown_policy_exit_2(capsys):
    code, _, err = run_cli(capsys, "run", "--instance",
                           instance_path("fig3a.json"), "--policy", "magic",
                           "--sequence", "worst_case")
    assert code == 2


def _count_base_solves(monkeypatch):
    """Record every canonical solve of the base (single-switch) program."""
    from staffing_minimax import programs
    calls = []
    real = programs.solve_canonical

    def counting(built, *args, **kwargs):
        if built.model.name == "single_switch":
            calls.append(built)
        return real(built, *args, **kwargs)

    monkeypatch.setattr(programs, "solve_canonical", counting)
    return calls


def test_bench_solves_base_program_once(capsys, monkeypatch):
    calls = _count_base_solves(monkeypatch)
    code, _, _ = run_cli(capsys, "bench", "--config",
                         instance_path("bench_short.json"), "--reps", "3")
    assert code == 0
    assert len(calls) == 1


def test_oracle_solves_base_program_once(capsys, monkeypatch, tmp_path):
    inst = make_instance([0.8], [[1.0, 0.7]], (0, 1), [0.6, 0.25])
    path = tmp_path / "small.json"
    path.write_text(json.dumps(instance_to_dict(inst)))
    calls = _count_base_solves(monkeypatch)
    code, _, _ = run_cli(capsys, "oracle", "--instance", str(path),
                         "--policy", "lp_emulator", "--grid-step", "0.25")
    assert code == 0
    assert len(calls) == 1


def test_run_world_policy_outside_bench_exit_2(capsys):
    code, _, err = run_cli(capsys, "run", "--instance",
                           instance_path("fig3a.json"), "--policy",
                           "naive_bayesian", "--sequence", "worst_case")
    assert code == 2
    assert "naive_bayesian" in err


def test_bench_release_policy_needs_release_instance_exit_2(capsys,
                                                            tmp_path):
    config = json.loads(open(instance_path("bench_short.json")).read())
    config["policies"] = ["lp_emulator", "release"]
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(config))
    code, _, err = run_cli(capsys, "bench", "--config", str(path),
                           "--reps", "1")
    assert code == 2
    assert "release" in err


@pytest.mark.parametrize("step", ["0", "-0.25"])
def test_oracle_nonpositive_grid_step_exit_2(capsys, tmp_path, step):
    inst = make_instance([0.8], [[1.0, 0.7]], (0, 1), [0.6, 0.25])
    path = tmp_path / "small.json"
    path.write_text(json.dumps(instance_to_dict(inst)))
    code, _, err = run_cli(capsys, "oracle", "--instance", str(path),
                           "--grid-step", step)
    assert code == 2
    assert "grid step must be positive" in err


def test_oracle_nonpositive_grid_step_solves_nothing(capsys, monkeypatch):
    from staffing_minimax import cli, lp, programs
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return lp.solve_lp(*args, **kwargs)

    for module in (cli, programs):
        monkeypatch.setattr(module, "solve_lp", counting)
    code, _, err = run_cli(capsys, "oracle", "--instance",
                           instance_path("fig3c.json"), "--grid-step", "0")
    assert code == 2
    assert "grid step must be positive" in err
    assert calls == []


def _bench_config(tmp_path, **overrides):
    config = json.loads(open(instance_path("bench_short.json")).read())
    config.update(overrides)
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(config))
    return str(path)


@pytest.mark.parametrize("overrides, argv", [({}, ["--seed", "-1"]),
                                             ({"seed": -1}, [])],
                         ids=["flag", "config"])
def test_bench_negative_seed_exit_2(capsys, tmp_path, overrides, argv):
    code, out, err = run_cli(capsys, "bench", "--config",
                             _bench_config(tmp_path, **overrides), "--reps",
                             "1", *argv)
    assert code == 2
    assert "seed must be non-negative, got -1" in err
    assert out == ""


@pytest.mark.parametrize("prior_hi", [-0.5, 0.0, 2.0])
def test_bench_prior_hi_outside_unit_interval_exit_2(capsys, tmp_path,
                                                     prior_hi):
    code, out, err = run_cli(capsys, "bench", "--config",
                             _bench_config(tmp_path, prior_hi=prior_hi),
                             "--reps", "1")
    assert code == 2
    assert "prior_hi must lie in (0, 1]" in err
    assert out == ""


@pytest.mark.parametrize("etas, token", [("1,abc", "'abc'"), ("", "''")])
def test_sweep_eta_bad_token_exit_2(capsys, etas, token):
    code, _, err = run_cli(capsys, "sweep-eta", "--T", "6", "--etas", etas)
    assert code == 2
    assert f"bad eta value {token}" in err


@pytest.mark.parametrize("argv, message", [
    (["--T", "4", "--coverage", "1.5"], "--coverage must lie in (0, 1)"),
    (["--T", "0"], "--T must be at least 1"),
    (["--T", "3", "--prior-hi", "-0.5"], "--prior-hi must lie in (0, 1]"),
    (["--T", "3", "--prior-hi", "2"], "--prior-hi must lie in (0, 1]"),
    (["--T", "3", "--prior-hi", "0"], "--prior-hi must lie in (0, 1]"),
    (["--T", "3", "--seed", "-1"], "--seed must be non-negative, got -1"),
])
def test_calibrate_bad_input_exit_2(capsys, argv, message):
    # A negative --seed used to reach default_rng and exit 1 with its
    # traceback.
    code, out, err = run_cli(capsys, "calibrate", *argv)
    assert code == 2
    assert message in err
    assert out == ""


def _bench_rows(capsys, tmp_path, config, workers):
    """(replication, policy, cost, seed) of each row `bench --reps 4`
    writes for `config` on `workers` workers."""
    path = tmp_path / f"w{workers}.csv"
    code, _, _ = run_cli(capsys, "bench", "--config", config, "--reps", "4",
                         "--workers", str(workers), "--out", str(path))
    assert code == 0
    return [(r["replication"], r["policy"], r["cost"], r["seed"])
            for r in csv.DictReader(path.open())]


def test_bench_rows_independent_of_worker_count(capsys, tmp_path):
    config = instance_path("bench_short.json")
    single = _bench_rows(capsys, tmp_path, config, 1)
    assert len(single) == 4 * 4
    assert _bench_rows(capsys, tmp_path, config, 2) == single


def test_bench_pool_holds_one_process_per_chunk(capsys, tmp_path,
                                                monkeypatch):
    # The pool used to hold --workers processes whatever the replications:
    # --reps 4 --workers 64 forked 64 for 4 chunks.  The stand-in pool
    # records its size and maps in this process, so none is forked.
    import multiprocessing
    sizes = []

    class SerialPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, func, jobs):
            return [func(*job) for job in jobs]

    monkeypatch.setattr(multiprocessing, "get_context",
                        lambda method: SimpleNamespace(Pool=SerialPool))
    config = instance_path("bench_short.json")
    single = _bench_rows(capsys, tmp_path, config, 1)
    assert _bench_rows(capsys, tmp_path, config, 64) == single
    assert sizes == [4]


def test_bench_forks_after_calibrating(capsys, tmp_path):
    # Without a pinned table, bench calibrates (on a thread pool) and then
    # forks its workers: the rows must not depend on the worker count.
    config = json.loads(open(instance_path("bench_short.json")).read())
    del config["calibration"]
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(config))
    single = _bench_rows(capsys, tmp_path, str(path), 1)
    assert len(single) == 4 * 4
    assert _bench_rows(capsys, tmp_path, str(path), 2) == single


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("key, value", [("grid_levels", 0),
                                        ("grid_levels", -3),
                                        ("grid_levels", "abc"),
                                        ("state_cap", 0)])
def test_bench_bad_mdp_config_exit_2(capsys, tmp_path, key, value, workers):
    config = _bench_config(tmp_path, policies=["naive_greedy",
                                               "full_info_mdp"],
                           mdp={key: value})
    code, out, err = run_cli(capsys, "bench", "--config", config,
                             "--reps", "2", "--workers", workers)
    assert code == 2
    assert f"mdp {key} must be an integer >= 1, got {value!r}" in err
    assert out == ""


def test_bench_mdp_config_not_an_object_exit_2(capsys, tmp_path):
    config = _bench_config(tmp_path, policies=["empirical_mdp"], mdp=5)
    code, out, err = run_cli(capsys, "bench", "--config", config,
                             "--reps", "1")
    assert code == 2
    assert "mdp must be an object, got 5" in err
    assert out == ""


@pytest.mark.parametrize("workers", ["1", "2"])
def test_bench_mdp_state_cap_exit_3(capsys, tmp_path, workers):
    config = _bench_config(tmp_path, policies=["naive_greedy",
                                               "full_info_mdp"],
                           mdp={"state_cap": 10})
    code, _, err = run_cli(capsys, "bench", "--config", config, "--reps",
                           "2", "--workers", workers)
    assert code == 3
    assert "solver error: " in err
    assert "states exceed the cap" in err


@pytest.mark.parametrize("workers", ["1", "2"])
def test_bench_empirical_mdp_state_cap_exit_3(capsys, tmp_path, workers):
    config = _bench_config(tmp_path, policies=["naive_greedy",
                                               "empirical_mdp"],
                           mdp={"state_cap": 10})
    code, _, err = run_cli(capsys, "bench", "--config", config, "--reps",
                           "2", "--workers", workers)
    assert code == 3
    assert "solver error: 3146 states exceed the cap" in err


@pytest.mark.parametrize("flag, value", [("--reps", "0"), ("--reps", "-3"),
                                         ("--workers", "0"),
                                         ("--workers", "-2")])
def test_bench_nonpositive_reps_or_workers_exit_2(capsys, tmp_path, flag,
                                                  value):
    # --reps 0 used to run the config's replications, and --workers 0 one
    # worker.
    argv = {"--reps": "1", "--workers": "1", flag: value}
    code, out, err = run_cli(capsys, "bench", "--config",
                             _bench_config(tmp_path),
                             *(x for kv in argv.items() for x in kv))
    assert code == 2
    assert f"{flag} must be at least 1, got {value}" in err
    assert out == ""


@pytest.mark.parametrize("lo, hi", [("nan", "nan"), ("0.5", "inf")])
def test_run_non_finite_forecast_exit_2(capsys, tmp_path, lo, hi):
    from staffing_minimax.adversary import worst_case_sequence
    from staffing_minimax.model import load_instance
    inst = load_instance(instance_path("fig3c.json"))
    rows = [(iv.lo, iv.hi) for iv in worst_case_sequence(inst).intervals]
    rows[3] = (lo, hi)
    path = tmp_path / "forecasts.csv"
    path.write_text("day,lo,hi\n" + "".join(
        f"{t},{a},{b}\n" for t, (a, b) in enumerate(rows, start=1)))
    code, out, err = run_cli(capsys, "run", "--instance",
                             instance_path("fig3c.json"), "--policy",
                             "lp_emulator", "--sequence", f"file:{path}")
    assert code == 2
    assert f"day 4 interval [{float(lo)}, {float(hi)}] is not finite" in err
    assert out == ""


_FIG3C_DAYS = "day,lo,hi\n" + "".join(f"{t},0.0,1.0\n" for t in range(1, 11))


@pytest.mark.parametrize("text, message", [
    (None, "No such file or directory"),
    ("day,lo\n1,0.5\n", "no column 'hi'"),
    ("day,lo,hi\n1,0.5\n", "not 'NoneType'"),
    (_FIG3C_DAYS + "1,0.0,0.5\n", "sequence file has days [1, 1, 2, 3, "),
    (_FIG3C_DAYS + "11,0.0,1.0\n", "9, 10, 11]; need each of 1 to 10 once"),
], ids=["missing", "no_hi_column", "short_row", "repeated_day",
        "day_past_horizon"])
def test_run_bad_sequence_file_exit_2(capsys, tmp_path, text, message):
    path = tmp_path / "forecasts.csv"
    if text is not None:
        path.write_text(text)
    code, out, err = run_cli(capsys, "run", "--instance",
                             instance_path("fig3c.json"), "--policy",
                             "lp_emulator", "--sequence", f"file:{path}")
    assert code == 2
    assert f"error: bad sequence spec 'file:{path}': " in err
    assert message in err
    assert out == ""


def _bench_calibration_without_upper(config):
    del config["calibration"]["upper"]
    return config


def _bench_calibration_short_upper(config):
    config["calibration"]["upper"].pop()
    return config


@pytest.mark.parametrize("edit, workers, message", [
    (lambda c: {k: v for k, v in c.items() if k != "horizon"}, "1",
     "missing 'horizon'"),
    (lambda c: {**c, "seed": "x"}, "1",
     "field 'seed': invalid literal for int()"),
    (lambda c: {**c, "prior_hi": "x"}, "1",
     "field 'prior_hi': could not convert string to float: 'x'"),
    (_bench_calibration_without_upper, "1",
     "field 'calibration': missing 'upper'"),
    (_bench_calibration_short_upper, "1",
     "field 'calibration': need 5 lower and upper offsets, got 5 and 4"),
    (lambda c: {**c, "horizon": 4}, "1",
     "field 'calibration': need 4 lower and upper offsets, got 5 and 5"),
    (lambda c: {**c, "policies": []}, "2",
     "field 'policies': need a non-empty list of policy names, got []"),
    (lambda c: [c], "1", "'list' object is not a mapping"),
], ids=["no_horizon", "seed", "prior_hi", "calibration",
        "calibration_short_upper", "calibration_past_horizon", "policies",
        "list"])
def test_bench_malformed_config_exit_2(capsys, tmp_path, edit, workers,
                                       message):
    config = edit(json.loads(open(instance_path("bench_short.json")).read()))
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "bench", "--config", str(path),
                             "--reps", "2", "--workers", workers)
    assert code == 2
    assert f"error: cannot read config {path}: {message}" in err
    assert out == ""


@pytest.mark.parametrize("argv, message", [
    (["--s", "-1"], "pool sizes must be nonnegative"),
    (["--T", "0"], "need n >= 1 pools and T >= 1 days, got n=2, T=0"),
], ids=["negative_s", "empty_horizon"])
def test_sweep_eta_bad_instance_exit_2(capsys, argv, message):
    code, out, err = run_cli(capsys, "sweep-eta", *argv)
    assert code == 2
    assert f"error: {message}" in err
    assert out == ""


@pytest.mark.parametrize("step", ["inf", "nan"])
def test_oracle_non_finite_grid_step_exit_2(capsys, step):
    code, out, err = run_cli(capsys, "oracle", "--instance",
                             instance_path("fig3c.json"), "--grid-step", step)
    assert code == 2
    assert f"grid step must be positive and finite, got {step}" in err
    assert out == ""


@pytest.mark.parametrize("step", ["1e-300", "5e-324"])
def test_oracle_huge_grid_exit_3(capsys, step):
    # 1e300 grid points (inf for the subnormal step) exceed the sequence
    # cap before any grid array is allocated.
    code, out, err = run_cli(capsys, "oracle", "--instance",
                             instance_path("fig3c.json"), "--grid-step", step)
    assert code == 3
    assert "solver error: more than 2000000 grid sequences" in err
    assert out == ""


@pytest.mark.parametrize("key, value, message", [
    ("epoch_breaks", [2, 99], "epoch breaks"),
    ("epoch_breaks", [3, 2, 4], "epoch breaks"),
    ("release_fees", [0.1], "one release fee per epoch"),
])
def test_solve_bad_release_file_exit_2(capsys, tmp_path, key, value,
                                       message):
    config = json.loads(open(instance_path("release_demo.json")).read())
    config[key] = value
    path = tmp_path / "release.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "solve", "--instance", str(path))
    assert code == 2
    assert out == ""
    assert message in err


def test_main_builds_its_parser_once(capsys, monkeypatch):
    from staffing_minimax import cli
    assert cli.build_parser() is not cli.build_parser()
    built = []
    real_build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda: built.append(1) or real_build())
    cli._parser.cache_clear()
    try:
        for _ in range(3):
            code, out, _ = run_cli(capsys, "solve", "--instance",
                                   instance_path("fig3a.json"))
            assert (code, out.splitlines()[0]) == (0, "0.000000")
        assert run_cli(capsys, "solve")[0] == 2
        assert len(built) == 1
    finally:
        cli._parser.cache_clear()


def test_cached_parser_runs_a_rebound_command(capsys, monkeypatch):
    from staffing_minimax import cli
    assert main(["sweep-eta", "--T", "3", "--etas", "1"]) == 0
    calls = []
    monkeypatch.setattr(cli, "cmd_sweep_eta",
                        lambda args: calls.append(args.T) or 7)
    assert main(["sweep-eta", "--T", "4"]) == 7
    assert calls == [4]
    capsys.readouterr()


INSTANCE_FIELDS = ["pool_sizes", "availability", "initial_range",
                   "error_bounds", "inconsistency", "under_cost", "over_cost"]


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("field", INSTANCE_FIELDS)
def test_non_finite_instance_field_exit_2(capsys, tmp_path, field, value):
    config = json.loads(open(instance_path("fig3a.json")).read())
    config.setdefault("inconsistency", [0.0] * config["horizon"])
    if isinstance(config[field], list):
        first = config[field]
        while isinstance(first[0], list):
            first = first[0]
        first[-1] = value
    else:
        config[field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    for argv in (["solve"], ["run", "--policy", "lp_emulator", "--sequence",
                             "random:1"], ["oracle"]):
        code, out, err = run_cli(capsys, *argv, "--instance", str(path))
        assert code == 2, argv
        assert out == ""
        assert f"{field} must be finite, got {value}" in err


@pytest.mark.parametrize("name, key, value, message", [
    ("joint_demo", "wages", [[-5.0] * 10], "wages must be nonnegative"),
    ("joint_demo", "epoch_breaks", [3, 2], "epoch breaks (3, 2)"),
    ("joint_demo", "pre_hires", [float("nan")], "pre_hires must be finite"),
    ("release_demo", "budget", float("inf"), "budget must be finite"),
    ("release_demo", "release_fees", [float("nan"), None],
     "release_fees must be finite"),
])
def test_bad_release_field_exit_2_on_every_path(capsys, tmp_path, name, key,
                                                value, message):
    # The joint path reads a release file too, so its fields are checked
    # at load, not only where release mode runs.
    config = json.loads(open(instance_path(f"{name}.json")).read())
    config[key] = value
    path = tmp_path / "release.json"
    path.write_text(json.dumps(config))
    policy = "joint" if name == "joint_demo" else "release"
    for argv in (["solve"], ["run", "--policy", policy, "--sequence",
                             "worst_case"]):
        code, out, err = run_cli(capsys, *argv, "--instance", str(path))
        assert code == 2, argv
        assert out == ""
        assert message in err


@pytest.mark.parametrize("argv, flag", [
    (["run", "--instance", instance_path("fig3a.json"), "--policy",
      "greedy_target", "--sequence", "random:1", "--gamma", "nan"],
     "--gamma"),
    (["run", "--instance", instance_path("fig3a.json"), "--policy",
      "lp_emulator", "--sequence", "random:1", "--demand", "nan"],
     "--demand"),
    (["run", "--instance", instance_path("fig3a.json"), "--policy",
      "lp_emulator", "--sequence", "random:1", "--demand", "inf"],
     "--demand"),
    (["oracle", "--instance", instance_path("fig3a.json"), "--gamma",
      "nan"], "--gamma"),
    (["sweep-eta", "--T", "6", "--s", "nan"], "--s"),
    (["sweep-eta", "--T", "6", "--c", "nan"], "--c"),
    (["sweep-eta", "--T", "6", "--C", "inf"], "--C"),
])
def test_non_finite_float_option_exit_2(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"argument {flag}: must be finite, got '{argv[-1]}'" in err


def test_whole_float_epoch_breaks_solve_as_ints(capsys, tmp_path):
    # JSON may spell a day as 2.0; the breaks are stored as ints, so the
    # file solves byte for byte as the one that spells it 2.
    config = json.loads(open(instance_path("release_demo.json")).read())
    assert config["epoch_breaks"] == [2, 4]
    outs = []
    for breaks in ([2, 4], [2.0, 4.0]):
        config["epoch_breaks"] = breaks
        path, out_path = tmp_path / "release.json", tmp_path / "out.json"
        path.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, "solve", "--instance", str(path),
                                 "--out", str(out_path))
        assert (code, err) == (0, "")
        outs.append((out, out_path.read_bytes()))
    assert outs[0] == outs[1]
    config["epoch_breaks"] = [2.5, 4]
    path.write_text(json.dumps(config))
    for argv in (["solve"], ["run", "--policy", "release", "--sequence",
                             "worst_case"]):
        code, out, err = run_cli(capsys, *argv, "--instance", str(path))
        assert (code, out) == (2, ""), argv
        assert "epoch_breaks must be whole days, got 2.5" in err


@pytest.mark.parametrize("name, field, value, message", [
    ("fig3a", "under_cost", "x", "could not convert string to float: 'x'"),
    ("fig3a", "pool_sizes", ["x"], "could not convert string to float"),
    ("fig3a", "over_cost", None, "not 'NoneType'"),
    ("release_demo", "budget", "x", "could not convert string to float"),
    ("release_demo", "epoch_breaks", ["a", 4],
     "could not convert string to float"),
])
def test_non_number_instance_field_exit_2(capsys, tmp_path, name, field,
                                          value, message):
    config = json.loads(open(instance_path(f"{name}.json")).read())
    config[field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    for argv in (["solve"], ["run", "--policy", "lp_emulator", "--sequence",
                             "random:1"], ["oracle"]):
        code, out, err = run_cli(capsys, *argv, "--instance", str(path))
        assert (code, out) == (2, ""), argv
        assert f"cannot read instance {path}: " in err
        assert message in err


# --- Stations files through run and oracle -----------------------------------

def _multi_demo(tmp_path, objective):
    """instances/multi_demo.json, or a copy with another objective."""
    if objective == "max":
        return instance_path("multi_demo.json")
    d = json.loads(open(instance_path("multi_demo.json")).read())
    path = tmp_path / f"multi_{objective}.json"
    path.write_text(json.dumps({**d, "objective": objective}))
    return str(path)


@pytest.mark.parametrize("objective, worst, per_station", [
    ("max", "0.375000", ["0.375000", "0.375000"]),
    ("sum", "0.750000", ["0.300000", "0.450000"]),
])
@pytest.mark.parametrize("step", ["0.25", "0.1"])
def test_oracle_multi_station_within_program_value(capsys, tmp_path,
                                                   objective, worst,
                                                   per_station, step):
    from staffing_minimax.adversary import brute_force_worst_case
    from staffing_minimax.model import load_instance
    from staffing_minimax.programs import build_lp_multi_station
    path = _multi_demo(tmp_path, objective)
    msi = load_instance(path)
    value = solve_lp(build_lp_multi_station(msi).model).objective
    code, out, err = run_cli(capsys, "oracle", "--instance", path,
                             "--policy", "multi_station", "--grid-step",
                             step)
    assert code == 0, err
    lines = out.splitlines()
    assert lines[:2] == [f"max_cost = {worst}", f"gamma_star = {worst}"]
    assert [l for l in lines if l.startswith("station")
            and "max_cost" in l] == [
        f"station {j}: max_cost = {c}" for j, c in enumerate(per_station)]
    # The unrounded aggregate stays within the program's value.
    costs = [brute_force_worst_case(inst, factory, float(step)).cost
             for _, inst, factory in cli._stations(msi, "multi_station",
                                                   None)]
    aggregate = sum(costs) if objective == "sum" else max(costs)
    assert aggregate <= value * (1 + 1e-9) + 1e-12


def test_run_multi_station_per_station_and_aggregate(capsys, tmp_path):
    from staffing_minimax.adversary import single_switch_sequence
    from staffing_minimax.model import (imbalance_cost, load_instance,
                                        multi_station_cost)
    path = _multi_demo(tmp_path, "sum")
    code, out, err = run_cli(capsys, "run", "--instance", path, "--policy",
                             "multi_station", "--sequence", "single_switch:1",
                             "--demand", "0.8")
    assert code == 0, err
    msi = load_instance(path)
    plans = play_stations(msi, [single_switch_sequence(
        msi.station_instance(j), 1) for j in range(2)])
    want = []
    for j, plan in enumerate(plans):
        cost = imbalance_cost(1.0, 1.0, plan.total_net, 0.8)
        want += [f"station {j}: total_staffed = {plan.total_net:.6f}",
                 f"station {j}: cost = {cost:.6f} against demand 0.800000"]
    aggregate = multi_station_cost(msi, plans, [0.8, 0.8])
    assert out.splitlines() == want + [
        f"aggregate cost (sum) = {aggregate:.6f}"]


@pytest.mark.parametrize("command", ["run", "oracle"])
@pytest.mark.parametrize("policy", ["lp_emulator", "lp_resolving", "release",
                                    "naive_bayesian"])
def test_other_policies_refuse_stations_file_exit_2(capsys, command, policy):
    argv = ["--sequence", "random:1"] if command == "run" else []
    code, out, err = run_cli(capsys, command, "--instance",
                             instance_path("multi_demo.json"), "--policy",
                             policy, *argv)
    assert code == 2
    assert (f"error: policy {policy!r} cannot play a stations file; use "
            "multi_station") in err
    assert out == ""


@pytest.mark.parametrize("command", ["run", "oracle"])
def test_multi_station_needs_stations_file_exit_2(capsys, command):
    argv = ["--sequence", "random:1"] if command == "run" else []
    code, out, err = run_cli(capsys, command, "--instance",
                             instance_path("fig3c.json"), "--policy",
                             "multi_station", *argv)
    assert code == 2
    assert "error: policy 'multi_station' needs a stations file" in err
    assert out == ""


@pytest.mark.parametrize("argv, message", [
    (["--sequence", "file:{tmp}/forecasts.csv"],
     "file sequences need a single-demand file"),
    (["--sequence", "configuration:1,2"],
     "configuration sequences need a release instance"),
    (["--sequence", "random:1", "--out", "{tmp}/trace.csv"],
     "--out writes one trace, not one per station"),
], ids=["file", "configuration", "out"])
def test_run_stations_file_bad_spec_exit_2(capsys, tmp_path, argv, message):
    argv = [a.format(tmp=tmp_path) for a in argv]
    code, out, err = run_cli(capsys, "run", "--instance",
                             instance_path("multi_demo.json"), "--policy",
                             "multi_station", *argv)
    assert code == 2
    assert message in err
    assert out == ""


@pytest.mark.parametrize("argv, message", [
    (["oracle", "--instance", instance_path("fig3a.json"), "--cap", "0"],
     "--cap must be at least 1, got 0"),
    (["oracle", "--instance", instance_path("fig3a.json"), "--cap", "-5"],
     "--cap must be at least 1, got -5"),
    (["solve", "--instance", instance_path("release_demo.json"),
      "--config-cap", "0"], "--config-cap must be at least 1, got 0"),
    (["solve", "--instance", instance_path("release_demo.json"),
      "--config-cap", "-1"], "--config-cap must be at least 1, got -1"),
    (["run", "--instance", instance_path("fig3a.json"), "--policy",
      "greedy_target", "--sequence", "random:1", "--gamma", "-0.5"],
     "--gamma must be non-negative, got -0.5"),
    (["oracle", "--instance", instance_path("fig3a.json"), "--policy",
      "greedy_target", "--grid-step", "0.5", "--gamma", "-0.5"],
     "--gamma must be non-negative, got -0.5"),
], ids=["oracle-cap-0", "oracle-cap-neg", "solve-config-cap-0",
        "solve-config-cap-neg", "run-gamma-neg", "oracle-gamma-neg"])
def test_cap_below_one_or_negative_gamma_exit_2(capsys, argv, message):
    # A cap below 1 used to reach the solver and exit 3, and a negative
    # greedy target played below the lower bound with exit 0.
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize("argv, policy", [
    (["run", "--instance", instance_path("fig3a.json"), "--policy",
      "lp_emulator", "--sequence", "random:1", "--gamma", "-1"],
     "lp_emulator"),
    (["run", "--instance", instance_path("fig3a.json"), "--policy",
      "lp_resolving", "--sequence", "random:1", "--gamma", "2"],
     "lp_resolving"),
    (["oracle", "--instance", instance_path("fig3a.json"), "--gamma", "-1"],
     "lp_emulator"),
    (["oracle", "--instance", instance_path("fig3a.json"), "--policy",
      "lp_resolving", "--grid-step", "0.5", "--gamma", "0"],
     "lp_resolving"),
], ids=["run-lp_emulator", "run-lp_resolving", "oracle-default",
        "oracle-lp_resolving"])
def test_gamma_with_other_policy_exit_2(capsys, argv, policy):
    # Only greedy_target reads --gamma; any other policy used to ignore it
    # and exit 0, as if the flag had not been given.
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert (f"--gamma sets greedy_target's target; policy {policy!r} does "
            "not read it") in err
