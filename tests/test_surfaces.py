"""Smaller contract surfaces: LP text dump, policy registry, state validation,
and CLI error paths."""

import json

import numpy as np
import pytest

from conftest import fig3_instance, instance_path, station_factories
from staffing_minimax import cli
from staffing_minimax.bayesian import (DemandProcess, MdpPolicy,
                                       NaiveBayesianPolicy, NaiveGreedyPolicy)
from staffing_minimax.cli import main as cli_main
from staffing_minimax.lp import LpModel
from staffing_minimax.model import (EpochState, InstanceError,
                                    MultiStationInstance, ReleaseInstance,
                                    StationSpec, instance_to_dict,
                                    make_instance)
from staffing_minimax.policies import (GreedyTargetPolicy, JointCostPolicy,
                                       LpEmulatorPolicy, LpResolvingPolicy,
                                       ReleasePolicy)
from staffing_minimax.programs import (InfeasibleState, build_lp_resolving,
                                       build_lp_single_switch)


def test_lp_dump_format():
    m = LpModel()
    x = m.add_var("x", obj=2.0)
    y = m.add_var("y")
    m.add_row({x: 1.0, y: -0.5}, ">=", 1.0)
    m.add_row({y: 1.0}, "<=", 1.5)
    text = m.dump()
    lines = text.splitlines()
    assert lines[0] == "min 2*x"
    assert lines[1].strip() == "1*x + -0.5*y >= 1"
    assert lines[2].strip() == "1*y <= 1.5"


def test_policy_registry():
    """A policy's name is its `cli.POLICIES` key: each key makes policies of
    its own class, and the keys that name a program in `cli.PROGRAMS` are
    the policies that play that program."""
    inst = fig3_instance("a")
    ri = ReleaseInstance(base=inst)
    st = StationSpec((0, 1), inst.error_bounds)
    msi = MultiStationInstance(inst.pool_sizes, inst.availability, (st,),
                               "max")
    c = cli._PolicyContext(inst, ri, None, DemandProcess(inst.horizon),
                           {"grid_levels": 3})
    made = {name: cli._policy_factory(name, c)()
            for name in set(cli.POLICIES) - {"multi_station"}}
    assert {name: type(policy) for name, policy in made.items()} == {
        "lp_emulator": LpEmulatorPolicy, "lp_resolving": LpResolvingPolicy,
        "greedy_target": GreedyTargetPolicy, "release": ReleasePolicy,
        "joint": LpEmulatorPolicy, "naive_greedy": NaiveGreedyPolicy,
        "naive_bayesian": NaiveBayesianPolicy, "empirical_mdp": MdpPolicy,
        "full_info_mdp": MdpPolicy}
    # The joint policy is the LP emulator of the joint program's profile.
    joint = JointCostPolicy(ri)
    assert made["joint"].gamma_star == joint.objective
    assert np.array_equal(made["joint"].canonical, joint.canonical)
    assert made["empirical_mdp"].spec.transition == "empirical"
    assert made["full_info_mdp"].spec.transition == "true"
    # The multi_station policy is the LP emulator on a station's block.
    assert [type(f()) for f in station_factories(msi)] == [LpEmulatorPolicy]
    assert set(cli.POLICIES) & set(cli.PROGRAMS) == {"release", "joint",
                                                     "multi_station"}


def test_epoch_state_validation():
    with pytest.raises(InstanceError):
        EpochState(index=1, cum_hires=np.zeros(1),
                   remaining_supply=np.array([-0.5]), remaining_budget=None,
                   interval=(0.0, 1.0), availability=np.ones((1, 2)))
    with pytest.raises(InstanceError):
        EpochState(index=1, cum_hires=np.zeros(1),
                   remaining_supply=np.ones(1), remaining_budget=None,
                   interval=(0.8, 0.2), availability=np.ones((1, 2)))
    with pytest.raises(InstanceError):
        EpochState(index=1, cum_hires=np.zeros(1),
                   remaining_supply=np.ones(1), remaining_budget=-1.0,
                   interval=(0.0, 1.0), availability=np.ones((1, 2)))


def test_resolving_rejects_bad_day():
    inst = fig3_instance("a")
    from staffing_minimax.model import fresh_state
    with pytest.raises(InfeasibleState):
        build_lp_resolving(inst, fresh_state(inst), inst.horizon + 1)


def test_release_policy_configuration_cap():
    from staffing_minimax.programs import ConfigurationExplosion
    # One-day epochs: 2^17 = 131,072 configurations, over the default cap of
    # 100,000, so the first step raises before any is enumerated.
    T = 17
    inst = make_instance([1.0], [np.linspace(1.0, 0.5, T)], (0, 1),
                         np.linspace(0.9, 0.1, T))
    ri = ReleaseInstance(base=inst, epoch_breaks=tuple(range(1, T + 1)),
                         release_fees=(0.1,) * T, budget=10.0)
    pol = ReleasePolicy(ri)
    from staffing_minimax.model import PredictionInterval
    from staffing_minimax.policies import DayObservation
    with pytest.raises(ConfigurationExplosion):
        pol.step(DayObservation(day=1,
                                interval=PredictionInterval(0.0, 0.9)))


def test_cli_program_instance_mismatch(capsys):
    code = cli_main(["solve", "--instance", instance_path("fig3a.json"),
                     "--program", "release"])
    err = capsys.readouterr().err
    assert code == 2 and "release" in err


def test_cli_oracle_budget_exceeded(capsys, tmp_path):
    inst = make_instance([2.0], [np.linspace(1.0, 0.6, 4)], (0, 1),
                         [1.0, 0.8, 0.6, 0.4])
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(instance_to_dict(inst)))
    code = cli_main(["oracle", "--instance", str(path), "--grid-step", "0.1",
                     "--cap", "50"])
    err = capsys.readouterr().err
    assert code == 3 and "solver error" in err


def test_cli_bench_seed_override(capsys, tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    for out, seed in ((out_a, "1"), (out_b, "2")):
        code = cli_main(["bench", "--config", instance_path(
            "bench_short.json"), "--reps", "3", "--seed", seed, "--out",
            str(out)])
        capsys.readouterr()
        assert code == 0
    import csv
    costs_a = [r["cost"] for r in csv.DictReader(out_a.open())]
    costs_b = [r["cost"] for r in csv.DictReader(out_b.open())]
    assert costs_a != costs_b


def test_cli_bench_recalibrates_without_table(capsys, tmp_path):
    with open(instance_path("bench_short.json")) as f:
        config = json.load(f)
    del config["calibration"]
    config["replications"] = 2
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    code = cli_main(["bench", "--config", str(path)])
    out = capsys.readouterr().out
    assert code == 0 and "lp_resolving" in out
