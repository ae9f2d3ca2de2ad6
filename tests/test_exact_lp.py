"""Canonical profiles against the exact rational oracle (tests/exact_lp.py).

The float solver's canonical profile must match the exact lexicographic
optimum to 1e-9 absolute.  Only `built.canonical(...)` is compared: the
refinement targets do not pin the auxiliary variables (gamma, epigraphs,
slacks), which may sit anywhere on the final optimal face.
"""

import argparse
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import instance_path, random_multi_pool, random_single_pool
from exact_lp import exact_canonical_x
from staffing_minimax import cli
from staffing_minimax.lp import LpModel
from staffing_minimax.programs import build_lp_single_switch, solve_canonical

TOL = 1e-9


def _profile_gap(built) -> float:
    """Largest absolute difference between the float and the exact
    canonical profile of a built program."""
    got = built.canonical(solve_canonical(built))
    x = exact_canonical_x(built.model, built.refine_targets())
    want = built.canonical(SimpleNamespace(x=np.array([float(v) for v in x])))
    if isinstance(got, tuple):      # release: (hires, {day: releases})
        pairs = [(got[0], want[0])] + [(got[1][k], want[1][k])
                                       for k in got[1]]
        assert got[1].keys() == want[1].keys()
    else:
        pairs = [(got, want)]
    return max(float(np.abs(a - b).max(initial=0.0)) for a, b in pairs)


@pytest.mark.parametrize("name", ["fig3a", "fig3b", "fig3c", "joint_demo",
                                  "multi_demo", "release_demo"])
def test_instance_file_profile_is_exact(name):
    problem = cli._load(instance_path(f"{name}.json"))
    _, _, build = cli.PROGRAMS[cli._infer_program(problem)]
    built = build(problem, argparse.Namespace(config_cap=100_000))
    assert _profile_gap(built) <= TOL


def test_random_draw_profiles_are_exact():
    rng = np.random.default_rng(123)
    gaps = []
    for _ in range(15):
        for inst in (random_single_pool(rng), random_multi_pool(rng, 3, 10)):
            gaps.append(_profile_gap(build_lp_single_switch(inst)))
    assert max(gaps) <= TOL, gaps


@pytest.mark.parametrize("T", [6, 10, 14, 18, 20])
def test_sweep_profiles_are_exact(T):
    for size in (1.0, 2.0, 4.0):
        for eta in (0.5, 4.0, 32.0):
            inst = cli.companion_sweep_instance(T, size, eta, 1.0, 1.0)
            gap = _profile_gap(build_lp_single_switch(inst))
            assert gap <= TOL, (T, size, eta, gap)


def test_oracle_finds_the_lexicographic_optimum_by_hand():
    # min 0 s.t. x0 + x1 <= 2, x0 <= 1.5: maximising x0 + x1, then x1,
    # gives (0, 2); maximising x0 first would give (1.5, 0.5).
    m = LpModel()
    m.add_var("x0")
    m.add_var("x1")
    m.add_row({0: 1.0, 1: 1.0}, "<=", 2.0)
    m.add_row({0: 1.0}, "<=", 1.5)
    assert exact_canonical_x(m, [({0: 1.0, 1: 1.0}, "max"),
                                 ({1: 1.0}, "max")]) == [0, 2]
    assert exact_canonical_x(m, [({0: 1.0}, "max"),
                                 ({1: 1.0}, "max")]) == [1.5, 0.5]
