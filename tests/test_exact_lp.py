"""Canonical profiles against the exact rational oracle (tests/exact_lp.py).

The float solver's canonical profile must match the exact lexicographic
optimum to 1e-9 absolute.  Only `built.canonical(...)` is compared: the
refinement targets do not pin the auxiliary variables (gamma, epigraphs,
slacks), which may sit anywhere on the final optimal face.
"""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import instance_path, random_multi_pool, random_single_pool
from exact_lp import exact_canonical_x
from staffing_minimax import cli
from staffing_minimax.lp import LpModel, NumericFailure
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
    built = build(problem, config_cap=100_000)
    assert _profile_gap(built) <= TOL


# 150 interleaved pairs (`random_single_pool(rng)`,
# `random_multi_pool(rng, 3, 10)`) from each seed: the 1,200 random draws a
# warm-started refinement must keep exact.
@pytest.mark.parametrize("seed", [2026, 123, 7, 99])
def test_seeded_draw_profiles_are_exact(seed):
    rng = np.random.default_rng(seed)
    gaps = []
    for _ in range(150):
        for inst in (random_single_pool(rng), random_multi_pool(rng, 3, 10)):
            gaps.append(_profile_gap(build_lp_single_switch(inst)))
    worst = int(np.argmax(gaps))
    assert gaps[worst] <= TOL, (worst, gaps[worst])


@pytest.mark.parametrize("T", [6, 10, 14, 18, 20])
def test_sweep_profiles_are_exact(T):
    for size in (1.0, 2.0, 4.0):
        for eta in (0.5, 4.0, 32.0):
            inst = cli.companion_sweep_instance(T, size, eta, 1.0, 1.0)
            gap = _profile_gap(build_lp_single_switch(inst))
            assert gap <= TOL, (T, size, eta, gap)


def _multi_draw(seed: int, index: int):
    """Multi-pool draw `index` (counted from 0, multi draws only) of the
    interleaved sequence `random_single_pool(rng)`,
    `random_multi_pool(rng, 3, 10)`, ... from `default_rng(seed)`."""
    rng = np.random.default_rng(seed)
    for _ in range(index + 1):
        random_single_pool(rng)
        inst = random_multi_pool(rng, 3, 10)
    return inst


# Two draws of that sequence, seed 2026 multi draw 61 and seed 7 multi
# draw 23, broke a warm-started refinement prototype that fixed columns
# with a reduced-cost floor of 1e-15.  Both readings of the count (from 0
# and from 1) are covered.
@pytest.mark.parametrize("seed, index", [(2026, 60), (2026, 61), (7, 22),
                                         (7, 23)])
def test_named_multi_draw_profile_is_exact(seed, index):
    gap = _profile_gap(build_lp_single_switch(_multi_draw(seed, index)))
    assert gap <= TOL, gap


# The companion sweep at pool sizes 0.5 and 0.75, where the float
# refinement fails today: 33 points raise NumericFailure on a negative hire
# in a refinement stage (the value below), and 5 certify a profile off the
# exact one by more than TOL (the gap below).  Each is a strict xfail, so a
# solver that mends it must drop its mark.
SWEEP_T = (20, 21, 22, 24, 25, 26, 28, 30)
SWEEP_SIZES = (0.5, 0.75)
SWEEP_ETAS = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
SWEEP_NUMERIC_FAILURES = {
    (20, 0.5, 8.0): "x[28] = -70.9204",
    (20, 0.5, 32.0): "x[14] = -0.00945626",
    (22, 0.5, 1.0): "x[30] = -0.011828",
    (22, 0.75, 1.0): "x[14] = -0.0642448",
    (22, 0.75, 2.0): "x[14] = -0.0721844",
    (22, 0.75, 4.0): "x[14] = -0.0393856",
    (24, 0.75, 0.25): "x[17] = -0.00582234",
    (24, 0.75, 0.5): "x[17] = -0.0604248",
    (25, 0.5, 8.0): "x[20] = -0.0205629",
    (25, 0.75, 0.25): "x[19] = -0.0521367",
    (25, 0.75, 0.5): "x[19] = -0.0366192",
    (26, 0.5, 1.0): "x[18] = -0.0115358",
    (26, 0.5, 2.0): "x[18] = -0.0475426",
    (26, 0.5, 4.0): "x[18] = -0.0393856",
    (26, 0.5, 8.0): "x[18] = -0.0278498",
    (26, 0.5, 16.0): "x[18] = -0.0196928",
    (26, 0.5, 32.0): "x[18] = -0.0139249",
    (26, 0.75, 0.25): "x[21] = -0.0353415",
    (26, 0.75, 0.5): "x[21] = -0.0265822",
    (28, 0.5, 0.5): "x[22] = -0.0294194",
    (28, 0.5, 1.0): "x[22] = -0.0258937",
    (28, 0.5, 2.0): "x[22] = -0.0203501",
    (28, 0.75, 0.25): "x[24] = -0.02775",
    (28, 0.75, 0.5): "x[25] = -0.0156882",
    (28, 0.75, 1.0): "x[26] = -0.00830033",
    (30, 0.5, 0.25): "x[26] = -0.0217693",
    (30, 0.5, 0.5): "x[26] = -0.0200827",
    (30, 0.5, 1.0): "x[26] = -0.0141674",
    (30, 0.5, 2.0): "x[26] = -0.0100179",
    (30, 0.5, 4.0): "x[29] = -0.00458753",
    (30, 0.75, 0.25): "x[28] = -0.017884",
    (30, 0.75, 0.5): "x[29] = -0.0105136",
    (30, 0.75, 1.0): "x[29] = -0.00743425",
}
SWEEP_GAPS = {
    (24, 0.5, 32.0): 4.9e-09,
    (24, 0.75, 4.0): 7.2e-09,
    (25, 0.5, 2.0): 2.1e-09,
    (28, 0.5, 8.0): 1.2e-08,
    (28, 0.5, 32.0): 2.2e-09,
}


def _sweep_cases(sizes):
    for T, size, eta in itertools.product(SWEEP_T, sizes, SWEEP_ETAS):
        key = (T, size, eta)
        marks = []
        if key in SWEEP_NUMERIC_FAILURES:
            marks = [pytest.mark.xfail(
                strict=True, raises=NumericFailure,
                reason=f"NumericFailure: {SWEEP_NUMERIC_FAILURES[key]}")]
        elif key in SWEEP_GAPS:
            marks = [pytest.mark.xfail(
                strict=True, raises=AssertionError,
                reason=f"profile off the exact one by "
                       f"{SWEEP_GAPS[key]:.2g}")]
        yield pytest.param(T, size, eta, marks=marks)


def _assert_sweep_profile_is_exact(T, size, eta):
    inst = cli.companion_sweep_instance(T, size, eta, 1.0, 1.0)
    gap = _profile_gap(build_lp_single_switch(inst))
    assert gap <= TOL, gap


@pytest.mark.parametrize("T, size, eta", _sweep_cases(SWEEP_SIZES))
def test_small_pool_sweep_profile_is_exact(T, size, eta):
    _assert_sweep_profile_is_exact(T, size, eta)


# The same grid at pool sizes 1 and 2, where every point is exact today.
@pytest.mark.parametrize("T, size, eta", _sweep_cases((1.0, 2.0)))
def test_large_pool_sweep_profile_is_exact(T, size, eta):
    _assert_sweep_profile_is_exact(T, size, eta)


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
