"""Replayed refinement stages against cold ones, bit for bit.

lp.refine_lexicographic solves each stage after the first from the previous
stage's record (lp._replay) and falls back to a cold lp._two_phase where a
replay check fails.  Here a monkeypatch makes every replay report
divergence, which gives the cold outcome of the same refinement: objective
bits, x bytes, or the error type and message.  Each test builds its
programs' rows afresh, so no pivot path that an earlier test recorded for
the same rows serves a stage here in place of the replay.
"""

import glob
import os
from collections import Counter

import numpy as np
import pytest

from conftest import INSTANCE_DIR, random_multi_pool, random_single_pool
from staffing_minimax import cli, lp, programs
from staffing_minimax.cli import companion_sweep_instance
from staffing_minimax.lp import (LpError, LpModel, refine_lexicographic,
                                 solve_lp)
from staffing_minimax.programs import build_lp_single_switch, solve_canonical


def _diverge(*args, **kwargs):
    raise lp._Diverged("forced cold")


@pytest.fixture(autouse=True)
def unseen_rows(monkeypatch):
    monkeypatch.setattr(programs, "_day_rows", programs.DayMemo())


@pytest.fixture
def reasons(monkeypatch):
    """Why each replay that did not finish diverged, and "replayed" for each
    that did."""
    seen = Counter()
    replay = lp._replay

    def counted(*args, **kwargs):
        try:
            out = replay(*args, **kwargs)
        except lp._Diverged as exc:
            seen[str(exc)] += 1
            raise
        seen["replayed"] += 1
        return out

    monkeypatch.setattr(lp, "_replay", counted)
    return seen


def _outcome(solve):
    try:
        sol = solve()
    except LpError as exc:
        return f"{type(exc).__name__}: {exc}"
    return repr(sol.objective), sol.x.tobytes()


def _replayed_and_cold(solve):
    replayed = _outcome(solve)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp, "_replay", _diverge)
        cold = _outcome(solve)
    return replayed, cold


def _assert_canonical_as_cold(built):
    replayed, cold = _replayed_and_cold(lambda: solve_canonical(built))
    assert replayed == cold


def _instance_programs():
    for path in sorted(glob.glob(os.path.join(INSTANCE_DIR, "*.json"))):
        try:
            problem = cli._load(path)
        except cli.CliInputError:       # a bench config, not a program
            continue
        yield pytest.param(problem, id=os.path.basename(path))


@pytest.mark.parametrize("problem", list(_instance_programs()))
def test_instance_programs_replay_as_cold(problem):
    _, _, build = cli.PROGRAMS[cli._infer_program(problem)]
    _assert_canonical_as_cold(build(problem, config_cap=100_000))


@pytest.mark.parametrize("T", range(6, 31, 2))
def test_sweep_replays_as_cold(T, reasons):
    for size in (1.0, 2.0, 4.0):
        for eta in (0.25, 4.0, 32.0):
            _assert_canonical_as_cold(build_lp_single_switch(
                companion_sweep_instance(T, size, eta, 1.0, 1.0)))
    assert reasons["replayed"] > 0


def test_random_draws_replay_as_cold(reasons):
    for seed in range(15):
        for inst in (random_single_pool(np.random.default_rng([seed, 41])),
                     random_multi_pool(np.random.default_rng([seed, 42]))):
            _assert_canonical_as_cold(build_lp_single_switch(inst))
    assert reasons["replayed"] > 0


def test_failing_grid_replays_as_cold(reasons):
    # The s = 0.5 / 0.75 grid, where some points fail the certificate: the
    # replay must fail them with the same message.
    replayed, cold = [], []
    for T in (20, 21, 22, 24, 25, 26, 28, 30):
        for size in (0.5, 0.75):
            for eta in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0):
                built = build_lp_single_switch(
                    companion_sweep_instance(T, size, eta, 1.0, 1.0))
                a, b = _replayed_and_cold(lambda: solve_canonical(built))
                replayed.append(a)
                cold.append(b)
    assert len(cold) == 128
    assert replayed == cold
    assert any(isinstance(o, str) for o in cold)


def test_divergence_reasons_reached_by_the_draws(reasons):
    # Three ways a replay fails, each reached on sweep points and draws:
    # another entering column, the new row winning the ratio test, and a
    # phase 1 that the new row leaves short of optimal.
    for T, size in ((6, 1.0), (20, 0.5)):
        _assert_canonical_as_cold(build_lp_single_switch(
            companion_sweep_instance(T, size, 4.0, 1.0, 1.0)))
    for seed in range(3):
        _assert_canonical_as_cold(build_lp_single_switch(
            random_single_pool(np.random.default_rng([seed, 41]))))
    assert {"entering column", "ratio test",
            "phase 1 not optimal"} <= set(reasons)
    assert reasons["replayed"] > 0


def test_replay_of_an_infeasible_stage_diverges():
    # Pins never make a stage infeasible, so a stage is built directly:
    # x0 + x1 = 1, then the new row x0 + x1 = 2.  Phase 1 replays the one
    # pivot (x0 enters, the old row wins the ratio test 1 < 2) and ends
    # optimal with the new row's artificial at 1.
    A = np.array([[1.0, 1.0]])
    c = np.array([1.0, 0.0])
    chain = lp._Chain()
    lp._two_phase(A, np.zeros(1, int), np.array([1.0]), c, "first", chain)
    assert len(chain.pivots) == 1
    A2, sense2, b2 = (np.vstack((A, A)), np.zeros(2, int),
                      np.array([1.0, 2.0]))
    with pytest.raises(lp._Diverged, match="phase 1 infeasible"):
        lp._replay(chain, A2, sense2, b2, c, "second", True)
    with pytest.raises(lp.LpInfeasible):
        lp._two_phase(A2, sense2, b2, c, "second")
    # A failed replay leaves the chain as it was.
    assert len(chain.pivots) == 1 and chain.T.shape == (2, 3)


def test_replay_of_an_infeasible_stage_pushed_ahead_diverges():
    # The same rows as above, one stage later: stages 2 and 3 repeat
    # x0 + x1 = 1 and replay, the second pushing stage 4's row ahead; stage
    # 4 asks x0 + x1 = 2, so its right-hand sides, pushed at the stage,
    # leave phase 1 infeasible.
    row, c = np.array([[1.0, 1.0]]), np.array([1.0, 0.0])
    chain = lp._Chain(pins=np.vstack((row, row)))
    lp._two_phase(row, np.zeros(1, int), np.array([1.0]), c, "first", chain)
    for b in ([1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 2.0]):
        stage = (np.repeat(row, len(b), axis=0), np.zeros(len(b), int),
                 np.array(b), c, "stage")
        if b[-1] == 1.0:
            replayed = lp._replay(chain, *stage, True)
            assert replayed.x.tobytes() == \
                lp._two_phase(*stage).x.tobytes()
    assert (chain.batch.pos, chain.batch.size) == (1, 2)
    with pytest.raises(lp._Diverged, match="phase 1 infeasible"):
        lp._replay(chain, *stage, False)
    with pytest.raises(lp.LpInfeasible):
        lp._two_phase(*stage)


def test_every_stage_after_the_first_replays(monkeypatch):
    # Engagement guard: on this sweep point every stage but the first is
    # replayed, so a change that silently turns the replay off fails here.
    built = build_lp_single_switch(companion_sweep_instance(30, 1, 1, 1, 1))
    sol = solve_lp(built.model)
    targets = built.refine_targets()
    cold = []
    two_phase = lp._two_phase
    monkeypatch.setattr(lp, "_two_phase",
                        lambda *a: cold.append(1) or two_phase(*a))
    refined = refine_lexicographic(built.model, sol, targets)
    assert len(targets) == 70
    assert len(cold) == 1
    monkeypatch.setattr(lp, "_replay", _diverge)
    assert refine_lexicographic(built.model, sol, targets).x.tobytes() == \
        refined.x.tobytes()
    assert len(cold) == 1 + 70


def test_bound_rows_come_before_the_pins(reasons, monkeypatch):
    # Bounds are model rows like any other, so the pins stay the trailing
    # rows and every stage after the first is replayed, or tries to be.
    model = LpModel()
    for j in range(3):
        model.add_var(f"x{j}")
    model.add_row({0: 1.0, 1: 1.0, 2: 1.0}, "<=", 2.0)
    for j in range(3):
        model.add_row({j: 1.0}, "<=", 1.0)
    targets = [({j: 1.0}, "max") for j in range(3)]
    sol = solve_lp(model)
    out = refine_lexicographic(model, sol, targets)
    assert sum(reasons.values()) == len(targets) - 1
    monkeypatch.setattr(lp, "_replay", _diverge)
    assert refine_lexicographic(model, sol, targets).x.tobytes() == \
        out.x.tobytes()
    assert out.x.tolist() == [1.0, 1.0, 0.0]



@pytest.fixture
def pushes(monkeypatch):
    """The number of rows in each lp._push."""
    rows = []
    push = lp._push

    def counted(chain, pushed, rhs):
        rows.append(len(pushed))
        return push(chain, pushed, rhs)

    monkeypatch.setattr(lp, "_push", counted)
    return rows


def test_a_chain_pushes_its_remaining_pins_at_once(pushes, reasons):
    # The same sweep point: the chain's first replay pushes its own row,
    # the second all 68 rows left, and no stage pushes again.
    built = build_lp_single_switch(companion_sweep_instance(30, 1, 1, 1, 1))
    refine_lexicographic(built.model, solve_lp(built.model),
                         built.refine_targets())
    assert reasons == {"replayed": 69}
    assert pushes == [1, 68]


def test_negative_pins_push_again_as_cold(pushes, reasons):
    # Every third target negated, with its sense turned: the same stages,
    # but a pin whose value is below zero has a negative right-hand side,
    # so the replay orients it the other way and pushes from that stage
    # again.
    built = build_lp_single_switch(companion_sweep_instance(30, 1, 1, 1, 1))
    sol = solve_lp(built.model)
    targets = [({j: -a for j, a in coeffs.items()},
                {"max": "min", "min": "max"}[goal]) if i % 3 == 2
               else (coeffs, goal)
               for i, (coeffs, goal) in enumerate(built.refine_targets())]
    replayed, cold = _replayed_and_cold(
        lambda: refine_lexicographic(built.model, sol, targets))
    assert replayed == cold
    assert reasons == {"replayed": 69}
    assert len(pushes) > 2 and pushes[:2] == [1, 68]


def test_draws_discard_a_batch_after_a_divergence(monkeypatch):
    # A stage whose row was pushed ahead can still diverge on its
    # right-hand side or on a check the batch stopped at; the rows pushed
    # after it go with the chain, and the refinement matches cold.
    ahead = Counter()
    replay = lp._replay

    def noted(chain, A, sense, b, c, name, keep):
        batch = chain.batch
        try:
            return replay(chain, A, sense, b, c, name, keep)
        except lp._Diverged as exc:
            if batch is not None and batch.pos < batch.size and b[-1] >= 0:
                ahead[str(exc)] += 1
                ahead["rows after it"] += batch.size - batch.pos - 1
            raise

    monkeypatch.setattr(lp, "_replay", noted)
    for seed in range(15):
        for inst in (random_single_pool(np.random.default_rng([seed, 41])),
                     random_multi_pool(np.random.default_rng([seed, 42]))):
            _assert_canonical_as_cold(build_lp_single_switch(inst))
    assert {"ratio test", "entering column",
            "phase 1 not optimal"} <= set(ahead)
    assert ahead["rows after it"] > 0


def test_dense_models_replay_as_cold(pushes, reasons):
    # Dense rows and dense signed targets give pins with many nonzero
    # entries in the entering columns, so a pushed-ahead row's right-hand
    # side takes many products: subtracted in another order, they change
    # some of these outcomes in the last bit.
    for seed in range(1000):
        rng = np.random.default_rng([seed, 5])
        n = int(rng.integers(4, 10))
        model = LpModel(name=f"dense[{seed}]")
        for j in range(n):
            model.add_var(f"x{j}", obj=float(rng.uniform(-1, 1))
                          if rng.uniform() < 0.7 else 0.0)
        for _ in range(int(rng.integers(2, 6))):
            model.add_row({j: float(rng.uniform(0.1, 2)) for j in range(n)
                           if rng.uniform() < 0.7}, "<=",
                          float(rng.uniform(1, 3)))
        for _ in range(int(rng.integers(0, 3))):
            model.add_row({j: float(rng.uniform(0.1, 2)) for j in range(n)
                           if rng.uniform() < 0.5}, ">=",
                          float(rng.uniform(0, 0.5)))
        try:
            sol = solve_lp(model)
        except LpError:
            continue
        targets = [({j: float(rng.uniform(-1, 1)) for j in range(n)
                     if rng.uniform() < 0.5},
                    "max" if rng.uniform() < 0.5 else "min")
                   for _ in range(int(rng.integers(3, 9)))]
        replayed, cold = _replayed_and_cold(
            lambda: refine_lexicographic(model, sol, targets))
        assert replayed == cold, seed
    assert reasons["replayed"] > 0 and max(pushes) > 1
