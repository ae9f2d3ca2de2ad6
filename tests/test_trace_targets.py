"""The benchmark tracer's targets must name live functions of the package,
and its notes must read their real calls.

``benchmarks/tracer.py`` wraps each ``(module, attribute)`` in ``TARGETS``
and runs a note function on each call's arguments and result; a renamed
function or a changed signature would otherwise surface only when the
traced benchmark run fails.
"""

import importlib
import os
from collections import OrderedDict

import pytest

BENCH_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks")


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(BENCH_DIR)
    return importlib.import_module("tracer")


def test_every_trace_target_resolves(tracer):
    assert tracer.TARGETS
    for mod_name, attr, _, _ in tracer.TARGETS:
        home = importlib.import_module(f"{tracer.PACKAGE}.{mod_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(home, cls_name, None)
            assert owner is not None, f"{mod_name}.{cls_name} is gone"
            # The tracer replaces the method in the class's own namespace.
            assert meth in vars(owner), f"{mod_name}.{attr} is gone"
        else:
            assert callable(getattr(home, attr, None)), \
                f"{mod_name}.{attr} is gone"


def test_every_note_reads_a_real_call(tracer, monkeypatch):
    """Each note function runs on one real call of its target, as
    ``run.py --trace 1`` runs them; a changed signature fails here."""
    from conftest import fig3_instance, instance_path
    from staffing_minimax import adversary, bayesian, cli
    from staffing_minimax import emulator as emulator_module
    from staffing_minimax.policies import LpEmulatorPolicy
    from staffing_minimax.programs import minimax_value_and_profile

    inst = fig3_instance("a")
    proc = bayesian.DemandProcess(3)
    table = bayesian.calibrate_intervals(proc, draws=10_000)
    world_inst = bayesian.forecast_instance(
        [2.0, 2.0], [[1.0, 1.0, 0.0], [0.9, 0.6, 0.3]], table, process=proc)
    factories = cli._policy_factories(["empirical_mdp", "lp_resolving"],
                                      world_inst, proc, {"grid_levels": 5})
    gamma, canonical = minimax_value_and_profile(inst)
    grid = adversary.enumerate_grid_sequences(inst, 0.5)
    # The emulator plays each distinct prefix of running upper bounds once.
    prefixes = set()
    for seq in grid:
        r_hat, prefix = inst.initial_range[1], ()
        for t, iv in enumerate(seq.intervals, start=1):
            r_hat = min(r_hat, iv.hi + inst.eps(t))
            prefix += (r_hat,)
            prefixes.add(prefix)
    # A fresh memo: what earlier tests played on this block is not reused.
    monkeypatch.setattr(emulator_module, "_blocks", OrderedDict())
    t = tracer.Tracer()
    t.install()
    try:
        assert cli.main(["solve", "--instance",
                         instance_path("fig3c.json")]) == 0
        adversary.enumerate_grid_sequences(inst, 0.5)
        bayesian.run_bayesian_world(world_inst, proc, table, factories, 1, 0)
        adversary.brute_force_worst_case(
            inst, lambda: LpEmulatorPolicy(inst, canonical, gamma), 0.5)
    finally:
        t.uninstall()
    noted = {}
    for idx, note in t.notes.items():
        noted.setdefault(t.names[t.name[idx]], []).append(note)
    for _, _, span, note in tracer.TARGETS:
        if note is not None:
            assert noted.get(span), f"{span}: no note recorded"
    n_rows, n_vars = noted["lp.solve_lp"][0]
    assert n_rows > 0 and n_vars > 0
    assert all(stages > 0 for stages in noted["lp.refine_lexicographic"])
    assert all(len(d) == 64 for d in noted["programs.solve_canonical"])
    assert noted["adversary.enumerate_grid_sequences"][0] > 0
    # Days 2 and 3 are solved on day 1, day 3 on day 2: (5T+1)·G^n each.
    assert noted["bayesian.backward_induction"] == [2 * 16 * 25, 16 * 25]
    # A resolving memo miss builds and solves through the names `policies`
    # imports, which the tracer wraps there: one of each a day.
    spans = [t.names[i] for i in t.name]
    under_step = [spans[i] for i, parent in enumerate(t.parent)
                  if parent >= 0
                  and spans[parent] == "policies.LpResolvingPolicy.step"]
    for span in ("programs.build", "programs.solve_canonical",
                 "programs.extract_canonical"):
        assert under_step.count(span) == 3, span
    # Each of those canonical solves runs one solve_lp, then one
    # refine_lexicographic, so the traced run splits its time by layer.
    for i, parent in enumerate(t.parent):
        if spans[i] == "programs.solve_canonical" and parent >= 0 \
                and spans[parent] == "policies.LpResolvingPolicy.step":
            assert [spans[j] for j, up in enumerate(t.parent) if up == i] \
                == ["lp.solve_lp", "lp.refine_lexicographic"]
    # The grid oracle steps every emulator through the per-layer spans on a
    # miss of the block's day tree: one emulator_step and one split_hires
    # per distinct running-bound prefix, not per sequence and day.
    assert 0 < len(prefixes) < len(grid) * inst.horizon
    for span in ("emulator.emulator_step", "emulator.split_hires"):
        assert spans.count(span) == len(prefixes), span
