"""Acceptance suite: one test per criterion, one PASS line printed each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines.  Criterion 9 is statistical: one pinned-seed run of 1,600
paired replications, a count set by the power calculation in its
docstring, checks every ordering at two standard errors.  Its 100- and
800-replication prefixes are printed beside it as evidence; the first is
the bench configs' own count, too small to separate the smallest gaps.
"""

import itertools
import json
import time

import numpy as np
import pytest

from conftest import fig3_instance, final_range, instance_path, \
    mdp_root_value, play_stations, random_multi_pool, random_single_pool, \
    station_factories
from staffing_minimax import bayesian, cli
from staffing_minimax.adversary import (demand_candidates,
                                        enumerate_grid_sequences,
                                        random_nested_sequence,
                                        single_switch_sequence,
                                        worst_demand_cost)
from staffing_minimax.cli import main as cli_main
from staffing_minimax.lp import solve_lp
from staffing_minimax.model import (MultiStationInstance, PredictionInterval,
                                    PredictionSequence, ReleaseInstance,
                                    StationSpec, check_feasibility,
                                    load_instance, make_instance,
                                    validate_instance)
from staffing_minimax.policies import (GreedyTargetPolicy, LpEmulatorPolicy,
                                       LpResolvingPolicy, MiscoverageWrapper,
                                       ReleasePolicy, gamma_star_closed_form,
                                       gamma_star_single_pool, play)
from staffing_minimax.programs import (build_lp_multi_station,
                                       build_lp_release,
                                       build_lp_single_switch,
                                       minimax_value_and_profile,
                                       single_switch_floor)


def report(n, text):
    print(f"\n[criterion {n:2d}] PASS - {text}")


def test_criterion_01_fig3_reproduction(capsys):
    expected = {"a": (0.0, 1e-6), "b": (0.476, 5e-3), "c": (0.338, 5e-3)}
    timings = []
    for which, (value, tol) in expected.items():
        start = time.perf_counter()
        code = cli_main(["solve", "--instance",
                         instance_path(f"fig3{which}.json")])
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        printed = float(out.splitlines()[0])
        assert code == 0
        assert printed == pytest.approx(value, abs=tol), which
        assert elapsed < 1.0, f"fig3{which} solve took {elapsed:.2f}s"
        timings.append(elapsed)
    report(1, "fig-3 objectives 0.000/0.475/0.338 reproduced, "
              f"max solve time {max(timings)*1e3:.0f} ms")


def test_criterion_02_fixed_point_equals_lp():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(100):
        inst = random_single_pool(np.random.default_rng(9000 + seed))
        fp = gamma_star_single_pool(inst)
        lp = solve_lp(build_lp_single_switch(inst).model).objective
        worst = max(worst, abs(fp.gamma_star - lp))
        assert abs(fp.gamma_star - lp) <= 1e-6, (seed, fp.gamma_star, lp)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(2, f"fixed point == LP on 100 instances, max gap {worst:.2e}, "
              f"{elapsed:.1f}s")


def test_criterion_03_closed_form_grid():
    T = 10
    worst = 0.0
    for eta, dl, s in itertools.product((0.25, 0.5, 1.0, 2.0),
                                        (0.3, 0.5, 0.8),
                                        (0.3, 0.6, 1.5, 4.0)):
        cf = gamma_star_closed_form(s, eta, dl, T)
        rho = [eta ** t for t in range(1, T + 1)]
        deltas = [1 - dl ** (T - t) for t in range(1, T + 1)]
        inst = make_instance([s], [rho], (0, 1), deltas)
        lp = solve_lp(build_lp_single_switch(inst).model).objective
        worst = max(worst, abs(cf - lp))
        assert abs(cf - lp) <= 1e-6, (eta, dl, s, cf, lp)
    report(3, f"closed form == LP over the 48-point grid, max gap {worst:.2e}")


def _random_canonical(rng, inst):
    n, T = inst.availability.shape
    x = rng.uniform(0.0, 1.0, size=(n, T)) * (inst.availability > 0)
    for i in range(n):
        usage = sum(x[i, t] / inst.availability[i, t]
                    for t in range(T) if inst.availability[i, t] > 0)
        if usage > 0:
            x[i] *= min(1.0, rng.uniform(0.2, 1.0)
                        * float(inst.pool_sizes[i]) / usage)
    return x


def test_criterion_04_emulator_invariant_fuzz():
    cases = 10_000
    rng = np.random.default_rng(123)
    for case in range(cases):
        inst = random_multi_pool(rng)
        canonical = _random_canonical(rng, inst)
        seq = random_nested_sequence(inst, int(rng.integers(1 << 31)))
        # solvable every step
        plan = play(LpEmulatorPolicy(inst, canonical), inst, seq)
        assert np.all(plan.hires <= canonical + 1e-12)
        ok, viol = check_feasibility(inst, plan)
        assert ok, viol
        total = plan.total_hired
        day_totals = plan.hires.sum(axis=0)
        hired = np.nonzero(day_totals > 1e-12)[0]
        if hired.size:
            k = int(hired[-1]) + 1
            bound = canonical[:, :k].sum() - single_switch_floor(inst, k)
            assert total - seq.effective_lo[-1] <= bound + 1e-9
        assert (seq.effective_hi[-1] - total
                <= inst.initial_range[1] - canonical.sum() + 1e-9)
    report(4, f"{cases} fuzz cases: steps solvable, caps respected, "
              "bounded-cost inequalities within 1e-9, plans feasible")


def _grid_instances():
    t2 = validate_instance(make_instance(
        [0.8], [[1.0, 0.7]], (0, 1), [0.5, 0.25]))
    t3 = validate_instance(make_instance(
        [0.4, 0.5], [[1.0, 0.75, 0.5], [0.9, 0.6, 0.35]], (0, 1),
        [0.75, 0.5, 0.25], under_cost=1.0, over_cost=2.0))
    return {"T=2": t2, "T=3": t3}


def _grid_worst(inst, factory, grid):
    worst = -np.inf
    for seq in enumerate_grid_sequences(inst, grid):
        plan = play(factory(), inst, seq)
        cost, _ = worst_demand_cost(inst, plan.total_net, *final_range(seq))
        worst = max(worst, cost)
    return worst


def test_criterion_05_brute_force_certification():
    start = time.perf_counter()
    lines = []
    for label, inst in _grid_instances().items():
        gamma, canonical = minimax_value_and_profile(inst)
        emulator_worst = _grid_worst(
            inst, lambda: LpEmulatorPolicy(inst, canonical, gamma), 0.25)
        assert emulator_worst <= gamma + 1e-6
        attained = max(
            worst_demand_cost(
                inst,
                play(LpEmulatorPolicy(inst, canonical, gamma), inst,
                     single_switch_sequence(inst, k)).total_net,
                *final_range(single_switch_sequence(inst, k)))[0]
            for k in range(1, inst.horizon + 1))
        grid_slack = gamma - emulator_worst
        assert attained >= emulator_worst - 1e-9
        heuristics = {
            "naive_greedy": lambda: bayesian.NaiveGreedyPolicy(inst),
        }
        if inst.single_pool():
            heuristics["greedy_target(0)"] = \
                lambda: GreedyTargetPolicy(inst, 0.0)
            heuristics["greedy_target(g*)"] = \
                lambda: GreedyTargetPolicy(inst, gamma)
        for name, factory in heuristics.items():
            h_worst = _grid_worst(inst, factory, 0.25)
            assert h_worst >= gamma - 1e-6, (label, name, h_worst, gamma)
        lines.append(f"{label}: gamma*={gamma:.4f} grid worst="
                     f"{emulator_worst:.4f} (slack {grid_slack:.2e}) "
                     f"single-switch attains {attained:.4f}")
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(5, "; ".join(lines) + f"; {elapsed:.1f}s")


def test_criterion_06_resolving_equivalence():
    inst = fig3_instance("b")
    gamma, canonical = minimax_value_and_profile(inst)
    worst_dev = 0.0
    for k in range(1, inst.horizon + 1):
        seq = single_switch_sequence(inst, k)
        pe = play(LpEmulatorPolicy(inst, canonical, gamma), inst, seq)
        pr = play(LpResolvingPolicy(inst), inst, seq)
        dev = float(np.abs(pe.hires - pr.hires).max())
        worst_dev = max(worst_dev, dev)
        assert dev <= 1e-9, (k, dev)
    caps = []
    for label, small in _grid_instances().items():
        g = solve_lp(build_lp_single_switch(small).model).objective
        res_worst = _grid_worst(small, lambda: LpResolvingPolicy(small), 0.25)
        assert res_worst <= g + 1e-6, (label, res_worst, g)
        caps.append(f"{label} resolving worst {res_worst:.4f} <= "
                    f"gamma* {g:.4f}")
    report(6, f"plans identical on all switch days (max dev {worst_dev:.1e}); "
              + "; ".join(caps))


def test_criterion_07_release_reduction_and_bounds():
    # Exact reduction to the base emulator when releasing is impossible.
    inst = fig3_instance("b")
    trivial = ReleaseInstance(base=inst)
    gamma, canonical = minimax_value_and_profile(inst)
    for seed in range(8):
        seq = random_nested_sequence(inst, 600 + seed)
        pe = play(LpEmulatorPolicy(inst, canonical, gamma), inst, seq)
        pr = play(ReleasePolicy(trivial), inst, seq)
        assert np.allclose(pe.hires, pr.hires, atol=1e-9)
        assert np.all(pr.releases == 0)

    # T=4, L=2 instances: configuration worst case within the objective.
    ri = load_instance(instance_path("release_demo.json"))
    checks = [ri]
    free = ReleaseInstance(base=ri.base, budget=None, wages=None,
                           epoch_breaks=(2, 4), release_fees=(0.05, 0.2))
    checks.append(free)
    lines = []
    for problem in checks:
        built = build_lp_release(problem)
        objective = solve_lp(built.model).objective
        worst = -np.inf
        from staffing_minimax.adversary import configuration_sequence
        for cfg in built.configs:
            seq = configuration_sequence(problem, cfg)
            plan = play(ReleasePolicy(problem), problem.base, seq)
            ok, viol = check_feasibility(problem, plan)
            assert ok, (cfg, viol)
            cost, _ = worst_demand_cost(problem.base, plan.total_net,
                                        *final_range(seq))
            worst = max(worst, cost)
        assert worst <= objective + 1e-6
        lines.append(f"worst {worst:.4f} <= objective {objective:.4f}")
    report(7, "exact base reduction; " + "; ".join(lines)
              + "; all plans supply/budget/release feasible")


def test_criterion_08_multi_station():
    rho = np.array([[1.0, 0.7], [0.9, 0.5]])
    st_a = StationSpec((0.0, 1.0), np.array([0.5, 0.25]))
    st_b = StationSpec((0.0, 0.75), np.array([0.5, 0.25]), under_cost=1.0,
                       over_cost=2.0)
    lines = []
    for objective in ("max", "sum"):
        msi = MultiStationInstance(np.array([0.6, 0.5]), rho, (st_a, st_b),
                                   objective)
        built = build_lp_multi_station(msi)
        lp_value = solve_lp(built.model).objective

        # Exact per-station independence.
        inst0 = msi.station_instance(0)
        inst1 = msi.station_instance(1)
        seqs0 = enumerate_grid_sequences(inst0, 0.25)
        seqs1 = enumerate_grid_sequences(inst1, 0.25)
        probe = [seqs1[0], seqs1[len(seqs1) // 2], seqs1[-1]]
        base_plan = play_stations(msi, [seqs0[0], probe[0]])[0].hires
        for other in probe[1:]:
            again = play_stations(msi, [seqs0[0], other])[0].hires
            assert np.array_equal(base_plan, again)

        # Aggregate grid worst case via per-station worst cases (valid
        # because the emulation is per-station independent).
        per_station = []
        factories = station_factories(msi)
        for j, seqs in enumerate((seqs0, seqs1)):
            worst = -np.inf
            st = msi.stations[j]
            for seq in seqs:
                total = play(factories[j](), msi.station_instance(j),
                             seq).total_net
                for d in demand_candidates(seq):
                    cost = (st.under_cost * max(0.0, d - total)
                            + st.over_cost * max(0.0, total - d))
                    worst = max(worst, cost)
            per_station.append(worst)
        aggregate = (max(per_station) if objective == "max"
                     else sum(per_station))
        assert aggregate <= lp_value + 1e-6, (objective, aggregate, lp_value)
        lines.append(f"psi={objective}: worst {aggregate:.4f} <= "
                     f"LP {lp_value:.4f}")
    report(8, "independence exact; " + "; ".join(lines))


def _bench_config_rows(path, reps):
    with open(path) as f:
        config = json.load(f)
    return cli._bench_rows(config, reps)


# Replications for criterion 9's two-standard-error clause; the power
# calculation that sets it is in the test's docstring.
POWERED_REPS = 1600


def test_criterion_09_bayesian_ordering():
    """Paired replications, pinned seed: mean cost orderings
    lp_resolving <= lp_emulator <= naive_greedy and
    lp_resolving <= naive_bayesian, every paired difference positive at two
    standard errors with POWERED_REPS replications.

    POWERED_REPS comes from a power calculation, not from trial.  The
    smallest standardised gap (mean over standard deviation of the paired
    difference, measured over 2,400 replications) is d = 0.115, for
    lp_emulator - lp_resolving on T=14.  A one-sided test that clears
    2 SE with 99% power needs sqrt(n) * d >= 2 + 2.326, that is
    n >= (4.326 / 0.115)^2 ~ 1,415; rounded up to twice the 800-replication
    prefix, n = 1,600.  There the normal approximation, treating the six
    pairs (three per config) as independent, puts the joint power at 99.5%.
    The bench configs' own count, n = 100, has a joint power of about 2%:
    its two-standard-error clause fails at the pinned seed (0.4 SE and
    0.9 SE on two pairs) and at all 40 of seeds 1000-1039.  n = 800 has a
    joint power of about 86%.

    Replications are seeded by index, so one POWERED_REPS run holds the
    n = 100 and n = 800 runs as prefixes.  All three counts are printed;
    n = 100 is printed as the bench configs' own count and must order every
    pair in its point estimate, n = 800 must clear 2 SE on every pair, and
    n = POWERED_REPS is the stated two-standard-error check.
    """
    pairs = [("lp_emulator", "lp_resolving"),
             ("naive_greedy", "lp_emulator"),
             ("naive_bayesian", "lp_resolving")]
    failures = []
    for label, path in [("T=5", instance_path("bench_short.json")),
                        ("T=14", instance_path("bench_long.json"))]:
        rows = _bench_config_rows(path, POWERED_REPS)
        rows100 = [r for r in rows if r["replication"] < 100]
        rows800 = [r for r in rows if r["replication"] < 800]
        print(f"\n[criterion  9] {label} evidence:")
        for a, b in pairs:
            m100, se100 = bayesian.paired_differences(rows100, a, b)
            m800, se800 = bayesian.paired_differences(rows800, a, b)
            m, se = bayesian.paired_differences(rows, a, b)
            z100 = m100 / se100 if se100 else np.inf
            z800 = m800 / se800 if se800 else np.inf
            z = m / se if se else np.inf
            print(f"    {a:>14s} - {b:<14s} n=100: {m100:+.3f} ({z100:.1f} SE)"
                  f"   n=800: {m800:+.3f} ({z800:.1f} SE)"
                  f"   n={POWERED_REPS}: {m:+.3f} ({z:.1f} SE)")
            assert m100 > 0, (label, a, b, "ordering violated at n=100")
            assert m800 > 2 * se800, (label, a, b,
                                      "ordering not confirmed at n=800")
            if not m > 2 * se:
                failures.append(f"{label} {a}-{b}: {z:.1f} SE at "
                                f"n={POWERED_REPS}")
    assert not failures, (
        "paired differences below two standard errors: "
        + "; ".join(failures))
    report(9, "orderings positive at 2 SE with "
              f"n={POWERED_REPS} on both configs")


def test_criterion_10_mdp_sanity():
    inst = make_instance([4.0], [[1.0]], (0, 5), [5.0], under_cost=1.0,
                         over_cost=3.0)
    proc = bayesian.DemandProcess(1)
    levels = np.linspace(0.0, 4.0, 9)
    for partial in (0.0, 1.0, 2.0, 3.0, 4.0, 5.0):
        pol = bayesian.MdpPolicy(inst, proc, bayesian.MdpSpec(grid_levels=9))
        from staffing_minimax.policies import DayObservation
        dec = pol.step(DayObservation(day=1, interval=None, partial=partial,
                                      samples=np.zeros(0)))
        oracle = min(levels,
                     key=lambda h: (1.0 * max(0.0, partial - h)
                                    + 3.0 * max(0.0, h - partial), h))
        assert dec.hires[0] == oracle

    inst2 = make_instance([3.0, 3.0], [[1.0, 1.0], [0.9, 0.6]], (0, 10),
                          [10.0, 10.0])
    proc2 = bayesian.DemandProcess(2)
    spec = bayesian.MdpSpec(grid_levels=21, transition="true")
    pmf = proc2.marginal_pmf()
    v_full = mdp_root_value(inst2, {1: pmf, 2: pmf}, spec)
    rng = np.random.default_rng(0)
    xi = rng.uniform(0, 0.5, size=100_000)
    counts = np.bincount(rng.binomial(5, xi), minlength=6)
    pmf_emp = counts / counts.sum()
    v_emp = mdp_root_value(inst2, {1: pmf_emp, 2: pmf_emp}, spec)
    rel = abs(v_emp - v_full) / v_full
    assert rel <= 0.05
    report(10, f"T=1 action == grid newsvendor; T=2 empirical value within "
               f"{rel * 100:.1f}% of full information")


def test_criterion_11_comparative_statics(capsys):
    code = cli_main(["sweep-eta", "--T", "14", "--s", "1.0",
                     "--etas", "0.25,0.5,1,2,4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "nonincreasing: yes" in out
    values = [float(line.split()[1]) for line in out.splitlines()[1:6]]
    assert all(values[i + 1] <= values[i] + 1e-9 for i in range(4))
    report(11, "gamma* nonincreasing over eta in {0.25,0.5,1,2,4}: "
               + ", ".join(f"{v:.4f}" for v in values))


def test_criterion_12_miscoverage_wrapper():
    T = 6
    rho = [1 - 0.75 ** (T - t + 1) for t in range(1, T + 1)]
    deltas = [1 - 0.45 ** (T - t) for t in range(1, T + 1)]
    inst = validate_instance(make_instance([1.2], [rho], (0, 1), deltas))
    gamma, canonical = minimax_value_and_profile(inst)

    def extra_cost(shock_prob, reps=1000):
        total = 0.0
        for rep in range(reps):
            seq = random_nested_sequence(inst, 50_000 + rep)
            flags_rng = np.random.default_rng([rep, 7])
            shocked = flags_rng.uniform(size=T) < shock_prob
            intervals = [PredictionInterval(0.0, 0.0) if shocked[t]
                         else seq.intervals[t] for t in range(T)]
            shocked_seq = PredictionSequence.build(inst, intervals)
            wrapped = MiscoverageWrapper(
                LpEmulatorPolicy(inst, canonical, gamma),
                "detect_before_hiring", shocked)
            plan = play(wrapped, inst, shocked_seq)
            base_plan = play(LpEmulatorPolicy(inst, canonical, gamma), inst,
                             seq)
            if shock_prob == 0.0:
                assert np.array_equal(plan.hires, base_plan.hires)
            d = float(seq.effective_hi[-1])
            cost = (inst.under_cost * max(0.0, d - plan.total_net)
                    + inst.over_cost * max(0.0, plan.total_net - d))
            base = (inst.under_cost * max(0.0, d - base_plan.total_net)
                    + inst.over_cost * max(0.0, base_plan.total_net - d))
            total += cost - base
        return total / reps

    means = [extra_cost(p) for p in (0.0, 0.05, 0.1)]
    assert means[0] == 0.0
    assert means[0] <= means[1] + 1e-12
    assert means[1] <= means[2] + 1e-12
    report(12, "delta=0 bit-identical; mean extra cost "
               + " <= ".join(f"{m:.4f}" for m in means)
               + " nondecreasing over delta in {0, 0.05, 0.1}")
