"""Span tracer for the traced benchmark run.

The tracer wraps public functions of ``staffing_minimax`` from outside the
package: every module attribute that refers to a wrapped function (the
defining module and each module that imported it by name) is replaced, and
methods are replaced on their class.  Each call records a span (name,
parent span, start, end) in flat arrays kept in memory; ``write`` dumps them
when the run ends.  A span's self time is its duration minus the durations
of its child spans.
"""

from __future__ import annotations

import gzip
import hashlib
import sys
import time
from array import array
from collections import defaultdict

from staffing_minimax.bayesian import BINOM_TRIALS

PACKAGE = "staffing_minimax"


def _model_digest(args, kwargs, result):
    return hashlib.sha256(args[0].model.dump().encode()).hexdigest()


def _lp_size(args, kwargs, result):
    return (args[0].n_rows, args[0].n_vars)


def _stages(args, kwargs, result):
    return len(args[2])


def _states(args, kwargs, result):
    # backward_induction(inst, pmfs, levels, t_start, spec): (5T+1)·G^n
    # states on each remaining day t_start..T.
    inst, t_start, spec = args[0], args[3], args[4]
    n, T = inst.availability.shape
    return ((BINOM_TRIALS * T + 1) * spec.grid_levels ** n
            * (T - t_start + 1))


def _count(args, kwargs, result):
    return len(result)


# (module, attribute or Class.method, span name, note on the call).
TARGETS = [
    ("lp", "solve_lp", "lp.solve_lp", _lp_size),
    ("lp", "refine_lexicographic", "lp.refine_lexicographic", _stages),
    ("programs", "build_lp_single_switch", "programs.build", None),
    ("programs", "build_lp_resolving", "programs.build", None),
    ("programs", "build_lp_multi_station", "programs.build", None),
    ("programs", "build_lp_joint_cost", "programs.build", None),
    ("programs", "build_lp_release", "programs.build", None),
    ("programs", "solve_canonical", "programs.solve_canonical",
     _model_digest),
    ("programs", "extract_canonical", "programs.extract_canonical", None),
    ("policies", "LpEmulatorPolicy.__init__",
     "policies.LpEmulatorPolicy.init", None),
    ("policies", "LpEmulatorPolicy.step", "policies.LpEmulatorPolicy.step",
     None),
    ("policies", "LpResolvingPolicy.step",
     "policies.LpResolvingPolicy.step", None),
    ("policies", "play", "policies.play", None),
    ("emulator", "emulator_step", "emulator.emulator_step", None),
    ("emulator", "split_hires", "emulator.split_hires", None),
    ("adversary", "enumerate_grid_sequences",
     "adversary.enumerate_grid_sequences", _count),
    ("adversary", "demand_candidates", "adversary.demand_candidates", None),
    ("adversary", "brute_force_worst_case",
     "adversary.brute_force_worst_case", None),
    ("model", "PredictionSequence.build", "model.PredictionSequence.build",
     None),
    ("model", "staffing_cost", "model.staffing_cost", None),
    ("model", "load_instance", "model.load_instance", None),
    ("bayesian", "DemandProcess.sample_world", "bayesian.sample_world", None),
    ("bayesian", "point_estimator", "bayesian.point_estimator", None),
    ("bayesian", "backward_induction", "bayesian.backward_induction",
     _states),
    ("bayesian", "MdpPolicy.step", "bayesian.MdpPolicy.step", None),
    ("bayesian", "NaiveGreedyPolicy.step", "bayesian.naive_policies.step",
     None),
    ("bayesian", "NaiveBayesianPolicy.step", "bayesian.naive_policies.step",
     None),
    ("bayesian", "run_bayesian_world", "bayesian.run_bayesian_world", None),
    ("bayesian", "calibrate_intervals", "bayesian.calibrate_intervals", None),
    ("cli", "main", "cli.main", None),
]

MODULES = ["lp", "programs", "policies", "emulator", "adversary", "model",
           "bayesian", "cli"]


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.errors: set = set()
        self.notes: dict = {}
        self.excluded = defaultdict(float)   # tracer work inside a span
        self.untimed = defaultdict(float)    # paused time inside a span
        self._stack = [-1]
        self._patches: list = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, span_name, note):
        nid = self._ids.setdefault(span_name, len(self.names))
        if nid == len(self.names):
            self.names.append(span_name)
        name, parent, start, end = self.name, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.errors.add(idx)
                raise
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if note is not None:
                self.notes[idx] = note(args, kwargs, result)
                self.excluded[stack[-1]] += clock() - t1
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", span_name)
        return wrapper

    def install(self) -> None:
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == PACKAGE or k.startswith(PACKAGE + ".")]
        for mod_name, attr, span_name, note in TARGETS:
            home = sys.modules[f"{PACKAGE}.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, staticmethod):
                    new = staticmethod(self._wrap(raw.__func__, span_name,
                                                  note))
                else:
                    new = self._wrap(raw, span_name, note)
                self._patches.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            fn = getattr(home, attr)
            new = self._wrap(fn, span_name, note)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patches.append((mod, key, fn))
                        setattr(mod, key, new)

    def pause_during(self, owner, attr: str) -> None:
        """Until ``uninstall``, keep the time spent in ``owner.attr`` (the
        benchmark's own host-speed probe) out of the enclosing span's self
        time."""
        fn = getattr(owner, attr)
        stack, untimed, clock = self._stack, self.untimed, time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                untimed[stack[-1]] += clock() - t0

        self._patches.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def mark(self) -> int:
        """Start a phase; returns the index of its first span."""
        self.excluded[-1] = 0.0
        return len(self.name)

    # -- reporting ---------------------------------------------------------

    def metrics(self, lo: int, hi: int, wall_s: float, untraced_wall_s: float
                ) -> dict:
        """Per-layer metrics over spans [lo, hi) of a pass that took
        wall_s traced and untraced_wall_s with tracing off.  The two set-up
        metrics, model.load_instance.ms and bayesian.calibrate_intervals.ms,
        also count the set-up spans [0, lo)."""
        names = self.names
        dur = [self.end[i] - self.start[i] for i in range(hi)]
        child = defaultdict(float)
        for i in range(hi):
            child[self.parent[i]] += dur[i]
        calls, total, self_s = (defaultdict(int), defaultdict(float),
                                defaultdict(float))
        setup_total = defaultdict(float)
        for i in range(hi):
            key = names[self.name[i]]
            if i < lo:
                setup_total[key] += dur[i]
                continue
            calls[key] += 1
            total[key] += dur[i]
            self_s[key] += (dur[i] - child[i] - self.excluded[i]
                            - self.untimed[i])

        def span(i):
            return names[self.name[i]]

        m = {}
        lp_idx = [i for i in range(lo, hi) if span(i) == "lp.solve_lp"]
        n_lp = len(lp_idx)
        m["lp.solve_lp.calls"] = n_lp
        m["lp.solve_lp.ms"] = total["lp.solve_lp"] * 1e3
        m["lp.solve_lp.rows_mean"] = (
            sum(self.notes[i][0] for i in lp_idx if i in self.notes) / n_lp
            if n_lp else 0.0)
        m["lp.solve_lp.vars_mean"] = (
            sum(self.notes[i][1] for i in lp_idx if i in self.notes) / n_lp
            if n_lp else 0.0)
        m["lp.solve_lp.errors"] = sum(1 for i in lp_idx if i in self.errors)
        m["lp.refine_lexicographic.calls"] = calls["lp.refine_lexicographic"]
        m["lp.refine_lexicographic.stages"] = sum(
            self.notes.get(i, 0) for i in range(lo, hi)
            if span(i) == "lp.refine_lexicographic")
        m["lp.refine_lexicographic.self_ms"] = (
            self_s["lp.refine_lexicographic"] * 1e3)

        def under_canonical(i):
            p = self.parent[i]
            while p >= 0:
                if span(p) == "programs.solve_canonical":
                    return True
                p = self.parent[p]
            return False

        n_canon = calls["programs.solve_canonical"]
        m["lp.solves_per_canonical"] = (
            sum(1 for i in lp_idx if under_canonical(i)) / n_canon
            if n_canon else 0.0)
        m["programs.build.calls"] = calls["programs.build"]
        m["programs.build.ms"] = total["programs.build"] * 1e3
        m["programs.solve_canonical.calls"] = n_canon
        m["programs.solve_canonical.self_ms"] = (
            self_s["programs.solve_canonical"] * 1e3)
        m["programs.extract_canonical.ms"] = (
            total["programs.extract_canonical"] * 1e3)
        seen, repeat_s = set(), 0.0
        for i in range(lo, hi):
            if span(i) == "programs.solve_canonical" and i in self.notes:
                if self.notes[i] in seen:
                    repeat_s += dur[i]
                seen.add(self.notes[i])
        m["programs.repeat_ms_share"] = (
            repeat_s / total["programs.solve_canonical"]
            if total["programs.solve_canonical"] else 0.0)
        m["policies.LpEmulatorPolicy.init.calls"] = (
            calls["policies.LpEmulatorPolicy.init"])
        m["policies.LpEmulatorPolicy.init.ms"] = (
            total["policies.LpEmulatorPolicy.init"] * 1e3)
        m["policies.LpEmulatorPolicy.step.self_ms"] = (
            self_s["policies.LpEmulatorPolicy.step"] * 1e3)
        m["policies.LpResolvingPolicy.step.calls"] = (
            calls["policies.LpResolvingPolicy.step"])
        m["policies.LpResolvingPolicy.step.self_ms"] = (
            self_s["policies.LpResolvingPolicy.step"] * 1e3)
        m["policies.play.calls"] = calls["policies.play"]
        m["policies.play.self_ms"] = self_s["policies.play"] * 1e3
        m["emulator.emulator_step.calls"] = calls["emulator.emulator_step"]
        m["emulator.emulator_step.self_ms"] = (
            self_s["emulator.emulator_step"] * 1e3)
        m["emulator.split_hires.ms"] = total["emulator.split_hires"] * 1e3
        m["adversary.sequences"] = sum(
            self.notes.get(i, 0) for i in range(lo, hi)
            if span(i) == "adversary.enumerate_grid_sequences")
        m["adversary.enumerate_grid_sequences.ms"] = (
            total["adversary.enumerate_grid_sequences"] * 1e3)
        m["adversary.demand_candidates.ms"] = (
            total["adversary.demand_candidates"] * 1e3)
        m["adversary.brute_force_worst_case.self_ms"] = (
            self_s["adversary.brute_force_worst_case"] * 1e3)
        m["model.PredictionSequence.build.calls"] = (
            calls["model.PredictionSequence.build"])
        m["model.PredictionSequence.build.ms"] = (
            total["model.PredictionSequence.build"] * 1e3)
        m["model.staffing_cost.ms"] = total["model.staffing_cost"] * 1e3
        m["model.load_instance.ms"] = (
            total["model.load_instance"]
            + setup_total["model.load_instance"]) * 1e3
        m["bayesian.sample_world.calls"] = calls["bayesian.sample_world"]
        m["bayesian.sample_world.ms"] = total["bayesian.sample_world"] * 1e3
        m["bayesian.point_estimator.calls"] = calls["bayesian.point_estimator"]
        m["bayesian.point_estimator.ms"] = (
            total["bayesian.point_estimator"] * 1e3)
        m["bayesian.backward_induction.calls"] = (
            calls["bayesian.backward_induction"])
        m["bayesian.backward_induction.self_ms"] = (
            self_s["bayesian.backward_induction"] * 1e3)
        m["bayesian.backward_induction.states"] = sum(
            self.notes.get(i, 0) for i in range(lo, hi)
            if span(i) == "bayesian.backward_induction")
        m["bayesian.MdpPolicy.step.self_ms"] = (
            self_s["bayesian.MdpPolicy.step"] * 1e3)
        m["bayesian.naive_policies.step.ms"] = (
            total["bayesian.naive_policies.step"] * 1e3)
        m["bayesian.run_bayesian_world.self_ms"] = (
            self_s["bayesian.run_bayesian_world"] * 1e3)
        m["bayesian.calibrate_intervals.ms"] = (
            total["bayesian.calibrate_intervals"]
            + setup_total["bayesian.calibrate_intervals"]) * 1e3
        m["cli.main.calls"] = calls["cli.main"]
        m["cli.main.self_ms"] = self_s["cli.main"] * 1e3
        m["trace.overhead_share"] = ((wall_s - untraced_wall_s)
                                     / untraced_wall_s)
        # Share of the traced pass (tracer bookkeeping taken out) spent in
        # each module's own code.
        traced = wall_s - sum(self.excluded[i] for i in range(lo, hi))
        traced -= self.excluded[-1]
        for mod in MODULES:
            m[f"{mod}.self_share"] = sum(
                v for k, v in self_s.items()
                if k.split(".", 1)[0] == mod) / traced
        return m

    def write(self, path, lo: int) -> None:
        """Write every span as CSV: id, parent, phase, name, start, end."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("id,parent,phase,name,start_ms,end_ms\n")
            for i in range(len(self.name)):
                f.write(f"{i},{self.parent[i]},"
                        f"{'setup' if i < lo else 'pass'},"
                        f"{self.names[self.name[i]]},"
                        f"{(self.start[i] - t0) * 1e3:.4f},"
                        f"{(self.end[i] - t0) * 1e3:.4f}\n")
