"""Forecast shocks: on random days the revealed interval is garbage.

When shocked days are detectable before hiring, the wrapped emulator hires
nothing on those days; on a clean day it steps its emulator over the shocked
days just past with the clean day's interval (the repaired history), then over
the clean day.  The average extra cost grows gently with the shock probability.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

import numpy as np

from staffing_minimax import (LpEmulatorPolicy, MiscoverageWrapper,
                              make_instance, minimax_value_and_profile, play,
                              validate_instance)
from staffing_minimax.adversary import random_nested_sequence
from staffing_minimax.model import PredictionInterval, PredictionSequence

T = 6
rho = [1 - 0.75 ** (T - t + 1) for t in range(1, T + 1)]
deltas = [1 - 0.45 ** (T - t) for t in range(1, T + 1)]
inst = validate_instance(make_instance([1.2], [rho], (0, 1), deltas))
gamma, canonical = minimax_value_and_profile(inst)

for shock_prob in (0.0, 0.05, 0.1, 0.25):
    total_extra = 0.0
    reps = 400
    for rep in range(reps):
        seq = random_nested_sequence(inst, 90_000 + rep)
        rng = np.random.default_rng([rep, 7])
        shocked = rng.uniform(size=T) < shock_prob
        intervals = [PredictionInterval(0.0, 0.0) if shocked[t]
                     else seq.intervals[t] for t in range(T)]
        shocked_seq = PredictionSequence.build(inst, intervals)
        wrapped = MiscoverageWrapper(
            LpEmulatorPolicy(inst, canonical, gamma),
            "detect_before_hiring", shocked)
        plan = play(wrapped, inst, shocked_seq)
        base = play(LpEmulatorPolicy(inst, canonical, gamma), inst, seq)
        d = float(seq.effective_hi[-1])
        cost = (inst.under_cost * max(0.0, d - plan.total_net)
                + inst.over_cost * max(0.0, plan.total_net - d))
        ref = (inst.under_cost * max(0.0, d - base.total_net)
               + inst.over_cost * max(0.0, base.total_net - d))
        total_extra += cost - ref
    print(f"shock probability {shock_prob:4.2f}: mean extra cost "
          f"{total_extra / reps:+.4f}")
