"""Re-solving the program each day on the remaining horizon.

On the structured sequences the programs were built around, resolving and
the one-shot emulator make identical decisions; on typical random sequences
resolving adapts and usually (not always: both are worst-case optimal) does
at least as well, while never exceeding the optimal worst-case cost.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

import numpy as np

from staffing_minimax import (LpEmulatorPolicy, LpResolvingPolicy,
                              make_instance, minimax_value_and_profile,
                              play, single_switch_sequence,
                              validate_instance)
from staffing_minimax.adversary import (random_nested_sequence,
                                        worst_demand_cost)

T = 10
rho = [1 - 0.8 ** (T - t + 1) for t in range(1, T + 1)]
deltas = [1 - 0.5 ** (T - t) for t in range(1, T + 1)]
inst = validate_instance(make_instance([0.6], [rho], (0, 1), deltas))
gamma, canonical = minimax_value_and_profile(inst)

print("identical decisions on every switch-day sequence:")
for k in (1, 5, 10):
    seq = single_switch_sequence(inst, k)
    pe = play(LpEmulatorPolicy(inst, canonical, gamma), inst, seq)
    pr = play(LpResolvingPolicy(inst), inst, seq)
    print(f"  switch at {k:2d}: max deviation "
          f"{np.abs(pe.hires - pr.hires).max():.2e}")

print("\nrandom shrinking sequences (worst demand per policy):")
wins, draws = 0, 40
for s in range(draws):
    seq = random_nested_sequence(inst, 1000 + s)
    final = float(seq.effective_lo[-1]), float(seq.effective_hi[-1])
    ce, _ = worst_demand_cost(
        inst, play(LpEmulatorPolicy(inst, canonical, gamma), inst,
                   seq).total_net, *final)
    cr, _ = worst_demand_cost(
        inst, play(LpResolvingPolicy(inst), inst, seq).total_net, *final)
    wins += cr <= ce + 1e-9
    assert cr <= gamma + 1e-7
print(f"  resolving at least as good on {wins}/{draws} draws; "
      f"never above the worst-case optimum {gamma:.4f}")
