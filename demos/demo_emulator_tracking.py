"""How the emulator turns an offline plan into online decisions.

The canonical schedule protects against forecasts that keep signaling high
demand.  When the observed upper bound drops below that script, the emulator
subtracts the surplus from the day's hire, never exceeding the canonical
caps.  Against a sequence that never drops, it follows the script exactly.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from staffing_minimax import (EmulatorTrace, LpEmulatorPolicy, make_instance,
                              minimax_value_and_profile, play,
                              single_switch_sequence, validate_instance)
from staffing_minimax.adversary import random_nested_sequence

T = 6
rho = [1 - 0.7 ** (T - t + 1) for t in range(1, T + 1)]
deltas = [1 - 0.45 ** (T - t) for t in range(1, T + 1)]
inst = validate_instance(make_instance([1.0], [rho], (0, 1), deltas))
gamma, canonical = minimax_value_and_profile(inst)
print(f"optimal worst-case cost {gamma:.4f}; canonical schedule "
      + " ".join(f"{x:.3f}" for x in canonical[0]))

print("\nagainst the never-drop sequence (upper bound pinned at 1):")
trace = EmulatorTrace()
plan = play(LpEmulatorPolicy(inst, canonical, gamma), inst,
            single_switch_sequence(inst, T), trace)
for t, hire in zip(trace.days, trace.hires):
    print(f"  day {t}: R_hat {trace.r_hat[t-1]:.3f}  hired {hire[0]:.3f}")

print("\nagainst a random shrinking sequence:")
seq = random_nested_sequence(inst, seed=7)
trace = EmulatorTrace()
plan = play(LpEmulatorPolicy(inst, canonical, gamma), inst, seq, trace)
for t, hire in zip(trace.days, trace.hires):
    iv = seq.interval(t)
    print(f"  day {t}: saw [{iv.lo:.3f}, {iv.hi:.3f}]  R_hat "
          f"{trace.r_hat[t-1]:.3f}  hired {hire[0]:.3f}")
lo, hi = seq.effective_lo[-1], seq.effective_hi[-1]
total = plan.total_net
worst = max(inst.under_cost * (hi - total), inst.over_cost * (total - lo), 0)
print(f"final staffing {total:.3f}, worst cost over [{lo:.3f}, {hi:.3f}] "
      f"= {worst:.4f} <= {gamma:.4f}")
