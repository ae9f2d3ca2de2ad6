"""Costly hiring with a budget, and releasing workers for a per-epoch fee.

The program enumerates one forecast scenario per switch-day configuration
(one switch per fee epoch) and shares decision variables across scenarios
that are indistinguishable online.  The policy re-solves at each epoch
start, emulates within the epoch, and applies the critical-index release
rule on the epoch's last day.  Played against every configuration scenario,
its cost never exceeds the program value.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from staffing_minimax import (ReleasePolicy, check_feasibility,
                              configuration_sequence, load_instance, play)
from staffing_minimax.adversary import worst_demand_cost
from staffing_minimax.lp import solve_lp
from staffing_minimax.programs import build_lp_release

here = os.path.dirname(__file__)
ri = load_instance(os.path.join(here, os.pardir, "instances",
                                "release_demo.json"))
built = build_lp_release(ri)
objective = solve_lp(built.model).objective
print(f"epochs end at days {ri.epoch_breaks}, fees {ri.release_fees}, "
      f"budget {ri.budget}")
print(f"{len(built.configs)} configurations; program value "
      f"{objective:.6f}\n")

for cfg in built.configs:
    seq = configuration_sequence(ri, cfg)
    plan = play(ReleasePolicy(ri), ri.base, seq)
    ok, violations = check_feasibility(ri, plan)
    cost, _ = worst_demand_cost(ri.base, plan.total_net,
                                float(seq.effective_lo[-1]),
                                float(seq.effective_hi[-1]))
    released = plan.releases.sum()
    print(f"  switches {cfg}: hired {plan.total_hired:.3f} "
          f"released {released:.3f} worst cost {cost:.6f} "
          f"feasible={ok}")
