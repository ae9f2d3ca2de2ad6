"""Two stations share the same worker pools but face separate demands.

The aggregate objective is either the worst station (egalitarian) or the
total (utilitarian).  After one shared solve, each station's online
decisions depend only on its own forecasts: station j plays the ordinary LP
emulator over its block of the canonical profile (as `staffing-minimax run
--policy multi_station` does).
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

import numpy as np

from staffing_minimax import (LpEmulatorPolicy, MultiStationInstance,
                              StationSpec, extract_canonical, play,
                              single_switch_sequence, solve_canonical)
from staffing_minimax.lp import solve_lp
from staffing_minimax.programs import build_lp_multi_station

rho = np.array([[1.0, 0.7], [0.9, 0.5]])
stations = (
    StationSpec((0.0, 1.0), np.array([0.5, 0.25])),
    StationSpec((0.0, 0.75), np.array([0.5, 0.25]), over_cost=2.0),
)

for objective in ("max", "sum"):
    msi = MultiStationInstance(np.array([0.6, 0.5]), rho, stations, objective)
    built = build_lp_multi_station(msi)
    sol = solve_lp(built.model)
    gammas = [sol.x[v] for v in built.gamma_index]
    print(f"objective {objective:>3s}: aggregate {sol.objective:.4f}, "
          f"per-station costs " + ", ".join(f"{g:.4f}" for g in gammas))

msi = MultiStationInstance(np.array([0.6, 0.5]), rho, stations, "sum")
built = build_lp_multi_station(msi)
sol = solve_canonical(built)
canonical = extract_canonical(built, sol)      # (pools, stations, days)


def play_stations(sequences):
    """Each station's plan: the LP emulator of its block of the one
    canonical profile, over the station's own forecasts."""
    plans = []
    for j, seq in enumerate(sequences):
        inst = msi.station_instance(j)
        policy = LpEmulatorPolicy(inst, canonical[:, j, :], sol.objective)
        plans.append(play(policy, inst, seq))
    return plans


seq0 = single_switch_sequence(msi.station_instance(0), 1)
seq1a = single_switch_sequence(msi.station_instance(1), 1)
seq1b = single_switch_sequence(msi.station_instance(1), 2)
plans_a = play_stations([seq0, seq1a])
plans_b = play_stations([seq0, seq1b])
same = np.array_equal(plans_a[0].hires, plans_b[0].hires)
print(f"\nstation 0's hires unchanged when station 1's forecasts change: "
      f"{same}")
print("station 0 hires:\n", np.round(plans_a[0].hires, 4))
