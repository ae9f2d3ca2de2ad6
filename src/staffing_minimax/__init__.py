"""Minimax-optimal online staffing under interval demand forecasts."""

from .model import (Instance, MultiStationInstance, PredictionInterval,
                    PredictionSequence, ReleaseInstance, StaffingPlan,
                    StationSpec, check_feasibility, joint_cost, load_instance,
                    make_instance, multi_station_cost, save_instance,
                    staffing_cost, validate_instance)
from .programs import (build_lp_joint_cost, build_lp_multi_station,
                       build_lp_release, build_lp_resolving,
                       build_lp_single_switch, extract_canonical,
                       minimax_value_and_profile, solve_canonical)
from .lp import LpModel, LpSolution, solve_lp
from .emulator import EmulatorTrace, emulator_step
from .adversary import (brute_force_worst_case, configuration_sequence,
                        random_nested_sequence, sequence_from_csv,
                        single_switch_sequence, worst_case_sequence)
from .policies import (GreedyTargetPolicy, JointCostPolicy, LpEmulatorPolicy,
                       LpResolvingPolicy, MiscoverageWrapper, ReleasePolicy,
                       gamma_star_closed_form, gamma_star_single_pool, play)

__version__ = "0.1.0"
