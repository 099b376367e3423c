"""Compact allocation plans for guaranteed-delivery ad serving.

Plans are generated offline from a bipartite supply-demand forecast graph
and hold O(1) numbers per contract; serving is stateless and rate-based, so
decisions need no shared counters.  Forecast errors are corrected by
periodic re-optimization and an optional feedback adjustment of reported
demand.  A simulator reproduces end-to-end delivery behavior.
"""

from .model import (AllocationGraph, Contract, FeasibilityReport, GraphDataError,
                    ServingPlan, SupplyNode, build_graph, check_feasibility,
                    forecast_allocation)
from .targeting import (TargetingSyntaxError, build_edges, eligible,
                        parse_targeting, unparse)
from .hwm import (HwmEntry, HwmPlan, generate_hwm_plan, load_hwm_plan,
                  save_hwm_plan)
from .dual import (DualConvergenceError, DualEntry, DualPlan, dual_objective,
                   load_dual_plan, reconstruct_primal, save_dual_plan,
                   solve_dual_offline)
from .feedback import FeedbackConfig, apply_feedback, hours_behind, linear_goal
from .metrics import (MetricsError, TimeseriesRow, build_smoothness,
                      delivery_improvement, nearest_rank, smoothness_quantile,
                      underdelivery_fraction)
from .simulate import (ImpressionEvent, ImpressionStream, Server,
                       SimulationConfig, SimulationError, SimulationReport,
                       baseline_pacing, load_config, load_impressions,
                       run_simulation, save_impressions,
                       terminal_delivery_error, terminal_delivery_error_bound,
                       write_report)
from .scenario import ScenarioSpec, demo_graph, generate_scenario

KERNEL_BACKEND = "python"   # the kernels have one implementation, in Python

__version__ = "0.1.0"
