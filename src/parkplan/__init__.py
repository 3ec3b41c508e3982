"""Constrained-parking path planning: a closed-loop RL planner and a
Hybrid A* / Reeds-Shepp classical baseline, with a shared benchmark and
evaluation harness."""

from .geometry import Pose2D, VehicleSpec, footprint_polygon, collides
from .kinematics import VehicleState, PrimitiveAction, step
from .scenarios import Scenario, load_scenario, save_scenario, synth_scenario, bundled_scenarios
from .env import ParkingEnv, EnvConfig, RewardConfig, StepOutcome, build_observation, check_goal
from .curriculum import CurriculumStage, default_stages, stage_schedule, sample_init
from .reeds_shepp import RSPath, RSSegment, rs_shortest
from .hybrid_astar import PlannerConfig, PlannedPath, PlanFailure, plan
from .policy import PolicyConfig, PolicyNetwork, ActionDistribution
from .ppo import TrainConfig, train, compute_advantages, ppo_update
from .evaluate import EvalReport, EvalRow, pivot_count, travel_distance
from .render import render_svg, save_svg
from .config import AppConfig, load_config

__all__ = [
    "Pose2D", "VehicleSpec", "footprint_polygon", "collides",
    "VehicleState", "PrimitiveAction", "step",
    "Scenario", "load_scenario", "save_scenario", "synth_scenario",
    "bundled_scenarios",
    "ParkingEnv", "EnvConfig", "RewardConfig", "StepOutcome", "build_observation",
    "check_goal",
    "CurriculumStage", "default_stages", "stage_schedule", "sample_init",
    "RSPath", "RSSegment", "rs_shortest",
    "PlannerConfig", "PlannedPath", "PlanFailure", "plan",
    "PolicyConfig", "PolicyNetwork", "ActionDistribution",
    "TrainConfig", "train", "compute_advantages", "ppo_update",
    "EvalReport", "EvalRow", "pivot_count", "travel_distance",
    "render_svg", "save_svg",
    "AppConfig", "load_config",
]

__version__ = "0.1.0"
