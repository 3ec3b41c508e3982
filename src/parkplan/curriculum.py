"""Eight-stage training curriculum.

Difficulty grows by driving the rollout sampler further from the target
pose and widening the heading perturbation: stages 1-2 inherit the rollout
heading, stages 3-7 resample it from a stage-specific range, and stage 8
starts every episode from the scenario's logged initial pose. Each stage
caps its episodes; the final stage's cap also bounds evaluation episodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kinematics
from .errors import ConfigurationError, SamplingExhaustedError
from .geometry import Pose2D, VehicleSpec, wrap_angle
from .scenarios import Scenario

# one row per default stage 1-8: rollout distance in primitive steps
# (12 steps ~ 1 m; the logged stage ignores it), heading mode, heading
# half-width in degrees (the resampling stages widen it linearly) and the
# episode cap
_DEFAULT_STAGES = (
    (12, "inherit", 0.0, 100),
    (25, "inherit", 0.0, 200),
    (50, "resample", 15.0, 400),
    (75, "resample", 33.75, 400),
    (100, "resample", 52.5, 800),
    (150, "resample", 71.25, 800),
    (200, "resample", 90.0, 800),
    (200, "logged", 0.0, 1000),
)


@dataclass(frozen=True)
class CurriculumStage:
    index: int  # 1..8
    rollout_steps: int
    heading_mode: str  # inherit | resample | logged
    heading_range: tuple[float, float]
    max_episode_len: int

    def __post_init__(self):
        if self.heading_mode not in ("inherit", "resample", "logged"):
            raise ConfigurationError(
                f"stage {self.index}: unknown heading_mode '{self.heading_mode}'"
            )
        lo, hi = self.heading_range
        if not (-math.pi < lo <= hi <= math.pi):
            raise ConfigurationError(
                f"stage {self.index}: heading range ({math.degrees(lo):.4g}, "
                f"{math.degrees(hi):.4g}) deg is not a sub-interval of (-180, 180]"
            )
        if self.rollout_steps < 0:
            raise ConfigurationError(
                f"stage {self.index}: rollout_steps must be >= 0, got {self.rollout_steps}"
            )
        if self.max_episode_len < 1:
            raise ConfigurationError(
                f"stage {self.index}: max_episode_len must be >= 1, "
                f"got {self.max_episode_len}"
            )


def default_stages() -> tuple[CurriculumStage, ...]:
    return tuple(
        CurriculumStage(
            index=i,
            rollout_steps=steps,
            heading_mode=mode,
            heading_range=(-math.radians(hw), math.radians(hw)) if hw else (0.0, 0.0),
            max_episode_len=cap,
        )
        for i, (steps, mode, hw, cap) in enumerate(_DEFAULT_STAGES, start=1)
    )


def stage_schedule(
    total_iterations: int, stages: tuple[CurriculumStage, ...] | None = None
) -> list[tuple[range, CurriculumStage]]:
    """Partition ``total_iterations`` into contiguous equal blocks, one per
    stage (earlier blocks absorb the remainder)."""
    stages = stages or default_stages()
    n = len(stages)
    if total_iterations < n:
        raise ConfigurationError(
            f"need at least {n} iterations to visit every stage, "
            f"got {total_iterations}"
        )
    base, extra = divmod(total_iterations, n)
    blocks = []
    start = 0
    for i, stage in enumerate(stages):
        size = base + (1 if i < extra else 0)
        blocks.append((range(start, start + size), stage))
        start += size
    return blocks


def sample_init(
    stage: CurriculumStage,
    scenario: Scenario,
    spec: VehicleSpec,
    rng: np.random.Generator,
    stages: tuple[CurriculumStage, ...],
) -> Pose2D:
    """Initial pose for one episode at the given stage of ``stages``.

    A ``logged`` stage returns the scenario's initial pose; other stages
    sample via the rollout. If heading resampling exhausts its attempts
    (cramped scenes), the episode falls back to the previous stage of the
    table.
    """
    # fall back by table position, not stage.index: custom tables may
    # number stages arbitrarily
    try:
        pos = stages.index(stage)
    except ValueError:
        raise ConfigurationError(f"stage {stage.index} is not in the stage table") from None
    while True:
        if stage.heading_mode == "logged":
            return scenario.initial_pose
        try:
            return _rollout(stage, scenario, spec, rng)
        except SamplingExhaustedError:
            if pos <= 0:
                raise
            pos -= 1
            stage = stages[pos]


HEADING_ATTEMPTS = 100


def _rollout(
    stage: CurriculumStage,
    scenario: Scenario,
    spec: VehicleSpec,
    rng: np.random.Generator,
) -> Pose2D:
    """Drive forward out of the target pose for ``stage.rollout_steps``
    primitives with randomized steering, rejecting colliding steps, then
    treat the heading as the stage says; the pose returned is collision-free.

    The pose is reachable by construction: it was produced by the same
    primitive mechanics the agent uses, run in reverse order.
    """
    world = scenario.world(spec)
    target = scenario.target_pose
    if world.pose_collides(target.x, target.y, target.theta):
        raise SamplingExhaustedError(
            f"scenario '{scenario.id}': target pose is not collision-free"
        )
    state = kinematics.VehicleState.from_pose(target)
    for _ in range(stage.rollout_steps):
        steer_target = rng.uniform(-spec.max_steer, spec.max_steer)
        diff = steer_target - state.delta
        preferred = 0 if abs(diff) < kinematics.STEER_INCREMENT else int(np.sign(diff))
        choices = [preferred] + [c for c in (-1, 0, 1) if c != preferred]
        for choice in choices:
            # forward primitives 0, 1, 2 steer right, straight and left
            cand = kinematics.step(state, kinematics.ACTIONS[choice + 1], spec)
            if not world.pose_collides(cand.x, cand.y, cand.theta):
                state = cand
                break
        else:
            break  # boxed in; stop the rollout early at a free pose

    if stage.heading_mode == "inherit":
        return Pose2D(state.x, state.y, state.theta)
    lo, hi = stage.heading_range
    for _ in range(HEADING_ATTEMPTS):
        theta = float(wrap_angle(state.theta + rng.uniform(lo, hi)))
        if not world.pose_collides(state.x, state.y, theta):
            return Pose2D(state.x, state.y, theta)
    raise SamplingExhaustedError(
        f"scenario '{scenario.id}': no collision-free heading in "
        f"[{lo:.3f}, {hi:.3f}] after {HEADING_ATTEMPTS} attempts"
    )
