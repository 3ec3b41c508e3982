"""Discrete-time kinematic bicycle model and the eight primitive actions.

One primitive covers dt = 0.1 s. Steering is updated first and clamped to
the physical limit, the rear axle then advances along the *previous*
heading, and the heading integrates the new steering angle:

    delta_k     = clamp(delta_{k-1} + d_delta, +-max_steer)
    x_{k+1}     = x_k + ds * cos(theta_k)
    y_{k+1}     = y_k + ds * sin(theta_k)
    theta_{k+1} = theta_k + ds / wheelbase * tan(delta_k)

with ds = v * dt. Zero-speed primitives only pre-steer the front wheels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import Pose2D, VehicleSpec, wrap_angle

STEER_INCREMENT = math.radians(8.0)
SPEED = 0.8  # m/s
DT = 0.1  # s
STEP_DISPLACEMENT = SPEED * DT  # 0.08 m per moving primitive


@dataclass(frozen=True)
class VehicleState:
    x: float
    y: float
    theta: float
    delta: float  # front-wheel steering angle, radians

    def __post_init__(self):
        object.__setattr__(self, "theta", float(wrap_angle(self.theta)))

    @classmethod
    def from_pose(cls, pose: Pose2D, delta: float = 0.0) -> "VehicleState":
        return cls(pose.x, pose.y, pose.theta, delta)


@dataclass(frozen=True)
class PrimitiveAction:
    index: int
    delta_steer: float  # radians added to the steering angle this step
    speed: float  # signed longitudinal speed, m/s
    dt: float
    description: str

    @property
    def displacement(self) -> float:
        """Signed displacement ds covered in one step."""
        return self.speed * self.dt


def _make_table() -> tuple[PrimitiveAction, ...]:
    rows = (
        (-STEER_INCREMENT, +SPEED, "turn right, forward"),
        (0.0, +SPEED, "straight, forward"),
        (+STEER_INCREMENT, +SPEED, "turn left, forward"),
        (-STEER_INCREMENT, -SPEED, "turn right, reverse"),
        (0.0, -SPEED, "straight, reverse"),
        (+STEER_INCREMENT, -SPEED, "turn left, reverse"),
        (-STEER_INCREMENT, 0.0, "pre-steer right"),
        (+STEER_INCREMENT, 0.0, "pre-steer left"),
    )
    return tuple(
        PrimitiveAction(i, d, v, DT, desc) for i, (d, v, desc) in enumerate(rows)
    )


ACTIONS = _make_table()
N_ACTIONS = len(ACTIONS)


def step(state: VehicleState, action: PrimitiveAction, spec: VehicleSpec) -> VehicleState:
    """Advance the state by one primitive."""
    delta = state.delta + action.delta_steer
    if delta > spec.max_steer:
        delta = spec.max_steer
    elif delta < -spec.max_steer:
        delta = -spec.max_steer
    ds = action.displacement
    if ds == 0.0:
        return VehicleState(state.x, state.y, state.theta, delta)
    x = state.x + ds * math.cos(state.theta)
    y = state.y + ds * math.sin(state.theta)
    theta = state.theta + ds / spec.wheelbase * math.tan(delta)
    return VehicleState(x, y, theta, delta)
