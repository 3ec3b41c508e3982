"""Closed-loop parking environment.

Episodes run at primitive granularity (0.1 s bicycle-model steps); the
chunk wrapper executes a fixed-length sequence of primitives as one
macro-action, summing rewards and stopping at the first terminal primitive.

The reward of every primitive step is a linear combination of event
indicators plus a constant per-step time penalty, written once in
``ParkingEnv._step`` over the flags that ``FLAGS`` names:

    r = goal_reward * [goal] + collision_penalty * [collision]
      + out_of_bounds_penalty * [out_of_bounds]
      + gear_change_penalty * [direction change] + idle_penalty * [idle]
      + time_penalty

Goal attainment is measured at the body's geometric center (not the rear
axle) with a positional and a heading tolerance.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from . import kinematics
from .errors import ConfigurationError, InputError, ProtocolError, ResetRejectedError
from .geometry import Pose2D, VehicleSpec, wrap_angle
from .kinematics import VehicleState
from .scenarios import Scenario

DEFAULT_K = 256  # obstacle token slots
# the event flags of one primitive step, in the order ``_step`` returns them
FLAGS = ("goal_reached", "collided", "out_of_bounds", "truncated", "idle", "direction_change")


@dataclass(frozen=True)
class RewardConfig:
    goal_reward: float = 3.0
    collision_penalty: float = -3.0
    out_of_bounds_penalty: float = -3.0
    gear_change_penalty: float = -0.01
    idle_penalty: float = -0.2
    time_penalty: float = -0.01
    goal_pos_tol: float = 0.2  # meters, at the geometric center
    goal_heading_tol: float = math.radians(3.0)

    def __post_init__(self):
        if not (self.goal_pos_tol > 0 and self.goal_heading_tol > 0):
            raise ConfigurationError(
                f"goal tolerances must be positive, got {self.goal_pos_tol} m "
                f"and {self.goal_heading_tol} rad"
            )
        terms = {name: getattr(self, name)
                 for name in ("goal_reward", "collision_penalty", "out_of_bounds_penalty",
                              "gear_change_penalty", "idle_penalty", "time_penalty")}
        bad = {k: v for k, v in terms.items() if not math.isfinite(v)}
        if bad:
            raise ConfigurationError(f"reward terms must be finite, got {bad}")


@dataclass(frozen=True)
class EnvConfig:
    """The task an env poses: what it observes, where it ends an episode
    out of bounds, and its reward. The vehicle and the token count K are
    not part of it; the policy's config sets K."""

    horizon: float = 15.0  # observation range R, meters
    bounds_margin: float = 5.0  # inflation of the obstacle bounding box, meters
    max_target_range: float = 30.0  # hard out-of-bounds distance from the target
    reward: RewardConfig = field(default_factory=RewardConfig)

    def __post_init__(self):
        if not self.horizon > 0:
            raise ConfigurationError(f"horizon must be positive, got {self.horizon}")
        if not (self.bounds_margin >= 0 and self.max_target_range >= 0):
            raise ConfigurationError(
                f"bounds_margin and max_target_range must be >= 0, got "
                f"{self.bounds_margin} and {self.max_target_range}"
            )


@dataclass
class StepOutcome:
    observation: dict  # a one-row policy batch
    reward: float
    done: bool
    info: dict


def check_goal(
    state: VehicleState,
    goal: Pose2D,
    spec: VehicleSpec,
    cfg: RewardConfig,
    center_distance: float | None = None,
) -> bool:
    """True when the geometric-center distance and the heading difference
    are both within tolerance. A caller that has the distance between the
    two centers already passes it as ``center_distance``."""
    if center_distance is None:
        cx, cy = spec.geometric_center(state)
        gx, gy = spec.geometric_center(goal)
        center_distance = math.hypot(cx - gx, cy - gy)
    if center_distance > cfg.goal_pos_tol:
        return False
    return abs(wrap_angle(state.theta - goal.theta)) <= cfg.goal_heading_tol


def observation_batch(
    states, gears, goals, obstacles, horizon: float, k: int, max_steer: float
) -> dict:
    """The policy batch, the package's one observation format, of one
    ego-centric observation per row: ``states[i]`` in gear ``gears[i]``
    observing ``goals[i]`` among the points ``obstacles[i]``. ``feats``
    (B, 6) holds steering / ``max_steer``, the gear, the goal's ego-frame x
    and y over ``horizon`` clipped to [-1, 1], and the sine and cosine of
    its relative heading; ``tokens`` (B, k, 2) the ego-frame points over
    ``horizon``, zero where ``mask`` (B, k) is False. Obstacles beyond
    ``horizon`` are dropped, a row with more than ``k`` survivors keeps the
    nearest ``k`` in ascending range (ties by original index) and any other
    row keeps its survivors in index order."""
    n = len(states)
    rows, feats = [], []
    for st, g, gear in zip(states, goals, gears):
        # the heading rotation from math, as geometry's transforms take it
        c, s = math.cos(st.theta), math.sin(st.theta)
        # the goal by world_to_ego's operations
        dx, dy = g.x - st.x, g.y - st.y
        dtheta = wrap_angle(g.theta - st.theta)
        rows.append((st.x, st.y, c, s))
        # min and max clip as np.clip does, a NaN included
        feats.append((st.delta / max_steer, gear,
                      min(max((c * dx + s * dy) / horizon, -1.0), 1.0),
                      min(max((c * dy - s * dx) / horizon, -1.0), 1.0),
                      math.sin(dtheta), math.cos(dtheta)))
    feats = np.array(feats, dtype=float)
    x, y, c, s = np.array(rows).T[:, :, None]

    first = obstacles[0]
    if all(pts is first for pts in obstacles):  # one scene: broadcast its points
        px, py = first[:, 0], first[:, 1]
        sizes = None
    else:
        # pad every row to the longest array with finite points that are
        # marked out of range below
        sizes = [pts.shape[0] for pts in obstacles]
        px = np.zeros((n, max(sizes)))
        py = np.zeros_like(px)
        for i, pts in enumerate(obstacles):
            px[i, : sizes[i]] = pts[:, 0]
            py[i, : sizes[i]] = pts[:, 1]
    dx, dy = px - x, py - y
    lx = c * dx + s * dy
    ly = c * dy - s * dx
    ranges = np.hypot(lx, ly)
    in_range = ranges <= horizon
    if sizes is not None:
        for i, size in enumerate(sizes):
            in_range[i, size:] = False
    count = np.count_nonzero(in_range, axis=1)
    # one stable sort per row: by range where the row must be cut to k,
    # else by index alone; out-of-range points sort last
    cut = (count > k)[:, None]
    key = np.where(in_range, np.where(cut, ranges, 0.0), np.inf)
    order = np.argsort(key, axis=1, kind="stable")[:, :k]
    mask = np.arange(k) < count[:, None]
    flat = order + np.arange(n)[:, None] * lx.shape[1]  # flat indices into lx and ly
    tokens = np.zeros((n, k, 2))
    picked = tokens[:, : order.shape[1]]
    picked[..., 0] = lx.take(flat)
    picked[..., 1] = ly.take(flat)
    picked /= horizon
    picked[~mask[:, : order.shape[1]]] = 0.0
    return {"feats": feats, "tokens": tokens, "mask": mask}


def build_observation(
    state: VehicleState,
    goal: Pose2D,
    obstacles: np.ndarray,
    horizon: float = EnvConfig.horizon,
    k: int = DEFAULT_K,
    max_steer: float = VehicleSpec.max_steer,
    gear: float = 0.0,
) -> dict:
    """One observation: the one-row case of :func:`observation_batch`."""
    pts = np.asarray(obstacles, dtype=float).reshape(-1, 2)
    return observation_batch([state], [gear], [goal], [pts], horizon, k, max_steer)


class ParkingEnv:
    """Single-scenario episodic environment (one instance per worker;
    instances share no mutable state)."""

    def __init__(
        self,
        spec: VehicleSpec | None = None,
        cfg: EnvConfig | None = None,
        k_obstacles: int = DEFAULT_K,
    ):
        self.spec = spec or VehicleSpec()
        self.cfg = cfg or EnvConfig()
        self.reward_cfg = self.cfg.reward
        self.k_obstacles = k_obstacles
        self._scenario: Scenario | None = None
        self._active = False

    # -- episode lifecycle -------------------------------------------------

    def reset(
        self, scenario: Scenario, init_pose: Pose2D, max_episode_len: int
    ) -> dict:
        """Start an episode and return its first observation."""
        self.start(scenario, init_pose, max_episode_len)
        return self.observe()

    def start(self, scenario: Scenario, init_pose: Pose2D, max_episode_len: int) -> None:
        """Start an episode without building its first observation."""
        if max_episode_len < 1:
            raise InputError("max_episode_len must be >= 1")
        world = scenario.world(self.spec)
        if world.pose_collides(init_pose.x, init_pose.y, init_pose.theta):
            raise ResetRejectedError(
                f"scenario '{scenario.id}': initial pose collides"
            )
        self._scenario = scenario
        self._world = world
        self._init_pose = init_pose
        self._state = VehicleState.from_pose(init_pose, delta=0.0)
        self._gear = 0
        self._t = 0
        self._max_len = max_episode_len
        self._active = True
        self._actions: list[int] = []
        if scenario.obstacles.shape[0]:
            lo = scenario.obstacles.min(axis=0) - self.cfg.bounds_margin
            hi = scenario.obstacles.max(axis=0) + self.cfg.bounds_margin
            self._bounds = (float(lo[0]), float(lo[1]), float(hi[0]), float(hi[1]))
        else:
            self._bounds = None
        self._target_center = self.spec.geometric_center(scenario.target_pose)

    def _started(self) -> Scenario:
        """The scenario of the current or last episode."""
        if self._scenario is None:
            raise ProtocolError("no episode has started")
        return self._scenario

    @property
    def state(self) -> VehicleState:
        self._started()
        return self._state

    @property
    def active(self) -> bool:
        """True while an episode is open: started and not yet ended."""
        return self._active

    def observe(self) -> dict:
        """The observation of the current state, as a one-row batch."""
        scenario = self._started()
        return build_observation(
            self._state,
            scenario.target_pose,
            scenario.obstacles,
            horizon=self.cfg.horizon,
            k=self.k_obstacles,
            max_steer=self.spec.max_steer,
            gear=self._gear,
        )

    def _out_of_bounds(self, cx: float, cy: float, target_distance: float) -> bool:
        # (cx, cy) is the geometric center and target_distance its distance
        # from the target's
        if target_distance > self.cfg.max_target_range:
            return True
        if self._bounds is not None:
            lo_x, lo_y, hi_x, hi_y = self._bounds
            if cx < lo_x or cy < lo_y or cx > hi_x or cy > hi_y:
                return True
        return False

    def _step(self, action_index: int) -> tuple[float, bool, tuple]:
        """One primitive without its observation: (reward, done, flags),
        the flags in the order ``FLAGS`` names them."""
        if not self._active:
            raise ProtocolError("step called on a finished episode")
        try:
            # a plain int, so that a numpy index is stored as one a replay
            # file can hold
            action_index = operator.index(action_index)
        except TypeError:
            raise InputError(f"action index {action_index!r} is not an integer") from None
        if not 0 <= action_index < kinematics.N_ACTIONS:
            raise InputError(f"action index {action_index} out of range")
        action = kinematics.ACTIONS[action_index]
        state = kinematics.step(self._state, action, self.spec)

        ds = action.displacement
        idle = ds == 0.0
        motion = 0 if idle else (1 if ds > 0 else -1)
        direction_change = motion != 0 and motion == -self._gear

        # terminal causes, mutually exclusive, checked in priority order
        collided = self._world.pose_collides(state.x, state.y, state.theta)
        goal = oob = False
        if not collided:
            cx, cy = self.spec.geometric_center(state)
            tx, ty = self._target_center
            distance = math.hypot(cx - tx, cy - ty)
            goal = check_goal(state, self._scenario.target_pose, self.spec,
                              self.reward_cfg, center_distance=distance)
            oob = (not goal) and self._out_of_bounds(cx, cy, distance)

        self._state = state
        self._t += 1
        if motion != 0:
            self._gear = motion
        truncated = not (collided or goal or oob) and self._t >= self._max_len
        done = collided or goal or oob or truncated

        cfg = self.reward_cfg
        reward = (cfg.goal_reward * goal + cfg.collision_penalty * collided
                  + cfg.out_of_bounds_penalty * oob + cfg.gear_change_penalty * direction_change
                  + cfg.idle_penalty * idle + cfg.time_penalty)
        if done:
            self._active = False
        self._actions.append(action_index)
        return reward, done, (goal, collided, oob, truncated, idle, direction_change)

    def step_primitive(self, action_index: int) -> StepOutcome:
        return self.chunk_step((action_index,))

    def chunk_step(self, chunk) -> StepOutcome:
        """:meth:`advance` through ``chunk``, then the observation, built
        once, after the last executed primitive."""
        reward, done, info = self.advance(chunk)
        return StepOutcome(self.observe(), reward, done, info)

    def advance(self, chunk) -> tuple[float, bool, dict]:
        """Execute up to ``len(chunk)`` primitives as one macro-action,
        stopping at the first terminal primitive and summing rewards, and
        return (reward, done, info) without an observation. The info holds
        the last primitive's flags, with ``idle`` and ``direction_change``
        taken over the chunk."""
        chunk = list(chunk)
        if len(chunk) < 1:
            raise InputError("chunk must contain at least one action index")
        total = 0.0
        any_idle = False
        any_dir_change = False
        executed = 0
        for idx in chunk:
            reward, done, flags = self._step(idx)
            total += reward
            executed += 1
            any_idle = any_idle or flags[4]
            any_dir_change = any_dir_change or flags[5]
            if done:
                break
        info = dict(zip(FLAGS, (*flags[:4], any_idle, any_dir_change)))
        info["steps_elapsed"] = self._t
        info["primitives_executed"] = executed
        return total, done, info

    # -- replay ------------------------------------------------------------

    def replay_log(self) -> dict:
        """Deterministic record of the episode so far."""
        scenario = self._started()
        p = self._init_pose
        return {
            "scenario_id": scenario.id,
            "init_pose": [p.x, p.y, p.theta],
            "actions": list(self._actions),
            "max_episode_len": self._max_len,
        }

    def displacements(self) -> list[float]:
        """Signed per-primitive displacements of the episode so far."""
        self._started()
        return [kinematics.ACTIONS[a].displacement for a in self._actions]


def observe_batch(envs: list[ParkingEnv]) -> dict:
    """The policy batch of every env's current observation, equal bit for
    bit to batching each env's :meth:`ParkingEnv.observe`. The envs must
    share their horizon, token count and steering limit."""
    first = envs[0]
    shared = (first.cfg.horizon, first.k_obstacles, first.spec.max_steer)
    if any((e.cfg.horizon, e.k_obstacles, e.spec.max_steer) != shared for e in envs):
        raise InputError("batched envs must share horizon, k_obstacles and max_steer")
    return observation_batch(
        [e.state for e in envs],
        [e._gear for e in envs],
        [e._scenario.target_pose for e in envs],
        [e._scenario.obstacles for e in envs],
        *shared,
    )


def save_replay(log: dict, path) -> None:
    Path(path).write_text(json.dumps(log, indent=1))


def load_replay(path) -> dict:
    """Read a replay file, checking the fields a replay needs:
    ``init_pose`` (three finite numbers), ``actions`` (primitive indices)
    and ``max_episode_len`` (a positive integer)."""
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"replay file not found: {path}")
    try:
        log = json.loads(path.read_text())
    except ValueError as exc:
        raise InputError(f"{path}: not a JSON replay: {exc}")
    if not isinstance(log, dict):
        raise InputError(f"{path}: a replay must be a JSON object")
    # type(), not isinstance(): JSON true and false load as bool, an int
    # subclass; a missing field reads as None and fails its check
    pose, actions, cap = (log.get(k) for k in ("init_pose", "actions", "max_episode_len"))
    if not (
        type(pose) is list
        and len(pose) == 3
        and all(type(v) in (int, float) and math.isfinite(v) for v in pose)
    ):
        raise InputError(f"{path}: init_pose must be three finite numbers, got {pose!r}")
    if type(actions) is not list:
        raise InputError(f"{path}: actions must be a list, got {actions!r}")
    for a in actions:
        if not (type(a) is int and 0 <= a < kinematics.N_ACTIONS):
            raise InputError(
                f"{path}: action {a!r} is not a primitive index in "
                f"0..{kinematics.N_ACTIONS - 1}"
            )
    if not (type(cap) is int and cap >= 1):
        raise InputError(f"{path}: max_episode_len must be a positive integer, got {cap!r}")
    if len(actions) > cap:
        raise InputError(f"{path}: {len(actions)} actions exceed max_episode_len {cap}")
    return log


def begin_replay(env: ParkingEnv, scenario: Scenario, log: dict) -> dict:
    """Reset ``env`` to the start of a recorded episode on ``scenario``,
    which must be the scenario the replay was recorded on."""
    if log.get("scenario_id") not in (None, scenario.id):
        raise InputError(
            f"replay was recorded on '{log.get('scenario_id')}', not '{scenario.id}'"
        )
    init = Pose2D(*(float(v) for v in log["init_pose"]))
    return env.reset(scenario, init, int(log["max_episode_len"]))


def replay_steps(env: ParkingEnv, actions) -> Iterator[StepOutcome]:
    """Step a replay begun by :func:`begin_replay` through its recorded
    ``actions``, yielding each outcome. An action after the episode's
    terminal primitive is an input error that names the action's index."""
    done = False
    for i, idx in enumerate(actions):
        if done:
            raise InputError(
                f"replay action {i} comes after the episode ended at action {i - 1}"
            )
        outcome = env.step_primitive(idx)
        done = outcome.done
        yield outcome
