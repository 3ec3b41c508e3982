"""Output checks, computed apart from the code under test.

Nothing here calls parkplan's collision, kinematics, Reeds-Shepp or
advantage code. The collision test is ray casting over a footprint built
from the vehicle's dimensions, not parkplan's half-plane kernels; the
bicycle step, the brute-force Reeds-Shepp length and the recursive GAE
come from the test suite's oracle module, ``tests/oracles.py``. Every
check returns a list of error strings; an empty list means the output
passed.
"""

from __future__ import annotations

import importlib.util
import math
from pathlib import Path

import numpy as np

BOUNDARY_TOL = 1e-9  # a point this close to an edge counts as on the body
STATE_TOL = 1e-9  # per-decision agreement with the bicycle oracle
_PAIR_CAP = 1 << 18  # pose x obstacle pairs held at once


def load_oracles(root: Path):
    """The test suite's brute-force oracle module, loaded from its file."""
    path = root / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def body_polygon(spec) -> np.ndarray:
    """Chamfered body outline in the rear-axle frame, from the vehicle's
    dimensions: the L x W box with its four corners cut by crop_l along
    the body and crop_w across it."""
    rear, front = -spec.rear_overhang, spec.front_overhang
    half = spec.width / 2.0
    cl, cw = spec.crop_l, spec.crop_w
    return np.array(
        [
            (rear + cl, -half), (front - cl, -half), (front, -half + cw),
            (front, half - cw), (front - cl, half), (rear + cl, half),
            (rear, half - cw), (rear, -half + cw),
        ]
    )


def colliding(poses: np.ndarray, obstacles: np.ndarray, spec) -> np.ndarray:
    """Per pose (rows of x, y, theta): True when some obstacle point lies
    inside the world-frame body or within BOUNDARY_TOL of its outline.

    Points near a pose are tested by crossing number against the body's
    world-frame edges, with an explicit distance-to-edge test for the
    boundary.
    """
    poses = np.asarray(poses, dtype=float).reshape(-1, 3)
    obstacles = np.asarray(obstacles, dtype=float).reshape(-1, 2)
    out = np.zeros(poses.shape[0], dtype=bool)
    if obstacles.shape[0] == 0 or poses.shape[0] == 0:
        return out
    local = body_polygon(spec)
    reach = float(np.max(np.hypot(local[:, 0], local[:, 1]))) + 1e-6
    block = max(1, _PAIR_CAP // obstacles.shape[0])
    for lo in range(0, poses.shape[0], block):
        p = poses[lo : lo + block]
        dx = obstacles[None, :, 0] - p[:, 0:1]
        dy = obstacles[None, :, 1] - p[:, 1:2]
        pi, oi = np.nonzero(dx * dx + dy * dy <= reach * reach)
        if pi.shape[0] == 0:
            continue
        c = np.cos(p[pi, 2])[:, None]
        s = np.sin(p[pi, 2])[:, None]
        ax = p[pi, 0:1] + c * local[None, :, 0] - s * local[None, :, 1]
        ay = p[pi, 1:2] + s * local[None, :, 0] + c * local[None, :, 1]
        bx = np.roll(ax, -1, axis=1)
        by = np.roll(ay, -1, axis=1)
        px = obstacles[oi, 0:1]
        py = obstacles[oi, 1:2]
        # distance from the point to each edge segment
        ex, ey = bx - ax, by - ay
        t = np.clip(((px - ax) * ex + (py - ay) * ey) / (ex * ex + ey * ey), 0.0, 1.0)
        on_edge = np.hypot(ax + t * ex - px, ay + t * ey - py) <= BOUNDARY_TOL
        # crossings of a ray from the point towards +x
        straddle = (ay > py) != (by > py)
        with np.errstate(divide="ignore", invalid="ignore"):
            x_cross = ax + (py - ay) * ex / ey
        crossings = np.sum(straddle & (px < x_cross), axis=1)
        hit = (crossings % 2 == 1) | on_edge.any(axis=1)
        out[lo + pi[hit]] = True
    return out


def meets_goal(x, y, theta, goal, spec, pos_tol, heading_tol) -> bool:
    """Geometric-centre distance and heading difference within tolerance."""
    d = (spec.front_overhang - spec.rear_overhang) / 2.0
    cx, cy = x + d * math.cos(theta), y + d * math.sin(theta)
    gx = goal.x + d * math.cos(goal.theta)
    gy = goal.y + d * math.sin(goal.theta)
    dth = math.atan2(math.sin(theta - goal.theta), math.cos(theta - goal.theta))
    return math.hypot(cx - gx, cy - gy) <= pos_tol and abs(dth) <= heading_tol


def _angle_gap(a, b) -> float:
    return abs(math.atan2(math.sin(a - b), math.cos(a - b)))


# ---------------------------------------------------------------------------
# astar-pack
# ---------------------------------------------------------------------------


def check_planned_path(scenario, path, spec, cfg, reward_cfg, oracles) -> list[str]:
    """Soundness of one Hybrid A* result against the full obstacle set."""
    sid = scenario.id
    errors = []
    poses = np.array([(p.x, p.y, p.theta) for p in path.poses])
    start, goal = scenario.initial_pose, scenario.target_pose
    if tuple(poses[0]) != (start.x, start.y, start.theta):
        errors.append(f"{sid}: first pose {tuple(poses[0])} is not the start")
    if not meets_goal(*poses[-1], goal, spec, reward_cfg.goal_pos_tol,
                      reward_cfg.goal_heading_tol):
        errors.append(f"{sid}: last pose misses the goal tolerance")
    hits = np.flatnonzero(colliding(poses, scenario.obstacles, spec))
    if hits.shape[0]:
        errors.append(f"{sid}: {hits.shape[0]} poses collide, first at index {hits[0]}")
    gaps = np.hypot(np.diff(poses[:, 0]), np.diff(poses[:, 1]))
    if gaps.max(initial=0.0) > cfg.substep + 1e-9:
        errors.append(f"{sid}: consecutive poses {gaps.max():.6f} m apart > substep")
    cost, prev_steer, prev_dir = 0.0, 0.0, 0
    for arc in path.arcs:
        c = arc.length * (1.0 if arc.direction > 0 else cfg.backward_cost)
        if prev_dir != 0 and arc.direction != prev_dir:
            c += cfg.switch_back_cost
        c += cfg.steer_angle_cost * abs(arc.steer)
        c += cfg.steer_change_cost * abs(arc.steer - prev_steer)
        cost += c
        prev_steer, prev_dir = arc.steer, arc.direction
    if not math.isclose(path.cost, cost, rel_tol=1e-12, abs_tol=1e-12):
        errors.append(f"{sid}: reported cost {path.cost} != recomputed {cost}")
    lower = oracles.rs_shortest_length_bruteforce(
        (start.x, start.y, start.theta), (goal.x, goal.y, goal.theta),
        spec.wheelbase / math.tan(spec.max_steer),
    )
    if path.length < lower - 1e-9:
        errors.append(f"{sid}: length {path.length} below the Reeds-Shepp bound {lower}")
    return errors


# ---------------------------------------------------------------------------
# closed-loop
# ---------------------------------------------------------------------------

CAUSES = ("goal_reached", "collided", "out_of_bounds", "truncated")


def check_episode(episode, record, actions_table, spec, reward_cfg, oracles) -> list[str]:
    """One closed-loop episode: every decision's end state against the
    bicycle oracle, one end cause, and the collision flag against the
    independent test on every pose the episode visited."""
    scenario, stage, init, cap = episode
    tag = f"{scenario.id}/stage{stage.index}"
    state = (init.x, init.y, init.theta, 0.0)
    poses = [state[:3]]
    for action, executed, end in zip(record["actions"], record["executed"], record["states"]):
        a = actions_table[action]
        for _ in range(executed):
            state = oracles.bicycle_step_oracle(
                *state, a.delta_steer, a.speed, a.dt, spec.wheelbase, spec.max_steer
            )
            poses.append(state[:3])
        got = (end.x, end.y, end.theta, end.delta)
        gap = max(abs(got[0] - state[0]), abs(got[1] - state[1]),
                  _angle_gap(got[2], state[2]), abs(got[3] - state[3]))
        if gap > STATE_TOL:
            return [f"{tag}: decision end state off the oracle by {gap:.3g}"]
        state = got
    errors = []
    info = record["info"]
    causes = [c for c in CAUSES if info[c]]
    if len(causes) != 1:
        errors.append(f"{tag}: episode ended with causes {causes}")
    if info["steps_elapsed"] != sum(record["executed"]):
        errors.append(f"{tag}: {info['steps_elapsed']} steps counted, "
                      f"{sum(record['executed'])} executed")
    hits = colliding(np.array(poses), scenario.obstacles, spec)
    if info["collided"]:
        if not hits[-1]:
            errors.append(f"{tag}: collided end is free under the independent test")
        if hits[:-1].any():
            errors.append(f"{tag}: an earlier pose already collides")
    elif hits.any():
        errors.append(f"{tag}: ended '{causes}' but pose {np.flatnonzero(hits)[0]} collides")
    if info["goal_reached"] and not meets_goal(
        *poses[-1], scenario.target_pose, spec,
        reward_cfg.goal_pos_tol, reward_cfg.goal_heading_tol,
    ):
        errors.append(f"{tag}: goal reached outside the goal tolerance")
    if info["truncated"] and info["steps_elapsed"] != cap:
        errors.append(f"{tag}: truncated after {info['steps_elapsed']} of {cap} steps")
    return errors


# ---------------------------------------------------------------------------
# train-smoke
# ---------------------------------------------------------------------------


def gae_by_worker(buffer, n_workers, gamma, lam, oracles) -> np.ndarray:
    """Advantages of a collected buffer by the recursive oracle.

    Collection appends one transition per worker per cycle, so index t
    belongs to worker t % n_workers; each worker's transitions are split
    at its trajectory ends and scanned on their own.
    """
    adv = np.full(len(buffer), np.nan)
    for w in range(n_workers):
        idx = np.arange(w, len(buffer), n_workers)
        start = 0
        for j, t in enumerate(idx):
            if buffer.trajectory_ends[t]:
                piece = idx[start : j + 1]
                adv[piece] = oracles.gae_recursive(
                    buffer.rewards[piece], buffer.values[piece],
                    buffer.bootstraps[t], bool(buffer.terminals[t]), gamma, lam,
                )
                start = j + 1
    return adv


def check_training(rows, train_cfg) -> list[str]:
    """Finite logged losses and a plausible primitive-step count per update."""
    errors = []
    prev = 0
    lo = train_cfg.buffer_size
    hi = train_cfg.buffer_size * train_cfg.chunk_length
    for row in rows:
        for name in ("policy_loss", "value_loss", "entropy", "approx_kl"):
            if not math.isfinite(getattr(row, name)):
                errors.append(f"update {row.update}: {name} is {getattr(row, name)}")
        steps = row.primitive_steps - prev
        if not lo <= steps <= hi:
            errors.append(f"update {row.update}: {steps} primitive steps outside [{lo}, {hi}]")
        prev = row.primitive_steps
    return errors
