"""Evaluation harness: the four benchmark metrics over a scenario sweep.

One entry point per planner: :func:`evaluate_planner` sweeps Hybrid A*
(rows labelled ``hybrid-astar``), :func:`evaluate_policy` a trained policy
(``rl-policy``). Metrics per scenario: success, planning time, travel
distance, pivot points (direction reversals). Distance and pivot
aggregates are means over the successful runs only; planning-time
aggregation likewise. For the learned planner, "planning time" is the
per-episode sum of policy forward-pass wall times; that definition is
recorded in the report metadata rather than assumed.
"""

from __future__ import annotations

import io
import time
from dataclasses import dataclass, field

import numpy as np

from .env import EnvConfig, ParkingEnv
from .errors import InputError, ResetRejectedError
from .geometry import VehicleSpec
from .hybrid_astar import PlannedPath, PlannerConfig, plan
from .policy import PolicyNetwork
from .scenarios import Scenario


def pivot_count(directions) -> int:
    """Number of forward/backward reversals; zero-motion entries are
    transparent (they neither break nor create a reversal)."""
    count = 0
    last = 0
    for d in directions:
        s = int(d > 0) - int(d < 0)
        if s == 0:
            continue
        if last != 0 and s != last:
            count += 1
        last = s
    return count


def travel_distance(moves) -> float:
    """Total path length: sum of |displacement| per executed step."""
    return float(sum(abs(d) for d in moves))


@dataclass
class EvalRow:
    scenario_id: str
    method: str
    success: bool
    planning_time_s: float
    travel_distance_m: float
    pivot_points: int
    failure_cause: str = ""


@dataclass
class EvalReport:
    method: str
    rows: list[EvalRow]
    metadata: dict = field(default_factory=dict)

    @property
    def success_rate(self) -> float:
        if not self.rows:
            return 0.0
        return sum(r.success for r in self.rows) / len(self.rows)

    def aggregates(self) -> dict:
        ok = [r for r in self.rows if r.success]
        agg = {"cases": len(self.rows), "successes": len(ok),
               "success_rate": self.success_rate}
        if ok:
            agg["mean_time_s"] = float(np.mean([r.planning_time_s for r in ok]))
            agg["mean_distance_m"] = float(np.mean([r.travel_distance_m for r in ok]))
            agg["mean_pivots"] = float(np.mean([r.pivot_points for r in ok]))
        return agg

    def to_csv(self) -> str:
        import csv  # only reports need it, so plain imports skip it

        def line(fields) -> str:
            # csv quotes a field only for the characters of its
            # lineterminator (Python 3.11), so "\r\n" makes it quote a lone
            # "\r" as well as "\n"; the row's own "\r\n" is then cut to "\n"
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\r\n").writerow(fields)
            return buf.getvalue()[:-2] + "\n"

        lines = [line(["scenario_id", "method", "success", "planning_time_s",
                       "travel_distance_m", "pivot_points", "failure_cause"])]
        for r in self.rows:
            lines.append(line([
                r.scenario_id, r.method, int(r.success), f"{r.planning_time_s:.6f}",
                f"{r.travel_distance_m:.4f}", r.pivot_points, r.failure_cause,
            ]))
        return "".join(lines)

    def summary(self) -> str:
        agg = self.aggregates()
        lines = [
            f"method: {self.method}",
            "aggregates over successful cases only "
            "(time/distance/pivot means exclude failures)",
        ]
        for k, v in self.metadata.items():
            lines.append(f"{k}: {v}")
        lines.append(
            f"success: {agg['successes']}/{agg['cases']} "
            f"({100 * agg['success_rate']:.1f}%)"
        )
        if agg.get("successes"):
            lines.append(
                f"mean time {agg['mean_time_s']:.3f} s | "
                f"mean distance {agg['mean_distance_m']:.2f} m | "
                f"mean pivots {agg['mean_pivots']:.2f}"
            )
        return "\n".join(lines)


def _failure_cause(info: dict) -> str:
    for cause in ("collided", "out_of_bounds", "truncated"):
        if info.get(cause):
            return cause
    return "unknown"


def check_horizon(policy: PolicyNetwork, env: EnvConfig) -> None:
    """Raise InputError when ``policy``'s checkpoint records another
    observation range than ``env.horizon``: its tokens would be scaled by
    the wrong R. A checkpoint without the record passes."""
    trained = policy.extra.get("horizon")
    if trained is not None and trained != env.horizon:
        raise InputError(
            f"the checkpoint was trained with env horizon {trained} m, but the "
            f"env's horizon is {env.horizon} m; pass the training config"
        )


def run_policy_episode(
    policy: PolicyNetwork,
    env: ParkingEnv,
    scenario: Scenario,
    init_pose=None,
    *,
    max_episode_len: int,
):
    """One greedy closed-loop episode. Returns (success, info, forward_time,
    displacements)."""
    obs = env.reset(scenario, init_pose or scenario.initial_pose, max_episode_len)
    forward_time = 0.0
    while True:
        t0 = time.perf_counter()
        dist, _, _ = policy.distribution(obs)
        action = dist.greedy()[0]
        forward_time += time.perf_counter() - t0
        out = env.chunk_step(dist.chunks(action)[0])
        if out.done:
            return (
                bool(out.info["goal_reached"]),
                out.info,
                forward_time,
                env.displacements(),
            )
        obs = out.observation


def evaluate_planner(scenarios: list[Scenario], cfg: PlannerConfig) -> EvalReport:
    """Sweep ``scenarios`` with Hybrid A* under ``cfg``. Per-scenario
    failures are recorded as rows; the sweep never aborts."""
    method = "hybrid-astar"
    spec = VehicleSpec()
    meta = {"timing": "wall-clock per plan() query", "config": str(cfg)}
    rows = []
    for s in scenarios:
        try:
            result = plan(s, spec, cfg)
        except InputError as exc:
            rows.append(EvalRow(s.id, method, False, 0.0, 0.0, 0, str(exc)))
            continue
        if isinstance(result, PlannedPath):
            rows.append(EvalRow(s.id, method, True, result.planning_time,
                                result.length, pivot_count(result.directions)))
        else:
            rows.append(EvalRow(s.id, method, False, result.planning_time, 0.0, 0,
                                result.reason))
    return EvalReport(method, rows, meta)


def evaluate_policy(scenarios: list[Scenario], policy: PolicyNetwork, env: EnvConfig,
                    max_episode_len: int) -> EvalReport:
    """Sweep ``scenarios`` with greedy episodes of ``policy``, each capped
    at ``max_episode_len`` primitives. The envs are built from ``env`` with
    the checkpoint's K. Per-scenario failures are recorded as rows; the
    sweep never aborts."""
    method = "rl-policy"
    spec = VehicleSpec()
    check_horizon(policy, env)
    meta = {
        "timing": "per-episode sum of policy forward-pass wall times",
        "actions": "greedy (argmax), no sampling",
        "chunk_length": policy.cfg.chunk_length,
    }
    rows = []
    for s in scenarios:
        parking_env = ParkingEnv(spec=spec, cfg=env, k_obstacles=policy.cfg.k_obstacles)
        try:
            success, info, ftime, moves = run_policy_episode(
                policy, parking_env, s, max_episode_len=max_episode_len
            )
        except (InputError, ResetRejectedError) as exc:
            rows.append(EvalRow(s.id, method, False, 0.0, 0.0, 0, str(exc)))
            continue
        rows.append(EvalRow(s.id, method, success, ftime, travel_distance(moves),
                            pivot_count(moves), "" if success else _failure_cause(info)))
    return EvalReport(method, rows, meta)
