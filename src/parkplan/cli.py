"""Command-line surface.

Subcommands: plan (Hybrid A* on one scenario), train (full RL loop), eval
(metric sweep), rollout-init (sample curriculum initial poses), ablate-astar
(planner hyperparameter grid), viz (replay log to SVG). Exit code 0 on
success; 2 for input/config errors; 1 for runtime failures. Causes are
printed to stderr.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import load_config
from .curriculum import sample_init
from .env import ParkingEnv, build_observation, load_replay, replay
from .errors import ConfigurationError, InputError, ParkPlanError, ScenarioFormatError
from .evaluate import (check_horizon, evaluate_planner, evaluate_policy,
                       pivot_count, travel_distance)
from .geometry import VehicleSpec, transform_to_world
from .hybrid_astar import PlannedPath, plan
from .policy import PolicyNetwork
from .ppo import train
from .render import render_svg, save_svg
from .scenarios import bundled_scenarios, load_scenario


def _load_scenarios(args) -> list:
    if args.scenario:
        return [load_scenario(args.scenario)]
    if args.scenarios:
        root = Path(args.scenarios)
        if not root.is_dir():
            raise InputError(f"--scenarios takes a directory, not {root}; "
                             "give one file with --scenario")
        files = sorted(root.glob("*.json"))
        if not files:
            raise InputError(f"no scenario files in {root}")
        scenarios = [load_scenario(f) for f in files]
        # outputs are named by id, so one id per directory
        seen = {}
        for f, s in zip(files, scenarios):
            if s.id in seen:
                raise InputError(f"scenario id '{s.id}' is used by both {seen[s.id]} and {f}")
            seen[s.id] = f
        return scenarios
    return bundled_scenarios()


def _out_dir(args) -> Path:
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _id_paths(scenarios, out: Path, suffix: str) -> list[Path]:
    """The output file ``out/<id><suffix>`` of each scenario, checked before
    any work: an id the file-system encoding cannot hold, such as "café"
    under the C locale, is a ScenarioFormatError."""
    enc = sys.getfilesystemencoding()
    for s in scenarios:
        try:
            s.id.encode(enc, sys.getfilesystemencodeerrors())
        except UnicodeEncodeError:
            raise ScenarioFormatError(
                f"scenario id {s.id!r} cannot name a file in the file-system encoding {enc}"
            ) from None
    return [out / f"{s.id}{suffix}" for s in scenarios]


def cmd_plan(args, cfg, scenarios, out) -> int:
    spec = VehicleSpec()
    failures = 0
    for s, path in zip(scenarios, _id_paths(scenarios, out, ".svg")):
        result = plan(s, spec, cfg.planner)
        if isinstance(result, PlannedPath):
            svg = render_svg(s, result.poses, spec=spec)
            save_svg(svg, path)
            print(
                f"{s.id}: cost={result.cost:.2f} length={result.length:.2f} m "
                f"pivots={pivot_count(result.directions)} "
                f"expansions={result.nodes_expanded} shots={result.shots} "
                f"time={result.planning_time:.2f} s -> {path}"
            )
        else:
            failures += 1
            print(f"{s.id}: {result} expansions={result.nodes_expanded} "
                  f"shots={result.shots}", file=sys.stderr)
    return 0 if failures == 0 else 1


def cmd_train(args, cfg, scenarios, out) -> int:
    train_cfg = cfg.train
    if args.seed is not None:
        train_cfg = replace(train_cfg, seed=args.seed)
    if args.total_steps is not None:
        train_cfg = replace(train_cfg, total_steps=args.total_steps)
    log_path = out / "training_log.txt"
    log_fh = open(log_path, "w", encoding="utf-8")

    def log_fn(row):
        print(row.line())
        log_fh.write(row.line() + "\n")
        log_fh.flush()

    try:
        policy, rows = train(
            train_cfg,
            scenarios,
            policy_cfg=cfg.policy,
            env=cfg.env,
            stages=cfg.stages,
            checkpoint_dir=str(out),
            log_fn=log_fn,
        )
    finally:
        log_fh.close()
    print(f"checkpoints and log in {out}")
    return 0


def cmd_eval(args, cfg, scenarios, out) -> int:
    if args.method == "rl-policy":
        if not args.checkpoint:
            raise InputError("--checkpoint is required for rl-policy evaluation")
        policy = PolicyNetwork.load_checkpoint(args.checkpoint)
        report = evaluate_policy(scenarios, policy, cfg.env,
                                 cfg.stages[-1].max_episode_len)
    else:
        if args.checkpoint:
            raise InputError("--checkpoint applies to rl-policy evaluation only")
        report = evaluate_planner(scenarios, cfg.planner)
    csv_path = out / f"eval_{args.method}.csv"
    csv_path.write_text(report.to_csv(), encoding="utf-8")
    print(report.summary())
    print(f"rows -> {csv_path}")
    return 0


def cmd_rollout_init(args, cfg, scenarios, out) -> int:
    spec = VehicleSpec()
    stages = cfg.stages
    if not 1 <= args.stage <= len(stages):
        raise InputError(f"stage must be in 1..{len(stages)}")
    if args.samples < 1:
        raise InputError(f"--samples must be >= 1, got {args.samples}")
    if args.seed is not None and args.seed < 0:
        raise InputError(f"--seed must be >= 0, got {args.seed}")
    stage = stages[args.stage - 1]
    rng = np.random.default_rng(args.seed)
    paths = _id_paths(scenarios, out, f"_stage{args.stage}_init.svg")
    for s, path in zip(scenarios, paths):
        poses = [sample_init(stage, s, spec, rng, stages) for _ in range(args.samples)]
        svg = render_svg(s, spec=spec, extra_poses=poses)
        save_svg(svg, path)
        print(f"{s.id}: {args.samples} stage-{args.stage} poses -> {path}")
    return 0


ABLATION_GRID = [
    # (xy res, theta res deg, motion res, n_steer)
    (0.1, 8.0, 1.0, 9),
    (0.32, 8.0, 1.0, 9),
    (0.5, 8.0, 1.0, 9),
    (0.5, 8.0, 0.5, 9),
    (0.5, 8.0, 2.0, 9),
    (0.5, 5.0, 1.0, 20),
    (1.0, 5.0, 1.0, 20),
]


def cmd_ablate_astar(args, cfg, scenarios, out) -> int:
    lines = ["xy_res,theta_res_deg,motion_res,n_steer,success_rate,"
             "mean_time_s,mean_distance_m,mean_pivots"]
    for xy, th, motion, n_steer in ABLATION_GRID:
        pcfg = replace(
            cfg.planner,
            xy_resolution=xy,
            theta_resolution=math.radians(th),
            motion_resolution=motion,
            n_steer=n_steer,
        )
        report = evaluate_planner(scenarios, pcfg)
        agg = report.aggregates()
        lines.append(
            f"{xy},{th},{motion},{n_steer},{agg['success_rate']:.3f},"
            f"{agg.get('mean_time_s', float('nan')):.3f},"
            f"{agg.get('mean_distance_m', float('nan')):.2f},"
            f"{agg.get('mean_pivots', float('nan')):.2f}"
        )
        print(lines[-1])
    path = out / "ablate_astar.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"grid -> {path}")
    return 0


def cmd_viz(args, cfg, scenarios, out) -> int:
    if len(scenarios) != 1:
        raise InputError("viz needs exactly one scenario (--scenario)")
    scenario = scenarios[0]
    [path] = _id_paths(scenarios, out, "_replay.svg")
    log = load_replay(args.replay)

    # the overlay shows what the checkpoint's policy sees: its own K slots
    policy = PolicyNetwork.load_checkpoint(args.checkpoint) if args.checkpoint else None
    k = cfg.policy.k_obstacles
    if policy is not None:
        check_horizon(policy, cfg.env)
        k = policy.cfg.k_obstacles
    env = ParkingEnv(spec=VehicleSpec(), cfg=cfg.env, k_obstacles=k)
    poses = replay(env, scenario, log)

    attention = None
    attention_points = None
    if policy is not None:
        # the initial observation, as reset returns it
        obs = build_observation(poses[0], scenario.target_pose, scenario.obstacles,
                                horizon=env.cfg.horizon, k=k, max_steer=env.spec.max_steer)
        w = policy.attention_weights(obs)
        # tokens are ego-frame over the nearest points; recover world points
        mask = obs["mask"][0]
        local = obs["tokens"][0][mask] * env.cfg.horizon
        attention_points = transform_to_world(local, poses[0])
        attention = w.mean(axis=0)[mask]
    svg = render_svg(
        scenario, poses, spec=VehicleSpec(),
        attention=attention, attention_points=attention_points,
    )
    save_svg(svg, path)
    dists = env.displacements()
    print(
        f"{scenario.id}: steps={len(log['actions'])} "
        f"distance={travel_distance(dists):.2f} m "
        f"pivots={pivot_count(dists)} -> {path}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="parkplan",
        description="Constrained-parking planning: RL planner and Hybrid A* baseline",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="YAML config file")
        p.add_argument("--out", default=None, help="output directory")
        which = p.add_mutually_exclusive_group()
        which.add_argument("--scenario", default=None, help="one scenario file")
        which.add_argument(
            "--scenarios", default=None,
            help="directory of scenario files (default: bundled pack)",
        )

    p = sub.add_parser("plan", help="run Hybrid A* and emit path SVGs")
    common(p)
    p.set_defaults(fn=cmd_plan)

    p = sub.add_parser("train", help="train the RL planner")
    common(p)
    p.add_argument("--seed", type=int, default=None, help="override train.seed")
    p.add_argument("--total-steps", type=int, default=None,
                   help="override train.total_steps, which sizes the update plan")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="metric sweep over scenarios")
    common(p)
    p.add_argument("--method", choices=["rl-policy", "hybrid-astar"], required=True)
    p.add_argument("--checkpoint", default=None)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("rollout-init", help="sample curriculum initial poses")
    common(p)
    p.add_argument("--seed", type=int, default=None, help="pose sampler seed")
    p.add_argument("--stage", type=int, default=1)
    p.add_argument("--samples", type=int, default=20)
    p.set_defaults(fn=cmd_rollout_init)

    p = sub.add_parser("ablate-astar", help="planner hyperparameter grid")
    common(p)
    p.set_defaults(fn=cmd_ablate_astar)

    p = sub.add_parser("viz", help="render a replay log")
    common(p)
    p.add_argument("--replay", required=True)
    p.add_argument("--checkpoint", default=None,
                   help="overlay attention from this checkpoint")
    p.set_defaults(fn=cmd_viz)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args, load_config(args.config), _load_scenarios(args), _out_dir(args))
    except (ConfigurationError, InputError, FileNotFoundError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ParkPlanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
