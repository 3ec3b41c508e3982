"""The three workloads: set-up, one timed pass, and the output checks.

A pass runs a workload's whole, fixed input set once. Its outputs are
digested so that repeated passes in one run can be compared, and the first
pass is checked against the computations in ``checks.py``.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import time
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from parkplan import curriculum, env, hybrid_astar, kinematics, policy, ppo, scenarios
from parkplan.errors import ParkPlanError
from parkplan.evaluate import run_policy_episode
from parkplan.geometry import VehicleSpec

import checks

clock = time.perf_counter

# the advantage check runs outside any trace
_compute_advantages = ppo.compute_advantages


@dataclass
class Pass:
    wall_s: float
    op_s: list[float]  # latency of every operation, seconds
    work: int  # units counted by the throughput metric
    attempted: int
    failed: int
    digest: str
    outputs: object = None
    counts: dict = field(default_factory=dict)


def nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _traced(tracer, name, fn, *args, **kwargs):
    if tracer is None:
        return fn(*args, **kwargs)
    return tracer.span(name, fn, *args, **kwargs)


def _digest(*parts) -> str:
    h = hashlib.sha1()
    for part in parts:
        h.update(part.tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# astar-pack: Hybrid A* over the bundled pack, planner layers only
# ---------------------------------------------------------------------------


class AstarPack:
    name = "astar-pack"
    work_unit = "plan queries"

    def setup(self, seed):
        # the pack is fixed; the seed changes nothing here
        return SimpleNamespace(
            scenarios=scenarios.bundled_scenarios(),
            spec=VehicleSpec(),
            cfg=hybrid_astar.PlannerConfig(),
            reward_cfg=env.RewardConfig(),
        )

    def inputs_digest(self, inp) -> str:
        return _digest(*[(s.id, s.initial_pose, s.target_pose) for s in inp.scenarios],
                       *[s.obstacles for s in inp.scenarios])

    def run_pass(self, inp, tracer=None, speed=None) -> Pass:
        results, op_s = [], []
        t_pass = clock()
        for s in inp.scenarios:
            t0 = clock()
            try:
                r = _traced(tracer, "bench.query", hybrid_astar.plan, s, inp.spec, inp.cfg)
            except ParkPlanError as exc:
                r = exc
            op_s.append(clock() - t0)
            results.append(r)
            if speed is not None:
                speed.tick()
        wall = clock() - t_pass
        ok = [r for r in results if isinstance(r, hybrid_astar.PlannedPath)]
        parts = []
        for r in results:
            if isinstance(r, hybrid_astar.PlannedPath):
                parts += [r.nodes_expanded, r.cost, r.arcs, r.directions,
                          np.array([(p.x, p.y, p.theta) for p in r.poses])]
            else:
                parts.append(str(r))
        return Pass(
            wall, op_s, work=len(results), attempted=len(results),
            failed=len(results) - len(ok), digest=_digest(*parts), outputs=results,
            counts={"expansions": sum(r.nodes_expanded for r in ok)},
        )

    def prepare_checks(self, inp, oracles):
        pass

    def check(self, inp, first: Pass, oracles) -> list[str]:
        errors = []
        for s, r in zip(inp.scenarios, first.outputs):
            if isinstance(r, hybrid_astar.PlannedPath):
                errors += checks.check_planned_path(s, r, inp.spec, inp.cfg,
                                                    inp.reward_cfg, oracles)
        return errors

    def headline(self, per_op, work) -> dict:
        return {"astar_pack_s": sum(per_op), "astar_slowest_query_s": max(per_op)}


# ---------------------------------------------------------------------------
# train-smoke: ppo.train at the criterion-8 configuration
# ---------------------------------------------------------------------------

SMOKE_POLICY = policy.PolicyConfig(embed_dim=32, n_heads=4, fusion_width=64,
                                   k_obstacles=64, chunk_length=4)
SMOKE_BUDGET = 2_000_000  # primitive steps, as in the acceptance suite
UPDATES_PER_PASS = 3
GAE_BUFFER_SEED = 0  # the advantage check uses the first buffer of the seed-0 run


class TrainSmoke:
    name = "train-smoke"
    work_unit = "primitive env steps"

    def setup(self, seed):
        return SimpleNamespace(
            spec=VehicleSpec(),
            scenario=scenarios.synth_scenario("perpendicular_bay"),
            stage=curriculum.default_stages()[0],
            cfg=ppo.TrainConfig(total_steps=SMOKE_BUDGET, chunk_length=4, seed=seed),
        )

    def inputs_digest(self, inp) -> str:
        s = inp.scenario
        return _digest(s.initial_pose, s.target_pose, s.obstacles, inp.stage, inp.cfg)

    def run_pass(self, inp, tracer=None, speed=None) -> Pass:
        op_s = []
        starts = [clock()]

        def stop(_policy, rows):
            op_s.append(clock() - starts[-1])
            if speed is not None:
                speed.tick()
            starts.append(clock())
            return len(rows) >= UPDATES_PER_PASS

        net, rows = _traced(
            tracer, "bench.train", ppo.train, inp.cfg, [inp.scenario],
            policy_cfg=SMOKE_POLICY, spec=inp.spec, stages=(inp.stage,), stop_fn=stop,
        )
        wall = clock() - starts[0]
        # one more operation per pass: advantages of the fixed buffer
        adv, _ = _compute_advantages(inp.gae_buffer, inp.cfg.gamma, inp.cfg.gae_lambda)
        gae_ok = bool(np.allclose(adv, inp.gae_expected, rtol=0.0, atol=1e-9))
        logged = [(r.update, r.stage, r.primitive_steps, r.episodes, r.mean_episode_reward,
                   r.success_rate, r.policy_loss, r.value_loss, r.entropy, r.approx_kl,
                   r.clip_fraction) for r in rows]
        params = [net.params[k] for k in sorted(net.params)]
        return Pass(
            wall, op_s, work=rows[-1].primitive_steps, attempted=len(rows) + 1,
            failed=0 if gae_ok else 1, digest=_digest(logged, *params, adv), outputs=rows,
        )

    def prepare_checks(self, inp, oracles):
        """Collect the advantage check's buffer as ``ppo.train`` collects
        its first one at seed 0, and its advantages by the per-worker
        oracle."""
        cfg = inp.cfg
        net = policy.PolicyNetwork(SMOKE_POLICY, seed=GAE_BUFFER_SEED)
        seeds = np.random.SeedSequence(GAE_BUFFER_SEED).spawn(cfg.n_envs + 2)
        workers = [
            ppo._Worker(env.ParkingEnv(spec=inp.spec, k_obstacles=SMOKE_POLICY.k_obstacles),
                        np.random.default_rng(s))
            for s in seeds[: cfg.n_envs]
        ]
        inp.gae_buffer = ppo.collect_rollouts(
            net, workers, [inp.scenario], inp.stage, inp.spec, cfg.buffer_size,
            np.random.default_rng(seeds[-1]), stages=(inp.stage,),
        )
        inp.gae_expected = checks.gae_by_worker(
            inp.gae_buffer, cfg.n_envs, cfg.gamma, cfg.gae_lambda, oracles
        )

    def check(self, inp, first: Pass, oracles) -> list[str]:
        return checks.check_training(first.outputs, inp.cfg)

    def headline(self, per_op, work) -> dict:
        return {"train_steps_per_s": work / sum(per_op)}


# ---------------------------------------------------------------------------
# closed-loop: greedy decisions of a default-size policy on the bundled pack
# ---------------------------------------------------------------------------

POLICY_SEED = 0  # fixed, so that the seed moves the start poses only
POSES_PER_STAGE = 3
# primitives per episode (the stage-1 cap): a start the greedy policy idles
# at would otherwise repeat one pose for up to 250 decisions and make the
# decision mix, and so the latency, depend on which seed drew it
EPISODE_CAP = 100
SAMPLED_EPISODES = 8  # episodes re-run through evaluate.run_policy_episode


def decide(net, parking_env, obs):
    """One closed-loop decision, as in ``evaluate.run_policy_episode``."""
    dist, _, _ = net.distribution(policy.batch_observations([obs]))
    action = dist.greedy()[0]
    return action, parking_env.chunk_step(dist.chunks(action)[0])


class ClosedLoop:
    name = "closed-loop"
    work_unit = "decisions"

    def setup(self, seed):
        spec = VehicleSpec()
        stages = curriculum.default_stages()
        rng = np.random.default_rng(seed)
        episodes = [
            (s, stage, curriculum.sample_init(stage, s, spec, rng, stages=stages),
             min(EPISODE_CAP, stage.max_episode_len))
            for s in scenarios.bundled_scenarios()
            for stage in stages
            for _ in range(POSES_PER_STAGE)
        ]
        net = policy.PolicyNetwork(policy.PolicyConfig(), seed=POLICY_SEED)
        return SimpleNamespace(
            spec=spec, episodes=episodes, policy=net,
            env=env.ParkingEnv(spec=spec, k_obstacles=net.cfg.k_obstacles),
        )

    def inputs_digest(self, inp) -> str:
        parts = [(s.id, stage.index, pose, cap) for s, stage, pose, cap in inp.episodes]
        params = [inp.policy.params[k] for k in sorted(inp.policy.params)]
        return _digest(parts, *params)

    def run_pass(self, inp, tracer=None, speed=None) -> Pass:
        records, op_s = [], []
        failed = 0
        net, parking_env = inp.policy, inp.env
        t_pass = clock()
        for s, _, pose, cap in inp.episodes:
            obs = parking_env.reset(s, pose, cap)
            rec = {"actions": [], "executed": [], "states": [], "info": None}
            while True:
                t0 = clock()
                try:
                    action, out = _traced(tracer, "bench.decision", decide, net, parking_env, obs)
                except ParkPlanError:
                    op_s.append(clock() - t0)
                    failed += 1
                    break
                op_s.append(clock() - t0)
                if speed is not None:
                    speed.tick()
                rec["actions"].append(int(action))
                rec["executed"].append(out.info["primitives_executed"])
                rec["states"].append(parking_env.state)
                if out.done:
                    rec["info"] = out.info
                    break
                obs = out.observation
            records.append(rec)
        wall = clock() - t_pass
        parts = [(r["actions"], r["executed"], r["states"], r["info"]) for r in records]
        return Pass(wall, op_s, work=len(op_s), attempted=len(op_s), failed=failed,
                    digest=_digest(parts), outputs=records)

    def prepare_checks(self, inp, oracles):
        pass

    def check(self, inp, first: Pass, oracles) -> list[str]:
        errors = []
        reward_cfg = inp.env.reward_cfg
        for episode, rec in zip(inp.episodes, first.outputs):
            if rec["info"] is not None:
                errors += checks.check_episode(episode, rec, kinematics.ACTIONS,
                                               inp.spec, reward_cfg, oracles)
        step = max(1, len(inp.episodes) // SAMPLED_EPISODES)
        for (s, stage, pose, cap), rec in list(zip(inp.episodes, first.outputs))[::step]:
            if rec["info"] is None:
                continue
            replay_env = env.ParkingEnv(spec=inp.spec, k_obstacles=inp.policy.cfg.k_obstacles)
            success, info, _, moves = run_policy_episode(
                inp.policy, replay_env, s, init_pose=pose,
                max_episode_len=cap,
            )
            mine = rec["info"]
            same = (
                success == mine["goal_reached"]
                and all(info[c] == mine[c] for c in checks.CAUSES)
                and info["steps_elapsed"] == mine["steps_elapsed"] == len(moves)
                and replay_env.state == rec["states"][-1]
            )
            if not same:
                errors.append(f"{s.id}/stage{stage.index}: benchmark loop and "
                              f"run_policy_episode disagree")
        return errors

    def headline(self, per_op, work) -> dict:
        return {"decision_ms_p50": statistics.median(per_op) * 1e3,
                "decision_ms_p99": nearest_rank(per_op, 0.99) * 1e3}


WORKLOADS = {w.name: w for w in (AstarPack(), TrainSmoke(), ClosedLoop())}
