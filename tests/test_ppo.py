import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import parkplan.ppo as ppo_module
from parkplan.curriculum import default_stages, sample_init, stage_schedule
from parkplan.env import EnvConfig, ParkingEnv
from parkplan.errors import ConfigurationError, NumericError
from parkplan.geometry import VehicleSpec
from parkplan.policy import PolicyConfig, PolicyNetwork, batch_observations, make_distribution
from parkplan.ppo import (
    Adam,
    RolloutBuffer,
    TrainConfig,
    _Worker,
    clip_grad_norm,
    collect_rollouts,
    compute_advantages,
    ppo_loss_and_grads,
    ppo_update,
    train,
)
from parkplan.scenarios import synth_scenario
from oracles import gae_recursive

TINY = PolicyConfig(embed_dim=8, n_heads=2, fusion_width=8, k_obstacles=4,
                    chunk_length=2)


def synthetic_buffer(rewards, values, terminals, traj_ends, bootstraps):
    n = len(rewards)
    return RolloutBuffer(
        obs={"feats": np.zeros((n, 6)), "tokens": np.zeros((n, 4, 2)),
             "mask": np.zeros((n, 4), dtype=bool)},
        actions=np.zeros(n, dtype=int),
        log_probs=np.zeros(n),
        values=np.asarray(values, dtype=float),
        rewards=np.asarray(rewards, dtype=float),
        terminals=np.asarray(terminals, dtype=bool),
        bootstraps=np.asarray(bootstraps, dtype=float),
        trajectory_ends=np.asarray(traj_ends, dtype=bool),
        primitive_steps=n,
        episodes=int(np.sum(traj_ends)),
        episode_successes=0,
    )


def test_single_terminal_transition():
    buf = synthetic_buffer([2.5], [0.7], [True], [True], [0.0])
    adv, ret = compute_advantages(buf, gamma=1.0, lam=0.95)
    assert math.isclose(adv[0], 2.5 - 0.7, rel_tol=1e-12)
    assert math.isclose(ret[0], 2.5, rel_tol=1e-12)


def test_zero_rewards_and_values():
    n = 8
    buf = synthetic_buffer(
        np.zeros(n), np.zeros(n), [False] * (n - 1) + [True],
        [False] * (n - 1) + [True], np.zeros(n),
    )
    adv, ret = compute_advantages(buf, 1.0, 0.95)
    assert np.all(adv == 0) and np.all(ret == 0)


def test_gae_matches_recursive_oracle(rng):
    # several episodes of varying length, last one truncated with bootstrap
    for _ in range(20):
        lengths = rng.integers(1, 6, size=3)
        rewards, values, terminals, ends, boots = [], [], [], [], []
        per_episode = []
        for e, L in enumerate(lengths):
            r = rng.normal(size=L)
            v = rng.normal(size=L)
            truncated = e == len(lengths) - 1
            b = float(rng.normal()) if truncated else 0.0
            per_episode.append((r, v, b, not truncated))
            rewards.extend(r)
            values.extend(v)
            terminals.extend([False] * (L - 1) + [not truncated])
            ends.extend([False] * (L - 1) + [True])
            boots.extend([0.0] * (L - 1) + [b])
        buf = synthetic_buffer(rewards, values, terminals, ends, boots)
        gamma, lam = 1.0, 0.95
        adv, _ = compute_advantages(buf, gamma, lam)
        expected = np.concatenate(
            [gae_recursive(r, v, b, term, gamma, lam) for r, v, b, term in per_episode]
        )
        np.testing.assert_allclose(adv, expected, atol=1e-12)


def test_gae_gamma1_lambda1_is_return_minus_value(rng):
    L = 10
    r = rng.normal(size=L)
    v = rng.normal(size=L)
    buf = synthetic_buffer(r, v, [False] * (L - 1) + [True],
                           [False] * (L - 1) + [True], np.zeros(L))
    adv, ret = compute_advantages(buf, 1.0, 1.0)
    undiscounted = np.cumsum(r[::-1])[::-1]
    np.testing.assert_allclose(adv, undiscounted - v, atol=1e-12)
    np.testing.assert_allclose(ret, undiscounted, atol=1e-12)


# -- collection ------------------------------------------------------------------


def bay_setup(seed=0, n_envs=2):
    spec = VehicleSpec()
    scenario = synth_scenario("perpendicular_bay")
    stages = default_stages()
    policy = PolicyNetwork(TINY, seed=seed)
    seeds = np.random.SeedSequence(seed).spawn(n_envs + 1)
    workers = [
        _Worker(ParkingEnv(spec=spec, k_obstacles=TINY.k_obstacles),
                np.random.default_rng(s))
        for s in seeds[:n_envs]
    ]
    return spec, scenario, stages, policy, workers, np.random.default_rng(seeds[-1])


def test_collect_rollouts_deterministic():
    out = []
    for _ in range(2):
        spec, scenario, stages, policy, workers, arng = bay_setup(seed=3)
        buf = collect_rollouts(
            policy, workers, [scenario], stages[0], spec, 64, arng, stages=stages
        )
        out.append(buf)
    a, b = out
    np.testing.assert_array_equal(a.rewards, b.rewards)
    np.testing.assert_array_equal(a.actions, b.actions)
    for key in ("feats", "tokens", "mask"):
        np.testing.assert_array_equal(a.obs[key], b.obs[key])
    assert a.primitive_steps == b.primitive_steps


def test_collect_rollouts_primitive_budget():
    spec, scenario, stages, policy, workers, arng = bay_setup(seed=5)
    h = TINY.chunk_length
    buf = collect_rollouts(
        policy, workers, [scenario], stages[0], spec, 128, arng, stages=stages
    )
    assert len(buf) == 128
    assert buf.primitive_steps <= 128 * h
    assert buf.primitive_steps > 0
    # env reward bookkeeping is copied verbatim: replay a piece through GAE
    assert np.all(np.isfinite(buf.rewards))


def test_collect_marks_trailing_cut():
    spec, scenario, stages, policy, workers, arng = bay_setup(seed=6)
    buf = collect_rollouts(
        policy, workers, [scenario], stages[0], spec, 31, arng, stages=stages
    )
    # every worker's trailing piece is closed (episode end or cut+bootstrap)
    ends = np.where(buf.trajectory_ends)[0]
    assert len(ends) >= len(workers)
    assert buf.trajectory_ends[-1]


def test_gae_on_collected_buffer_matches_oracle_per_worker():
    # collection interleaves workers: index t belongs to worker t % 3; 200 is
    # not a multiple of 3, so the last cycle is partial
    n_envs = 3
    spec, scenario, stages, policy, workers, arng = bay_setup(seed=8, n_envs=n_envs)
    buf = collect_rollouts(
        policy, workers, [scenario], stages[0], spec, 200, arng, stages=stages
    )
    assert buf.n_workers == n_envs
    assert np.count_nonzero(buf.trajectory_ends) > n_envs  # episodes end inside
    gamma, lam = 0.99, 0.95
    adv, ret = compute_advantages(buf, gamma, lam)
    expected = np.full(len(buf), np.nan)
    for w in range(n_envs):
        idx = np.arange(w, len(buf), n_envs)
        ends = np.flatnonzero(buf.trajectory_ends[idx])
        assert ends[-1] == len(idx) - 1
        for start, end in zip(np.r_[0, ends[:-1] + 1], ends):
            piece = idx[start : end + 1]
            t = piece[-1]
            expected[piece] = gae_recursive(
                buf.rewards[piece], buf.values[piece], buf.bootstraps[t],
                bool(buf.terminals[t]), gamma, lam,
            )
    np.testing.assert_allclose(adv, expected, atol=1e-12)
    np.testing.assert_allclose(ret, expected + buf.values, atol=1e-12)


class PerWorkerCollection:
    """Rollout collection with one observation per worker and per chunk:
    each env's reset and chunk_step build it, and every cycle stacks the
    workers' observations with batch_observations."""

    def __init__(self, workers):
        self.workers = workers
        self.obs = [None] * len(workers)

    def begin(self, i, scenarios, stage, spec, stages):
        w = self.workers[i]
        scenario = scenarios[w.rng.integers(len(scenarios))]
        init = sample_init(stage, scenario, spec, w.rng, stages=stages)
        self.obs[i] = w.env.reset(scenario, init, stage.max_episode_len)
        w.episode_reward = 0.0

    def collect(self, policy, scenarios, stage, spec, buffer_size, action_rng, stages):
        n = len(self.workers)
        for i in range(n):
            if self.obs[i] is None:
                self.begin(i, scenarios, stage, spec, stages)
        cycles = []
        out = {"rewards": np.zeros(buffer_size), "terminals": np.zeros(buffer_size, dtype=bool),
               "trajectory_ends": np.zeros(buffer_size, dtype=bool),
               "bootstraps": np.zeros(buffer_size), "primitive_steps": 0, "episodes": 0,
               "episode_successes": 0, "episode_rewards": []}
        for start in range(0, buffer_size, n):
            live = min(n, buffer_size - start)
            batch = batch_observations(self.obs)
            dist, vals, _ = policy.distribution(batch)
            acts = dist.sample(action_rng)
            cycle = (batch["feats"], batch["tokens"], batch["mask"], acts,
                     dist.log_prob(acts), vals)
            cycles.append([a[:live] for a in cycle])
            chunks = dist.chunks(acts)
            for i, w in enumerate(self.workers[:live]):
                t = start + i
                step = w.env.chunk_step(chunks[i])
                out["rewards"][t] = step.reward
                out["primitive_steps"] += step.info["primitives_executed"]
                w.episode_reward += step.reward
                self.obs[i] = step.observation
                if step.done:
                    out["trajectory_ends"][t] = True
                    out["terminals"][t] = not step.info["truncated"]
                    if not out["terminals"][t]:
                        out["bootstraps"][t] = policy.value(step.observation)
                    out["episodes"] += 1
                    out["episode_successes"] += bool(step.info["goal_reached"])
                    out["episode_rewards"].append(w.episode_reward)
                    self.begin(i, scenarios, stage, spec, stages)
        last = buffer_size - 1
        for i in range(min(n, buffer_size)):
            t = last - (last - i) % n
            if not out["trajectory_ends"][t]:
                out["trajectory_ends"][t] = True
                out["bootstraps"][t] = policy.value(self.obs[i])
        names = ("feats", "tokens", "mask", "actions", "log_probs", "values")
        columns = {name: np.concatenate(column) for name, column in zip(names, zip(*cycles))}
        out["obs"] = {key: columns.pop(key) for key in ("feats", "tokens", "mask")}
        out.update(columns)
        out["n_workers"] = n
        return out


@pytest.mark.parametrize("n_envs, kinds", [
    (1, ("perpendicular_bay",)),
    (3, ("perpendicular_bay",)),
    (3, ("perpendicular_bay", "corridor")),
])
def test_collection_equals_per_worker_observations(n_envs, kinds):
    # 40 transitions over 3 workers leave a partial last cycle; a 12-primitive
    # cap truncates episodes inside the buffers, so bootstraps are taken there
    spec = VehicleSpec()
    stage = replace(default_stages()[0], max_episode_len=12)
    stages = (stage,)
    scenarios = [synth_scenario(kind) for kind in kinds]
    cfg = PolicyConfig(embed_dim=8, n_heads=2, fusion_width=8, k_obstacles=64, chunk_length=2)
    policy = PolicyNetwork(cfg, seed=4)
    policy.params = {k: v.astype(np.float32) for k, v in policy.params.items()}

    def fresh():
        seeds = np.random.SeedSequence(11).spawn(n_envs + 1)
        workers = [_Worker(ParkingEnv(spec=spec, k_obstacles=64), np.random.default_rng(s))
                   for s in seeds[:n_envs]]
        return workers, np.random.default_rng(seeds[-1])

    workers, arng = fresh()
    ref_workers, ref_arng = fresh()
    reference = PerWorkerCollection(ref_workers)
    truncated = 0
    for _ in range(3):  # episodes run on across buffers
        buf = collect_rollouts(policy, workers, scenarios, stage, spec, 40, arng, stages=stages)
        want = reference.collect(policy, scenarios, stage, spec, 40, ref_arng, stages)
        want_obs = want.pop("obs")
        assert buf.obs.keys() == want_obs.keys()
        pairs = [(f"obs[{key!r}]", buf.obs[key], value) for key, value in want_obs.items()]
        pairs += [(name, getattr(buf, name), value) for name, value in want.items()]
        for name, have, value in pairs:
            if isinstance(value, np.ndarray):
                assert have.dtype == value.dtype and have.shape == value.shape, name
                assert have.tobytes() == value.tobytes(), name
            else:
                assert have == value, name
        truncated += np.count_nonzero(buf.trajectory_ends & ~buf.terminals)
    assert truncated > 2 * n_envs  # more bootstraps than the trailing cuts


def test_episode_rewards_span_buffers():
    # 16 transitions over 2 workers is 8 chunks per worker per buffer, so
    # most episodes are collected across several calls
    spec, scenario, stages, policy, workers, arng = bay_setup(seed=9)
    finished = []  # env-side chunk-reward sum and length of each episode
    for w in workers:
        def recording(chunk, real=w.env.advance, running=[0.0, 0]):
            out = reward, done, _ = real(chunk)
            running[0] += reward
            running[1] += 1
            if done:
                finished.append(tuple(running))
                running[:] = [0.0, 0]
            return out

        w.env.advance = recording
    reported = []
    for _ in range(30):
        buf = collect_rollouts(
            policy, workers, [scenario], stages[0], spec, 16, arng, stages=stages
        )
        reported.extend(buf.episode_rewards)
    assert max(length for _, length in finished) > 8
    assert reported == [total for total, _ in finished]


def test_stage8_uses_logged_pose_for_every_episode():
    spec, scenario, stages, policy, workers, arng = bay_setup(seed=7)
    stage8 = stages[7]
    logged = scenario.initial_pose
    buf = collect_rollouts(
        policy, workers, [scenario], stage8, spec, 16, arng, stages=stages
    )
    for w in workers:
        # the env's recorded initial pose must be the logged one
        assert w.env.replay_log()["init_pose"] == [logged.x, logged.y, logged.theta]
    assert buf.episodes >= 0


# -- updates ---------------------------------------------------------------------


def random_training_buffer(policy, rng, n=32):
    k = policy.cfg.k_obstacles
    feats = rng.uniform(-1, 1, size=(n, 6))
    tokens = rng.uniform(-1, 1, size=(n, k, 2))
    mask = rng.uniform(size=(n, k)) < 0.8
    batch = {"feats": feats, "tokens": tokens, "mask": mask}
    dist, values, _ = policy.distribution(batch)
    actions = dist.sample(rng)
    logp = dist.log_prob(actions)
    rewards = rng.normal(size=n)
    ends = np.zeros(n, dtype=bool)
    ends[-1] = True
    terms = ends.copy()
    return RolloutBuffer(
        obs=batch, actions=actions,
        log_probs=logp, values=values, rewards=rewards,
        terminals=terms, bootstraps=np.zeros(n), trajectory_ends=ends,
        primitive_steps=n, episodes=1, episode_successes=0,
    )


def test_ratio_one_surrogate_equals_negative_mean_advantage(rng):
    policy = PolicyNetwork(TINY, seed=1)
    buf = random_training_buffer(policy, rng)
    adv = rng.normal(size=len(buf))
    cfg = TrainConfig(entropy_coef=0.0, vf_coef=0.5)
    _, stats, _ = ppo_loss_and_grads(
        policy, buf.batch(slice(None)), buf.actions, buf.log_probs, adv,
        rng.normal(size=len(buf)), cfg,
    )
    assert math.isclose(stats["policy_loss"], -adv.mean(), rel_tol=1e-12)
    assert stats["clip_fraction"] == 0.0
    assert abs(stats["approx_kl"]) < 1e-12


def test_zero_advantages_zero_policy_loss(rng):
    policy = PolicyNetwork(TINY, seed=2)
    buf = random_training_buffer(policy, rng)
    cfg = TrainConfig(entropy_coef=0.001)
    _, stats, _ = ppo_loss_and_grads(
        policy, buf.batch(slice(None)), buf.actions, buf.log_probs,
        np.zeros(len(buf)), np.zeros(len(buf)), cfg,
    )
    assert stats["policy_loss"] == 0.0


def test_one_ascent_step_increases_logprob_of_positive_advantage(rng):
    policy = PolicyNetwork(TINY, seed=3)
    buf = random_training_buffer(policy, rng, n=16)
    adv = np.ones(len(buf))
    cfg = TrainConfig(entropy_coef=0.0, vf_coef=0.0, learning_rate=1e-3)
    _, _, grads = ppo_loss_and_grads(
        policy, buf.batch(slice(None)), buf.actions, buf.log_probs, adv,
        buf.values, cfg,
    )
    before = policy.distribution(buf.batch(slice(None)))[0].log_prob(buf.actions)
    Adam(policy.params, cfg.learning_rate).step(policy.params, grads)
    after = policy.distribution(buf.batch(slice(None)))[0].log_prob(buf.actions)
    assert after.mean() > before.mean()


def test_ppo_epoch_reduces_to_vanilla_pg(rng):
    # entropy off, clip effectively infinite, one epoch, one full minibatch
    cfg = TrainConfig(
        entropy_coef=0.0, clip_range=1e9, ppo_epochs=1, batch_size=32,
        vf_coef=0.5, learning_rate=3e-4, max_grad_norm=0.0,
    )
    p1 = PolicyNetwork(TINY, seed=4)
    p2 = PolicyNetwork(TINY, seed=4)
    buf = random_training_buffer(p1, rng, n=32)

    opt1 = Adam(p1.params, cfg.learning_rate)
    ppo_update(p1, opt1, buf, cfg, np.random.default_rng(0))

    # hand-rolled policy-gradient step on the same normalized advantages
    adv, returns = compute_advantages(buf, cfg.gamma, cfg.gae_lambda)
    adv = (adv - adv.mean()) / (adv.std() + 1e-8)
    batch = buf.batch(slice(None))
    logits, values, cache = p2.forward(batch)
    dist = make_distribution(logits, p2.cfg)
    ratio = np.exp(dist.log_prob(buf.actions) - buf.log_probs)
    n = len(buf)
    onehot = np.zeros_like(dist.probs)
    np.put_along_axis(onehot, buf.actions[:, None], 1.0, axis=-1)
    dlogits = (-(ratio * adv) / n)[:, None] * (onehot - dist.probs)
    dvalues = cfg.vf_coef * 2.0 * (values - returns) / n
    grads = p2.gradients(cache, dlogits, dvalues)
    opt2 = Adam(p2.params, cfg.learning_rate)
    opt2.step(p2.params, grads)

    for k in p1.params:
        np.testing.assert_allclose(p1.params[k], p2.params[k], atol=1e-9)


def test_float32_network_gets_float32_gradients(rng):
    # the float64 advantages and returns must not promote the reverse pass
    policy = PolicyNetwork(TINY, seed=4)
    policy.params = {k: v.astype(np.float32) for k, v in policy.params.items()}
    buf = random_training_buffer(policy, rng)
    adv, returns = compute_advantages(buf, 1.0, 0.95)
    _, _, grads = ppo_loss_and_grads(
        policy, buf.batch(slice(None)), buf.actions, buf.log_probs, adv, returns,
        TrainConfig(),
    )
    assert grads.keys() == policy.params.keys()
    assert all(g.dtype == np.float32 for g in grads.values())


def test_nonfinite_loss_aborts(rng):
    policy = PolicyNetwork(TINY, seed=5)
    buf = random_training_buffer(policy, rng)
    adv = np.full(len(buf), np.inf)
    with pytest.raises(NumericError):
        ppo_loss_and_grads(
            policy, buf.batch(slice(None)), buf.actions, buf.log_probs, adv,
            buf.values, TrainConfig(),
        )


def test_grad_clip_scales_to_max_norm(rng):
    grads = {"a": rng.normal(size=(4, 4)), "b": rng.normal(size=3)}
    clip_grad_norm(grads, 0.5)
    total = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    assert total <= 0.5 + 1e-12


# -- train loop -------------------------------------------------------------------


def test_train_zero_budget_returns_initial_params():
    scenario = synth_scenario("perpendicular_bay")
    cfg = TrainConfig(total_steps=0, n_envs=1, seed=11, chunk_length=2)
    policy, rows = train(cfg, [scenario], policy_cfg=TINY)
    fresh = PolicyNetwork(TINY, seed=11)
    assert rows == []
    for k in policy.params:
        np.testing.assert_array_equal(policy.params[k], fresh.params[k])


def test_train_builds_every_env_from_the_config(monkeypatch):
    seen = []

    class RecordingEnv(ParkingEnv):
        def __init__(self, **kwargs):
            super().__init__(**kwargs)
            seen.append((self.k_obstacles, self.cfg))

    monkeypatch.setattr(ppo_module, "ParkingEnv", RecordingEnv)
    env_cfg = EnvConfig(horizon=12.0)
    cfg = TrainConfig(total_steps=0, n_envs=3, chunk_length=2)
    train(cfg, [synth_scenario("perpendicular_bay")], policy_cfg=TINY, env=env_cfg)
    assert [k for k, _ in seen] == [TINY.k_obstacles] * 3
    assert all(c is env_cfg for _, c in seen)


def test_train_rejects_a_policy_of_another_chunk_length():
    scenario = synth_scenario("perpendicular_bay")
    cfg = TrainConfig(total_steps=0, n_envs=1, chunk_length=4)
    with pytest.raises(ConfigurationError, match="chunk_length"):
        train(cfg, [scenario], policy_cfg=TINY)


def test_train_deterministic_and_logs(tmp_path):
    scenario = synth_scenario("perpendicular_bay")
    cfg = TrainConfig(
        total_steps=300, buffer_size=32, batch_size=16, ppo_epochs=2,
        n_envs=2, seed=21, chunk_length=2,
    )
    p1, rows1 = train(cfg, [scenario], policy_cfg=TINY,
                      checkpoint_dir=str(tmp_path))
    p2, rows2 = train(cfg, [scenario], policy_cfg=TINY)
    assert len(rows1) == len(rows2) >= 1
    assert [r.primitive_steps for r in rows1] == [r.primitive_steps for r in rows2]
    for k in p1.params:
        np.testing.assert_array_equal(p1.params[k], p2.params[k])
    # a checkpoint was written and loads back
    ck = PolicyNetwork.load_checkpoint(tmp_path / "final.npz")
    for k in p1.params:
        np.testing.assert_array_equal(ck.params[k], p1.params[k])
    # log rows carry the expected fields
    line = rows1[0].line()
    assert "stage=1" in line and "success=" in line


def _plan_run(total_steps, buffer_size, chunk_length, **kwargs):
    policy_cfg = PolicyConfig(embed_dim=8, n_heads=2, fusion_width=8, k_obstacles=4,
                              chunk_length=chunk_length)
    cfg = TrainConfig(total_steps=total_steps, buffer_size=buffer_size, ppo_epochs=1,
                      n_envs=2, seed=21, chunk_length=chunk_length)
    return train(cfg, [synth_scenario("perpendicular_bay")], policy_cfg=policy_cfg,
                 **kwargs)


def test_train_visits_every_stage_on_a_small_budget(tmp_path):
    # ceil(300 / (32 * 2)) = 5 updates, raised to one per stage
    _, rows = _plan_run(300, 32, 2, checkpoint_dir=str(tmp_path))
    assert [r.stage for r in rows] == list(range(1, 9))
    assert [r.update for r in rows] == list(range(1, 9))
    # a stage checkpoint as the plan leaves each stage, then the final one
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["final.npz"] + [f"stage{i}.npz" for i in range(1, 8)]
    for i in range(1, 8):
        extra = PolicyNetwork.load_checkpoint(tmp_path / f"stage{i}.npz").extra
        assert extra["update"] == i
        assert extra["primitive_steps"] == rows[i - 1].primitive_steps
    extra = PolicyNetwork.load_checkpoint(tmp_path / "final.npz").extra
    assert extra["update"] == 8 and extra["primitive_steps"] == rows[-1].primitive_steps


def test_train_runs_exactly_the_planned_blocks():
    # ceil(1024 / (16 * 4)) = 16 updates; episodes that end mid-chunk leave
    # the step count short of the budget, and the plan still ends the run
    _, rows = _plan_run(1024, 16, 4)
    planned = [len(block) for block, _ in stage_schedule(16)]
    assert planned == [2] * 8
    assert [sum(r.stage == i for r in rows) for i in range(1, 9)] == planned
    assert rows[-1].primitive_steps < 1024


def test_train_stopped_early_writes_only_the_final_checkpoint(tmp_path):
    # the stop lands on the last update of stage 2's block: no stage2.npz
    _, rows = _plan_run(300, 32, 2, checkpoint_dir=str(tmp_path),
                        stop_fn=lambda _policy, rows: len(rows) == 2)
    assert [r.stage for r in rows] == [1, 2]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["final.npz", "stage1.npz"]
    assert PolicyNetwork.load_checkpoint(tmp_path / "final.npz").extra["update"] == 2


def test_checkpoints_and_returned_policy_hold_the_float64_master(tmp_path, monkeypatch):
    optimizers = []

    class RecordingAdam(Adam):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            optimizers.append(self)

    monkeypatch.setattr(ppo_module, "Adam", RecordingAdam)

    def run(directory, stop_after=None):
        optimizers.clear()
        masters = []

        def stop_fn(policy, rows):
            master = optimizers[0].master
            masters.append({k: v.copy() for k, v in master.items()})
            # the network collection and stop_fn see is the master, rounded
            for k, v in policy.params.items():
                assert v.dtype == np.float32
                np.testing.assert_array_equal(v, master[k].astype(np.float32))
            return len(rows) == stop_after

        directory.mkdir()
        policy, rows = _plan_run(300, 32, 2, checkpoint_dir=str(directory),
                                 stop_fn=stop_fn)
        saved = {}
        for path in directory.iterdir():
            with np.load(path) as data:
                saved[path.stem] = {k: data[k] for k in data.files if k != "_meta"}
        return policy, rows, masters, saved

    def assert_master(params, master):
        assert params.keys() == master.keys()
        for k, v in params.items():
            assert v.dtype == np.float64
            np.testing.assert_array_equal(v, master[k])

    policy, rows, masters, saved = run(tmp_path / "full")
    assert len(rows) == 8 and sorted(saved) == ["final"] + [f"stage{i}" for i in range(1, 8)]
    for i in range(1, 8):
        assert_master(saved[f"stage{i}"], masters[i - 1])
    assert_master(saved["final"], masters[-1])
    assert_master(policy.params, optimizers[0].master)
    # a float32-rounded copy would not be the master
    assert any((v != v.astype(np.float32)).any() for v in policy.params.values())

    policy, rows, masters, saved = run(tmp_path / "early", stop_after=2)
    assert len(rows) == 2 and sorted(saved) == ["final", "stage1"]
    assert_master(saved["stage1"], masters[0])
    assert_master(saved["final"], masters[1])
    assert_master(policy.params, masters[1])


_DIGEST_RUN = """
import hashlib
from parkplan.curriculum import default_stages
from parkplan.policy import PolicyConfig
from parkplan.ppo import TrainConfig, train
from parkplan.scenarios import synth_scenario

policy, rows = train(
    TrainConfig(total_steps=1024, buffer_size=128, batch_size=128, ppo_epochs=2,
                n_envs=4, seed=5, chunk_length=4),
    [synth_scenario("perpendicular_bay")],
    policy_cfg=PolicyConfig(embed_dim=32, n_heads=4, fusion_width=64, k_obstacles=16,
                            chunk_length=4),
    stages=default_stages()[:1],
)
digest = hashlib.sha256()
for key in sorted(policy.params):
    digest.update(policy.params[key].tobytes())
print(len(rows), digest.hexdigest())
"""


def test_float32_training_is_deterministic_at_one_and_two_blas_threads():
    # BLAS reads its thread count at import, so each count gets its own
    # process; a (64, 128) x (128, 64) product is large enough to be split
    # across threads
    src = str(Path(ppo_module.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", _DIGEST_RUN], env=env,
                             capture_output=True, text=True, check=True, timeout=300)
        digests.append(out.stdout.split())
    assert digests[0][0] == "2"
    assert digests[0] == digests[1]
