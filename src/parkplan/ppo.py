"""Clipped-surrogate policy optimization over chunked macro-actions.

The training loop mirrors the closed-loop recipe end to end: run the
curriculum's update plan one stage block at a time, roll out parallel
environments (scenario sampled per episode, initial pose from the stage's
sampler, macro-actions through the chunk wrapper), then run several epochs
of minibatch clipped-surrogate updates once the transition buffer is full.

Transitions live at macro-action granularity; rewards are the env-emitted
chunk sums, stored untouched.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .curriculum import CurriculumStage, default_stages, sample_init, stage_schedule
from .env import EnvConfig, ParkingEnv, observe_batch
from .errors import ConfigurationError, NumericError
from .geometry import VehicleSpec
from .policy import PolicyConfig, PolicyNetwork, batch_observations, make_distribution
from .scenarios import Scenario


@dataclass(frozen=True)
class TrainConfig:
    total_steps: int = 1_000_000  # sizes the update plan (see train)
    buffer_size: int = 1024  # macro transitions per update
    batch_size: int = 256  # minibatch size
    ppo_epochs: int = 10
    gamma: float = 1.0
    gae_lambda: float = 0.95
    clip_range: float = 0.2
    learning_rate: float = 3e-4  # constant schedule
    entropy_coef: float = 0.001
    vf_coef: float = 0.5
    max_grad_norm: float = 0.5
    chunk_length: int = PolicyConfig.chunk_length
    n_envs: int = 8
    seed: int = 0

    def __post_init__(self):
        sizes = (self.buffer_size, self.batch_size, self.ppo_epochs,
                 self.chunk_length, self.n_envs)
        if min(sizes) < 1 or self.total_steps < 0:
            raise ConfigurationError(
                "buffer_size, batch_size, ppo_epochs, chunk_length and n_envs "
                f"must be >= 1 and total_steps >= 0, got {sizes} and {self.total_steps}"
            )
        # each value compared on its own, so a NaN is rejected too
        steps = (self.learning_rate, self.clip_range)
        if not all(0 < v < math.inf for v in steps):
            raise ConfigurationError(
                f"learning_rate and clip_range must be finite and > 0, got {steps}"
            )
        discounts = (self.gamma, self.gae_lambda)
        if not all(0 <= v <= 1 for v in discounts):
            raise ConfigurationError(
                f"gamma and gae_lambda must lie in [0, 1], got {discounts}"
            )
        # a zero coefficient drops its term; a zero max_grad_norm disables clipping
        coefs = {name: getattr(self, name)
                 for name in ("entropy_coef", "vf_coef", "max_grad_norm")}
        bad = {k: v for k, v in coefs.items() if not (math.isfinite(v) and v >= 0)}
        if bad:
            raise ConfigurationError(f"loss coefficients and max_grad_norm must be "
                                     f"finite and >= 0, got {bad}")


class Adam:
    """Adam over float64 master weights, copied from ``params`` at
    construction, with float64 moments. Each step updates the master and
    writes it into the caller's arrays, whatever their dtype: float32
    arrays get one rounded copy per step, float64 ones the master's bits
    (mixed-precision training, Micikevicius et al., ICLR 2018)."""

    b1, b2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: dict, lr: float):
        self.lr = lr
        self.t = 0
        self.master = {k: np.array(v, dtype=np.float64) for k, v in params.items()}
        self.m = {k: np.zeros_like(v) for k, v in self.master.items()}
        self.v = {k: np.zeros_like(v) for k, v in self.master.items()}

    def step(self, params: dict, grads: dict) -> None:
        self.t += 1
        c1 = 1.0 - self.b1**self.t
        c2 = 1.0 - self.b2**self.t
        for key, g in grads.items():
            self.m[key] = self.b1 * self.m[key] + (1.0 - self.b1) * g
            self.v[key] = self.b2 * self.v[key] + (1.0 - self.b2) * g * g
            mhat = self.m[key] / c1
            vhat = self.v[key] / c2
            self.master[key] -= self.lr * mhat / (np.sqrt(vhat) + self.eps)
            params[key][...] = self.master[key]


def clip_grad_norm(grads: dict, max_norm: float) -> float:
    total = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if max_norm > 0 and total > max_norm:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return total


# ---------------------------------------------------------------------------
# rollout buffer and advantage estimation
# ---------------------------------------------------------------------------


@dataclass
class RolloutBuffer:
    """Macro-transition storage. Transitions are interleaved round-robin
    over ``n_workers`` envs, so index t belongs to env t % n_workers and its
    next transition is t + n_workers; ``trajectory_ends`` marks where each
    env's trajectory pieces end so advantage scans never leak across
    episodes or envs."""

    obs: dict  # the policy batch of every transition's observation
    actions: np.ndarray
    log_probs: np.ndarray
    values: np.ndarray
    rewards: np.ndarray
    terminals: np.ndarray  # True terminal (not truncation/cut)
    bootstraps: np.ndarray  # V(s') for the last step of each trajectory piece
    trajectory_ends: np.ndarray  # True where a trajectory piece ends
    primitive_steps: int
    episodes: int
    episode_successes: int
    episode_rewards: list[float] = field(default_factory=list)
    n_workers: int = 1

    def __len__(self):
        return self.rewards.shape[0]

    def batch(self, idx) -> dict:
        return {key: rows[idx] for key, rows in self.obs.items()}


def compute_advantages(buffer: RolloutBuffer, gamma: float, lam: float):
    """GAE over the buffer at macro-step granularity, per env. Terminal
    pieces bootstrap zero; truncated or cut pieces bootstrap the stored
    value."""
    n = len(buffer)
    w = buffer.n_workers
    adv = np.zeros(n)
    for t in reversed(range(n)):
        if buffer.trajectory_ends[t]:
            nonterminal = 0.0 if buffer.terminals[t] else 1.0
            next_value = buffer.bootstraps[t]
            next_adv = 0.0
        else:
            nonterminal = 1.0
            next_value = buffer.values[t + w]
            next_adv = adv[t + w]
        delta = buffer.rewards[t] + gamma * next_value * nonterminal - buffer.values[t]
        next_adv = delta + gamma * lam * nonterminal * next_adv
        adv[t] = next_adv
    returns = adv + buffer.values
    return adv, returns


# ---------------------------------------------------------------------------
# rollout collection
# ---------------------------------------------------------------------------


class _Worker:
    """One environment plus its open episode and the reward collected so
    far, kept across buffers."""

    def __init__(self, env: ParkingEnv, rng: np.random.Generator):
        self.env = env
        self.rng = rng
        self.episode_reward = 0.0

    def begin_episode(self, scenarios, stage, spec, stages):
        scenario = scenarios[self.rng.integers(len(scenarios))]
        init = sample_init(stage, scenario, spec, self.rng, stages=stages)
        self.env.start(scenario, init, stage.max_episode_len)
        self.episode_reward = 0.0


def collect_rollouts(
    policy: PolicyNetwork,
    workers: list[_Worker],
    scenarios: list[Scenario],
    stage: CurriculumStage,
    spec: VehicleSpec,
    buffer_size: int,
    action_rng: np.random.Generator,
    stages: tuple[CurriculumStage, ...],
) -> RolloutBuffer:
    """Fill a buffer with ``buffer_size`` macro transitions, resetting
    workers onto freshly sampled scenarios/poses as their episodes end;
    ``stages`` is the table whose earlier stages ``stage`` falls back to.

    Each cycle is one batched observation build, one batched forward and
    one transition per worker, so index t belongs to workers[t % W]. The
    last cycle steps only the workers the buffer has room for; its forward
    and action draw still cover every worker."""
    n_envs = len(workers)
    for w in workers:
        if not w.env.active:
            w.begin_episode(scenarios, stage, spec, stages)
    cycles = []  # per cycle: observations, actions, log-probs, values
    rewards = np.zeros(buffer_size)
    terminals = np.zeros(buffer_size, dtype=bool)
    traj_ends = np.zeros(buffer_size, dtype=bool)
    bootstraps = np.zeros(buffer_size)
    primitive_steps = episodes = successes = 0
    episode_rewards = []

    for start in range(0, buffer_size, n_envs):
        live = min(n_envs, buffer_size - start)
        obs = observe_batch([w.env for w in workers])
        dist, vals, _ = policy.distribution(obs)
        acts = dist.sample(action_rng)
        cycles.append(({key: rows[:live] for key, rows in obs.items()},
                       *(a[:live] for a in (acts, dist.log_prob(acts), vals))))
        chunk_lists = dist.chunks(acts)
        for wi, w in enumerate(workers[:live]):
            t = start + wi
            reward, done, info = w.env.advance(chunk_lists[wi])
            rewards[t] = reward
            primitive_steps += info["primitives_executed"]
            w.episode_reward += reward
            if done:
                traj_ends[t] = True
                terminals[t] = not info["truncated"]
                # a one-row forward, as every bootstrap value is: a W-row
                # float32 forward may round the value differently
                if not terminals[t]:
                    bootstraps[t] = policy.value(w.env.observe())
                episodes += 1
                successes += bool(info["goal_reached"])
                episode_rewards.append(w.episode_reward)
                w.begin_episode(scenarios, stage, spec, stages)

    # the trailing piece of any worker whose episode is still open gets cut
    # at that worker's last transition and bootstraps its value
    last = buffer_size - 1
    for wi, w in enumerate(workers[:buffer_size]):
        t = last - (last - wi) % n_envs
        if not traj_ends[t]:
            traj_ends[t] = True
            bootstraps[t] = policy.value(w.env.observe())

    obs, *columns = zip(*cycles)
    actions, log_probs, values = (np.concatenate(column) for column in columns)
    return RolloutBuffer(
        obs=batch_observations(obs),
        actions=actions,
        log_probs=log_probs,
        values=values,
        rewards=rewards,
        terminals=terminals,
        bootstraps=bootstraps,
        trajectory_ends=traj_ends,
        primitive_steps=primitive_steps,
        episodes=episodes,
        episode_successes=successes,
        episode_rewards=episode_rewards,
        n_workers=n_envs,
    )


# ---------------------------------------------------------------------------
# the PPO objective
# ---------------------------------------------------------------------------


def ppo_loss_and_grads(
    policy: PolicyNetwork,
    batch: dict,
    actions: np.ndarray,
    old_log_probs: np.ndarray,
    advantages: np.ndarray,
    returns: np.ndarray,
    cfg: TrainConfig,
):
    """Loss, diagnostics, and exact parameter gradients for one minibatch."""
    logits, values, cache = policy.forward(batch)
    dist = make_distribution(logits, policy.cfg)
    b = logits.shape[0]

    logp = dist.log_prob(actions)
    ratio = np.exp(logp - old_log_probs)
    clipped = np.clip(ratio, 1.0 - cfg.clip_range, 1.0 + cfg.clip_range)
    surr_raw = ratio * advantages
    surr_clip = clipped * advantages
    pg_loss = -np.minimum(surr_raw, surr_clip).mean()

    v_err = values - returns
    value_loss = float((v_err * v_err).mean())
    entropy = dist.entropy.mean()

    loss = pg_loss + cfg.vf_coef * value_loss - cfg.entropy_coef * entropy
    if not np.isfinite(loss):
        raise NumericError(
            f"non-finite loss: pg={pg_loss} value={value_loss} entropy={entropy}"
        )

    # seed gradients at the network outputs
    use_raw = surr_raw <= surr_clip  # min() subgradient follows the raw branch
    dlogp = -(use_raw * ratio * advantages) / b  # (B,)

    probs = dist.probs
    onehot = np.zeros_like(probs)
    np.put_along_axis(onehot, actions[:, None], 1.0, axis=-1)
    dlogits = dlogp[:, None] * (onehot - probs)
    dent = -probs * (dist.log_probs + dist.entropy[:, None])
    dlogits += (-cfg.entropy_coef / b) * dent
    # the float64 advantages and returns would promote the reverse pass of
    # a float32 network to float64
    dlogits = dlogits.astype(logits.dtype, copy=False)
    dvalues = (cfg.vf_coef * 2.0 * v_err / b).astype(logits.dtype, copy=False)

    grads = policy.gradients(cache, dlogits, dvalues)
    stats = {
        "loss": float(loss),
        "policy_loss": float(pg_loss),
        "value_loss": value_loss,
        "entropy": float(entropy),
        "approx_kl": float((old_log_probs - logp).mean()),
        "clip_fraction": float((np.abs(ratio - 1.0) > cfg.clip_range).mean()),
    }
    return loss, stats, grads


def ppo_update(
    policy: PolicyNetwork,
    optimizer: Adam,
    buffer: RolloutBuffer,
    cfg: TrainConfig,
    rng: np.random.Generator,
) -> dict:
    """Several epochs of shuffled minibatch updates over one buffer.
    Advantages are normalized once per buffer."""
    adv, returns = compute_advantages(buffer, cfg.gamma, cfg.gae_lambda)
    adv = (adv - adv.mean()) / (adv.std() + 1e-8)
    n = len(buffer)
    stats_acc: dict[str, float] = {}
    count = 0
    for _ in range(cfg.ppo_epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            _, stats, grads = ppo_loss_and_grads(
                policy,
                buffer.batch(idx),
                buffer.actions[idx],
                buffer.log_probs[idx],
                adv[idx],
                returns[idx],
                cfg,
            )
            clip_grad_norm(grads, cfg.max_grad_norm)
            optimizer.step(policy.params, grads)
            for k, v in stats.items():
                stats_acc[k] = stats_acc.get(k, 0.0) + v
            count += 1
    return {k: v / count for k, v in stats_acc.items()}


# ---------------------------------------------------------------------------
# full training loop
# ---------------------------------------------------------------------------


@dataclass
class TrainLogRow:
    update: int
    stage: int
    primitive_steps: int
    episodes: int
    mean_episode_reward: float
    success_rate: float
    policy_loss: float
    value_loss: float
    entropy: float
    approx_kl: float
    clip_fraction: float
    elapsed: float

    def line(self) -> str:
        return (
            f"update={self.update} stage={self.stage} steps={self.primitive_steps} "
            f"episodes={self.episodes} ep_reward={self.mean_episode_reward:.3f} "
            f"success={self.success_rate:.3f} pg={self.policy_loss:.4f} "
            f"vf={self.value_loss:.4f} ent={self.entropy:.4f} "
            f"kl={self.approx_kl:.5f} clip={self.clip_fraction:.3f} "
            f"t={self.elapsed:.1f}s"
        )


def train(
    cfg: TrainConfig,
    scenarios: list[Scenario],
    policy_cfg: PolicyConfig | None = None,
    spec: VehicleSpec | None = None,
    env: EnvConfig | None = None,
    stages: tuple[CurriculumStage, ...] | None = None,
    checkpoint_dir=None,
    log_fn=None,
    stop_fn=None,
):
    """Run the update plan: ``stage_schedule`` splits
    ``ceil(total_steps / (buffer_size * chunk_length))`` updates (none for a
    zero budget, else at least one per stage) into stage blocks, and each
    update collects one buffer of chunked rollouts and optimizes on it.

    Every env is built from ``env`` and observes ``policy_cfg.k_obstacles``
    obstacle slots; checkpoints record ``env.horizon``, the observation
    range they were trained under; ``stage{index}.npz`` is written as the
    plan leaves a stage and ``final.npz`` at the end. Returns
    (policy, log_rows). ``stop_fn(policy, rows)``, when given, is polled
    after every update and may end training early (used by evaluation-based
    early stopping).

    The policy computes in float32 throughout training, and ``stop_fn``
    sees that float32 network. Checkpoints and the returned policy hold
    the optimizer's float64 master weights.
    """
    spec = spec or VehicleSpec()
    env = env or EnvConfig()
    policy_cfg = policy_cfg or PolicyConfig(chunk_length=cfg.chunk_length)
    if policy_cfg.chunk_length != cfg.chunk_length:
        raise ConfigurationError(
            f"the policy's chunk_length {policy_cfg.chunk_length} differs from "
            f"the training chunk_length {cfg.chunk_length}"
        )
    stages = stages or default_stages()
    # mixed precision: Adam's float64 master weights are what checkpoints
    # save and train returns; collection, stop_fn and every minibatch
    # compute with a float32 copy that each Adam step rewrites
    master = PolicyNetwork(policy_cfg, seed=cfg.seed)
    optimizer = Adam(master.params, cfg.learning_rate)
    master.params = optimizer.master
    policy = PolicyNetwork(policy_cfg, seed=cfg.seed)
    policy.params = {k: v.astype(np.float32) for k, v in master.params.items()}

    seeds = np.random.SeedSequence(cfg.seed)
    worker_seeds = seeds.spawn(cfg.n_envs + 2)
    action_rng = np.random.default_rng(worker_seeds[-1])
    update_rng = np.random.default_rng(worker_seeds[-2])
    workers = [
        _Worker(ParkingEnv(spec=spec, cfg=env, k_obstacles=policy_cfg.k_obstacles),
                np.random.default_rng(ws))
        for ws in worker_seeds[: cfg.n_envs]
    ]

    n_updates = math.ceil(cfg.total_steps / (cfg.buffer_size * cfg.chunk_length))
    plan = stage_schedule(max(n_updates, len(stages)), stages) if n_updates else []
    rows: list[TrainLogRow] = []
    primitive_steps = 0
    t0 = time.perf_counter()

    def save(name):
        if checkpoint_dir is not None:
            master.save_checkpoint(
                f"{checkpoint_dir}/{name}.npz",
                extra={"primitive_steps": primitive_steps, "update": len(rows),
                       "horizon": env.horizon},
            )

    for block, stage in plan:
        for update in block:
            buffer = collect_rollouts(
                policy, workers, scenarios, stage, spec, cfg.buffer_size, action_rng,
                stages=stages,
            )
            primitive_steps += buffer.primitive_steps
            stats = ppo_update(policy, optimizer, buffer, cfg, update_rng)
            row = TrainLogRow(
                update=update + 1,
                stage=stage.index,
                primitive_steps=primitive_steps,
                episodes=buffer.episodes,
                mean_episode_reward=(
                    float(np.mean(buffer.episode_rewards)) if buffer.episode_rewards else 0.0
                ),
                success_rate=(
                    buffer.episode_successes / buffer.episodes if buffer.episodes else 0.0
                ),
                policy_loss=stats["policy_loss"],
                value_loss=stats["value_loss"],
                entropy=stats["entropy"],
                approx_kl=stats["approx_kl"],
                clip_fraction=stats["clip_fraction"],
                elapsed=time.perf_counter() - t0,
            )
            rows.append(row)
            if log_fn is not None:
                log_fn(row)
            if stop_fn is not None and stop_fn(policy, rows):
                save("final")
                return master, rows
        if block.stop < plan[-1][0].stop:
            save(f"stage{stage.index}")

    save("final")
    return master, rows
