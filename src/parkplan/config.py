"""YAML configuration file plumbing.

One optional file configures everything; any missing section or key falls
back to the built-in defaults. Angles in the file are degrees (marked by
the ``_deg`` suffix) for hand-editing comfort. The chunk length is set under
``train`` only: the ``policy`` section has no ``chunk_length``.

    env:       {horizon: 15.0, bounds_margin: 5.0, max_target_range: 30.0}
    reward:    {goal_reward: 3.0, collision_penalty: -3.0, ...,
                goal_heading_tol_deg: 3.0}
    planner:   {xy_resolution: 0.5, theta_resolution_deg: 5.0, ...}
    policy:    {embed_dim: 64, n_heads: 4, fusion_width: 128,
                chunk_mode: repeat, k_obstacles: 256}
    train:     {total_steps: 1000000, buffer_size: 1024, chunk_length: 4, ...}
    curriculum:
      stages:
        - {index: 1, rollout_steps: 12, heading_mode: inherit,
           heading_range_deg: [0, 0], max_episode_len: 100}
        ...
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from pathlib import Path

from .curriculum import CurriculumStage, default_stages
from .env import (
    DEFAULT_BOUNDS_MARGIN,
    DEFAULT_HORIZON,
    DEFAULT_MAX_TARGET_RANGE,
    RewardConfig,
)
from .errors import ConfigurationError
from .hybrid_astar import PlannerConfig
from .policy import PolicyConfig
from .ppo import TrainConfig


@dataclass
class EnvSettings:
    horizon: float = DEFAULT_HORIZON
    bounds_margin: float = DEFAULT_BOUNDS_MARGIN
    max_target_range: float = DEFAULT_MAX_TARGET_RANGE


@dataclass
class AppConfig:
    env: EnvSettings = field(default_factory=EnvSettings)
    reward: RewardConfig = field(default_factory=RewardConfig)
    planner: PlannerConfig = field(default_factory=PlannerConfig)
    policy: PolicyConfig = field(default_factory=PolicyConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    stages: tuple[CurriculumStage, ...] = field(default_factory=default_stages)

    def env_kwargs(self) -> dict:
        """Env settings other than K, which ``policy.k_obstacles`` sets."""
        return {
            "reward": self.reward,
            "horizon": self.env.horizon,
            "bounds_margin": self.env.bounds_margin,
            "max_target_range": self.env.max_target_range,
        }


def _build(cls, section: dict, source: str, deg_keys=()):
    if not isinstance(section, dict):
        raise ConfigurationError(f"{source}: expected a mapping")
    known = {f.name for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in section.items():
        if key in deg_keys:
            kwargs[key.removesuffix("_deg")] = math.radians(value)
            continue
        if key not in known:
            raise ConfigurationError(f"{source}: unknown key '{key}'")
        kwargs[key] = value
    return cls(**kwargs)


def _build_stage(entry, source: str) -> CurriculumStage:
    if not isinstance(entry, dict):
        raise ConfigurationError(f"{source}: each stage must be a mapping, got {entry!r}")
    try:
        rng = entry.get("heading_range_deg", (0.0, 0.0))
        return CurriculumStage(
            index=int(entry["index"]),
            rollout_steps=int(entry.get("rollout_steps", 0)),
            heading_mode=entry.get("heading_mode", "inherit"),
            heading_range=(math.radians(rng[0]), math.radians(rng[1])),
            max_episode_len=int(entry["max_episode_len"]),
        )
    except KeyError as exc:
        raise ConfigurationError(f"{source}: stage {entry} lacks the key {exc}")
    except ConfigurationError as exc:
        raise ConfigurationError(f"{source}: {exc}")
    except (TypeError, ValueError, IndexError) as exc:
        raise ConfigurationError(f"{source}: stage {entry}: {exc}")


def load_config(path=None) -> AppConfig:
    """Parse a YAML config file; ``None`` yields all defaults."""
    import yaml  # only config files need it, so plain imports skip it

    cfg = AppConfig()
    if path is None:
        return cfg
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"config file not found: {path}")
    try:
        doc = yaml.safe_load(path.read_text(encoding="utf-8")) or {}
    except (UnicodeDecodeError, yaml.YAMLError) as exc:
        raise ConfigurationError(f"{path}: not a UTF-8 YAML document: {exc}")
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{path}: top level must be a mapping")
    unknown = set(doc) - {"env", "reward", "planner", "policy", "train", "curriculum"}
    if unknown:
        raise ConfigurationError(f"{path}: unknown sections {sorted(unknown)}")
    if "env" in doc:
        cfg.env = _build(EnvSettings, doc["env"], f"{path}:env")
    if "reward" in doc:
        cfg.reward = _build(
            RewardConfig, doc["reward"], f"{path}:reward",
            deg_keys=("goal_heading_tol_deg",),
        )
    if "planner" in doc:
        cfg.planner = _build(
            PlannerConfig, doc["planner"], f"{path}:planner",
            deg_keys=("theta_resolution_deg",),
        )
    if "policy" in doc:
        if isinstance(doc["policy"], dict) and "chunk_length" in doc["policy"]:
            raise ConfigurationError(
                f"{path}:policy: set chunk_length under train (train.chunk_length)"
            )
        cfg.policy = _build(PolicyConfig, doc["policy"], f"{path}:policy")
    if "train" in doc:
        cfg.train = _build(TrainConfig, doc["train"], f"{path}:train")
    cfg.policy = dataclasses.replace(cfg.policy, chunk_length=cfg.train.chunk_length)
    if "curriculum" in doc:
        section = doc["curriculum"]
        entries = section.get("stages") if isinstance(section, dict) else None
        if not entries or not isinstance(entries, list):
            raise ConfigurationError(f"{path}:curriculum needs a 'stages' list")
        cfg.stages = tuple(_build_stage(e, f"{path}:curriculum") for e in entries)
    return cfg
