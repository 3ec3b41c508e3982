"""YAML configuration file plumbing.

One optional file configures everything; any missing section or key falls
back to the built-in defaults. Angles in the file are degrees (marked by
the ``_deg`` suffix) for hand-editing comfort. The ``env`` and ``reward``
sections together make one ``env.EnvConfig``, which every env of a command
is built from. The chunk length is set under ``train`` only: the ``policy``
section has no ``chunk_length``. ``train.total_steps`` sizes the update
plan, ``ceil(total_steps / (buffer_size * chunk_length))`` updates split
over the curriculum stages; it does not stop a run. Every section, and
each curriculum stage, is built by one function, ``_build``: it rejects an
unknown key and converts the ``_deg`` keys, and the config class checks
each value by the same ``errors.require`` rules as in code (a non-positive
size, resolution or tolerance, a negative seed, a string or a bool for a
number, a fraction for an integer). Either failure is a
``ConfigurationError`` that names the file and section.

    env:       {horizon: 15.0, bounds_margin: 5.0, max_target_range: 30.0}
    reward:    {goal_reward: 3.0, collision_penalty: -3.0, ...,
                goal_heading_tol_deg: 3.0}
    planner:   {xy_resolution: 0.5, theta_resolution_deg: 5.0, ...}
    policy:    {embed_dim: 64, n_heads: 4, fusion_width: 128, k_obstacles: 256}
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
from .env import EnvConfig, RewardConfig
from .errors import ConfigurationError
from .hybrid_astar import PlannerConfig
from .policy import PolicyConfig
from .ppo import TrainConfig


@dataclass
class AppConfig:
    env: EnvConfig = field(default_factory=EnvConfig)
    planner: PlannerConfig = field(default_factory=PlannerConfig)
    policy: PolicyConfig = field(default_factory=PolicyConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    stages: tuple[CurriculumStage, ...] = field(default_factory=default_stages)


# values of the keys a curriculum stage entry may omit
_STAGE_DEFAULTS = {"rollout_steps": 0, "heading_mode": "inherit", "heading_range_deg": (0, 0)}


def _radians(key: str, value):
    """The degrees ``value`` of ``key``, one number or a list, in radians.
    A bool would convert as 0 or 1 degree, so it is refused here."""
    items = value if isinstance(value, (list, tuple)) else [value]
    if any(isinstance(v, bool) for v in items):
        raise ConfigurationError(f"{key} must be in degrees, got {value!r}")
    radians = tuple(math.radians(v) for v in items)
    return radians if isinstance(value, (list, tuple)) else radians[0]


def _build(cls, section: dict, source: str, deg_keys=(), **fixed):
    """``cls`` from one file section; the ``fixed`` fields are set by the
    caller and are not keys of the section, and a field in ``deg_keys`` is
    set only in degrees. ``cls`` checks every value, as it does in code."""
    if not isinstance(section, dict):
        raise ConfigurationError(f"{source}: expected a mapping")
    fields = {f.name: f.name for f in dataclasses.fields(cls) if f.name not in fixed}
    for key in deg_keys:
        fields[key] = fields.pop(key.removesuffix("_deg"))
    kwargs = dict(fixed)
    try:
        for key, value in section.items():
            if key not in fields:
                raise ConfigurationError(f"unknown key '{key}'")
            kwargs[fields[key]] = _radians(key, value) if key in deg_keys else value
        return cls(**kwargs)
    except (ConfigurationError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"{source}: {exc}")


def load_config(path=None) -> AppConfig:
    """Parse a YAML config file; ``None`` yields all defaults."""
    import yaml  # only config files need it, so plain imports skip it

    if path is None:
        return AppConfig()
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
    policy = doc.get("policy", {})
    if isinstance(policy, dict) and "chunk_length" in policy:
        raise ConfigurationError(
            f"{path}:policy: set chunk_length under train (train.chunk_length)"
        )
    reward = _build(
        RewardConfig, doc.get("reward", {}), f"{path}:reward",
        deg_keys=("goal_heading_tol_deg",),
    )
    train = _build(TrainConfig, doc.get("train", {}), f"{path}:train")
    cfg = AppConfig(
        env=_build(EnvConfig, doc.get("env", {}), f"{path}:env", reward=reward),
        planner=_build(
            PlannerConfig, doc.get("planner", {}), f"{path}:planner",
            deg_keys=("theta_resolution_deg",),
        ),
        policy=_build(
            PolicyConfig, policy, f"{path}:policy", chunk_length=train.chunk_length
        ),
        train=train,
    )
    if "curriculum" in doc:
        section = doc["curriculum"]
        entries = section.get("stages") if isinstance(section, dict) else None
        if not entries or not isinstance(entries, list):
            raise ConfigurationError(f"{path}:curriculum needs a 'stages' list")
        cfg.stages = tuple(
            _build(
                CurriculumStage, (_STAGE_DEFAULTS | e) if isinstance(e, dict) else e,
                f"{path}:curriculum: stage entry {i}", deg_keys=("heading_range_deg",),
            )
            for i, e in enumerate(entries, 1)
        )
        # each stage writes stage{index}.npz, so a repeated index overwrites
        indices = [stage.index for stage in cfg.stages]
        if len(set(indices)) < len(indices):
            raise ConfigurationError(f"{path}:curriculum: repeated stage indices {indices}")
    return cfg
