import dataclasses
import hashlib
import math
import os
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest

from parkplan.config import load_config
from parkplan.curriculum import CurriculumStage, default_stages
from parkplan.env import EnvConfig, ParkingEnv, RewardConfig
from parkplan.errors import ConfigurationError
from parkplan.geometry import Pose2D, VehicleSpec
from parkplan.hybrid_astar import PlannerConfig
from parkplan.kinematics import ACTIONS, VehicleState, step
from parkplan.policy import PolicyConfig, PolicyNetwork
from parkplan.ppo import TrainConfig, train
from parkplan.render import render_svg
from parkplan.scenarios import Scenario, bundled_scenarios, save_scenario, synth_scenario
from parkplan import cli


# -- rendering -------------------------------------------------------------------


def test_empty_scene_renders_valid_svg():
    s = Scenario("empty", Pose2D(0, 0, 0), Pose2D(6, 0, 0), np.empty((0, 2)))
    doc = render_svg(s)
    assert doc.startswith("<svg")
    assert doc.rstrip().endswith("</svg>")
    assert 'stroke="magenta"' in doc
    assert 'stroke="cyan"' in doc


def test_paper_color_conventions_present():
    s = synth_scenario("perpendicular_bay")
    doc = render_svg(s, path_poses=[s.initial_pose, s.target_pose])
    for color in ("red", "magenta", "cyan", "blue"):
        assert color in doc


def test_attention_highlight_caps_at_twenty():
    s = synth_scenario("corridor")
    pts = s.obstacles[:100]
    weights = np.linspace(0, 1, 100)
    doc = render_svg(s, attention=weights, attention_points=pts)
    assert doc.count('fill="orange"') <= 20
    # zero-weight points are never highlighted
    doc2 = render_svg(s, attention=np.zeros(100), attention_points=pts)
    assert doc2.count('fill="orange"') == 0


# SHA-1 of each case's document: drawing code that is only reorganised
# leaves every byte as it was
RENDER_SHA1 = {
    "path-of-states": "f5398d16f3339d82bdf8219390c746faad153aae",
    "attention-and-extra-poses": "968928fa6a5b7770052e7fa47891bf43881e97cf",
    "extra-poses": "ea891788de75d159525608feeaaf8fe36113619e",
}


def _render_case(case):
    if case == "path-of-states":
        s = synth_scenario("perpendicular_bay")
        p = s.initial_pose
        state = VehicleState(p.x, p.y, p.theta, 0.0)
        path = [state]
        for a in [3] * 30 + [4] * 20 + [7] * 4 + [0] * 30:
            state = step(state, ACTIONS[a], VehicleSpec())
            path.append(state)
        return render_svg(s, path)
    s = synth_scenario("corridor" if case == "attention-and-extra-poses" else "dead_end")
    p = s.initial_pose
    extra = [Pose2D(p.x + i, p.y - 0.5 * i, 0.3 * i) for i in range(5)]
    if case == "extra-poses":
        return render_svg(s, extra_poses=extra)
    return render_svg(s, attention=np.linspace(0.0, 1.0, 60),
                      attention_points=s.obstacles[:60], extra_poses=extra)


@pytest.mark.parametrize("case", sorted(RENDER_SHA1))
def test_render_svg_output_is_pinned(case):
    assert hashlib.sha1(_render_case(case).encode()).hexdigest() == RENDER_SHA1[case]


# -- config ----------------------------------------------------------------------


def test_default_config_matches_dataclasses():
    cfg = load_config(None)
    assert cfg.env.reward.goal_reward == 3.0
    assert cfg.planner.n_steer == 20
    assert cfg.train.buffer_size == 1024
    assert len(cfg.stages) == 8
    env = ParkingEnv()
    assert cfg.policy.k_obstacles == env.k_obstacles
    assert cfg.env == env.cfg


def test_example_config_loads_as_the_defaults():
    example = Path(__file__).parents[1] / "configs" / "example.yaml"
    assert load_config(example) == load_config(None)


def test_config_file_overrides(tmp_path):
    p = tmp_path / "cfg.yaml"
    p.write_text(
        """
env: {horizon: 12.0}
reward: {goal_reward: 5.0, goal_heading_tol_deg: 4.0}
planner: {theta_resolution_deg: 10.0, n_steer: 9}
train: {buffer_size: 256, seed: 3}
policy: {embed_dim: 16, n_heads: 2, k_obstacles: 64}
curriculum:
  stages:
    - {index: 1, rollout_steps: 10, heading_mode: inherit, max_episode_len: 50}
    - {index: 2, rollout_steps: 20, heading_mode: resample,
       heading_range_deg: [-30, 30], max_episode_len: 100}
"""
    )
    cfg = load_config(p)
    assert cfg.env.horizon == 12.0
    assert cfg.env.reward.goal_reward == 5.0
    assert math.isclose(cfg.env.reward.goal_heading_tol, math.radians(4.0))
    assert math.isclose(cfg.planner.theta_resolution, math.radians(10.0))
    assert cfg.planner.n_steer == 9
    assert cfg.train.buffer_size == 256
    assert cfg.policy.embed_dim == 16
    assert cfg.policy.k_obstacles == 64
    assert len(cfg.stages) == 2
    assert math.isclose(cfg.stages[1].heading_range[1], math.radians(30))


def test_config_rejects_unknown_keys(tmp_path):
    p = tmp_path / "bad.yaml"
    p.write_text("planner: {grid_size: 3}\n")
    with pytest.raises(ConfigurationError):
        load_config(p)
    p.write_text("warp_drive: {}\n")
    with pytest.raises(ConfigurationError):
        load_config(p)
    p.write_text("planner: {obstacle_radius: 25.0}\n")
    with pytest.raises(ConfigurationError):
        load_config(p)
    # K has one key, policy.k_obstacles; the reward has its own section
    for env in ("{k_obstacles: 64}", "{reward: {goal_reward: 5.0}}"):
        p.write_text(f"env: {env}\n")
        with pytest.raises(ConfigurationError, match="unknown key"):
            load_config(p)
    # an angle is set in degrees only, under its _deg key
    for section in ("reward: {goal_heading_tol: 0.05}", "planner: {theta_resolution: 0.1}"):
        p.write_text(section + "\n")
        with pytest.raises(ConfigurationError, match="unknown key"):
            load_config(p)


def test_chunk_length_is_set_under_train_only(tmp_path, capsys):
    p = tmp_path / "cfg.yaml"
    p.write_text("policy: {embed_dim: 8, n_heads: 2, chunk_length: 2}\n")
    with pytest.raises(ConfigurationError, match="train.chunk_length"):
        load_config(p)
    code = run_cli("train", "--config", str(p), "--out", str(tmp_path / "o"))
    assert code == 2
    assert "train.chunk_length" in capsys.readouterr().err


def test_train_chunk_length_sets_the_policys(tmp_path):
    p = tmp_path / "cfg.yaml"
    p.write_text("policy: {embed_dim: 8, n_heads: 2, fusion_width: 8, k_obstacles: 4}\n"
                 "train: {total_steps: 0, n_envs: 1, chunk_length: 2}\n")
    cfg = load_config(p)
    assert cfg.policy.chunk_length == cfg.train.chunk_length == 2
    net, _ = train(cfg.train, [synth_scenario("perpendicular_bay")], policy_cfg=cfg.policy)
    assert net.cfg.chunk_length == 2


@pytest.mark.parametrize("curriculum", [
    "{stages: [{rollout_steps: 10, max_episode_len: 50}]}",  # no index
    "[1, 2]",
    "{stages: [{index: 1, heading_mode: bogus, max_episode_len: 50}]}",
    # inverted, out of (-180, 180], negative rollout, empty episode
    "{stages: [{index: 1, heading_mode: resample, heading_range_deg: [30, -30], "
    "max_episode_len: 50}]}",
    "{stages: [{index: 1, heading_mode: resample, heading_range_deg: [-180, 0], "
    "max_episode_len: 50}]}",
    "{stages: [{index: 1, heading_mode: resample, heading_range_deg: [0, 190], "
    "max_episode_len: 50}]}",
    "{stages: [{index: 1, rollout_steps: -1, max_episode_len: 50}]}",
    "{stages: [{index: 1, max_episode_len: 0}]}",
    # a misspelt key, fractions and a bool where an integer belongs
    "{stages: [{index: 1, rollout_step: 50, max_episode_len: 50}]}",
    "{stages: [{index: 1, rollout_steps: 12.7, max_episode_len: 50}]}",
    "{stages: [{index: 1, max_episode_len: 99.9}]}",
    "{stages: [{index: 1, rollout_steps: true, max_episode_len: 50}]}",
    "{stages: [{index: 3, heading_mode: resample, heading_range_deg: [true, 5], "
    "max_episode_len: 50}]}",
])
def test_config_rejects_malformed_curriculum(tmp_path, curriculum):
    p = tmp_path / "bad.yaml"
    p.write_text(f"curriculum: {curriculum}\n")
    with pytest.raises(ConfigurationError):
        load_config(p)


# the fields where +inf means no limit
NO_LIMIT = {"time_budget", "bounds_margin", "max_target_range"}


@pytest.mark.parametrize("cls", [
    VehicleSpec, RewardConfig, EnvConfig, PlannerConfig, PolicyConfig, TrainConfig,
    CurriculumStage,
], ids=lambda cls: cls.__name__)
def test_every_numeric_config_field_is_checked(cls):
    # walks the fields, so a numeric field added without a rule fails here
    valid = default_stages()[2] if cls is CurriculumStage else cls()
    hints = typing.get_type_hints(cls)
    numeric = [f.name for f in dataclasses.fields(cls) if hints[f.name] in (int, float)]
    assert numeric
    for name in numeric:
        bad = [math.nan, True, "1"]
        bad += [2.5] if hints[name] is int else []
        bad += [] if name in NO_LIMIT else [math.inf]
        for value in bad:
            with pytest.raises(ConfigurationError, match=name):
                dataclasses.replace(valid, **{name: value})
        if name in NO_LIMIT:
            assert getattr(dataclasses.replace(valid, **{name: math.inf}), name) == math.inf


def test_missing_config_file():
    with pytest.raises(FileNotFoundError):
        load_config("/nonexistent/cfg.yaml")


# -- CLI -------------------------------------------------------------------------


def run_cli(*argv):
    return cli.main(list(argv))


def test_cli_plan_scenario_directory(tmp_path, capsys):
    pack = tmp_path / "pack"
    pack.mkdir()
    for sid in ("b-open", "a-open"):
        save_scenario(Scenario(sid, Pose2D(0, 0, 0), Pose2D(6, 0, 0), np.empty((0, 2))),
                      pack / f"{sid}.json")
    (pack / "notes.txt").write_text("not a scenario")
    code = run_cli("plan", "--scenarios", str(pack), "--out", str(tmp_path / "o"))
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["a-open", "b-open"]


def test_cli_id_that_leaves_the_output_directory_exits_2(tmp_path, capsys):
    pack = tmp_path / "pack"
    pack.mkdir()
    save_scenario(Scenario("../escaped", Pose2D(0, 0, 0), Pose2D(6, 0, 0),
                           np.empty((0, 2))), pack / "s.json")
    code = run_cli("plan", "--scenarios", str(pack), "--out", str(tmp_path / "o2"))
    assert code == 2
    assert "usable as one file name" in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.svg"))


def test_cli_duplicate_ids_in_a_directory_exit_2(tmp_path, capsys):
    pack = tmp_path / "pack"
    pack.mkdir()
    for name, goal_x in (("a", 6.0), ("b", 7.0)):
        save_scenario(Scenario("same", Pose2D(0, 0, 0), Pose2D(goal_x, 0, 0),
                               np.empty((0, 2))), pack / f"{name}.json")
    code = run_cli("plan", "--scenarios", str(pack), "--out", str(tmp_path / "o"))
    assert code == 2
    err = capsys.readouterr().err
    assert "'same'" in err and str(pack / "a.json") in err and str(pack / "b.json") in err
    assert not list(tmp_path.rglob("*.svg"))


def test_cli_train_rejects_a_colliding_start_before_any_update(tmp_path, capsys,
                                                               monkeypatch):
    s = synth_scenario("perpendicular_bay")
    wall_x, wall_y = s.obstacles[0]
    sp = tmp_path / "bay.json"
    save_scenario(Scenario(s.id, Pose2D(wall_x, wall_y, 0.0), s.target_pose, s.obstacles),
                  sp)
    cfgp = tmp_path / "cfg.yaml"
    cfgp.write_text(
        "curriculum: {stages: [{index: 1, rollout_steps: 12, heading_mode: inherit, "
        "max_episode_len: 50}, {index: 2, heading_mode: logged, max_episode_len: 50}]}\n"
    )
    calls = []
    monkeypatch.setattr(cli, "train", lambda *a, **k: calls.append(a))
    code = run_cli("train", "--scenario", str(sp), "--config", str(cfgp),
                   "--out", str(tmp_path / "run"))
    assert code == 2
    assert "initial pose collides" in capsys.readouterr().err
    assert calls == [] and not (tmp_path / "run").exists()


def test_cli_scenarios_takes_only_a_directory(tmp_path, capsys):
    sp = tmp_path / "bay.json"
    save_scenario(synth_scenario("perpendicular_bay"), sp)
    code = run_cli("plan", "--scenarios", str(sp), "--out", str(tmp_path / "o"))
    assert code == 2
    assert "--scenarios takes a directory" in capsys.readouterr().err


def test_cli_scenario_and_scenarios_conflict(tmp_path, capsys):
    sp = tmp_path / "bay.json"
    save_scenario(synth_scenario("perpendicular_bay"), sp)
    with pytest.raises(SystemExit) as exc:
        run_cli("plan", "--scenario", str(sp), "--scenarios", str(tmp_path))
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_cli_plan_single_scenario(tmp_path, capsys):
    s = synth_scenario("perpendicular_bay")
    sp = tmp_path / "bay.json"
    save_scenario(s, sp)
    code = run_cli("plan", "--scenario", str(sp), "--out", str(tmp_path / "o"))
    assert code == 0
    out = capsys.readouterr().out
    assert "cost=" in out and "expansions=" in out and "shots=" in out
    assert (tmp_path / "o" / f"{s.id}.svg").exists()
    # a failed query reports its counts too
    cfg = tmp_path / "instant.yaml"
    cfg.write_text("planner: {time_budget: 1.0e-9}\n")
    code = run_cli("plan", "--scenario", str(sp), "--config", str(cfg),
                   "--out", str(tmp_path / "o"))
    assert code == 1
    err = capsys.readouterr().err
    assert "(timeout)" in err and "expansions=0 shots=0" in err


def test_cli_plan_missing_scenario(tmp_path, capsys):
    code = run_cli("plan", "--scenario", str(tmp_path / "nope.json"))
    assert code == 2
    assert "input error" in capsys.readouterr().err


def test_cli_config_error_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.yaml"
    p.write_text("curriculum: {stages: [{index: 3, heading_mode: resample, "
                 "heading_range_deg: [30, -30], max_episode_len: 50}]}\n")
    code = run_cli("train", "--config", str(p), "--out", str(tmp_path / "o"))
    assert code == 2
    err = capsys.readouterr().err
    assert "stage 3" in err and "bad.yaml" in err


TRAIN_NOTHING = ("train", "--total-steps", "0")


def test_cli_repeated_stage_indices_exit_2(tmp_path, capsys):
    # each stage writes stage{index}.npz: a repeated index would overwrite one
    p = tmp_path / "bad.yaml"
    text = ("curriculum: {stages: [{index: 1, max_episode_len: 50}, "
            "{index: 1, max_episode_len: 60}, {index: 2, max_episode_len: 70}]}\n")
    p.write_text(text)
    code = run_cli(*TRAIN_NOTHING, "--config", str(p), "--out", str(tmp_path / "o"))
    assert code == 2
    err = capsys.readouterr().err
    assert "bad.yaml:curriculum" in err and "[1, 1, 2]" in err
    # distinct indices stay legal in any numbering
    p.write_text(text.replace("index: 1, max_episode_len: 60", "index: 5, max_episode_len: 60"))
    assert [stage.index for stage in load_config(p).stages] == [1, 5, 2]


@pytest.mark.parametrize("command, content, section", [
    (("plan",), "policy: {embed_dim: x}", "policy"),
    (("plan",), "policy: {n_heads: 0}", "policy"),
    (("plan",), "planner: {substep: 0}", "planner"),
    (("plan",), "planner: {xy_resolution: 0}", "planner"),
    (("plan",), "planner: {heuristic_weight: -1}", "planner"),
    (("plan",), "planner: {heuristic_weight: .nan}", "planner"),
    (("plan",), "planner: {switch_back_cost: -2.0}", "planner"),
    (("plan",), "planner: {grid_margin: .inf}", "planner"),
    (TRAIN_NOTHING, "train: {batch_size: 0}", "train"),
    (TRAIN_NOTHING, "train: {n_envs: 0}", "train"),
    (TRAIN_NOTHING, "train: {ppo_epochs: 0}", "train"),
    (TRAIN_NOTHING, "env: {horizon: 0}", "env"),
    (TRAIN_NOTHING, "env: {horizon: -1}", "env"),
    (TRAIN_NOTHING, "reward: {goal_pos_tol: 0}", "reward"),
    (TRAIN_NOTHING, "train: {learning_rate: .nan}", "train"),
    (TRAIN_NOTHING, "train: {learning_rate: -0.001}", "train"),
    (TRAIN_NOTHING, "train: {clip_range: -0.2}", "train"),
    (TRAIN_NOTHING, "train: {clip_range: .inf}", "train"),
    (TRAIN_NOTHING, "train: {gamma: 1.5}", "train"),
    (TRAIN_NOTHING, "train: {gae_lambda: .nan}", "train"),
    (TRAIN_NOTHING, "train: {entropy_coef: .nan}", "train"),
    (TRAIN_NOTHING, "train: {vf_coef: -0.5}", "train"),
    (TRAIN_NOTHING, "train: {max_grad_norm: .inf}", "train"),
    (TRAIN_NOTHING, "reward: {goal_reward: .nan}", "reward"),
    (TRAIN_NOTHING, "reward: {time_penalty: .inf}", "reward"),
    (TRAIN_NOTHING, "policy: {chunk_mode: repeat}", "policy"),
    # a step, horizon or goal tolerance must be finite too
    (("plan",), "planner: {substep: .inf}", "planner"),
    (("plan",), "planner: {motion_resolution: .inf}", "planner"),
    (("plan",), "planner: {theta_resolution_deg: .inf}", "planner"),
    (("plan",), "planner: {xy_resolution: .inf}", "planner"),
    (TRAIN_NOTHING, "env: {horizon: .inf}", "env"),
    (TRAIN_NOTHING, "reward: {goal_pos_tol: .inf}", "reward"),
    (TRAIN_NOTHING, "reward: {goal_heading_tol_deg: .inf}", "reward"),
    (TRAIN_NOTHING, "train: {seed: -1}", "train"),
])
def test_cli_config_value_a_type_rejects_exits_2(tmp_path, capsys, command, content, section):
    p = tmp_path / "bad.yaml"
    p.write_text(content + "\n")
    code = run_cli(*command, "--config", str(p), "--out", str(tmp_path / "o"))
    assert code == 2
    assert f"bad.yaml:{section}: " in capsys.readouterr().err


@pytest.mark.parametrize("command, content, section", [
    (TRAIN_NOTHING, "train: {buffer_size: 12.7}", "train"),
    (TRAIN_NOTHING, "policy: {embed_dim: 64.0}", "policy"),
    (("plan",), "planner: {n_steer: 20.5}", "planner"),
    (TRAIN_NOTHING, "train: {n_envs: true}", "train"),
])
def test_cli_config_integer_field_takes_only_an_integer(tmp_path, capsys, command, content,
                                                       section):
    p = tmp_path / "bad.yaml"
    p.write_text(content + "\n")
    code = run_cli(*command, "--config", str(p), "--out", str(tmp_path / "o"))
    assert code == 2
    err = capsys.readouterr().err
    assert f"bad.yaml:{section}: " in err and "must be an integer" in err


@pytest.mark.parametrize("command, option, content, what", [
    ("plan", "--scenario", b"\xff\xfe{}", "not UTF-8 JSON"),
    ("plan", "--scenario", b"[1,2]", "must be a JSON object"),
    ("plan", "--config", b"train: [1, 2", "not a UTF-8 YAML document"),
], ids=["scenario-not-utf8", "scenario-not-an-object", "config-bad-yaml"])
def test_cli_malformed_input_file_exits_2(tmp_path, capsys, command, option, content, what):
    bad = tmp_path / "bad"
    bad.write_bytes(content)
    code = run_cli(command, option, str(bad), "--out", str(tmp_path / "o"))
    assert code == 2
    err = capsys.readouterr().err
    assert what in err and str(bad) in err


@pytest.mark.parametrize("argv", [
    ("plan", "--scenario", "{dir}"),
    ("plan", "--scenario", "{scenario}", "--config", "{dir}"),
    ("viz", "--scenario", "{scenario}", "--replay", "{dir}"),
], ids=["plan-scenario", "plan-config", "viz-replay"])
def test_cli_directory_as_input_file_exits_2(tmp_path, capsys, argv):
    scenario = tmp_path / "c.json"
    save_scenario(synth_scenario("corridor"), scenario)
    folder = tmp_path / "folder"
    folder.mkdir()
    argv = [a.format(dir=folder, scenario=scenario) for a in argv]
    code = run_cli(*argv, "--out", str(tmp_path / "o"))
    assert code == 2
    err = capsys.readouterr().err
    assert "input error" in err and str(folder) in err


def test_cli_eval_hybrid(tmp_path, capsys):
    s = synth_scenario("perpendicular_bay")
    sp = tmp_path / "bay.json"
    save_scenario(s, sp)
    code = run_cli(
        "eval", "--method", "hybrid-astar", "--scenario", str(sp),
        "--out", str(tmp_path),
    )
    assert code == 0
    csv = (tmp_path / "eval_hybrid-astar.csv").read_text()
    assert csv.splitlines()[0].startswith("scenario_id,")
    assert "success: 1/1" in capsys.readouterr().out


def test_cli_eval_rl_requires_checkpoint(tmp_path, capsys):
    code = run_cli("eval", "--method", "rl-policy", "--out", str(tmp_path))
    assert code == 2


def test_cli_eval_hybrid_rejects_a_checkpoint(tmp_path, capsys):
    # the planner takes no checkpoint; one given is a mistake, not ignored
    code = run_cli(
        "eval", "--method", "hybrid-astar", "--checkpoint", str(tmp_path / "x.npz"),
        "--out", str(tmp_path),
    )
    assert code == 2
    assert "--checkpoint" in capsys.readouterr().err
    assert not (tmp_path / "eval_hybrid-astar.csv").exists()


def test_cli_eval_rejects_a_checkpoint_that_is_no_archive(tmp_path, capsys):
    ckpt = tmp_path / "ckpt.npz"
    ckpt.write_text("not a npz")
    code = run_cli(
        "eval", "--method", "rl-policy", "--checkpoint", str(ckpt),
        "--out", str(tmp_path),
    )
    assert code == 2
    assert "not a checkpoint archive" in capsys.readouterr().err


def test_cli_rollout_init(tmp_path, capsys):
    s = synth_scenario("corridor")
    sp = tmp_path / "c.json"
    save_scenario(s, sp)
    code = run_cli(
        "rollout-init", "--scenario", str(sp), "--stage", "3",
        "--samples", "8", "--seed", "4", "--out", str(tmp_path),
    )
    assert code == 0
    svg = (tmp_path / f"{s.id}_stage3_init.svg").read_text()
    assert svg.count("#7733aa") >= 8


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_cli_rollout_init_rejects_fewer_than_one_sample(tmp_path, capsys, samples):
    s = next(s for s in bundled_scenarios() if s.id == "dead_end-01")
    sp = tmp_path / "d.json"
    save_scenario(s, sp)
    code = run_cli(
        "rollout-init", "--scenario", str(sp), "--samples", samples, "--out", str(tmp_path),
    )
    assert code == 2
    assert "--samples" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.svg"))


@pytest.mark.parametrize("argv", [
    ("rollout-init", "--samples", "1"),
    TRAIN_NOTHING,
    ("eval", "--method", "hybrid-astar"),
], ids=["rollout-init", "train", "eval"])
def test_cli_negative_seed_exits_2(tmp_path, capsys, argv):
    # a seed numpy cannot take is an input error, from the flag or the file
    s = synth_scenario("corridor")
    sp = tmp_path / "c.json"
    save_scenario(s, sp)
    cfgp = tmp_path / "cfg.yaml"
    cfgp.write_text("train: {seed: -1}\n")
    seed = ("--config", str(cfgp)) if argv[0] == "eval" else ("--seed", "-1")
    code = run_cli(*argv, *seed, "--scenario", str(sp), "--out", str(tmp_path / "o"))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and "seed" in err
    assert not list(tmp_path.glob("o/*"))


def test_cli_rollout_init_falls_back_through_the_config_table(tmp_path, capsys):
    # no heading in [80, 100] deg off the target's clears the bay walls, so
    # stage 2 falls back to the config's stage 1
    s = next(s for s in bundled_scenarios() if s.id == "perpendicular_bay-01")
    sp = tmp_path / "bay.json"
    save_scenario(s, sp)
    cfgp = tmp_path / "cfg.yaml"
    cfgp.write_text(
        """
curriculum:
  stages:
    - {index: 1, rollout_steps: 5, heading_mode: inherit, max_episode_len: 50}
    - {index: 2, rollout_steps: 0, heading_mode: resample,
       heading_range_deg: [80, 100], max_episode_len: 50}
"""
    )
    code = run_cli(
        "rollout-init", "--scenario", str(sp), "--config", str(cfgp),
        "--stage", "2", "--samples", "4", "--seed", "0", "--out", str(tmp_path),
    )
    assert code == 0, capsys.readouterr().err
    assert (tmp_path / f"{s.id}_stage2_init.svg").exists()


def test_cli_eval_caps_episodes_at_the_final_stage(tmp_path, monkeypatch):
    s = Scenario("open", Pose2D(0, 0, 0), Pose2D(8, 0, 0), np.empty((0, 2)))
    sp = tmp_path / "open.json"
    save_scenario(s, sp)
    ckpt = tmp_path / "ckpt.npz"
    PolicyNetwork(PolicyConfig(embed_dim=8, n_heads=2, fusion_width=8, k_obstacles=4),
                  seed=0).save_checkpoint(ckpt)
    cfgp = tmp_path / "cfg.yaml"
    cfgp.write_text(
        """
curriculum:
  stages:
    - {index: 1, rollout_steps: 5, max_episode_len: 50}
    - {index: 2, heading_mode: logged, max_episode_len: 37}
"""
    )
    seen = []
    real_evaluate = cli.evaluate_policy

    def recording_evaluate(scenarios, policy, env, max_episode_len):
        seen.append(max_episode_len)
        return real_evaluate(scenarios, policy, env, max_episode_len)

    monkeypatch.setattr(cli, "evaluate_policy", recording_evaluate)
    code = run_cli(
        "eval", "--method", "rl-policy", "--checkpoint", str(ckpt),
        "--scenario", str(sp), "--config", str(cfgp), "--out", str(tmp_path),
    )
    assert code == 0
    assert seen == [37]


def test_cli_train_and_viz_roundtrip(tmp_path, capsys):
    s = synth_scenario("perpendicular_bay")
    sp = tmp_path / "bay.json"
    save_scenario(s, sp)
    cfgp = tmp_path / "cfg.yaml"
    cfgp.write_text(
        """
policy: {embed_dim: 8, n_heads: 2, fusion_width: 8, k_obstacles: 4}
train: {total_steps: 200, buffer_size: 16, batch_size: 8, ppo_epochs: 1,
        n_envs: 2, chunk_length: 2, seed: 0}
"""
    )
    code = run_cli(
        "train", "--scenario", str(sp), "--config", str(cfgp),
        "--out", str(tmp_path / "run"),
    )
    assert code == 0
    assert (tmp_path / "run" / "final.npz").exists()
    assert (tmp_path / "run" / "training_log.txt").read_text().count("update=") >= 1
    # the checkpoint records the observation width the envs actually used
    from parkplan.policy import PolicyNetwork

    ck = PolicyNetwork.load_checkpoint(tmp_path / "run" / "final.npz")
    assert ck.cfg.k_obstacles == 4

    # record a replay and render it with attention overlay
    from parkplan.env import save_replay

    env = ParkingEnv(spec=VehicleSpec(), k_obstacles=4)
    env.reset(s, s.initial_pose, 30)
    for a in [1, 1, 4, 6]:
        env.step_primitive(a)
    save_replay(env.replay_log(), tmp_path / "replay.json")
    code = run_cli(
        "viz", "--scenario", str(sp), "--replay", str(tmp_path / "replay.json"),
        "--checkpoint", str(tmp_path / "run" / "final.npz"),
        "--out", str(tmp_path),
    )
    assert code == 0
    assert (tmp_path / f"{s.id}_replay.svg").exists()


def test_cli_viz_uses_the_checkpoint_k(tmp_path, monkeypatch):
    # the config leaves K at its default 256; the checkpoint's is 4
    cfgp = tmp_path / "cfg.yaml"
    cfgp.write_text("env: {horizon: 12.0}\n")
    s = synth_scenario("perpendicular_bay")
    sp = tmp_path / "bay.json"
    save_scenario(s, sp)
    from parkplan.env import save_replay
    from parkplan.policy import PolicyConfig, PolicyNetwork

    ckpt = tmp_path / "k4.npz"
    PolicyNetwork(PolicyConfig(embed_dim=8, n_heads=2, fusion_width=8, k_obstacles=4),
                  seed=0).save_checkpoint(ckpt)
    env = ParkingEnv(spec=VehicleSpec(), k_obstacles=4)
    env.reset(s, s.initial_pose, 30)
    env.step_primitive(1)
    save_replay(env.replay_log(), tmp_path / "replay.json")
    seen = []

    class RecordingEnv(ParkingEnv):
        def __init__(self, **kwargs):
            super().__init__(**kwargs)
            seen.append((self.k_obstacles, self.cfg))

    monkeypatch.setattr(cli, "ParkingEnv", RecordingEnv)
    code = run_cli(
        "viz", "--scenario", str(sp), "--replay", str(tmp_path / "replay.json"),
        "--checkpoint", str(ckpt), "--config", str(cfgp), "--out", str(tmp_path),
    )
    assert code == 0
    assert seen == [(4, load_config(cfgp).env)]


def test_cli_rejects_a_checkpoint_trained_under_another_horizon(tmp_path, capsys):
    s = synth_scenario("perpendicular_bay")
    sp = tmp_path / "bay.json"
    save_scenario(s, sp)
    cfgp = tmp_path / "cfg.yaml"
    cfgp.write_text("env: {horizon: 12.0}\n"
                    "policy: {embed_dim: 8, n_heads: 2, fusion_width: 8, k_obstacles: 4}\n"
                    "train: {total_steps: 0, n_envs: 1}\n")
    assert run_cli("train", "--scenario", str(sp), "--config", str(cfgp),
                   "--out", str(tmp_path / "run")) == 0
    ckpt = str(tmp_path / "run" / "final.npz")
    assert PolicyNetwork.load_checkpoint(ckpt).extra["horizon"] == 12.0
    from parkplan.env import save_replay

    env = ParkingEnv(spec=VehicleSpec(), k_obstacles=4)
    env.reset(s, s.initial_pose, 30)
    env.step_primitive(1)
    save_replay(env.replay_log(), tmp_path / "replay.json")
    capsys.readouterr()
    # without the training config, both commands would observe at R = 15 m
    for argv in (["eval", "--method", "rl-policy"],
                 ["viz", "--replay", str(tmp_path / "replay.json")]):
        code = run_cli(*argv, "--checkpoint", ckpt, "--scenario", str(sp),
                       "--out", str(tmp_path / "o"))
        assert code == 2
        err = capsys.readouterr().err
        assert "horizon 12.0 m" in err and "horizon is 15.0 m" in err
    code = run_cli("viz", "--replay", str(tmp_path / "replay.json"), "--checkpoint", ckpt,
                   "--scenario", str(sp), "--config", str(cfgp), "--out", str(tmp_path / "o"))
    assert code == 0


def test_cli_viz_rejects_a_truncated_replay(tmp_path, capsys):
    s = synth_scenario("corridor")
    sp = tmp_path / "c.json"
    save_scenario(s, sp)
    replay = tmp_path / "replay.json"
    replay.write_text('{"scenario_id": "corridor", "init_pose": [0.0, 3.0')
    code = run_cli("viz", "--scenario", str(sp), "--replay", str(replay),
                   "--out", str(tmp_path))
    assert code == 2
    assert "not a JSON replay" in capsys.readouterr().err


def test_cli_viz_rejects_a_replay_of_another_scenario(tmp_path, capsys):
    from parkplan.env import save_replay

    recorded = synth_scenario("dead_end")
    env = ParkingEnv(spec=VehicleSpec(), k_obstacles=4)
    env.reset(recorded, recorded.initial_pose, 30)
    env.step_primitive(1)
    save_replay(env.replay_log(), tmp_path / "replay.json")
    sp = tmp_path / "c.json"
    save_scenario(synth_scenario("corridor"), sp)
    code = run_cli("viz", "--scenario", str(sp), "--replay",
                   str(tmp_path / "replay.json"), "--out", str(tmp_path))
    assert code == 2
    assert "recorded on 'dead_end'" in capsys.readouterr().err
    assert not (tmp_path / "corridor_replay.svg").exists()


def test_cli_viz_rejects_actions_after_the_episode_ended(tmp_path, capsys):
    from parkplan.env import save_replay

    s = synth_scenario("corridor")
    sp = tmp_path / "c.json"
    save_scenario(s, sp)
    env = ParkingEnv(spec=VehicleSpec(), k_obstacles=4)
    env.reset(s, s.initial_pose, 400)
    while not env.step_primitive(1).done:  # straight ahead until it leaves
        pass
    log = env.replay_log()
    ended = len(log["actions"]) - 1
    log["actions"].append(1)
    save_replay(log, tmp_path / "replay.json")
    code = run_cli("viz", "--scenario", str(sp), "--replay",
                   str(tmp_path / "replay.json"), "--out", str(tmp_path))
    assert code == 2
    assert f"action {ended + 1} comes after the episode ended" in capsys.readouterr().err
    assert not (tmp_path / "corridor_replay.svg").exists()


@pytest.mark.parametrize("argv", [
    ["plan"],
    ["eval", "--method", "hybrid-astar"],
    ["ablate-astar"],
    ["viz", "--replay", "replay.json"],
])
def test_cli_seed_only_on_commands_that_read_it(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, "--seed", "1")
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_cli_ablate_astar_writes_grid(tmp_path, capsys, monkeypatch):
    s = Scenario("open", Pose2D(0, 0, 0), Pose2D(8, 0, 0), np.empty((0, 2)))
    sp = tmp_path / "open.json"
    save_scenario(s, sp)
    cfgp = tmp_path / "cfg.yaml"
    cfgp.write_text(
        "planner: {switch_back_cost: 4.0, substep: 0.05, steer_change_cost: 0.3}\n"
    )
    seen = []
    real_evaluate = cli.evaluate_planner

    def recording_evaluate(scenarios, cfg):
        seen.append(cfg)
        return real_evaluate(scenarios, cfg)

    monkeypatch.setattr(cli, "evaluate_planner", recording_evaluate)
    code = run_cli(
        "ablate-astar", "--scenario", str(sp), "--config", str(cfgp),
        "--out", str(tmp_path),
    )
    assert code == 0
    grid = (tmp_path / "ablate_astar.csv").read_text().splitlines()
    assert grid[0].startswith("xy_res,")
    assert len(grid) == 8  # header + 7 rows
    # every grid point keeps the settings the grid does not vary
    assert len(seen) == 7
    for pcfg in seen:
        assert (pcfg.switch_back_cost, pcfg.substep, pcfg.steer_change_cost) == (4.0, 0.05, 0.3)


def test_console_entrypoint_runs():
    # the child imports the package under test, installed or not
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "parkplan.cli", "--help"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "Hybrid A*" in proc.stdout


def test_cli_eval_writes_a_non_ascii_id_under_an_ascii_locale(tmp_path):
    # the C locale's encoding is ASCII, and every file the program writes is UTF-8
    sp = tmp_path / "cafe.json"
    save_scenario(Scenario("caf\u00e9", Pose2D(0, 0, 0), Pose2D(6, 0, 0), np.empty((0, 2))), sp)
    src = str(Path(cli.__file__).resolve().parents[1])
    child = dict(os.environ, LC_ALL="C", PYTHONUTF8="0",
                 PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "parkplan.cli", "eval", "--method", "hybrid-astar",
         "--scenario", str(sp), "--out", str(tmp_path / "o")],
        env=child, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    rows = (tmp_path / "o" / "eval_hybrid-astar.csv").read_text(encoding="utf-8").splitlines()
    assert rows[1].startswith("caf\u00e9,")


def test_cli_rejects_an_id_the_file_system_encoding_cannot_hold(tmp_path, capsys, monkeypatch):
    # plan, rollout-init and viz name their outputs by scenario id; eval
    # writes ids only inside its UTF-8 CSV, so it still runs
    sp = tmp_path / "cafe.json"
    save_scenario(Scenario("caf\u00e9", Pose2D(0, 0, 0), Pose2D(6, 0, 0), np.empty((0, 2))), sp)
    log = tmp_path / "replay.json"
    log.write_text('{"scenario_id": "caf\u00e9", "init_pose": [0, 0, 0], "actions": [1], '
                   '"max_episode_len": 5}', encoding="utf-8")
    monkeypatch.setattr(sys, "getfilesystemencoding", lambda: "ascii")
    out = tmp_path / "o"
    for cmd in (["plan"], ["rollout-init", "--samples", "1"], ["viz", "--replay", str(log)]):
        code = cli.main([*cmd, "--scenario", str(sp), "--out", str(out)])
        assert code == 2, cmd
        err = capsys.readouterr().err
        assert "cannot name a file in the file-system encoding ascii" in err, cmd
        assert list(out.iterdir()) == []
    assert cli.main(["eval", "--method", "hybrid-astar", "--scenario", str(sp),
                     "--out", str(out)]) == 0
    # an id the encoding holds is written as before
    save_scenario(Scenario("cafe", Pose2D(0, 0, 0), Pose2D(6, 0, 0), np.empty((0, 2))), sp)
    assert cli.main(["plan", "--scenario", str(sp), "--out", str(out)]) == 0
    assert (out / "cafe.svg").is_file()


def test_cli_plan_of_a_non_ascii_id_under_an_ascii_locale_exits_2(tmp_path):
    sp = tmp_path / "cafe.json"
    save_scenario(Scenario("caf\u00e9", Pose2D(0, 0, 0), Pose2D(6, 0, 0), np.empty((0, 2))), sp)
    src = str(Path(cli.__file__).resolve().parents[1])
    child = dict(os.environ, LC_ALL="C", PYTHONUTF8="0",
                 PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "parkplan.cli", "plan", "--scenario", str(sp),
         "--out", str(tmp_path / "o")],
        env=child, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "cannot name a file in the file-system encoding" in proc.stderr
