import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from parkplan.curriculum import CurriculumStage, sample_init
from parkplan.errors import (
    InfeasibleGeometryError,
    SamplingExhaustedError,
    ScenarioFormatError,
)
from parkplan.geometry import Pose2D, VehicleSpec, collides
from parkplan.scenarios import (
    N_MAX_OBSTACLES,
    Scenario,
    bundled_scenarios,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    synth_scenario,
)


def test_minimal_document_roundtrip(tmp_path):
    doc = {
        "id": "empty",
        "initial_pose": [0.0, 0.0, 0.0],
        "target_pose": [4.0, 1.0, 0.5],
        "obstacles": [],
    }
    s = scenario_from_dict(doc)
    assert s.obstacles.shape == (0, 2)
    path = tmp_path / "empty.json"
    save_scenario(s, path)
    again = load_scenario(path)
    assert again.id == s.id
    assert again.initial_pose == s.initial_pose
    assert again.target_pose == s.target_pose


def test_roundtrip_preserves_every_float(tmp_path):
    s = synth_scenario("corridor")
    path = tmp_path / "c.json"
    save_scenario(s, path)
    again = load_scenario(path)
    assert again.initial_pose == s.initial_pose
    assert again.target_pose == s.target_pose
    np.testing.assert_array_equal(again.obstacles, s.obstacles)


def test_missing_file_raises():
    with pytest.raises(FileNotFoundError):
        load_scenario("/nonexistent/scenario.json")


def _doc(**fields):
    return {"id": "x", "initial_pose": [0, 0, 0], "target_pose": [1, 0, 0],
            "obstacles": [[5.0, 1]], **fields}


MALFORMED_DOCUMENTS = [
    ("{not json", "not UTF-8 JSON"),
    (json.dumps({"id": "x"}), "initial_pose"),
    # triples would otherwise be re-cut into made-up (x, y) points
    (json.dumps(_doc(obstacles=[[5, 1, 9], [6, 2, 9]])), r"\(N, 2\)"),
    # a string is no pose, though float() reads "123" as (1, 2, 3)
    (json.dumps(_doc(initial_pose="123")), "initial_pose must be three numbers"),
    (json.dumps(_doc(initial_pose=["1", "2", "3"])), "initial_pose"),
    (json.dumps(_doc(target_pose=[True, False, 1])), "target_pose"),
    (json.dumps(_doc(obstacles=[[5, 1], ["1", "2"]])), "pairs of numbers"),
    (json.dumps(_doc(obstacles=[[True, 5]])), "pairs of numbers"),
    (json.dumps(_doc(obstacles=[5, 1])), "not iterable"),
    (json.dumps(_doc(obstacles="5 1")), "pairs of numbers"),
    (json.dumps(_doc(id=None)), "id must be a string"),
    (json.dumps(_doc(id=7)), "id must be a string"),
    # a misspelt key would otherwise leave a scene without its walls
    (json.dumps(_doc(obstacle=[[5, 1]])), r"unknown scenario keys \['obstacle'\]"),
    # outputs are named <id>.svg: an id must name one file in the output directory
    *[(json.dumps(_doc(id=sid)), "usable as one file name")
      for sid in ("", ".", "..", "../escaped", "a/b", "a\\b", "a\0b")],
]


def test_malformed_document_raises(tmp_path):
    p = tmp_path / "bad.json"
    for text, what in MALFORMED_DOCUMENTS:
        p.write_text(text)
        with pytest.raises(ScenarioFormatError, match=what):
            load_scenario(p)


def test_obstacle_count_limit():
    pts = np.zeros((N_MAX_OBSTACLES + 1, 2))
    pts[:, 0] = np.linspace(50, 60, N_MAX_OBSTACLES + 1)
    with pytest.raises(ScenarioFormatError):
        scenario_from_dict(
            {
                "id": "big",
                "initial_pose": [0, 0, 0],
                "target_pose": [1, 0, 0],
                "obstacles": pts.tolist(),
            }
        )


def test_colliding_target_rejected():
    with pytest.raises(ScenarioFormatError):
        scenario_from_dict(
            {
                "id": "bad-target",
                "initial_pose": [10, 10, 0],
                "target_pose": [0, 0, 0],
                "obstacles": [[0.0, 0.0]],
            }
        )


def test_colliding_initial_pose_rejected():
    with pytest.raises(ScenarioFormatError, match="initial pose collides"):
        scenario_from_dict(
            {
                "id": "bad-start",
                "initial_pose": [0, 0, 0],
                "target_pose": [10, 10, 0],
                "obstacles": [[0.0, 0.0]],
            }
        )


def test_id_keeps_the_characters_csv_quotes():
    sid = 'a,"b"\nc'
    assert scenario_from_dict(_doc(id=sid)).id == sid


@pytest.mark.parametrize("content, what", [
    (b"\xff\xfe{}", "not UTF-8 JSON"),
    (b"[1, 2]", "must be a JSON object"),
    (b"5", "must be a JSON object"),
], ids=["not-utf8", "list", "number"])
@pytest.mark.parametrize("load", [load_scenario])
def test_loaders_reject_a_file_that_is_no_json_object(tmp_path, load, content, what):
    p = tmp_path / "bad.json"
    p.write_bytes(content)
    with pytest.raises(ScenarioFormatError, match=what):
        load(p)


@pytest.mark.parametrize("kind", ["perpendicular_bay", "corridor", "dead_end"])
def test_synth_archetypes_valid(kind, spec):
    s = synth_scenario(kind)
    s.validate()
    assert not collides(s.target_pose, spec, s.obstacles)
    assert not collides(s.initial_pose, spec, s.obstacles)
    # contours sampled densely
    assert s.obstacles.shape[0] > 100


def test_perpendicular_bay_geometry(spec):
    s = synth_scenario("perpendicular_bay", bay_width=2.6, bay_depth=5.5)
    # walls on three sides of the bay: points below the corridor line
    below = s.obstacles[s.obstacles[:, 1] < -1e-9]
    assert below.shape[0] > 50
    assert math.isclose(s.target_pose.theta, math.pi / 2)
    # nose points out of the bay
    assert s.target_pose.y < 0


def test_corridor_matches_facing_bay_topology():
    s = synth_scenario("corridor", corridor_width=6.0)
    # a facing wall runs parallel to the corridor axis at the far side
    far = s.obstacles[np.isclose(s.obstacles[:, 1], 6.0)]
    assert far.shape[0] > 50
    # bay axis orthogonal to corridor axis
    assert math.isclose(s.target_pose.theta, math.pi / 2)


def test_bay_and_corridor_share_one_wall_layout():
    bay = synth_scenario("perpendicular_bay", corridor_length=26.0, bay_width=2.7)
    corridor = synth_scenario("corridor", corridor_length=26.0)
    assert np.array_equal(bay.obstacles, corridor.obstacles)
    assert bay.target_pose == corridor.target_pose
    # one start rule: 3 m into the lane from its open end
    assert bay.initial_pose == corridor.initial_pose == Pose2D(-10.0, 3.0, 0.0)


# SHA-1 of the obstacle array and the two poses of each archetype at its
# defaults, recorded when the archetypes became rows of one defaults table
ARCHETYPE_PINS = {
    "perpendicular_bay": ("c133e4719c59001ec805dfab9c24aebf1e79e3ef", (-6.0, 3.0, 0.0)),
    "corridor": ("82453136af84b6383644866de983138a6d0875c3", (-10.0, 3.0, 0.0)),
    "dead_end": ("894c8b260a449e54669fbe9c0c4adc5a388d1768", (-8.1, 3.0, 0.0)),
}


@pytest.mark.parametrize("kind", sorted(ARCHETYPE_PINS))
def test_archetype_defaults_are_pinned(kind):
    digest, start = ARCHETYPE_PINS[kind]
    s = synth_scenario(kind)
    assert s.id == kind
    assert s.obstacles.dtype == np.float64
    assert hashlib.sha1(s.obstacles.tobytes()).hexdigest() == digest
    assert s.initial_pose == Pose2D(*start)
    assert s.target_pose == Pose2D(0.0, -4.2, math.pi / 2.0)


@pytest.mark.parametrize("kind", ["perpendicular_bay", "corridor"])
def test_open_lane_rejects_end_clearance(kind):
    with pytest.raises(TypeError, match="end_clearance"):
        synth_scenario(kind, end_clearance=3.5)


def test_dead_end_closing_wall_position():
    bay_width, end_clearance = 2.6, 4.5
    s = synth_scenario("dead_end", bay_width=bay_width, end_clearance=end_clearance)
    end_x = bay_width / 2.0 + end_clearance
    assert s.obstacles[:, 0].max() == pytest.approx(end_x, abs=1e-12)
    closing = s.obstacles[np.abs(s.obstacles[:, 0] - end_x) < 1e-12]
    # the closing wall spans the lane, from the near edge to the facing wall
    assert closing[:, 1].min() == 0.0 and closing[:, 1].max() == 6.0
    assert closing.shape[0] > 50


def test_too_narrow_bay_rejected():
    with pytest.raises(InfeasibleGeometryError):
        synth_scenario("perpendicular_bay", bay_width=1.9)


def test_unknown_kind_rejected():
    with pytest.raises(ScenarioFormatError):
        synth_scenario("parallel")


# -- rollout sampler ---------------------------------------------------------


def open_scenario():
    return Scenario(
        "open",
        Pose2D(0, 0, 0),
        Pose2D(0, 0, 0),
        np.empty((0, 2)),
    )


def one_stage(steps, heading_mode="inherit", heading_range=(0.0, 0.0)):
    """A one-stage table, so that sample_init has no stage to fall back to."""
    return (CurriculumStage(1, steps, heading_mode, heading_range, 100),)


def sample(scenario, spec, table, rng):
    return sample_init(table[0], scenario, spec, rng, table)


def test_rollout_zero_steps_returns_target(spec):
    s = open_scenario()
    pose = sample(s, spec, one_stage(0), np.random.default_rng(0))
    assert pose == s.target_pose


def test_rollout_distance_bound_open_space(spec, rng):
    s = open_scenario()
    for _ in range(50):
        pose = sample(s, spec, one_stage(50), rng)
        d = math.hypot(pose.x - s.target_pose.x, pose.y - s.target_pose.y)
        assert 0 < d <= 50 * 0.08 + 1e-12
        assert not collides(pose, spec, s.obstacles)


def test_rollout_deterministic_for_seed(spec):
    s = synth_scenario("perpendicular_bay")
    table = one_stage(40, "resample", (-0.5, 0.5))
    a = sample(s, spec, table, np.random.default_rng(7))
    b = sample(s, spec, table, np.random.default_rng(7))
    assert a == b


def test_rollout_poses_always_collision_free(spec, rng):
    s = synth_scenario("dead_end")
    for _ in range(100):
        pose = sample(s, spec, one_stage(80, "resample", (-1.0, 1.0)), rng)
        assert not collides(pose, spec, s.obstacles)


def test_rollout_blocked_by_wall_never_crosses(spec, rng):
    # wall sealing the bay mouth except for the lane the rollout drives out
    s = synth_scenario("perpendicular_bay")
    wall_y = 4.0
    xs = np.linspace(-15, 15, 301)
    wall = np.stack([xs, np.full_like(xs, wall_y)], axis=1)
    blocked = Scenario("walled", s.initial_pose, s.target_pose,
                       np.concatenate([s.obstacles, wall]))
    for _ in range(50):
        pose = sample(blocked, spec, one_stage(120), rng)
        assert not collides(pose, spec, blocked.obstacles)
        # the footprint cannot pass the wall, so the axle stays below it
        assert pose.y < wall_y


def test_rollout_heading_resample_exhaustion(spec):
    # boxed so tightly that no heading ever clears: target in minimal bay
    s = synth_scenario("perpendicular_bay", bay_width=2.4, bay_depth=5.6)
    table = one_stage(0, "resample", (math.pi / 2 - 0.02, math.pi / 2))
    with pytest.raises(SamplingExhaustedError):
        sample(s, spec, table, np.random.default_rng(3))


# -- obstacle filter ----------------------------------------------------------


def test_world_is_built_once_per_spec_and_obstacle_array(spec):
    s = synth_scenario("perpendicular_bay")
    world = s.world(spec)
    assert s.world(VehicleSpec()) is world
    other = s.world(VehicleSpec(width=1.8))
    assert other is not world and s.world(spec) is world
    s.obstacles = s.obstacles.copy()
    rebuilt = s.world(spec)
    assert rebuilt is not world and rebuilt.obstacles is s.obstacles
    assert s.world(spec) is rebuilt


def test_bundled_pack_present_and_valid(spec):
    pack = bundled_scenarios()
    assert len(pack) >= 12
    kinds = {"perpendicular_bay": 0, "corridor": 0, "dead_end": 0}
    for s in pack:
        s.validate()
        assert not collides(s.initial_pose, spec, s.obstacles)
        for k in kinds:
            if s.id.startswith(k):
                kinds[k] += 1
    assert all(v >= 4 for v in kinds.values()), kinds


def test_pack_script_regenerates_the_bundled_files_byte_for_byte(tmp_path):
    # the script's own output directory is the package data, so its
    # scenarios are written under tmp_path here instead
    root = Path(__file__).resolve().parents[1]
    script = root / "scripts" / "make_bundled_scenarios.py"
    spec = importlib.util.spec_from_file_location("make_bundled_scenarios", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    committed = sorted((root / "src" / "parkplan" / "data" / "scenarios").glob("*.json"))
    built = module.build_all()
    assert sorted(f"{s.id}.json" for s in built) == [p.name for p in committed]
    for s in built:
        save_scenario(s, tmp_path / f"{s.id}.json")
    for p in committed:
        assert (tmp_path / p.name).read_bytes() == p.read_bytes(), p.name


def test_pack_script_runs_from_a_bare_checkout(tmp_path):
    # the package cannot be installed offline, so the script finds the
    # checkout's src itself, from any working directory
    script = Path(__file__).resolve().parents[1] / "scripts" / "make_bundled_scenarios.py"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, str(script), "--help"], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "--check-planner" in proc.stdout
