import math

import numpy as np
import pytest

from parkplan.curriculum import (
    CurriculumStage,
    default_stages,
    sample_init,
    stage_schedule,
)
from parkplan.errors import ConfigurationError, SamplingExhaustedError
from parkplan.geometry import Pose2D, collides
from parkplan.scenarios import Scenario, bundled_scenarios, synth_scenario


def test_default_stage_table():
    stages = default_stages()
    assert len(stages) == 8
    assert [s.max_episode_len for s in stages] == [100, 200, 400, 400, 800, 800, 800, 1000]
    assert [s.heading_mode for s in stages[:2]] == ["inherit", "inherit"]
    assert all(s.heading_mode == "resample" for s in stages[2:7])
    assert stages[7].heading_mode == "logged"
    steps = [s.rollout_steps for s in stages]
    assert steps == sorted(steps)


def test_schedule_partition():
    blocks = stage_schedule(80)
    assert len(blocks) == 8
    assert blocks[0][0] == range(0, 10)
    assert blocks[-1][0] == range(70, 80)
    # uneven split: earlier stages absorb the remainder
    blocks = stage_schedule(11)
    sizes = [len(b[0]) for b in blocks]
    assert sum(sizes) == 11 and max(sizes) - min(sizes) == 1


def test_schedule_requires_enough_iterations():
    with pytest.raises(ConfigurationError):
        stage_schedule(7)


def test_stage_lookup_edges():
    stage_of = {update: stage for block, stage in stage_schedule(80) for update in block}
    assert stage_of[0].index == 1
    assert stage_of[79].index == 8
    assert stage_of[39].index == 4
    assert stage_of[40].max_episode_len == 800


def test_stage8_uses_logged_pose(spec, rng):
    s = synth_scenario("perpendicular_bay")
    stage = default_stages()[7]
    assert sample_init(stage, s, spec, rng, default_stages()) == s.initial_pose


def test_stage1_distance_bound_and_inherited_heading(spec, rng):
    s = Scenario("open", Pose2D(0, 0, 0), Pose2D(0, 0, 0), np.empty((0, 2)))
    stages = default_stages()
    stage = stages[0]
    for _ in range(100):
        pose = sample_init(stage, s, spec, rng, stages)
        d = math.hypot(pose.x, pose.y)
        assert d <= stage.rollout_steps * 0.08 + 1e-12
        # inherit mode: final heading produced by the rollout itself; from a
        # straight start, 12 steps of +-8 deg steering stay within the arc bound
        assert abs(pose.theta) <= stage.rollout_steps * 0.08 / spec.min_turn_radius + 1e-9


def test_stage5_heading_inside_range_and_free(spec, rng):
    s = synth_scenario("perpendicular_bay", corridor_width=8.0)
    stages = default_stages()
    stage = stages[4]
    hw = math.radians(52.5)
    for _ in range(50):
        pose = sample_init(stage, s, spec, rng, stages)
        assert not collides(pose, spec, s.obstacles)
    # compare against the same rollout with inherit mode under the same seed:
    # the heading offset must lie inside the stage-5 range
    seed = 99
    inherit = CurriculumStage(5, stage.rollout_steps, "inherit", (0.0, 0.0),
                              stage.max_episode_len)
    base = sample_init(inherit, s, spec, np.random.default_rng(seed), (inherit,))
    resampled = sample_init(stage, s, spec, np.random.default_rng(seed), stages)
    diff = abs(resampled.theta - base.theta)
    diff = min(diff, 2 * math.pi - diff)
    assert diff <= hw + 1e-9
    assert (resampled.x, resampled.y) == (base.x, base.y)


def test_sample_init_deterministic(spec):
    s = synth_scenario("dead_end")
    stages = default_stages()
    stage = stages[3]
    a = sample_init(stage, s, spec, np.random.default_rng(5), stages)
    b = sample_init(stage, s, spec, np.random.default_rng(5), stages)
    assert a == b


def test_mean_distance_nondecreasing_over_stages(spec):
    s = Scenario("open", Pose2D(0, 0, 0), Pose2D(0, 0, 0), np.empty((0, 2)))
    rng = np.random.default_rng(0)
    means = []
    stages = default_stages()
    for stage in stages[:7]:
        d = [
            math.hypot(p.x, p.y)
            for p in (sample_init(stage, s, spec, rng, stages) for _ in range(300))
        ]
        means.append(float(np.mean(d)))
    assert all(b >= a - 1e-9 for a, b in zip(means, means[1:])), means


# first default_rng(0) draw at default stages 1-7, as (x, y, theta) in hex;
# the bundled bays share their target pose and their near walls, so both
# scenes give the same poses
PINNED_POSES = [
    ("0x1.424be1c8e5600p-9", "-0x1.9eb93aa683c1cp+1", "0x1.96000eca70a2ep+0"),
    ("-0x1.c73674cbce958p-6", "-0x1.19a9b8706c410p+1", "0x1.97eb4899d7b5ap+0"),
    ("-0x1.3ff11d10fd402p-3", "-0x1.a3e369bbc04c4p-3", "0x1.cb116582cd9c6p+0"),
    ("-0x1.cd86aafbe55ecp-3", "0x1.cae249ebbdbdbp+0", "0x1.787ec8d6b3886p+0"),
    ("-0x1.c79dc2b147cc6p-3", "0x1.0428e559fec27p+1", "0x1.047568e8049bap+1"),
    ("-0x1.c79dc2b147cc6p-3", "0x1.0428e559fec27p+1", "0x1.1a0cd199b19d0p+1"),
    ("-0x1.c79dc2b147cc6p-3", "0x1.0428e559fec27p+1", "0x1.2fa43a4b5e9e6p+1"),
]


@pytest.mark.parametrize("scenario_id", ["perpendicular_bay-01", "dead_end-01"])
def test_sample_init_poses_pinned(spec, scenario_id):
    s = next(s for s in bundled_scenarios() if s.id == scenario_id)
    stages = default_stages()
    for stage, expected in zip(stages[:7], PINNED_POSES):
        p = sample_init(stage, s, spec, np.random.default_rng(0), stages)
        assert (p.x.hex(), p.y.hex(), p.theta.hex()) == expected, stage.index


def test_sample_init_rejects_a_stage_missing_from_the_table(spec, rng):
    s = synth_scenario("perpendicular_bay")
    stages = default_stages()
    stray = CurriculumStage(9, 5, "inherit", (0.0, 0.0), 50)
    with pytest.raises(ConfigurationError, match="stage 9"):
        sample_init(stray, s, spec, rng, stages)
    with pytest.raises(ConfigurationError):
        sample_init(stages[7], s, spec, rng, stages[:7])


def test_sample_init_falls_back_through_the_callers_table(spec):
    # no heading in [80, 100] deg off the target's clears the bay walls
    s = synth_scenario("perpendicular_bay")
    first = CurriculumStage(1, 5, "inherit", (0.0, 0.0), 50)
    tight = CurriculumStage(2, 0, "resample",
                            (math.radians(80), math.radians(100)), 50)
    with pytest.raises(SamplingExhaustedError):
        sample_init(tight, s, spec, np.random.default_rng(0), (tight,))
    pose = sample_init(tight, s, spec, np.random.default_rng(0), (first, tight))
    assert not collides(pose, spec, s.obstacles)
    d = math.hypot(pose.x - s.target_pose.x, pose.y - s.target_pose.y)
    assert 0 < d <= first.rollout_steps * 0.08 + 1e-12
