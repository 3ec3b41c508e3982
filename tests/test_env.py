import math

import numpy as np
import pytest

import parkplan.env as env_module
from parkplan.env import (
    DEFAULT_K,
    EnvConfig,
    ParkingEnv,
    RewardConfig,
    begin_replay,
    build_observation,
    check_goal,
    load_replay,
    observation_batch,
    observe_batch,
    replay_steps,
    save_replay,
)
from parkplan.errors import InputError, ProtocolError, ResetRejectedError
from parkplan.curriculum import default_stages, sample_init
from parkplan.geometry import (
    Pose2D,
    VehicleSpec,
    ego_to_world,
    transform_to_ego,
    transform_to_world,
    world_to_ego,
)
from parkplan.kinematics import VehicleState
from parkplan.policy import batch_observations
from parkplan.scenarios import Scenario, bundled_scenarios, synth_scenario


def open_scenario(target=Pose2D(0, 0, 0), obstacles=None):
    obs = np.empty((0, 2)) if obstacles is None else np.asarray(obstacles, dtype=float)
    return Scenario("open", Pose2D(-5, 0, 0), target, obs)


def make_env(**kw):
    return ParkingEnv(**kw)


# -- goal check ---------------------------------------------------------------


def test_goal_at_exact_pose(spec):
    cfg = RewardConfig()
    assert check_goal(VehicleState(1, 2, 0.3, 0), Pose2D(1, 2, 0.3), spec, cfg)


def test_goal_longitudinal_offset(spec):
    cfg = RewardConfig()
    # aligned poses: center offset equals the axle offset
    assert check_goal(VehicleState(0.19, 0, 0, 0), Pose2D(0, 0, 0), spec, cfg)
    assert not check_goal(VehicleState(0.21, 0, 0, 0), Pose2D(0, 0, 0), spec, cfg)


def test_goal_heading_tolerance(spec):
    cfg = RewardConfig()
    ok = VehicleState(0, 0, math.radians(2.9), 0)
    bad = VehicleState(0, 0, math.radians(3.5), 0)
    # heading rotation moves the center slightly; compare at the same center
    assert not check_goal(bad, Pose2D(0, 0, 0), spec, cfg)
    assert check_goal(ok, Pose2D(0, 0, 0), spec, cfg) == (
        math.hypot(*np.subtract(spec.geometric_center(ok), spec.geometric_center(Pose2D(0, 0, 0)))) <= cfg.goal_pos_tol
    )


# -- observation --------------------------------------------------------------


def test_observation_no_obstacles(spec):
    obs = build_observation(VehicleState(0, 0, 0, 0), Pose2D(3, 0, 0), np.empty((0, 2)))
    assert obs["tokens"].shape == (1, DEFAULT_K, 2) and obs["mask"].shape == (1, DEFAULT_K)
    assert not obs["mask"].any()
    assert np.all(obs["tokens"] == 0)


def test_observation_goal_at_self(spec):
    obs = build_observation(VehicleState(2, 1, 0.4, 0), Pose2D(2, 1, 0.4), np.empty((0, 2)))
    np.testing.assert_allclose(obs["feats"][0, 2:], [0, 0, 0, 1], atol=1e-12)


def test_observation_goal_five_meters_ahead(spec):
    obs = build_observation(
        VehicleState(-5, 0, 0, 0), Pose2D(0, 0, 0), np.empty((0, 2)), horizon=15.0
    )
    np.testing.assert_allclose(obs["feats"][0, 2:], [5.0 / 15.0, 0, 0, 1], atol=1e-12)


def test_observation_range_boundary_kept(spec):
    obs = build_observation(
        VehicleState(0, 0, 0, 0), Pose2D(1, 0, 0),
        np.array([[15.0, 0.0]]), horizon=15.0, k=4,
    )
    assert obs["mask"][0, 0] and not obs["mask"][0, 1:].any()
    np.testing.assert_allclose(obs["tokens"][0, 0], [1.0, 0.0], atol=1e-12)


def test_observation_beyond_range_dropped(spec):
    obs = build_observation(
        VehicleState(0, 0, 0, 0), Pose2D(1, 0, 0),
        np.array([[15.0001, 0.0]]), horizon=15.0, k=4,
    )
    assert obs["mask"].shape == (1, 4) and not obs["mask"].any()


def test_observation_nearest_k_matches_bruteforce(rng):
    k = 16
    for _ in range(50):
        state = VehicleState(
            rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-math.pi, math.pi), 0
        )
        pts = rng.uniform(-12, 12, size=(2 * k, 2))
        obs = build_observation(state, Pose2D(0, 0, 0), pts, horizon=15.0, k=k)
        # brute force: sort by distance to the ego, stable on index
        rel = pts - [state.x, state.y]
        c, s = math.cos(state.theta), math.sin(state.theta)
        local = np.stack([c * rel[:, 0] + s * rel[:, 1],
                          -s * rel[:, 0] + c * rel[:, 1]], axis=1)
        d = np.hypot(local[:, 0], local[:, 1])
        keep = [i for i in np.argsort(d, kind="stable") if d[i] <= 15.0][:k]
        expected = local[keep] / 15.0
        got = obs["tokens"][0][obs["mask"][0]]
        np.testing.assert_allclose(got, expected, atol=1e-12)


def test_observation_bounded(rng):
    for _ in range(100):
        state = VehicleState(
            rng.uniform(-40, 40), rng.uniform(-40, 40),
            rng.uniform(-math.pi, math.pi), rng.uniform(-0.5, 0.5),
        )
        pts = rng.uniform(-60, 60, size=(64, 2))
        obs = build_observation(state, Pose2D(*rng.uniform(-50, 50, 2), 0.0), pts)
        ego_steer = obs["feats"][0, 0]
        assert abs(ego_steer) <= 1.0 or abs(ego_steer) <= 0.5 / math.radians(32)
        assert np.all(np.abs(obs["feats"][0, 2:]) <= 1.0 + 1e-12)
        assert np.all(np.abs(obs["tokens"][0]) <= 1.0 + 1e-12)


def test_observation_ego_frame_invariance(rng):
    spec = VehicleSpec()
    for _ in range(50):
        state = VehicleState(1.0, -2.0, 0.7, 0.1)
        goal = Pose2D(4.0, 1.0, 1.2)
        pts = rng.uniform(-10, 10, size=(32, 2))
        frame = Pose2D(*rng.uniform(-20, 20, 2), rng.uniform(-math.pi, math.pi))
        moved_state = VehicleState.from_pose(
            ego_to_world(frame, state), state.delta
        )
        a = build_observation(state, goal, pts, gear=1)
        b = build_observation(
            moved_state, ego_to_world(frame, goal), transform_to_world(pts, frame),
            gear=1,
        )
        np.testing.assert_allclose(a["feats"][0, 2:], b["feats"][0, 2:], atol=1e-9)
        np.testing.assert_allclose(a["tokens"][0], b["tokens"][0], atol=1e-9)
        np.testing.assert_array_equal(a["mask"][0], b["mask"][0])


def row_by_row(state, goal, pts, horizon, k, gear):
    """One observation's feats, tokens and mask, built directly: the goal
    through world_to_ego, the points through transform_to_ego, and a
    stable sort by range only when more than k points are in range."""
    rel = world_to_ego(state, goal)
    feats = [state.delta / VehicleSpec.max_steer, float(gear),
             np.clip(rel.x / horizon, -1.0, 1.0), np.clip(rel.y / horizon, -1.0, 1.0),
             math.sin(rel.theta), math.cos(rel.theta)]
    local = transform_to_ego(np.asarray(pts, dtype=float).reshape(-1, 2), state)
    ranges = np.hypot(local[:, 0], local[:, 1])
    local, ranges = local[ranges <= horizon], ranges[ranges <= horizon]
    if local.shape[0] > k:
        local = local[np.argsort(ranges, kind="stable")[:k]]
    tokens = np.zeros((k, 2))
    tokens[: local.shape[0]] = local / horizon
    return np.array(feats), tokens, np.arange(k) < local.shape[0]


def assert_batch_is_row_builds(states, gears, goals, obstacles, horizon, k):
    # the batch equals stacked one-row builds and the direct build, bit for bit
    with np.errstate(all="raise"):
        got = observation_batch(states, gears, goals, obstacles, horizon, k,
                                VehicleSpec.max_steer)
        stacked = batch_observations([
            build_observation(st, g, pts, horizon=horizon, k=k, gear=gear)
            for st, gear, g, pts in zip(states, gears, goals, obstacles)
        ])
        direct = [row_by_row(st, g, pts, horizon, k, gear)
                  for st, gear, g, pts in zip(states, gears, goals, obstacles)]
    for i, key in enumerate(("feats", "tokens", "mask")):
        want = np.stack([row[i] for row in direct])
        for have in (got[key], stacked[key]):
            assert have.shape == want.shape and have.dtype == want.dtype, key
            assert have.tobytes() == want.tobytes(), key
    return got


def test_observation_batch_pads_the_bundled_scenes(spec, rng):
    # one row per bundled scene: arrays of 475 to 726 points, padded to
    # the longest
    stages = default_stages()
    scenes = bundled_scenarios()
    states = [
        VehicleState.from_pose(
            sample_init(stages[i % len(stages)], s, spec, rng, stages=stages),
            delta=float(rng.uniform(-spec.max_steer, spec.max_steer)),
        )
        for i, s in enumerate(scenes)
    ]
    gears = [int(g) for g in rng.integers(-1, 2, size=len(scenes))]
    goals = [s.target_pose for s in scenes]
    obstacles = [s.obstacles for s in scenes]
    got = assert_batch_is_row_builds(states, gears, goals, obstacles, 15.0, 256)
    assert got["mask"].all()  # every row is cut to k
    # k above every scene's point count: no row is cut
    got = assert_batch_is_row_builds(states, gears, goals, obstacles, 15.0, 800)
    assert not got["mask"][:, 726:].any()
    # one scene's array shared by every row, as collection batches its workers
    bay = scenes[8]
    assert_batch_is_row_builds(states, gears, [bay.target_pose] * len(scenes),
                               [bay.obstacles] * len(scenes), 15.0, 64)


def test_observation_batch_edge_rows(rng):
    pts = np.concatenate([rng.uniform(-20, 20, size=(120, 2)), rng.uniform(-5, 5, size=(40, 2))])
    # five points at range 5 exactly, then 38 nearer ones: with k = 40 the
    # cut falls among the five, and the first two by index stay
    ties = np.array([(3.0, 4.0), (-4.0, 3.0), (0.0, -5.0), (5.0, 0.0), (4.0, -3.0)]
                    + [(0.1 * i, 0.0) for i in range(38)])
    goal = Pose2D(2.0, -1.0, math.pi)
    states = [
        VehicleState(0.0, 0.0, 0.3, 0.1),  # more than k points in range
        VehicleState(0.0, 0.0, 0.0, 0.0),  # range ties at the cut
        VehicleState(24.0, 24.0, -2.0, 0.0),  # fewer than k in range
        VehicleState(200.0, -150.0, 1.0, -0.2),  # none in range
        VehicleState(0.0, 0.0, 0.0, 0.0),  # an empty obstacle array
        # the heading difference rounds to just above pi, which wraps to -pi
        # and then to pi
        VehicleState(1.0, 1.0, -4.440892098500626e-16, 0.0),
    ]
    obstacles = [pts, ties, pts, pts, np.empty((0, 2)), pts]
    got = assert_batch_is_row_builds(states, [1, 1, -1, 0, 1, 0], [goal] * 6, obstacles,
                                     15.0, 40)
    kept = got["mask"].sum(axis=1)
    assert kept[0] == kept[1] == 40 and 0 < kept[2] < 40 and kept[3] == kept[4] == 0
    assert got["tokens"][1, 38:].tolist() == [[3 / 15, 4 / 15], [-4 / 15, 3 / 15]]
    assert got["feats"][5, 4:].tolist() == [math.sin(math.pi), math.cos(math.pi)]


def test_batch_observations_of_mixed_batches_is_observe_batch(spec, rng):
    # one-row batches and a multi-row observe_batch result joined in order
    # are the batch of all the envs, bit for bit
    stages = default_stages()
    scenes = bundled_scenarios()[:5]
    envs = [make_env() for _ in scenes]
    for i, (e, s) in enumerate(zip(envs, scenes)):
        e.reset(s, sample_init(stages[i % len(stages)], s, spec, rng, stages=stages), 50)
        e.chunk_step([int(a) for a in rng.integers(0, 8, size=3)])
    mixed = batch_observations([envs[0].observe(), observe_batch(envs[1:4]), envs[4].observe()])
    whole = observe_batch(envs)
    for key in ("feats", "tokens", "mask"):
        assert mixed[key].shape[0] == len(envs), key
        assert mixed[key].shape == whole[key].shape and mixed[key].dtype == whole[key].dtype, key
        assert mixed[key].tobytes() == whole[key].tobytes(), key


# -- stepping and rewards ------------------------------------------------------


def test_fresh_env_has_no_episode():
    env = make_env()
    for read in (env.observe, lambda: env.state, env.replay_log, env.displacements,
                 lambda: observe_batch([env])):
        with pytest.raises(ProtocolError, match="no episode has started"):
            read()


def test_reset_rejects_colliding_pose():
    env = make_env()
    s = open_scenario(obstacles=[[0.0, 0.0]])
    with pytest.raises(ResetRejectedError):
        env.reset(s, Pose2D(0, 0, 0), 100)


def test_plain_forward_step_reward():
    env = make_env()
    env.reset(open_scenario(target=Pose2D(20, 0, 0)), Pose2D(-5, 0, 0), 100)
    out = env.step_primitive(1)
    assert out.reward == -0.01
    assert not out.done


def test_goal_step_reward():
    env = make_env()
    env.reset(open_scenario(target=Pose2D(0, 0, 0)), Pose2D(-0.05, 0, 0), 100)
    out = env.step_primitive(1)
    assert out.info["goal_reached"]
    assert out.done
    assert math.isclose(out.reward, 2.99)


def test_collision_step_reward():
    env = make_env()
    s = open_scenario(target=Pose2D(30, 0, 0), obstacles=[[4.0, 0.0]])
    env.reset(s, Pose2D(0, 0, 0), 100)
    out = env.step_primitive(1)
    assert out.info["collided"] and out.done
    assert math.isclose(out.reward, -3.01)


def test_presteer_step_reward():
    env = make_env()
    env.reset(open_scenario(target=Pose2D(20, 0, 0)), Pose2D(-5, 0, 0), 100)
    out = env.step_primitive(6)
    assert out.info["idle"]
    assert math.isclose(out.reward, -0.21)


def test_gear_change_step_reward():
    env = make_env()
    env.reset(open_scenario(target=Pose2D(20, 0, 0)), Pose2D(-5, 0, 0), 100)
    env.step_primitive(1)
    out = env.step_primitive(4)
    assert out.info["direction_change"]
    assert math.isclose(out.reward, -0.02)


def test_idle_does_not_reset_gear_memory():
    env = make_env()
    env.reset(open_scenario(target=Pose2D(20, 0, 0)), Pose2D(-5, 0, 0), 100)
    env.step_primitive(1)  # forward: gear +1
    env.step_primitive(6)  # pre-steer: idle, keeps gear
    out = env.step_primitive(4)  # reverse: change vs last nonzero sign
    assert out.info["direction_change"]


def test_out_of_bounds_far_from_target():
    env = make_env(cfg=EnvConfig(max_target_range=30.0))
    env.reset(open_scenario(target=Pose2D(0, 0, 0)), Pose2D(-29.9, 0, math.pi), 10_000)
    out = None
    for _ in range(100):
        out = env.step_primitive(1)  # drive away from the target
        if out.done:
            break
    assert out.info["out_of_bounds"]
    assert math.isclose(out.reward, -3.01)


def test_truncation_at_step_limit():
    env = make_env()
    env.reset(open_scenario(target=Pose2D(20, 0, 0)), Pose2D(-5, 0, 0), 3)
    env.step_primitive(1)
    env.step_primitive(1)
    out = env.step_primitive(1)
    assert out.done and out.info["truncated"]
    assert out.reward == -0.01  # no terminal bonus or penalty
    assert not (out.info["goal_reached"] or out.info["collided"] or out.info["out_of_bounds"])


def test_step_after_done_raises():
    env = make_env()
    env.reset(open_scenario(target=Pose2D(0, 0, 0)), Pose2D(-0.05, 0, 0), 100)
    env.step_primitive(1)
    with pytest.raises(ProtocolError):
        env.step_primitive(1)


def test_terminal_cause_exclusive(rng):
    env = make_env()
    s = synth_scenario("perpendicular_bay")
    for _ in range(30):
        env.reset(s, s.initial_pose, 60)
        done = False
        while not done:
            out = env.step_primitive(int(rng.integers(8)))
            done = out.done
        causes = [
            out.info["goal_reached"], out.info["collided"],
            out.info["out_of_bounds"], out.info["truncated"],
        ]
        assert sum(causes) == 1


def test_reward_decomposition_matches_flags(rng):
    # the reward equation, computed here from the config and the emitted
    # flags in the equation's term order, must give the env's reward bits
    env = make_env()
    cfg = env.reward_cfg
    s = synth_scenario("perpendicular_bay")
    env.reset(s, s.initial_pose, 200)
    done = False
    while not done:
        out = env.step_primitive(int(rng.integers(8)))
        info = out.info
        assert info["primitives_executed"] == 1
        want = (cfg.goal_reward * float(info["goal_reached"])
                + cfg.collision_penalty * float(info["collided"])
                + cfg.out_of_bounds_penalty * float(info["out_of_bounds"])
                + cfg.gear_change_penalty * float(info["direction_change"])
                + cfg.idle_penalty * float(info["idle"])
                + cfg.time_penalty)
        assert out.reward == want
        done = out.done


# -- chunk wrapper -------------------------------------------------------------


def test_chunk_uneventful_sum():
    env = make_env()
    env.reset(open_scenario(target=Pose2D(20, 0, 0)), Pose2D(-5, 0, 0), 100)
    out = env.chunk_step([1, 1, 1, 1])
    assert math.isclose(out.reward, -0.04)
    assert not out.done
    assert out.info["primitives_executed"] == 4


def test_chunk_breaks_on_collision():
    env = make_env()
    s = open_scenario(target=Pose2D(30, 0, 0), obstacles=[[4.05, 0.0]])
    env.reset(s, Pose2D(0, 0, 0), 100)
    out = env.chunk_step([1, 1, 1, 1])
    assert out.done and out.info["collided"]
    assert out.info["primitives_executed"] == 2
    assert math.isclose(out.reward, -0.01 + -3.01)


def test_chunk_of_one_equals_primitive():
    for idx in range(8):
        e1, e2 = make_env(), make_env()
        s = open_scenario(target=Pose2D(20, 0, 0))
        e1.reset(s, Pose2D(-5, 0, 0), 100)
        e2.reset(s, Pose2D(-5, 0, 0), 100)
        a = e1.chunk_step([idx])
        b = e2.step_primitive(idx)
        assert a.reward == b.reward and a.done == b.done
        assert e1.state == e2.state


def test_chunk_additivity_random(rng, monkeypatch):
    built = []

    def counting_build(*args, **kwargs):
        built.append(1)
        return build_observation(*args, **kwargs)

    monkeypatch.setattr(env_module, "build_observation", counting_build)
    s = synth_scenario("perpendicular_bay")
    for _ in range(200):
        h = int(rng.choice([1, 2, 4, 8]))
        chunk = [int(a) for a in rng.integers(0, 8, size=h)]
        e1, e2 = make_env(), make_env()
        e1.reset(s, s.initial_pose, 50)
        e2.reset(s, s.initial_pose, 50)
        built.clear()
        out = e1.chunk_step(chunk)
        assert len(built) == 1  # one observation per chunk, after its last primitive
        total = 0.0
        done = False
        executed = 0
        for idx in chunk:
            r = e2.step_primitive(idx)
            total += r.reward
            executed += 1
            if r.done:
                done = True
                break
        assert out.reward == total
        assert out.done == done
        assert out.info["primitives_executed"] == executed
        assert e1.state == e2.state
        for key in ("feats", "tokens", "mask"):
            assert out.observation[key].tobytes() == r.observation[key].tobytes(), key


def test_numpy_action_index_replays(tmp_path):
    # a numpy index, as ActionDistribution.greedy() gives, is stored as an
    # int, so the replay file can be written and replayed
    s = synth_scenario("corridor")
    env = make_env()
    env.reset(s, s.initial_pose, 20)
    env.step_primitive(np.int64(1))
    env.chunk_step(np.array([2, 2]))
    log = env.replay_log()
    assert log["actions"] == [1, 2, 2]
    assert all(type(a) is int for a in log["actions"])
    save_replay(log, tmp_path / "replay.json")
    loaded = load_replay(tmp_path / "replay.json")
    assert loaded["actions"] == [1, 2, 2]
    env2 = make_env()
    begin_replay(env2, s, loaded)
    list(replay_steps(env2, loaded["actions"]))
    assert env2.state == env.state


@pytest.mark.parametrize("index", [1.0, np.float64(1.0), "1", None])
def test_non_integer_action_index_rejected(index):
    env = make_env()
    env.reset(open_scenario(target=Pose2D(20, 0, 0)), Pose2D(-5, 0, 0), 100)
    with pytest.raises(InputError, match="not an integer"):
        env.step_primitive(index)
    assert env.replay_log()["actions"] == []


def test_empty_chunk_rejected():
    env = make_env()
    env.reset(open_scenario(target=Pose2D(20, 0, 0)), Pose2D(-5, 0, 0), 100)
    with pytest.raises(InputError):
        env.chunk_step([])


# -- replay ---------------------------------------------------------------------


def test_replay_roundtrip(tmp_path, rng):
    s = synth_scenario("corridor")
    env = make_env()
    env.reset(s, s.initial_pose, 120)
    rewards = []
    while True:
        out = env.step_primitive(int(rng.integers(8)))
        rewards.append(out.reward)
        if out.done:
            break
    log = env.replay_log()
    assert "seed" not in log
    # files that still carry the former write-only "seed" key load as before
    save_replay({**log, "seed": 1234}, tmp_path / "replay.json")
    log2 = load_replay(tmp_path / "replay.json")
    env2 = make_env()
    begin_replay(env2, s, log2)
    outcomes = list(replay_steps(env2, log2["actions"]))
    assert [o.reward for o in outcomes] == rewards
    assert env2.state == env.state


@pytest.mark.parametrize("text, what", [
    ('{"init_pose": [0, 0, 0], "actions": [1, 2', "JSON"),
    ('[1, 2, 3]', "object"),
    ('{"actions": [], "max_episode_len": 10}', "init_pose"),
    ('{"init_pose": [0, 0, 0], "max_episode_len": 10}', "actions"),
    ('{"init_pose": [0, 0, 0], "actions": []}', "max_episode_len"),
    ('{"init_pose": [0, 0], "actions": [], "max_episode_len": 10}', "init_pose"),
    ('{"init_pose": [0, "a", 0], "actions": [], "max_episode_len": 10}', "init_pose"),
    ('{"init_pose": [0, NaN, 0], "actions": [], "max_episode_len": 10}', "init_pose"),
    ('{"init_pose": [0, 0, 0], "actions": [1, 8], "max_episode_len": 10}', "action 8"),
    ('{"init_pose": [0, 0, 0], "actions": [-1], "max_episode_len": 10}', "action -1"),
    ('{"init_pose": [0, 0, 0], "actions": [1.5], "max_episode_len": 10}', "action 1.5"),
    ('{"init_pose": [0, 0, 0], "actions": [], "max_episode_len": 0}', "max_episode_len"),
    ('{"init_pose": [0, 0, 0], "actions": [1, 1, 1], "max_episode_len": 2}', "exceed"),
])
def test_load_replay_rejects_malformed_files(tmp_path, text, what):
    path = tmp_path / "replay.json"
    path.write_text(text)
    with pytest.raises(InputError, match=what):
        load_replay(path)


def test_replay_on_another_scenario_rejected(tmp_path):
    s = synth_scenario("corridor")
    env = make_env()
    env.reset(s, s.initial_pose, 20)
    env.step_primitive(1)
    log = env.replay_log()
    with pytest.raises(InputError, match="recorded on 'corridor'"):
        begin_replay(make_env(), synth_scenario("dead_end"), log)
