import math

import numpy as np
import pytest

from parkplan import hybrid_astar, kernels
from parkplan.curriculum import default_stages, sample_init
from parkplan.env import ParkingEnv, RewardConfig, check_goal
from parkplan.errors import ConfigurationError, InputError
from parkplan.geometry import (
    CollisionWorld,
    Pose2D,
    footprint_polygon,
    transform_to_world,
    wrap_angle,
)
from parkplan.hybrid_astar import (
    PlanFailure,
    PlannedPath,
    PlannerConfig,
    analytic_expansion,
    holonomic_heuristic,
    plan,
)
from parkplan.kinematics import VehicleState
from parkplan.reeds_shepp import _SPARSE_STRIDE, rs_sample_points, rs_shortest, rs_sparse_poses
from parkplan.scenarios import Scenario, bundled_scenarios, synth_scenario
from oracles import octile_distance, search_key_oracle

CFG = PlannerConfig()


def open_scenario(start, goal, obstacles=None):
    obs = np.empty((0, 2)) if obstacles is None else np.asarray(obstacles, float)
    return Scenario("t", start, goal, obs)


def sweep_collision_free(path: PlannedPath, scenario: Scenario, spec) -> bool:
    xs = np.array([p.x for p in path.poses])
    ys = np.array([p.y for p in path.poses])
    ths = np.array([p.theta for p in path.poses])
    return not kernels.colliding_poses(
        xs, ys, ths, footprint_polygon(spec), scenario.obstacles
    ).any()


def test_search_keys_equal_the_scalar_oracle(rng):
    n = 4000
    xs = rng.uniform(-40, 40, size=n)
    ys = rng.uniform(-40, 40, size=n)
    ths = rng.uniform(-math.pi, math.pi, size=n)
    # poses on cell and heading-bin boundaries, and headings at and next to
    # -pi and pi: a search arc's end heading can land on -pi exactly
    xs[:500] = rng.integers(-80, 80, size=500) * CFG.xy_resolution
    ys[250:750] = rng.integers(-80, 80, size=500) * CFG.xy_resolution
    ths[:300] = rng.integers(-36, 37, size=300) * CFG.theta_resolution
    edge = [-math.pi, math.pi, np.nextafter(-math.pi, 0.0), np.nextafter(math.pi, 0.0)]
    ths[300:400] = rng.choice(edge, size=100)
    dirs = rng.choice([-1, 1], size=n).tolist()
    keys = hybrid_astar._keys(CFG, xs, ys, ths, dirs)
    assert keys == [
        search_key_oracle(x, y, t, d, CFG.xy_resolution, CFG.theta_resolution)
        for x, y, t, d in zip(xs.tolist(), ys.tolist(), ths.tolist(), dirs)
    ]
    assert all(type(v) is int for key in keys for v in key)
    at_pi = hybrid_astar._keys(
        CFG, np.zeros(2), np.zeros(2), np.array([-math.pi, math.pi]), [1, 1]
    )
    assert at_pi[0] == at_pi[1]


def test_goal_equals_start(spec):
    s = open_scenario(Pose2D(1, 2, 0.3), Pose2D(1, 2, 0.3))
    r = plan(s, spec, CFG)
    assert isinstance(r, PlannedPath)
    assert r.cost == 0.0
    assert r.arcs == []
    assert r.poses[0] == s.initial_pose


def test_open_space_straight(spec):
    s = open_scenario(Pose2D(0, 0, 0), Pose2D(10, 0, 0))
    r = plan(s, spec, CFG)
    assert isinstance(r, PlannedPath)
    rs = rs_shortest(s.initial_pose, s.target_pose, spec.min_turn_radius).total_length
    assert r.length <= 1.1 * 10.0
    assert r.length <= 1.1 * rs
    end = r.poses[-1]
    assert math.hypot(end.x - 10.0, end.y) < 1e-6


def test_open_space_near_optimal_with_zero_penalties(spec, rng):
    cfg = PlannerConfig(
        switch_back_cost=0.0, backward_cost=1.0, steer_angle_cost=0.0,
        steer_change_cost=0.0,
    )
    for _ in range(10):
        start = Pose2D(0, 0, 0)
        goal = Pose2D(
            rng.uniform(-8, 8), rng.uniform(-8, 8), rng.uniform(-math.pi, math.pi)
        )
        r = plan(open_scenario(start, goal), spec, cfg)
        assert isinstance(r, PlannedPath)
        rs = rs_shortest(start, goal, spec.min_turn_radius).total_length
        assert r.length <= rs + 2 * cfg.motion_resolution + 1e-9


def test_colliding_endpoints_raise(spec):
    wall = [[0.5, 0.0]]
    with pytest.raises(InputError):
        plan(open_scenario(Pose2D(0, 0, 0), Pose2D(9, 0, 0), wall), spec, CFG)
    with pytest.raises(InputError):
        plan(open_scenario(Pose2D(-9, 0, 0), Pose2D(0, 0, 0), wall), spec, CFG)
    # a point inside the goal footprint, 41 m from the start, still counts
    far = [[41.0, 0.0]]
    with pytest.raises(InputError):
        plan(open_scenario(Pose2D(0, 0, 0), Pose2D(40, 0, 0), far), spec, CFG)


def test_far_wall_is_seen(spec):
    # a wall halfway along a 54 m query, 27 m from both ends: every
    # obstacle point counts, however far it lies from the start and goal
    ys = np.arange(-30, 31) * 0.1
    wall = np.stack([np.full_like(ys, 27.0), ys], axis=1)
    s = open_scenario(Pose2D(0, 0, 0), Pose2D(54, 0, 0), wall)
    r = plan(s, spec, CFG)
    assert isinstance(r, PlannedPath), r
    assert sweep_collision_free(r, s, spec)
    end = r.poses[-1]
    assert math.hypot(end.x - 54.0, end.y) < 1e-6


def test_search_succeeds_only_through_the_shot(spec, monkeypatch):
    # with every Reeds-Shepp shot failing, reaching the goal's search cell
    # (0.5 m x 5 deg) must not count as success: the env's goal tolerance
    # is 0.2 m and 3 deg
    monkeypatch.setattr(hybrid_astar, "analytic_expansion", lambda *a: None)
    goal = Pose2D(5.5, -0.4, 0.05)
    s = open_scenario(Pose2D(0, 0, 0), goal)
    r = plan(s, spec, PlannerConfig(time_budget=1.0))
    if isinstance(r, PlannedPath):
        end = VehicleState.from_pose(r.poses[-1])
        assert check_goal(end, goal, spec, RewardConfig()), r.poses[-1]


def test_far_goal_in_free_space_is_one_shot_from_the_start(spec):
    # 30 m is more than six turning radii: the start node shoots anyway
    r = plan(open_scenario(Pose2D(0, 0, 0), Pose2D(30, 0, 0)), spec, CFG)
    assert isinstance(r, PlannedPath)
    assert (r.nodes_expanded, r.shots) == (1, 1)
    assert all(a.kind == "rs" for a in r.arcs)


def test_shots_are_scheduled_by_the_heuristic(spec, monkeypatch):
    # the car is boxed in 33 m or more from the goal, so every expansion
    # has n >= 6: the start shoots, then about one expansion in eight; the
    # count reported is the count made
    tried = []

    def failing_shot(pose, *args):
        tried.append(pose)
        return None

    monkeypatch.setattr(hybrid_astar, "analytic_expansion", failing_shot)
    xs, ys = np.arange(-25, 66) * 0.1, np.arange(-20, 21) * 0.1
    box = np.concatenate([
        np.stack([xs, np.full_like(xs, y)], axis=1) for y in (-2.0, 2.0)
    ] + [np.stack([np.full_like(ys, x), ys], axis=1) for x in (-2.5, 6.5)])
    start = Pose2D(0, 0, 0)
    r = plan(open_scenario(start, Pose2D(40, 0, 0), box), spec, CFG)
    assert isinstance(r, PlanFailure)
    assert (r.reason, r.nodes_expanded, r.shots) == ("exhausted", 226, 27)
    assert len(tried) == r.shots and tried[0] == start


def test_single_steer_value_is_the_straight_arc(spec):
    # one steering sample is the straight arc, not a lock to one side,
    # under which corridor-02 is exhausted after 11 expansions
    s = next(s for s in bundled_scenarios() if s.id == "corridor-02")
    r = plan(s, spec, PlannerConfig(n_steer=1))
    assert isinstance(r, PlannedPath), r
    search_arcs = [a for a in r.arcs if a.kind == "arc"]
    assert search_arcs and all(a.steer == 0.0 for a in search_arcs)
    assert sweep_collision_free(r, s, spec)


@pytest.mark.parametrize("field", [
    "switch_back_cost", "backward_cost", "steer_angle_cost", "steer_change_cost",
    "heuristic_weight",
])
def test_config_rejects_a_negative_or_non_finite_cost(field):
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ConfigurationError, match=field):
            PlannerConfig(**{field: bad})
    PlannerConfig(**{field: 0.0})


@pytest.mark.parametrize("field", ["xy_resolution", "substep", "time_budget"])
def test_config_rejects_a_nan_step(field):
    # a NaN is rejected wherever it sits among the step values
    with pytest.raises(ConfigurationError):
        PlannerConfig(**{field: math.nan})


def plain_arc_cost(cfg, length, steer, direction, prev_steer, prev_direction):
    # the arc cost of the module docstring, on Python floats
    cost = length * (1.0 if direction > 0 else cfg.backward_cost)
    if prev_direction != 0 and direction != prev_direction:
        cost += cfg.switch_back_cost
    cost += cfg.steer_angle_cost * abs(steer)
    cost += cfg.steer_change_cost * abs(steer - prev_steer)
    return cost


@pytest.mark.parametrize("cfg", [
    CFG,
    PlannerConfig(steer_angle_cost=0.0, steer_change_cost=0.0, backward_cost=2.5,
                  switch_back_cost=5.0),
    PlannerConfig(n_steer=1, motion_resolution=0.96, backward_cost=1.7),
])
def test_arc_cost_is_the_plain_formula_bit_for_bit(spec, cfg):
    # plan()'s successor arcs: every steer value, forward arcs first
    steers = ([float(s) for s in np.linspace(-spec.max_steer, spec.max_steer, cfg.n_steer)]
              if cfg.n_steer > 1 else [0.0])
    arc_steers, arc_dirs = steers * 2, [d for d in (1, -1) for _ in steers]
    # every parent: each successor row, then the start
    parents = list(zip(arc_steers, arc_dirs)) + [(0.0, 0)]
    prev_steers, prev_dirs = (np.array(v)[:, None] for v in zip(*parents))
    table = hybrid_astar.arc_cost(cfg, cfg.motion_resolution, np.array(arc_steers),
                                  np.array(arc_dirs), prev_steers, prev_dirs)
    assert table.shape == (2 * len(steers) + 1, 2 * len(steers))
    for row, (prev_steer, prev_direction) in zip(table.tolist(), parents):
        want = [plain_arc_cost(cfg, cfg.motion_resolution, s, d, prev_steer, prev_direction)
                for s, d in zip(arc_steers, arc_dirs)]
        assert row == want
        scalars = [
            float(hybrid_astar.arc_cost(cfg, cfg.motion_resolution, s, d, prev_steer,
                                        prev_direction))
            for s, d in zip(arc_steers, arc_dirs)
        ]
        assert scalars == want


def test_only_arcs_the_search_can_keep_are_swept(spec, monkeypatch):
    # an arc ending in a closed key, or in a key already held at no greater
    # cost, is dropped before the sweep; each sweeping expansion makes one
    # call with one row of sub-step poses per arc. A shot that no sample's
    # deep-raster cell rejects makes one call of its own, with one row.
    calls, shot_calls, in_shot = [], [], []
    real = CollisionWorld.colliding
    real_shot = hybrid_astar.analytic_expansion

    def recording(self, xs, ys, ths):
        (shot_calls if in_shot else calls).append(np.shape(xs))
        return real(self, xs, ys, ths)

    def shot(*args):
        in_shot.append(True)
        try:
            return real_shot(*args)
        finally:
            in_shot.pop()

    monkeypatch.setattr(CollisionWorld, "colliding", recording)
    monkeypatch.setattr(hybrid_astar, "analytic_expansion", shot)
    s = next(s for s in bundled_scenarios() if s.id == "corridor-01")
    r = plan(s, spec, CFG)
    assert isinstance(r, PlannedPath)
    # the shot that ends the search is swept, and no shot twice
    assert 1 <= len(shot_calls) <= r.shots
    assert all(len(c) == 2 and c[0] == 1 for c in shot_calls)
    n_sub = math.ceil(CFG.motion_resolution / CFG.substep)
    all_poses = 2 * CFG.n_steer * n_sub  # 400 per expansion
    assert 0 < len(calls) <= r.nodes_expanded
    assert all(len(c) == 2 and 1 <= c[0] <= 2 * CFG.n_steer and c[1] == n_sub
               for c in calls)
    # about half of corridor-01's arcs are dropped
    assert sum(a * b for a, b in calls) < 0.6 * all_poses * r.nodes_expanded


@pytest.mark.parametrize("sid", ["perpendicular_bay-01", "perpendicular_bay-02",
                                 "corridor-02"])
def test_path_arcs_are_swept_rows_bit_for_bit(spec, monkeypatch, sid):
    # the returned path integrates its search arcs again from the chain:
    # each arc's sub-step poses must be a row the sweep checked, bit for bit
    rows = set()
    real = CollisionWorld.colliding

    def recording(self, xs, ys, ths):
        rows.update((x.tobytes(), y.tobytes(), t.tobytes()) for x, y, t in zip(xs, ys, ths))
        return real(self, xs, ys, ths)

    monkeypatch.setattr(CollisionWorld, "colliding", recording)
    s = next(s for s in bundled_scenarios() if s.id == sid)
    r = plan(s, spec, CFG)
    assert isinstance(r, PlannedPath)
    n_sub = math.ceil(CFG.motion_resolution / CFG.substep)
    n_arcs = sum(a.kind == "arc" for a in r.arcs)
    assert n_arcs > 0
    for i in range(n_arcs):
        arc = r.poses[1 + i * n_sub: 1 + (i + 1) * n_sub]
        row = tuple(np.array([getattr(p, f) for p in arc]).tobytes()
                    for f in ("x", "y", "theta"))
        assert row in rows, (sid, i)


def test_planner_env_and_sampler_share_one_world(spec, monkeypatch):
    s = synth_scenario("perpendicular_bay")
    built = []
    real_init = CollisionWorld.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(CollisionWorld, "__init__", counting_init)
    for _ in range(2):
        assert isinstance(plan(s, spec, CFG), PlannedPath)
    stages = default_stages()
    sample_init(stages[0], s, spec, np.random.default_rng(0), stages)
    ParkingEnv(spec=spec).reset(s, s.initial_pose, 10)
    assert len(built) == 1
    assert built[0] is s.world(spec)


def test_determinism(spec):
    s = synth_scenario("perpendicular_bay")
    a = plan(s, spec, CFG)
    b = plan(s, spec, CFG)
    assert isinstance(a, PlannedPath) and isinstance(b, PlannedPath)
    # a Python float, not a numpy scalar, so its repr is the plain number
    assert type(a.cost) is float
    assert a.cost == b.cost
    assert len(a.poses) == len(b.poses)
    assert all(p == q for p, q in zip(a.poses, b.poses))


def test_failure_result_carries_diagnostics(spec):
    # goal fenced off on all sides: unreachable, search must fail cleanly
    ring = []
    for t in np.linspace(0, 2 * math.pi, 400, endpoint=False):
        ring.append([8.0 * math.cos(t), 8.0 * math.sin(t)])
        ring.append([9.0 * math.cos(t), 9.0 * math.sin(t)])
    s = open_scenario(Pose2D(-20, 0, 0), Pose2D(0, 0, 0), ring)
    r = plan(s, spec, PlannerConfig(time_budget=0.5))
    assert isinstance(r, PlanFailure)
    assert r.reason in ("exhausted", "timeout")
    assert r.nodes_expanded > 0


# -- holonomic heuristic -------------------------------------------------------


def test_heuristic_empty_grid_is_octile(spec):
    goal = Pose2D(0, 0, 0)
    queries = [(-8.0, -6.0), (-3.2, 4.1), (5.9, -2.5)]
    hmap = holonomic_heuristic(np.empty((0, 2)), goal, CFG, spec, extra_points=queries)
    gi, gj = hmap.cell(goal.x, goal.y)
    for x, y in queries:
        i, j = hmap.cell(x, y)
        expected = octile_distance(i, j, gi, gj, CFG.xy_resolution)
        assert math.isclose(hmap.cost[i, j], expected, rel_tol=1e-12)


def test_heuristic_goal_cell_zero(spec):
    hmap = holonomic_heuristic(np.empty((0, 2)), Pose2D(1, 1, 0), CFG, spec)
    assert hmap.value(1.0, 1.0) == 0.0


def test_heuristic_walled_off_is_infinite(spec):
    xs = np.linspace(-6, 6, 121)
    wall = np.stack([xs, np.full_like(xs, 3.0)], axis=1)
    box = np.concatenate(
        [
            wall,
            np.stack([xs, np.full_like(xs, -3.0)], axis=1),
            np.stack([np.full_like(xs, -6.0), np.linspace(-3, 3, 121)], axis=1),
            np.stack([np.full_like(xs, 6.0), np.linspace(-3, 3, 121)], axis=1),
        ]
    )
    hmap = holonomic_heuristic(box, Pose2D(0, 0, 0), CFG, spec,
                               extra_points=[(0.0, 10.0)])
    assert math.isinf(hmap.value(0.0, 10.0))
    assert hmap.value(0.0, 0.0) == 0.0


def test_heuristic_blocked_goal_is_infinite_in_every_cell(spec):
    hmap = holonomic_heuristic(np.array([[0.0, 0.0]]), Pose2D(0, 0, 0), CFG, spec)
    assert hmap.cost.shape == hmap.shape and hmap.cost.size > 1
    assert np.isinf(hmap.cost).all()
    assert math.isinf(hmap.value(0.0, 0.0))


def test_blocked_goal_cell_plans_on_the_reeds_shepp_length_alone(spec):
    # a 2.4 m bay leaves its goal cell inside the dilated walls, so the
    # search runs on the Reeds-Shepp heuristic alone, end to end
    s = synth_scenario("perpendicular_bay", bay_width=2.4)
    r = plan(s, spec, CFG)
    assert isinstance(r, PlannedPath)
    assert (r.nodes_expanded, r.cost) == (212, 23.16128558554679)
    assert sweep_collision_free(r, s, spec)


# -- analytic expansion ---------------------------------------------------------


def test_expansion_at_goal_zero_length(spec):
    goal = Pose2D(3, 4, 1.0)
    open_world = CollisionWorld(spec, np.empty((0, 2)))
    shot = analytic_expansion(goal, goal, spec, CFG, open_world)
    assert shot is not None
    rs, (xs, ys, ths, _) = shot
    assert rs.segments == ()
    assert Pose2D(xs[0], ys[0], ths[0]) == goal


def test_expansion_clear_line(spec):
    start, goal = Pose2D(0, 0, 0), Pose2D(12, 3, 0.4)
    open_world = CollisionWorld(spec, np.empty((0, 2)))
    shot = analytic_expansion(start, goal, spec, CFG, open_world)
    assert shot is not None
    rs, _ = shot
    assert math.isclose(
        rs.total_length,
        rs_shortest(start, goal, spec.min_turn_radius).total_length,
        rel_tol=1e-12,
    )


def test_expansion_rejected_by_wall(spec):
    ys = np.linspace(-8, 8, 161)
    wall = np.stack([np.full_like(ys, 5.0), ys], axis=1)
    shot = analytic_expansion(
        Pose2D(0, 0, 0), Pose2D(10, 0, 0), spec, CFG, CollisionWorld(spec, wall)
    )
    assert shot is None


def reference_shot(pose, goal, spec, world):
    # the shot's decision from every 0.1 m sample and the exact kernel alone
    rs = rs_shortest(pose, goal, spec.min_turn_radius)
    points = rs_sample_points(rs, pose, CFG.substep)
    xs, ys, ths = (np.array(v) for v in points[:3])
    hit = kernels.colliding_poses(xs, ys, wrap_angle(ths), world.verts, world.obstacles)
    return None if hit.any() else (rs, points)


def test_shot_decision_is_the_full_sample_check(spec, rng):
    accepted = walked_out = rejected_later = 0
    for scenario in bundled_scenarios():
        world = scenario.world(spec)
        goal = scenario.target_pose
        lo, hi = scenario.obstacles.min(axis=0), scenario.obstacles.max(axis=0)
        # node poses anywhere in the scene, and near the goal's axis where
        # more shots clear; nodes are collision-free
        far = np.stack([rng.uniform(lo[0], hi[0], 60), rng.uniform(lo[1], hi[1], 60),
                        rng.uniform(-math.pi, math.pi, 60)], axis=1)
        along = rng.uniform(-6.0, 6.0, 60)
        side = rng.normal(0.0, 0.3, 60)
        c, s = math.cos(goal.theta), math.sin(goal.theta)
        near = np.stack([goal.x + c * along - s * side, goal.y + s * along + c * side,
                         goal.theta + rng.normal(0.0, 0.15, 60)], axis=1)
        poses = [Pose2D(*p) for p in np.concatenate([far, near]).tolist()]
        for pose in [p for p in poses if not world.pose_collides(p.x, p.y, p.theta)]:
            got = analytic_expansion(pose, goal, spec, CFG, world)
            want = reference_shot(pose, goal, spec, world)
            assert (got is None) == (want is None), (scenario.id, pose)
            if got is not None:
                assert got[0] == want[0] and got[1] == want[1]
            rs = rs_shortest(pose, goal, spec.min_turn_radius)
            walk = rs_sparse_poses(rs, pose, CFG.substep)
            in_walk = any(world.pose_surely_colliding(*p) for p in walk)
            accepted += got is not None
            walked_out += in_walk
            rejected_later += got is None and not in_walk
    # shots that clear, that the walk rejects and that only the full check does
    assert min(accepted, walked_out, rejected_later) >= 10, (
        accepted, walked_out, rejected_later)


def test_shot_touched_only_between_sparse_samples_is_rejected(spec):
    # a quarter turn left, 76 samples; the sparse walk checks 8, 16, ...
    radius = spec.min_turn_radius
    start = Pose2D(0.0, 0.0, 0.0)
    goal = Pose2D(radius, radius, math.pi / 2)
    rs = rs_shortest(start, goal, radius)
    xs, ys, ths, _ = rs_sample_points(rs, start, CFG.substep)
    n = len(xs) - 1
    sparse = set(range(_SPARSE_STRIDE, n, _SPARSE_STRIDE)) | {n}
    # a short wall just inside the outer front corner at sample 12, which
    # only the corner's sweep near that sample reaches
    corner = transform_to_world(footprint_polygon(spec)[2], Pose2D(xs[12], ys[12], ths[12]))
    centre = np.array([0.0, radius])
    inward = (centre - corner) / np.hypot(*(centre - corner))
    tangent = np.array([-inward[1], inward[0]])
    wall = corner + 0.002 * inward + np.outer([-0.01, 0.0, 0.01], tangent)
    world = CollisionWorld(spec, wall)
    hit = kernels.colliding_poses(
        np.array(xs), np.array(ys), wrap_angle(np.array(ths)), world.verts, wall
    )
    touched = set(np.flatnonzero(hit).tolist())
    assert 12 in touched and not touched & sparse
    # the walk finds nothing, and the full check still rejects the shot
    assert not any(world.pose_surely_colliding(*p)
                   for p in rs_sparse_poses(rs, start, CFG.substep))
    assert analytic_expansion(start, goal, spec, CFG, world) is None


@pytest.mark.parametrize("bad", [2.5, 3.0, True, False, "20", None])
def test_config_rejects_a_non_int_steer_count(bad):
    with pytest.raises(ConfigurationError, match="n_steer"):
        PlannerConfig(n_steer=bad)
