import math

import numpy as np
import pytest

from parkplan import kernels
from parkplan.errors import ConfigurationError
from parkplan.geometry import (
    CollisionWorld,
    Pose2D,
    VehicleSpec,
    collides,
    dilate_points,
    ego_to_world,
    footprint_polygon,
    transform_to_ego,
    transform_to_world,
    world_to_ego,
    wrap_angle,
)
from parkplan.curriculum import default_stages, sample_init
from parkplan.scenarios import bundled_scenarios, synth_scenario
from oracles import point_in_polygon_raycast, polygon_area


def test_wrap_angle_range():
    for theta in np.linspace(-11.0, 11.0, 1001):
        w = wrap_angle(theta)
        assert -math.pi < w <= math.pi
        assert math.isclose(math.sin(w), math.sin(theta), abs_tol=1e-12)
        assert math.isclose(math.cos(w), math.cos(theta), abs_tol=1e-12)
    # the modulo rounds one float step above pi to -pi, outside (-pi, pi];
    # the scalar and the array form both map it to pi
    for theta in (math.pi, math.nextafter(math.pi, 4), 3 * math.pi, -math.pi):
        assert wrap_angle(theta) == math.pi
        assert wrap_angle(np.array([theta, 0.5])).tolist() == [math.pi, 0.5]


def test_footprint_matches_reference_matrix(spec):
    fp = footprint_polygon(spec)
    assert fp.shape == (8, 2)
    np.testing.assert_allclose(fp[0], [-0.725, -1.0])
    np.testing.assert_allclose(fp[2], [3.925, -0.8])
    np.testing.assert_allclose(fp[3], [3.925, 0.8])
    np.testing.assert_allclose(fp[7], [-1.025, -0.8])


def test_footprint_is_ccw_convex_and_contains_origin(spec):
    fp = footprint_polygon(spec)
    # every edge turn has the same (positive) orientation
    for i in range(8):
        a, b, c = fp[i], fp[(i + 1) % 8], fp[(i + 2) % 8]
        cross = (b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0])
        assert cross > 0
    assert collides(Pose2D(0, 0, 0), spec, [(0.0, 0.0)])


def test_footprint_convex_for_random_valid_specs(rng):
    for _ in range(200):
        length = rng.uniform(3.0, 6.0)
        rear = rng.uniform(0.5, length / 2)
        width = rng.uniform(1.4, 2.4)
        spec = VehicleSpec(
            wheelbase=rng.uniform(2.0, 3.5),
            width=width,
            rear_overhang=rear,
            front_overhang=length - rear,
            crop_l=rng.uniform(0.05, min(0.6, (length - rear) * 0.9)),
            crop_w=rng.uniform(0.05, width / 2 * 0.9),
        )
        fp = footprint_polygon(spec)
        assert fp.shape == (8, 2)
        for i in range(8):
            a, b, c = fp[i], fp[(i + 1) % 8], fp[(i + 2) % 8]
            cross = (b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0])
            assert cross > 0


def test_footprint_area_below_plain_rectangle(spec):
    fp = footprint_polygon(spec)
    area = polygon_area(fp)
    assert 0 < area < spec.length * spec.width
    # shoelace of the chamfered rectangle: L*W minus four corner triangles
    expected = spec.length * spec.width - 2.0 * spec.crop_l * spec.crop_w
    assert math.isclose(area, expected, rel_tol=1e-12)


def test_footprint_degenerates_to_rectangle_with_tiny_crops():
    eps = 1e-9
    spec = VehicleSpec(crop_l=eps, crop_w=eps)
    area = polygon_area(footprint_polygon(spec))
    assert math.isclose(area, spec.length * spec.width, rel_tol=1e-6)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(crop_l=0.0),
        dict(crop_l=4.0),  # > front overhang
        dict(crop_l=2.5),  # > L/2: the crops cross and fold the outline
        dict(crop_w=1.0),  # = W/2
        dict(max_steer=0.0),
        dict(width=-2.0, crop_w=0.2),
    ],
)
def test_invalid_spec_rejected(kwargs):
    with pytest.raises(ConfigurationError):
        VehicleSpec(**kwargs)


def test_footprint_is_one_shared_read_only_array(spec):
    fp = footprint_polygon(spec)
    assert footprint_polygon(spec) is fp
    assert footprint_polygon(VehicleSpec()) is fp
    with pytest.raises(ValueError):
        fp[0, 0] = 0.0
    with pytest.raises(ValueError):
        fp += 1.0
    np.testing.assert_allclose(fp[0], [-0.725, -1.0])


def test_to_world_identity_and_half_turn(spec):
    fp = footprint_polygon(spec)
    np.testing.assert_allclose(transform_to_world(fp, Pose2D(0, 0, 0)), fp)
    flipped = transform_to_world(fp, Pose2D(0, 0, math.pi))
    np.testing.assert_allclose(flipped, -fp, atol=1e-12)


def test_to_world_hand_example(spec):
    fp = footprint_polygon(spec)
    world = transform_to_world(fp, Pose2D(1.0, 2.0, math.pi / 2))
    np.testing.assert_allclose(world[2], [1.8, 5.925], atol=1e-12)


def test_world_to_ego_of_self_is_origin():
    ego = Pose2D(3.0, -2.0, 0.7)
    rel = world_to_ego(ego, ego)
    assert abs(rel.x) < 1e-12 and abs(rel.y) < 1e-12 and abs(rel.theta) < 1e-12


def test_world_to_ego_hand_rotation():
    ego = Pose2D(0.0, 0.0, math.pi / 2)
    p = transform_to_ego(np.array([0.0, 5.0]), ego)
    np.testing.assert_allclose(p, [5.0, 0.0], atol=1e-12)


def test_transform_round_trip(rng):
    for _ in range(1000):
        ego = Pose2D(*rng.uniform(-10, 10, size=2), rng.uniform(-math.pi, math.pi))
        pt = rng.uniform(-20, 20, size=2)
        back = transform_to_world(transform_to_ego(pt, ego), ego)
        np.testing.assert_allclose(back, pt, atol=1e-12)
    pose = Pose2D(1.0, 2.0, 2.5)
    back = ego_to_world(ego, world_to_ego(ego, pose))
    assert abs(back.x - pose.x) < 1e-12
    assert abs(back.y - pose.y) < 1e-12
    assert abs(wrap_angle(back.theta - pose.theta)) < 1e-12


def test_collides_examples(spec):
    assert collides(Pose2D(0, 0, 0), spec, [(0.0, 0.0)])
    assert not collides(Pose2D(0, 0, 0), spec, [(10.0, 10.0)])
    # inside the plain rectangle but outside the chamfered corner
    assert not collides(Pose2D(0, 0, 0), spec, [(3.9, 0.97)])
    assert collides(Pose2D(0, 0, 0), spec, [(3.9, 0.81)])
    assert not collides(Pose2D(0, 0, 0), spec, [])


def test_collides_boundary_counts(spec):
    assert collides(Pose2D(0, 0, 0), spec, [(3.925, 0.0)])
    assert collides(Pose2D(0, 0, 0), spec, [(0.0, 1.0)])


def test_collides_agrees_with_raycast_oracle(spec, rng):
    fp = footprint_polygon(spec)
    for _ in range(2000):
        pose = Pose2D(
            rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-math.pi, math.pi)
        )
        pt = rng.uniform(-8, 8, size=2)
        world_poly = transform_to_world(footprint_polygon(spec), pose)
        expected = point_in_polygon_raycast(pt[0], pt[1], world_poly)
        assert collides(pose, spec, [pt]) == expected
    # multi-pose sweeps, with points on footprint vertices and edges, or a
    # micrometre to either side of an edge
    for _ in range(150):
        n = int(rng.integers(1, 40))
        xs = rng.uniform(-5, 5, size=n)
        ys = rng.uniform(-5, 5, size=n)
        ths = rng.uniform(-math.pi, math.pi, size=n)
        polys = [
            transform_to_world(footprint_polygon(spec), Pose2D(x, y, th))
            for x, y, th in zip(xs, ys, ths)
        ]
        pts = list(rng.uniform(-8, 8, size=(int(rng.integers(0, 8)), 2)))
        for _ in range(int(rng.integers(0, 4))):
            poly = polys[rng.integers(n)]
            k = int(rng.integers(8))
            a, b = poly[k], poly[(k + 1) % 8]
            edge = b - a
            outward = np.array([edge[1], -edge[0]]) / np.hypot(*edge)
            along = rng.choice([0.0, rng.uniform()])
            offset = rng.choice([0.0, 1e-6, -1e-6])
            pts.append(a + along * edge + offset * outward)
        pts = np.array(pts).reshape(-1, 2)
        expected = [
            any(point_in_polygon_raycast(px, py, poly) for px, py in pts)
            for poly in polys
        ]
        rows = (xs[:, None], ys[:, None], ths[:, None])  # n rows of one pose
        assert CollisionWorld(spec, pts).colliding(*rows).tolist() == expected
        first = expected.index(True) if any(expected) else -1
        assert kernels.first_colliding_pose(xs, ys, ths, fp, pts) == first


def test_clearance_raster_never_frees_a_colliding_pose(spec, rng):
    fp = footprint_polygon(spec)
    n = 300
    lone = CollisionWorld(spec, [(0.0, 0.0)])
    r, cx = lone.inner_radius, lone.inner_x
    # where an inner disc touches the footprint's boundary: point, outward normal
    touch = np.array(
        [(x, side * r, 0.0, side) for x in cx for side in (-1.0, 1.0)]
        + [(cx[0] - r, 0.0, -1.0, 0.0), (cx[-1] + r, 0.0, 1.0, 0.0)]
    )
    for scenario in bundled_scenarios():
        obs = scenario.obstacles
        world = CollisionWorld(spec, obs)
        # rear axles scattered around obstacle points, where collisions and
        # near misses are common
        anchor = obs[rng.integers(obs.shape[0], size=n)]
        xs = anchor[:, 0] + rng.uniform(-4, 4, size=n)
        ys = anchor[:, 1] + rng.uniform(-4, 4, size=n)
        ths = rng.uniform(-math.pi, math.pi, size=n)
        # and poses that put an obstacle point on a footprint vertex or edge,
        # or a micrometre outside (+) or inside (-) that edge
        anchor = obs[rng.integers(obs.shape[0], size=n)]
        k = rng.integers(8, size=n)
        edge = fp[(k + 1) % 8] - fp[k]
        outward = np.stack([edge[:, 1], -edge[:, 0]], axis=1) / np.hypot(
            edge[:, 0], edge[:, 1]
        )[:, None]
        along = np.where(rng.uniform(size=n) < 0.25, 0.0, rng.uniform(size=n))
        offset = rng.choice([0.0, 1e-6, -1e-6], size=n)
        local = fp[k] + along[:, None] * edge + offset[:, None] * outward
        # and poses that put an obstacle point a micrometre outside a point
        # where an inner disc touches the footprint's boundary
        near = touch[rng.integers(len(touch), size=n)]
        local = np.concatenate([local, near[:, :2] + 1e-6 * near[:, 2:]])
        anchor = np.concatenate([anchor, obs[rng.integers(obs.shape[0], size=n)]])
        th = rng.uniform(-math.pi, math.pi, size=2 * n)
        c, s = np.cos(th), np.sin(th)
        xs = np.concatenate([xs, anchor[:, 0] - (c * local[:, 0] - s * local[:, 1])])
        ys = np.concatenate([ys, anchor[:, 1] - (s * local[:, 0] + c * local[:, 1])])
        ths = np.concatenate([ths, th])
        exact = kernels.colliding_poses(xs, ys, ths, fp, obs)
        assert exact[n : 2 * n][offset <= 0].all(), scenario.id
        free = world.surely_free(xs, ys, ths)
        assert not np.any(free & exact), scenario.id
        assert free.any(), scenario.id
        # the deep raster never blocks a free pose, and settles some
        # colliding ones
        deep = world.surely_colliding(xs, ys, ths)
        assert not np.any(deep & ~exact), scenario.id
        assert deep.any(), scenario.id
        np.testing.assert_array_equal(
            world.colliding(xs[:, None], ys[:, None], ths[:, None]), exact
        )
        single = [world.pose_collides(x, y, t) for x, y, t in zip(xs, ys, ths)]
        np.testing.assert_array_equal(single, exact)
    # a lone point a micrometre outside where an inner disc touches the
    # boundary, the deep raster's closest call, is never marked
    near = touch[rng.integers(len(touch), size=20 * n)]
    local = near[:, :2] + 1e-6 * near[:, 2:]
    th = rng.uniform(-math.pi, math.pi, size=20 * n)
    c, s = np.cos(th), np.sin(th)
    xs = -(c * local[:, 0] - s * local[:, 1])
    ys = -(s * local[:, 0] + c * local[:, 1])
    exact = kernels.colliding_poses(xs, ys, th, fp, lone.obstacles)
    assert not exact.any()
    assert not lone.surely_colliding(xs, ys, th).any()


def test_colliding_rows_are_any_of_the_kernel_and_skip_rows_with_a_deep_hit(
    spec, rng, monkeypatch
):
    fp = footprint_polygon(spec)
    sweep = kernels.colliding_poses
    sent = []

    def recording(xs, ys, ths, *args):
        sent.append(np.stack([xs, ys, ths], axis=1))
        return sweep(xs, ys, ths, *args)

    monkeypatch.setattr(kernels, "colliding_poses", recording)
    n, m = 400, 10
    pack = {s.id: s for s in bundled_scenarios()}
    for sid in ("corridor-01", "dead_end-03"):
        obs = pack[sid].obstacles
        world = CollisionWorld(spec, obs)
        # rows of m poses 0.1 m apart along a random curve, starting near
        # obstacle points: some clear, some into a wall, some grazing one
        anchor = obs[rng.integers(obs.shape[0], size=n)]
        x0 = anchor[:, 0] + rng.uniform(-4, 4, size=n)
        y0 = anchor[:, 1] + rng.uniform(-4, 4, size=n)
        th0 = rng.uniform(-math.pi, math.pi, size=n)
        ths = th0[:, None] + rng.uniform(-0.02, 0.02, size=n)[:, None] * np.arange(m)
        xs = x0[:, None] + 0.1 * np.cumsum(np.cos(ths), axis=1)
        ys = y0[:, None] + 0.1 * np.cumsum(np.sin(ths), axis=1)
        ths = wrap_angle(ths)
        want = sweep(xs.ravel(), ys.ravel(), ths.ravel(), fp, obs)
        want = want.reshape(n, m).any(axis=1)
        free = world.surely_free(xs.ravel(), ys.ravel(), ths.ravel()).reshape(n, m)
        deep = world.surely_colliding(xs.ravel(), ys.ravel(), ths.ravel()).reshape(n, m)
        deep = deep.any(axis=1)
        exact_only = ~free.all(axis=1) & ~deep
        assert free.all(axis=1).any() and deep.any(), sid
        # rows only the exact test decides, both ways
        assert want[exact_only].any() and not want[exact_only].all(), sid

        sent.clear()
        got = world.colliding(xs, ys, ths)
        np.testing.assert_array_equal(got, want)
        # one exact call, over the unsettled poses of rows with no deep hit
        assert len(sent) == 1, sid
        expect = np.stack([xs, ys, ths], axis=2)[exact_only[:, None] & ~free]
        np.testing.assert_array_equal(sent[0], expect)


def test_pose_collides_is_the_kernel_on_wall_hugging_poses_and_boundaries(
    spec, rng, monkeypatch
):
    fp = footprint_polygon(spec)
    sweep = kernels.colliding_poses

    def compare(world, xs, ys, ths):
        # pose_collides against the numpy kernel on every pose; returns the
        # kernel's answers and which poses reached the exact test
        xs, ys, ths = (np.asarray(a, dtype=np.float64) for a in (xs, ys, ths))
        want = sweep(xs, ys, ths, fp, world.obstacles)
        got = [
            world.pose_collides(x, y, t)
            for x, y, t in zip(xs.tolist(), ys.tolist(), ths.tolist())
        ]
        assert got == want.tolist()
        return want, ~world.surely_free(xs, ys, ths)

    # (a) every candidate pose the rollout sampler checks, on the bundled
    # scenes and the three synthetic kinds
    class Recorder:
        def __init__(self, world):
            self.world, self.poses = world, []

        def pose_collides(self, x, y, theta):
            self.poses.append((x, y, theta))
            return self.world.pose_collides(x, y, theta)

    stages = default_stages()
    scenes = bundled_scenarios() + [
        synth_scenario(kind) for kind in ("perpendicular_bay", "corridor", "dead_end")
    ]
    reached = hits = 0
    for scenario in scenes:
        world = scenario.world(spec)
        recorder = Recorder(world)
        monkeypatch.setattr(scenario, "world", lambda _spec: recorder)
        for stage in stages:
            sample_init(stage, scenario, spec, rng, stages)
        xs, ys, ths = np.array(recorder.poses).T
        # the scalar test's sine and cosine are the kernel's, bit for bit
        assert [math.cos(t) for t in ths.tolist()] == np.cos(ths).tolist()
        assert [math.sin(t) for t in ths.tolist()] == np.sin(ths).tolist()
        want, marked = compare(world, xs, ys, ths)
        reached += int(marked.sum())
        hits += int(want.sum())
    assert reached > 1000 and hits > 10

    # (b) points at exactly cx - r and cx + r, the ends of the bisected x
    # range, and one float step to either side; the heading runs along x
    # so the end discs' cells are marked
    mx, my, r = kernels._shapes(fp.tobytes())[:3]
    for theta in [0.0, math.pi, *rng.uniform(-0.2, 0.2, size=10)]:
        x, y = rng.uniform(-5, 5, size=2)
        c, s = math.cos(theta), math.sin(theta)
        cx = x + c * mx - s * my
        cy = y + s * mx + c * my
        ends = [
            np.nextafter(e, e + side)
            for e in (cx - r, cx + r) for side in (-1.0, 0.0, 1.0)
        ]
        pts = [(e, cy + dy) for e in ends for dy in (0.0, 0.5)]
        want, marked = compare(CollisionWorld(spec, pts), [x], [y], [theta])
        assert marked.all() and not want.any()
        # with a point at the box centre, the only survivor sits between them
        want, _ = compare(CollisionWorld(spec, pts + [(cx, cy)]), [x], [y], [theta])
        assert want.all()

    # (c) a vertical wall: 201 points share x = 0, and the front or rear
    # edge lies on it, a micrometre short of it or past it
    wall = CollisionWorld(spec, [(0.0, y) for y in np.linspace(-10.0, 10.0, 201)])
    lb, lf = spec.rear_overhang, spec.front_overhang
    xs = [-lf - 1e-6, -lf, -lf + 1e-6, lb - 1e-6, lb, lb + 1e-6]
    want, marked = compare(wall, xs, [0.3] * 6, [0.0] * 6)
    assert marked.all() and want.tolist() == [False, True, True, True, True, False]
    n = 500
    want, marked = compare(
        wall, rng.uniform(-6, 3, size=n), rng.uniform(-8, 8, size=n),
        rng.uniform(-math.pi, math.pi, size=n),
    )
    assert (want & marked).any() and (~want & marked).any()

    # (d) isolated points, each on a footprint vertex or a micrometre to
    # either side of an edge
    grid = np.array([(20.0 * i, 20.0 * j) for i in range(4) for j in range(4)])
    sparse = CollisionWorld(spec, grid)
    n = 400
    k = rng.integers(8, size=n)
    edge = fp[(k + 1) % 8] - fp[k]
    outward = np.stack([edge[:, 1], -edge[:, 0]], axis=1) / np.hypot(
        edge[:, 0], edge[:, 1]
    )[:, None]
    along = np.where(np.arange(n) % 4 == 0, 0.0, rng.uniform(size=n))
    offset = np.where(along == 0.0, 0.0, rng.choice([1e-6, -1e-6], size=n))
    local = fp[k] + along[:, None] * edge + offset[:, None] * outward
    anchor = grid[rng.integers(grid.shape[0], size=n)]
    th = rng.uniform(-math.pi, math.pi, size=n)
    c, s = np.cos(th), np.sin(th)
    xs = anchor[:, 0] - (c * local[:, 0] - s * local[:, 1])
    ys = anchor[:, 1] - (s * local[:, 0] + c * local[:, 1])
    want, marked = compare(sparse, xs, ys, th)
    assert marked.all() and want.tolist() == (offset <= 0).tolist()

    # the numpy sweep is off the scalar path
    def no_sweep(*args):
        raise AssertionError("pose_collides ran the numpy sweep")

    monkeypatch.setattr(kernels, "colliding_poses", no_sweep)
    assert wall.pose_collides(-lf, 0.3, 0.0) is True
    assert wall.pose_collides(-lf - 1e-6, 0.3, 0.0) is False


def test_clearance_raster_settles_most_wall_hugging_starts(spec, monkeypatch):
    # every pose the stage-1 sampler checks on the bay: its starts sit close
    # to the bay walls, where a three-disc cover settled none of them
    class Recorder:
        def __init__(self, world):
            self.world, self.poses = world, []

        def pose_collides(self, x, y, theta):
            self.poses.append((x, y, theta))
            return self.world.pose_collides(x, y, theta)

    exact = []
    real = kernels.pose_collides

    def counting(*args):
        exact.append(args[:3])
        return real(*args)

    scenario = synth_scenario("perpendicular_bay")
    world = scenario.world(spec)
    recorder = Recorder(world)
    monkeypatch.setattr(scenario, "world", lambda _spec: recorder)
    monkeypatch.setattr(kernels, "pose_collides", counting)
    stages = default_stages()
    rng = np.random.default_rng(27)
    for _ in range(50):
        sample_init(stages[0], scenario, spec, rng, stages)
    xs, ys, ths = np.array(recorder.poses).T
    want = kernels.colliding_poses(xs, ys, ths, footprint_polygon(spec), world.obstacles)
    exact.clear()
    got = [world.pose_collides(x, y, t) for x, y, t in recorder.poses]
    assert got == want.tolist()
    assert len(recorder.poses) > 500
    assert len(exact) < 0.7 * len(recorder.poses)


def test_world_raster_is_the_packed_dilation(spec):
    for scenario in bundled_scenarios():
        world = CollisionWorld(spec, scenario.obstacles)
        nx, ny = world.shape
        raster = np.unpackbits(world.bits, count=nx * ny).reshape(nx, ny)
        expected = dilate_points(
            scenario.obstacles, world.origin, world.shape,
            CollisionWorld.RESOLUTION, world.reach,
        )
        np.testing.assert_array_equal(raster.astype(bool), expected)


def test_world_deep_raster_is_the_packed_dilation(spec):
    res = CollisionWorld.RESOLUTION
    for scenario in bundled_scenarios():
        world = CollisionWorld(spec, scenario.obstacles)
        # three unit discs on the long axis, the end ones touching the
        # rear and the front
        np.testing.assert_allclose(world.inner_x, [-0.025, 1.45, 2.925], atol=1e-12)
        assert world.disc_y == 0.0
        assert world.inner_radius == pytest.approx(1.0, abs=1e-12)
        assert world.deep_reach == (
            world.inner_radius - res * math.sqrt(0.5) - CollisionWorld.DEEP_EPS
        )
        # built on the first vectorized query only
        p = scenario.initial_pose
        world.pose_collides(p.x, p.y, p.theta)
        world.surely_free([0.0], [0.0], [0.0])
        assert "deep_bits" not in world.__dict__
        world.surely_colliding([0.0], [0.0], [0.0])
        assert "deep_bits" in world.__dict__
        nx, ny = world.shape
        raster = np.unpackbits(world.deep_bits, count=nx * ny).reshape(nx, ny)
        expected = dilate_points(
            scenario.obstacles, world.origin, world.shape, res, world.deep_reach
        )
        np.testing.assert_array_equal(raster.astype(bool), expected)
        assert expected.any(), scenario.id
        # border cells are unmarked, so a clamped disc centre proves nothing
        assert not (raster[[0, -1], :].any() or raster[:, [0, -1]].any())
    # every inner disc lies inside the footprint
    fp = footprint_polygon(spec)
    angle = np.linspace(-math.pi, math.pi, 721)
    for cx in world.inner_x:
        rim = np.stack(
            [cx + world.inner_radius * np.cos(angle),
             world.disc_y + world.inner_radius * np.sin(angle)], axis=1,
        )
        assert kernels.point_in_convex_polygon(rim, fp).all()


def test_empty_world_reports_nothing(spec, rng):
    world = CollisionWorld(spec, np.empty((0, 2)))
    xs, ys = rng.uniform(-5, 5, size=(2, 50))
    ths = rng.uniform(-math.pi, math.pi, size=50)
    assert world.surely_free(xs, ys, ths).all()
    assert not world.surely_colliding(xs, ys, ths).any()
    assert not world.colliding(xs[:, None], ys[:, None], ths[:, None]).any()
    assert world.first_collision(xs, ys, ths) == -1
    assert not any(world.pose_collides(x, y, t) for x, y, t in zip(xs, ys, ths))


def test_pose_surely_colliding_is_the_sound_scalar_deep_test(spec, rng):
    fp = footprint_polygon(spec)
    n = 600
    for scenario in bundled_scenarios():
        obs = scenario.obstacles
        world = CollisionWorld(spec, obs)
        # poses around wall points: some clear, some grazing, some deep in
        anchor = obs[rng.integers(obs.shape[0], size=n)]
        xs = anchor[:, 0] + rng.uniform(-3, 3, size=n)
        ys = anchor[:, 1] + rng.uniform(-3, 3, size=n)
        ths = rng.uniform(-math.pi, math.pi, size=n)
        assert "deep_bits" not in world.__dict__
        got = [world.pose_surely_colliding(x, y, t) for x, y, t in zip(xs, ys, ths)]
        # the scalar test builds the deep raster on first use
        assert "deep_bits" in world.__dict__
        assert all(type(v) is bool for v in got)
        got = np.array(got)
        exact = kernels.colliding_poses(xs, ys, ths, fp, obs)
        assert not np.any(got & ~exact), scenario.id
        assert got.any() and not got.all(), scenario.id
        np.testing.assert_array_equal(got, world.surely_colliding(xs, ys, ths))
        # disc centres beyond the raster clamp onto its free border cells
        lo, hi = obs.min(axis=0), obs.max(axis=0)
        for x, y in ((lo[0] - 50, lo[1] - 50), (hi[0] + 50, hi[1] + 50),
                     (lo[0] - 50, hi[1] + 50), (hi[0] + 50, lo[1] - 50)):
            assert world.pose_surely_colliding(x, y, float(rng.uniform(-4, 4))) is False
    empty = CollisionWorld(spec, np.empty((0, 2)))
    assert not any(
        empty.pose_surely_colliding(x, y, t)
        for x, y, t in zip(*rng.uniform(-5, 5, size=(3, 50)))
    )


def test_dilate_points_matches_bruteforce(rng):
    for _ in range(100):
        res = float(rng.choice([0.1, 0.25, 0.5]))
        radius = float(rng.choice([0.3, 1.0, rng.uniform(0.05, 2.0)]))
        pts = rng.uniform(-3, 3, size=(int(rng.integers(0, 20)), 2))
        if rng.uniform() < 0.5:
            # points on cell centres put cells exactly at the radius
            pts = np.round(pts / res) * res + res / 2
        origin = rng.uniform(-4, -1, size=2)
        shape = (int(rng.integers(1, 50)), int(rng.integers(1, 50)))
        cx = origin[0] + (np.arange(shape[0]) + 0.5) * res
        cy = origin[1] + (np.arange(shape[1]) + 0.5) * res
        expected = np.zeros(shape, dtype=bool)
        for px, py in pts:
            expected |= (cx[:, None] - px) ** 2 + (cy[None, :] - py) ** 2 <= radius * radius
        np.testing.assert_array_equal(
            dilate_points(pts, origin, shape, res, radius), expected
        )


@pytest.mark.parametrize("radius", [
    -0.5,  # an empty offset range: the batch size divides by zero
    -0.08,  # within one cell: squared, it would mark the cells of +0.08
])
def test_dilate_points_rejects_a_negative_radius(radius):
    with pytest.raises(ValueError, match="radius"):
        dilate_points([(0.0, 0.0)], (-1.0, -1.0), (20, 20), 0.1, radius)


def test_collides_rigid_transform_invariance(spec, rng):
    for _ in range(300):
        pose = Pose2D(
            rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-math.pi, math.pi)
        )
        pts = rng.uniform(-6, 6, size=(20, 2))
        frame = Pose2D(
            rng.uniform(-9, 9), rng.uniform(-9, 9), rng.uniform(-math.pi, math.pi)
        )
        moved_pose = ego_to_world(frame, pose)
        moved_pts = transform_to_world(pts, frame)
        assert collides(pose, spec, pts) == collides(moved_pose, spec, moved_pts)
