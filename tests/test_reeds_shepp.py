import hashlib
import math

import numpy as np
import pytest

from parkplan.geometry import Pose2D, wrap_angle
from parkplan.reeds_shepp import (
    _SPARSE_STRIDE,
    RSPath,
    rs_sample_points,
    rs_shortest,
    rs_sparse_poses,
)
from oracles import rs_shortest_length_bruteforce

RADIUS = 4.8013


def random_pose(rng, span=20.0):
    return Pose2D(
        rng.uniform(-span, span), rng.uniform(-span, span), rng.uniform(-math.pi, math.pi)
    )


def test_goal_at_start_is_empty():
    p = Pose2D(1.0, 2.0, 0.5)
    path = rs_shortest(p, p, RADIUS)
    assert path.segments == ()
    assert path.total_length == 0.0


def test_straight_ahead_is_single_s_segment():
    path = rs_shortest(Pose2D(0, 0, 0), Pose2D(5, 0, 0), RADIUS)
    assert len(path.segments) == 1
    seg = path.segments[0]
    assert seg.kind == "S" and seg.direction == 1
    assert math.isclose(path.total_length, 5.0, rel_tol=1e-12)


def test_straight_behind_is_backward_s():
    path = rs_shortest(Pose2D(0, 0, 0), Pose2D(-4, 0, 0), RADIUS)
    assert len(path.segments) == 1
    assert path.segments[0].kind == "S" and path.segments[0].direction == -1
    assert math.isclose(path.total_length, 4.0, rel_tol=1e-12)


def test_matches_bruteforce_word_family(rng):
    for _ in range(1000):
        s = random_pose(rng)
        g = random_pose(rng)
        got = rs_shortest(s, g, RADIUS).total_length
        expected = rs_shortest_length_bruteforce(
            (s.x, s.y, s.theta), (g.x, g.y, g.theta), RADIUS
        )
        assert abs(got - expected) <= 1e-9


def test_path_structure_invariants(rng):
    for _ in range(300):
        s = random_pose(rng)
        g = random_pose(rng)
        path = rs_shortest(s, g, RADIUS)
        assert len(path.segments) <= 5
        assert all(seg.length >= 0 for seg in path.segments)
        assert all(seg.direction in (-1, 1) for seg in path.segments)
        # lower bound: straight-line distance
        assert path.total_length >= math.hypot(g.x - s.x, g.y - s.y) - 1e-9


def test_symmetry_of_length(rng):
    for _ in range(300):
        s = random_pose(rng)
        g = random_pose(rng)
        there = rs_shortest(s, g, RADIUS).total_length
        back = rs_shortest(g, s, RADIUS).total_length
        assert abs(there - back) <= 1e-9


def test_scale_covariance(rng):
    for _ in range(100):
        s = random_pose(rng)
        g = random_pose(rng)
        base = rs_shortest(s, g, RADIUS).total_length
        k = 2.5
        scaled = rs_shortest(
            Pose2D(s.x * k, s.y * k, s.theta),
            Pose2D(g.x * k, g.y * k, g.theta),
            RADIUS * k,
        ).total_length
        assert abs(scaled - k * base) <= 1e-9 * max(1.0, scaled)


def test_sampled_endpoint_reaches_goal(rng):
    for _ in range(300):
        s = random_pose(rng)
        g = random_pose(rng)
        path = rs_shortest(s, g, RADIUS)
        xs, ys, ths, _ = rs_sample_points(path, s, 0.1)
        assert math.hypot(xs[-1] - g.x, ys[-1] - g.y) < 1e-6
        assert abs(wrap_angle(ths[-1] - g.theta)) < 1e-6


def test_sample_straight_five_meters():
    start = Pose2D(0, 0, 0)
    path = rs_shortest(start, Pose2D(5, 0, 0), RADIUS)
    xs, ys, ths, _ = rs_sample_points(path, start, 1.0)
    assert len(xs) == 6
    np.testing.assert_allclose(xs, [0, 1, 2, 3, 4, 5], atol=1e-12)
    assert all(y == 0 and th == 0 for y, th in zip(ys, ths))


def test_sample_quarter_turn_circle_geometry():
    # construct a pure left quarter-turn goal on the unit circle of radius R
    r = 4.8
    goal = Pose2D(r * math.sin(math.pi / 2), r * (1 - math.cos(math.pi / 2)), math.pi / 2)
    start = Pose2D(0, 0, 0)
    path = rs_shortest(start, goal, r)
    assert math.isclose(path.total_length, r * math.pi / 2, rel_tol=1e-9)
    xs, ys, ths, _ = rs_sample_points(path, start, 0.05)
    # every sample sits on the turning circle centred at (0, r)
    for x, y in zip(xs, ys):
        assert math.isclose(math.hypot(x, y - r), r, rel_tol=1e-9)
    assert math.isclose(ths[-1], math.pi / 2, rel_tol=1e-9)


def test_sample_spacing_bound(rng):
    for _ in range(50):
        s = random_pose(rng, span=8.0)
        g = random_pose(rng, span=8.0)
        path = rs_shortest(s, g, RADIUS)
        xs, ys, _, _ = rs_sample_points(path, s, 0.1)
        for x0, y0, x1, y1 in zip(xs, ys, xs[1:], ys[1:]):
            # chord length never exceeds the arc-length spacing
            assert math.hypot(x1 - x0, y1 - y0) <= 0.1 + 1e-9


def sparse_walk_expected(path, start, step):
    """The full samples the sparse walk should yield, picked by index, and
    the indices of the segment ends among them."""
    xs, ys, ths, _ = rs_sample_points(path, start, step)
    picked, ends, offset = [], [], 0
    for seg in path.segments:
        n = max(1, math.ceil(seg.length * path.radius / step - 1e-12))
        for i in [*range(_SPARSE_STRIDE, n, _SPARSE_STRIDE), n]:
            picked.append(offset + i)
        ends.append(len(picked) - 1)
        offset += n
    assert offset == len(xs) - 1
    return [(xs[k], ys[k], ths[k]) for k in picked], ends


def test_sparse_walk_poses_are_exact_samples(rng):
    cases = [random_pose(rng) for _ in range(600)]
    pairs = list(zip(cases[::2], cases[1::2]))
    start = Pose2D(0.3, -0.2, 0.4)
    still = (start, start)  # zero length: no segments, nothing to walk
    # 5 cm straight ahead: one segment of one sample
    one_sample = (start, Pose2D(0.3 + 0.05 * math.cos(0.4), -0.2 + 0.05 * math.sin(0.4), 0.4))
    ahead = (Pose2D(0, 0, 0), Pose2D(5, 0, 0))
    behind = (Pose2D(0, 0, 0), Pose2D(-4, 0, 0))
    pairs += [still, one_sample, ahead, behind]
    gears = set()
    for s, g in pairs:
        path = rs_shortest(s, g, RADIUS)
        want, ends = sparse_walk_expected(path, s, 0.1)
        got = list(rs_sparse_poses(path, s, 0.1))
        # bit for bit, in path order
        assert np.array(got, dtype=np.float64).tobytes() == (
            np.array(want, dtype=np.float64).tobytes()
        )
        # every segment end is walked: the last sample of the path cut
        # after that segment
        for j, k in enumerate(ends):
            head = rs_sample_points(RSPath(path.segments[: j + 1], RADIUS), s, 0.1)
            assert got[k] == tuple(v[-1] for v in head[:3])
        gears.update(seg.direction for seg in path.segments)
    assert gears == {-1, 1}
    assert list(rs_sparse_poses(rs_shortest(*still, RADIUS), start, 0.1)) == []
    short = rs_shortest(*one_sample, RADIUS)
    assert len(short.segments) == 1
    end = tuple(v[-1] for v in rs_sample_points(short, start, 0.1)[:3])
    assert list(rs_sparse_poses(short, start, 0.1)) == [end]
    # 5 m straight at 0.1 m: samples 8, 16, ..., 48 and the end, 50
    walk = list(rs_sparse_poses(rs_shortest(*ahead, RADIUS), ahead[0], 0.1))
    assert len(walk) == 50 // _SPARSE_STRIDE + 1


# -- pinned output -----------------------------------------------------------
# Words and samples recorded before the word family became one table. Ties
# are real at these goals: (0, 0, pi) has 8 equal-length reaching words,
# (0, 0, pi/2) has 4 and (0, +-5, 0) has 2, so the table's order decides
# which one comes out. Each segment is (kind, direction, float.hex(length)).

_PI_TURN = [("L", 1, "0x1.0c152382d7364p+0"), ("R", -1, "0x1.0c152382d7366p+0"),
            ("L", 1, "0x1.0c152382d7366p+0")]
_QUARTER = ["0x1.b235315c680e0p-2", "0x1.720a392c1d954p-1", "0x1.b235315c680d8p-2"]
_SIDESTEP = ["0x1.0476b91128257p-1", "0x1.ab09ff64b68ecp-1", "0x1.ab09ff64b68ecp-1",
             "0x1.0476b91128258p-1"]


@pytest.mark.parametrize("start, goal, word", [
    ((0, 0, 0), (0, 0, math.pi), _PI_TURN),
    ((0, 0, 0), (0, 0, math.pi / 2), list(zip("LRL", (1, -1, 1), _QUARTER))),
    ((0, 0, 0), (0, 0, -math.pi / 2), list(zip("LRL", (-1, 1, -1), _QUARTER))),
    ((0, 0, 0), (0, 5, 0), list(zip("RLRL", (1, -1, -1, 1), _SIDESTEP))),
    ((0, 0, 0), (0, -5, 0), list(zip("LRLR", (1, -1, -1, 1), _SIDESTEP))),
    ((0, 0, 0), (0, 2 * RADIUS, math.pi), [("L", 1, "0x1.921fb54442d18p+1")]),
    ((0, 0, 0), (RADIUS, RADIUS, math.pi / 2), [("L", 1, "0x1.921fb54442d18p+0")]),
    ((0, 0, 0), (-RADIUS, RADIUS, -math.pi / 2), [("L", -1, "0x1.921fb54442d18p+0")]),
    # a start rotated by pi in place, away from the origin
    ((1.5, -2.0, 0.7), (1.5, -2.0, 0.7 + math.pi), _PI_TURN),
])
def test_pinned_words(start, goal, word):
    path = rs_shortest(Pose2D(*start), Pose2D(*goal), RADIUS)
    got = [(seg.kind, seg.direction, seg.length.hex()) for seg in path.segments]
    assert got == word


def test_pinned_digest_of_random_paths_and_samples():
    # the digest is over float bytes, so it also pins the platform's libm
    rng = np.random.default_rng(2024)
    digest = hashlib.sha1()
    for _ in range(1000):
        a, b = rng.uniform(-20, 20, 2), rng.uniform(-20, 20, 2)
        ta, tb = rng.uniform(-math.pi, math.pi, 2)
        start = Pose2D(a[0], a[1], ta)
        path = rs_shortest(start, Pose2D(b[0], b[1], tb), RADIUS)
        for seg in path.segments:
            digest.update(f"{seg.kind}{seg.direction}{seg.length.hex()}".encode())
        for values in rs_sample_points(path, start, 0.1):
            digest.update(np.asarray(values, dtype=np.float64).tobytes())
    assert digest.hexdigest() == "f5cca8e280ae3b07bf3d63425a705e558c9917d4"
