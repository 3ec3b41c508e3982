"""Shortest bounded-curvature paths for a car that drives forward and
backward (Reeds-Shepp family).

The word families are CSC, CCC, CCCC, CCSC and CCSCC, with CCC and CCSC
also solved on the goal read backwards. ``_solve`` holds every word's
equations as straight-line code, written once and listed within each
family in tie-break order; ``rs_shortest`` runs it once per time-flip and
reflect symmetry variant, which together cover the full optimal family,
collects the candidates per family and joins the families in
``_FAMILIES`` order. It keeps the shortest word that reaches the goal, the
first in that order among equals, so the order is the tie-break.
Lengths are computed in normalized units (turning radius 1);
``RSPath.total_length`` scales back to meters.

One function, ``_segment_poses``, holds the geometry of a segment. A
candidate word is composed through it at radius 1 before it can win, so a
formula returning a non-reaching word is discarded rather than
propagated; the sampler calls it at the path's radius. The full sampler
``rs_sample_points`` and the sparse walk ``rs_sparse_poses`` share one
per-segment sample formula, ``_segment_samples``, so every sparse pose is
bit for bit one of the full samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter

from .geometry import Pose2D, wrap_angle

# slack for "nonnegative segment" checks, mirroring the usual implementations
_ZERO = 1e-10
# normalized-units endpoint tolerance for accepting a candidate word
_REACH_TOL = 1e-8
# samples between the poses of ``rs_sparse_poses``: at a 0.1 m step a bit
# under one inner-disc radius of the collision world's deep raster
_SPARSE_STRIDE = 8

HALF_PI = math.pi / 2.0
_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class RSSegment:
    kind: str  # "L" | "S" | "R"
    direction: int  # +1 forward, -1 backward
    length: float  # nonnegative, normalized units (radians for arcs)


@dataclass(frozen=True)
class RSPath:
    segments: tuple[RSSegment, ...]
    radius: float

    @property
    def total_length(self) -> float:
        """Path length in meters."""
        return sum(s.length for s in self.segments) * self.radius


def _mod2pi(x: float) -> float:
    v = math.fmod(x, _TWO_PI)
    if v < -math.pi:
        v += _TWO_PI
    elif v > math.pi:
        v -= _TWO_PI
    return v


# --- the word families ------------------------------------------------------
# In tie-break order. A family "backwards" is solved on the goal read
# backwards: the path driven from goal to start with its segments reversed.
# ``_solve`` writes each family's candidates to its own bucket, and
# ``rs_shortest`` joins the buckets in this order.
_FAMILIES = ("CSC", "CCC", "CCC backwards", "CCCC", "CCSC", "CCSC backwards", "CCSCC")

_REFLECT = str.maketrans("LR", "RL")


def _solve(x, y, xb, yb, phi, sp, cp, timeflip, reflect, found):
    """Append every word of one symmetry variant to its family's bucket in
    ``found``: (length, kinds, signed lengths, timeflip, reflect).

    (x, y, phi) is the goal and (xb, yb, phi) the goal read backwards, both
    already flipped and reflected; ``sp`` and ``cp`` are sin and cos of
    ``phi``. Within a family the words come in the order listed.
    """
    csc, ccc, ccc_b, cccc, ccsc, ccsc_b, ccscc = found  # _FAMILIES order
    # the polar pairs of the circle centres every equation starts from
    xm = x - sp
    ym = y - 1.0 + cp
    rm, tm = math.hypot(xm, ym), math.atan2(ym, xm)
    xp = x + sp
    yp = y - 1.0 - cp
    rp, tp = math.hypot(xp, yp), math.atan2(yp, xp)

    # CSC: L+S+L+ and L+S+R+
    if tm >= -_ZERO:
        v = _mod2pi(phi - tm)
        if v >= -_ZERO:
            csc.append((abs(tm) + rm + abs(v), "LSL", (tm, rm, v), timeflip, reflect))
    u1sq = rp * rp
    if u1sq >= 4.0:
        u = math.sqrt(u1sq - 4.0)
        t = _mod2pi(tp + math.atan2(2.0, u))
        v = _mod2pi(t - phi)
        if t >= -_ZERO and v >= -_ZERO:
            csc.append((abs(t) + u + abs(v), "LSR", (t, u, v), timeflip, reflect))

    # CCC: L+R-L, then read backwards
    if rm <= 4.0:
        u = -2.0 * math.asin(0.25 * rm)
        t = _mod2pi(tm + 0.5 * u + math.pi)
        v = _mod2pi(phi - t + u)
        if t >= -_ZERO and u <= _ZERO:
            ccc.append((abs(t) + abs(u) + abs(v), "LRL", (t, u, v), timeflip, reflect))
    xbm = xb - sp
    ybm = yb - 1.0 + cp
    rbm, tbm = math.hypot(xbm, ybm), math.atan2(ybm, xbm)
    if rbm <= 4.0:
        u = -2.0 * math.asin(0.25 * rbm)
        t = _mod2pi(tbm + 0.5 * u + math.pi)
        v = _mod2pi(phi - t + u)
        if t >= -_ZERO and u <= _ZERO:
            ccc_b.append((abs(v) + abs(u) + abs(t), "LRL", (v, u, t), timeflip, reflect))

    # CCCC: L+R+L-R- and L+R-L-R+
    rho = 0.25 * (2.0 + rp)
    if rho <= 1.0:
        u = math.acos(rho)
        delta = _mod2pi(u + u)
        cu, cd = math.cos(u), math.cos(delta)
        a = math.sin(u) - math.sin(delta)
        b = cu - cd - 1.0
        t1 = math.atan2(yp * a - xp * b, xp * a + yp * b)
        t2 = 2.0 * (cd - math.cos(-u) - cu) + 3.0
        t = _mod2pi(t1 + math.pi if t2 < 0.0 else t1)
        v = _mod2pi(t - u - u - phi)
        if t >= -_ZERO and v <= _ZERO:
            cccc.append((abs(t) + u + u + abs(v), "LRLR", (t, u, -u, v), timeflip, reflect))
    rho = (20.0 - xp * xp - yp * yp) / 16.0
    if 0.0 <= rho <= 1.0:
        u = -math.acos(rho)
        if u >= -HALF_PI:
            # the middle arcs are equal: their difference is 0, whose sine
            # is 0 and cosine 1
            a = math.sin(u)
            cu = math.cos(u)
            b = cu - 1.0 - 1.0
            t1 = math.atan2(yp * a - xp * b, xp * a + yp * b)
            t2 = 2.0 * (1.0 - cu - cu) + 3.0
            t = _mod2pi(t1 + math.pi if t2 < 0.0 else t1)
            v = _mod2pi(t - u + u - phi)
            if t >= -_ZERO and v >= -_ZERO:
                cccc.append((abs(t) + abs(u) + abs(u) + abs(v), "LRLR", (t, u, u, v), timeflip, reflect))

    # CCSC, its middle arc fixed at pi/2: L+R-S-L- and L+R-S-R-, then
    # read backwards
    if rm >= 2.0:
        r = math.sqrt(rm * rm - 4.0)
        u = 2.0 - r
        t = _mod2pi(tm + math.atan2(r, -2.0))
        v = _mod2pi(phi - HALF_PI - t)
        if t >= -_ZERO and u <= _ZERO and v <= _ZERO:
            ccsc.append((abs(t) + HALF_PI + abs(u) + abs(v), "LRSL",
                         (t, -HALF_PI, u, v), timeflip, reflect))
    rho = math.hypot(-yp, xp)
    if rho >= 2.0:
        t = math.atan2(xp, -yp)
        u = 2.0 - rho
        v = _mod2pi(t + HALF_PI - phi)
        if t >= -_ZERO and u <= _ZERO and v <= _ZERO:
            ccsc.append((abs(t) + HALF_PI + abs(u) + abs(v), "LRSR",
                         (t, -HALF_PI, u, v), timeflip, reflect))
    if rbm >= 2.0:
        r = math.sqrt(rbm * rbm - 4.0)
        u = 2.0 - r
        t = _mod2pi(tbm + math.atan2(r, -2.0))
        v = _mod2pi(phi - HALF_PI - t)
        if t >= -_ZERO and u <= _ZERO and v <= _ZERO:
            ccsc_b.append((abs(v) + abs(u) + HALF_PI + abs(t), "LSRL",
                           (v, u, -HALF_PI, t), timeflip, reflect))
    xbp = xb + sp
    ybp = yb - 1.0 - cp
    rho = math.hypot(-ybp, xbp)
    if rho >= 2.0:
        t = math.atan2(xbp, -ybp)
        u = 2.0 - rho
        v = _mod2pi(t + HALF_PI - phi)
        if t >= -_ZERO and u <= _ZERO and v <= _ZERO:
            ccsc_b.append((abs(v) + abs(u) + HALF_PI + abs(t), "RSRL",
                           (v, u, -HALF_PI, t), timeflip, reflect))

    # CCSCC: L+R-S-L-R+, its two inner arcs fixed at pi/2
    if rp >= 2.0:
        u = 4.0 - math.sqrt(rp * rp - 4.0)
        if u <= _ZERO:
            t = _mod2pi(math.atan2((4.0 - u) * xp - 2.0 * yp, -2.0 * xp + (u - 4.0) * yp))
            v = _mod2pi(t - phi)
            if t >= -_ZERO and v >= -_ZERO:
                ccscc.append((abs(t) + HALF_PI + abs(u) + HALF_PI + abs(v), "LRSLR",
                              (t, -HALF_PI, u, -HALF_PI, v), timeflip, reflect))


def _segment_poses(x: float, y: float, theta: float, kind: str, params, radius: float):
    """Poses (x, y, heading not wrapped) reached from (x, y, theta) along one
    segment of ``kind`` at turning radius ``radius``, one for each signed
    parameter in ``params`` (radians on an arc, radii along a straight)."""
    c, s = math.cos(theta), math.sin(theta)
    if kind == "S":
        return [(x + p * radius * c, y + p * radius * s, theta) for p in params]
    if kind == "L":
        return [
            (x + radius * (math.sin(theta + p) - s),
             y + radius * (-math.cos(theta + p) + c),
             theta + p)
            for p in params
        ]
    return [
        (x + radius * (-math.sin(theta - p) + s),
         y + radius * (math.cos(theta - p) - c),
         theta - p)
        for p in params
    ]


def _word_reaches(kinds: str, lengths, x: float, y: float, phi: float) -> bool:
    cx, cy, cth = 0.0, 0.0, 0.0
    for kind, s in zip(kinds, lengths):
        cx, cy, cth = _segment_poses(cx, cy, cth, kind, (s,), 1.0)[0]
    return (
        abs(cx - x) <= _REACH_TOL
        and abs(cy - y) <= _REACH_TOL
        and abs(_mod2pi(cth - phi)) <= _REACH_TOL
    )


def rs_shortest(start: Pose2D, goal: Pose2D, radius: float) -> RSPath:
    """Minimum-length Reeds-Shepp path from ``start`` to ``goal``.

    Ties break by the order of ``_FAMILIES``, so results are deterministic.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    c, s = math.cos(start.theta), math.sin(start.theta)
    dx = goal.x - start.x
    dy = goal.y - start.y
    x = (c * dx + s * dy) / radius
    y = (-s * dx + c * dy) / radius
    phi = float(wrap_angle(goal.theta - start.theta))
    sp, cp = math.sin(phi), math.cos(phi)
    sn, cn = math.sin(-phi), math.cos(-phi)
    # the goal read backwards
    xb = x * cp + y * sp
    yb = x * sp - y * cp

    # the four symmetry variants: as is, time-flipped, reflected and both
    found = tuple([] for _ in _FAMILIES)
    _solve(x, y, xb, yb, phi, sp, cp, False, False, found)
    _solve(-x, y, -xb, yb, -phi, sn, cn, True, False, found)
    _solve(x, -y, xb, -yb, -phi, sn, cn, False, True, found)
    _solve(-x, -y, -xb, -yb, phi, sp, cp, True, True, found)
    words = [w for family in found for w in family]
    # the shortest word that reaches the goal; the sort is stable, so the
    # first in the walk wins among equals
    for _, kinds, lengths, timeflip, reflect in sorted(words, key=itemgetter(0)):
        if timeflip:
            lengths = tuple(-ln for ln in lengths)
        if reflect:
            kinds = kinds.translate(_REFLECT)
        if _word_reaches(kinds, lengths, x, y, phi):
            break
    else:
        kinds, lengths = "", ()

    segments = tuple(
        RSSegment(kind, 1 if ln >= 0 else -1, abs(ln))
        for kind, ln in zip(kinds, lengths)
        if abs(ln) > _ZERO
    )
    return RSPath(segments, radius)


def _segment_samples(path: RSPath, start: Pose2D, step: float, stride: int):
    """Per segment of ``path`` driven from ``start``: its direction and the
    poses of its samples ``stride``, ``2 * stride``, ... and of its end,
    where a segment of n samples at arc-length spacing <= ``step`` meters
    has sample i at i/n of its signed length. Stride 1 is every sample."""
    if step <= 0:
        raise ValueError("step must be positive")
    radius = path.radius
    x, y, theta = start.x, start.y, start.theta
    for seg in path.segments:
        n = max(1, int(math.ceil(seg.length * radius / step - 1e-12)))
        signed = seg.direction * seg.length
        ticks = [*range(stride, n, stride), n]
        poses = _segment_poses(
            x, y, theta, seg.kind, [signed * (i / n) for i in ticks], radius
        )
        yield seg.direction, poses
        x, y, theta = poses[-1]


def rs_sample_points(path: RSPath, start: Pose2D, step: float):
    """Poses along ``path`` at arc-length spacing <= ``step`` meters, as
    four lists: x, y, heading (not wrapped) and the motion direction that
    produced each pose (0 for the start pose, which is included). Segment
    endpoints are always included; consecutive poses follow exact
    constant-curvature motion."""
    xs, ys, ths, dirs = [start.x], [start.y], [start.theta], [0]
    for direction, poses in _segment_samples(path, start, step, 1):
        px, py, pth = zip(*poses)
        xs += px
        ys += py
        ths += pth
        dirs += [direction] * len(poses)
    return xs, ys, ths, dirs


def rs_sparse_poses(path: RSPath, start: Pose2D, step: float):
    """Yield, in path order, every ``_SPARSE_STRIDE``-th pose of each
    segment's :func:`rs_sample_points` samples and every segment end, as
    (x, y, heading not wrapped) tuples. Each is bit for bit the matching
    full sample; the start pose is not yielded. Poses are made one segment
    at a time, so a caller that stops early skips the later segments."""
    for _, poses in _segment_samples(path, start, step, _SPARSE_STRIDE):
        yield from poses
