"""Shortest bounded-curvature paths for a car that drives forward and
backward (Reeds-Shepp family).

The word family is one ordered table, ``_FAMILIES``, over the segment
patterns CSC, CCC, CCCC, CCSC and CCSCC. A row says whether its family is
solved on the goal read backwards and lists its equations (``_lp_*``) with
their segment kinds and signed lengths. ``rs_shortest`` walks the table
under the time-flip and reflect symmetries, which together cover the full
optimal family, and keeps the shortest word that reaches the goal, the
first in the walk among equals: the table's order is the tie-break.
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

from .geometry import Pose2D, wrap_angle

# slack for "nonnegative segment" checks, mirroring the usual implementations
_ZERO = 1e-10
# normalized-units endpoint tolerance for accepting a candidate word
_REACH_TOL = 1e-8
# samples between the poses of ``rs_sparse_poses``: at a 0.1 m step a bit
# under one inner-disc radius of the collision world's deep raster
_SPARSE_STRIDE = 8

HALF_PI = math.pi / 2.0


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
    v = math.fmod(x, 2.0 * math.pi)
    if v < -math.pi:
        v += 2.0 * math.pi
    elif v > math.pi:
        v -= 2.0 * math.pi
    return v


def _polar(x: float, y: float) -> tuple[float, float]:
    return math.hypot(x, y), math.atan2(y, x)


# --- the base equations -----------------------------------------------------
# Each returns (t, u, v) segment parameters or None. Signs of the parameters
# encode gear; the word table below attaches segment kinds.


def _lp_sp_lp(x, y, phi):
    u, t = _polar(x - math.sin(phi), y - 1.0 + math.cos(phi))
    if t >= -_ZERO:
        v = _mod2pi(phi - t)
        if v >= -_ZERO:
            return t, u, v
    return None


def _lp_sp_rp(x, y, phi):
    u1, t1 = _polar(x + math.sin(phi), y - 1.0 - math.cos(phi))
    u1sq = u1 * u1
    if u1sq >= 4.0:
        u = math.sqrt(u1sq - 4.0)
        t = _mod2pi(t1 + math.atan2(2.0, u))
        v = _mod2pi(t - phi)
        if t >= -_ZERO and v >= -_ZERO:
            return t, u, v
    return None


def _lp_rm_l(x, y, phi):
    xi = x - math.sin(phi)
    eta = y - 1.0 + math.cos(phi)
    u1, theta = _polar(xi, eta)
    if u1 <= 4.0:
        u = -2.0 * math.asin(0.25 * u1)
        t = _mod2pi(theta + 0.5 * u + math.pi)
        v = _mod2pi(phi - t + u)
        if t >= -_ZERO and u <= _ZERO:
            return t, u, v
    return None


def _tau_omega(u, v, xi, eta, phi):
    delta = _mod2pi(u - v)
    a = math.sin(u) - math.sin(delta)
    b = math.cos(u) - math.cos(delta) - 1.0
    t1 = math.atan2(eta * a - xi * b, xi * a + eta * b)
    t2 = 2.0 * (math.cos(delta) - math.cos(v) - math.cos(u)) + 3.0
    tau = _mod2pi(t1 + math.pi) if t2 < 0.0 else _mod2pi(t1)
    omega = _mod2pi(tau - u + v - phi)
    return tau, omega


def _lp_rup_lum_rm(x, y, phi):
    xi = x + math.sin(phi)
    eta = y - 1.0 - math.cos(phi)
    rho = 0.25 * (2.0 + math.hypot(xi, eta))
    if rho <= 1.0:
        u = math.acos(rho)
        t, v = _tau_omega(u, -u, xi, eta, phi)
        if t >= -_ZERO and v <= _ZERO:
            return t, u, v
    return None


def _lp_rum_lum_rp(x, y, phi):
    xi = x + math.sin(phi)
    eta = y - 1.0 - math.cos(phi)
    rho = (20.0 - xi * xi - eta * eta) / 16.0
    if 0.0 <= rho <= 1.0:
        u = -math.acos(rho)
        if u >= -HALF_PI:
            t, v = _tau_omega(u, u, xi, eta, phi)
            if t >= -_ZERO and v >= -_ZERO:
                return t, u, v
    return None


def _lp_rm_sm_lm(x, y, phi):
    xi = x - math.sin(phi)
    eta = y - 1.0 + math.cos(phi)
    rho, theta = _polar(xi, eta)
    if rho >= 2.0:
        r = math.sqrt(rho * rho - 4.0)
        u = 2.0 - r
        t = _mod2pi(theta + math.atan2(r, -2.0))
        v = _mod2pi(phi - HALF_PI - t)
        if t >= -_ZERO and u <= _ZERO and v <= _ZERO:
            return t, u, v
    return None


def _lp_rm_sm_rm(x, y, phi):
    xi = x + math.sin(phi)
    eta = y - 1.0 - math.cos(phi)
    rho, theta = _polar(-eta, xi)
    if rho >= 2.0:
        t = theta
        u = 2.0 - rho
        v = _mod2pi(t + HALF_PI - phi)
        if t >= -_ZERO and u <= _ZERO and v <= _ZERO:
            return t, u, v
    return None


def _lp_rm_s_lm_rp(x, y, phi):
    xi = x + math.sin(phi)
    eta = y - 1.0 - math.cos(phi)
    rho, _ = _polar(xi, eta)
    if rho >= 2.0:
        u = 4.0 - math.sqrt(rho * rho - 4.0)
        if u <= _ZERO:
            t = _mod2pi(
                math.atan2((4.0 - u) * xi - 2.0 * eta, -2.0 * xi + (u - 4.0) * eta)
            )
            v = _mod2pi(t - phi)
            if t >= -_ZERO and v >= -_ZERO:
                return t, u, v
    return None


# --- the word table ---------------------------------------------------------
# Each family: (solved on the goal read backwards, i.e. the path driven from
# goal to start with its segments reversed; its equations as rows of
# (equation, kinds, (t, u, v) -> signed lengths)). Walked in this order.
_FAMILIES = (
    (False, ((_lp_sp_lp, "LSL", lambda t, u, v: (t, u, v)),  # CSC
             (_lp_sp_rp, "LSR", lambda t, u, v: (t, u, v)))),
    (False, ((_lp_rm_l, "LRL", lambda t, u, v: (t, u, v)),)),  # CCC
    (True, ((_lp_rm_l, "LRL", lambda t, u, v: (v, u, t)),)),
    (False, ((_lp_rup_lum_rm, "LRLR", lambda t, u, v: (t, u, -u, v)),  # CCCC
             (_lp_rum_lum_rp, "LRLR", lambda t, u, v: (t, u, u, v)))),
    # CCSC, its middle arc fixed at pi/2
    (False, ((_lp_rm_sm_lm, "LRSL", lambda t, u, v: (t, -HALF_PI, u, v)),
             (_lp_rm_sm_rm, "LRSR", lambda t, u, v: (t, -HALF_PI, u, v)))),
    (True, ((_lp_rm_sm_lm, "LSRL", lambda t, u, v: (v, u, -HALF_PI, t)),
            (_lp_rm_sm_rm, "RSRL", lambda t, u, v: (v, u, -HALF_PI, t)))),
    # CCSCC
    (False, ((_lp_rm_s_lm_rp, "LRSLR", lambda t, u, v: (t, -HALF_PI, u, -HALF_PI, v)),)),
)

_REFLECT = str.maketrans("LR", "RL")


def _symmetries(x: float, y: float, phi: float):
    """The goal as is, time-flipped, reflected and both, with their flags."""
    return (
        (x, y, phi, False, False),
        (-x, y, -phi, True, False),
        (x, -y, -phi, False, True),
        (-x, -y, phi, True, True),
    )


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
    ahead = _symmetries(x, y, phi)
    back = _symmetries(
        x * math.cos(phi) + y * math.sin(phi), x * math.sin(phi) - y * math.cos(phi), phi
    )

    words = []  # every solved word: (length, kinds, signed lengths, flips)
    for backwards, rows in _FAMILIES:
        for vx, vy, vphi, timeflip, reflect in back if backwards else ahead:
            for equation, kinds, signed in rows:
                tuv = equation(vx, vy, vphi)
                if tuv is not None:
                    lengths = signed(*tuv)
                    words.append((sum(map(abs, lengths)), kinds, lengths, timeflip, reflect))
    # the shortest word that reaches the goal; the sort is stable, so the
    # first in the walk wins among equals
    for _, kinds, lengths, timeflip, reflect in sorted(words, key=lambda w: w[0]):
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
