"""Exact collision kernels: point-in-polygon tests and pose sweeps, in numpy.

``colliding_poses`` flags every pose of a sweep, rejecting far obstacle
points with a circle and a box before the edge tests;
``first_colliding_pose`` is the index of its first flagged pose.
``pose_collides`` gives ``colliding_poses``'s answer for one pose with
Python scalars, over the obstacle points sorted by x.

All kernels take float64 C-contiguous arrays. Polygons are convex and
counter-clockwise; a point on the boundary counts as inside, within
``COLLISION_TOL`` on the edge cross products.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from functools import lru_cache

import numpy as np

# slack for the signed-area half-plane tests; desk-scale coordinates make
# this effectively exact while still counting boundary points as hits
COLLISION_TOL = 1e-9


def point_in_convex_polygon(points, verts):
    a = verts
    b = np.roll(verts, -1, axis=0)
    # cross((b - a), (p - a)) >= -COLLISION_TOL for every edge of a CCW polygon
    cross = (b[:, 0] - a[:, 0]) * (points[:, None, 1] - a[:, 1]) - (
        b[:, 1] - a[:, 1]
    ) * (points[:, None, 0] - a[:, 0])
    return np.all(cross >= -COLLISION_TOL, axis=1)


def tolerance_pad(verts):
    """Distance by which a point the edge tests accept may lie outside the
    polygon, plus rounding slack.

    A point passes edge ``e`` while it lies within ``COLLISION_TOL / |e|``
    of that edge's line, so the accepted region is inside the polygon offset
    by the largest such band; its corners move out by the band over the sine
    of half the interior angle.
    """
    edges = np.roll(verts, -1, axis=0) - verts
    lengths = np.hypot(edges[:, 0], edges[:, 1])
    unit = edges / lengths[:, None]
    half_sin = np.sqrt((1.0 + np.sum(unit * np.roll(unit, 1, axis=0), axis=1)) / 2.0)
    return float(COLLISION_TOL / lengths.min() / half_sin.min()) + 1e-9


@lru_cache(maxsize=16)
def _shapes(vert_bytes):
    # as Python floats: the circle about the footprint's box centre (mx, my,
    # r) and the vehicle-frame box (lo_x, lo_y, hi_x, hi_y), both padded to
    # hold every point the edge tests accept, then every edge's
    # (ax, ay, bx - ax, by - ay)
    verts = np.frombuffer(vert_bytes).reshape(-1, 2)
    pad = tolerance_pad(verts)
    lo = verts.min(axis=0)
    hi = verts.max(axis=0)
    centre = (lo + hi) / 2.0
    radius = math.sqrt(float(np.max(np.sum((verts - centre) ** 2, axis=1)))) + pad
    e = np.roll(verts, -1, axis=0) - verts
    edges = tuple(zip(*verts.T.tolist(), *e.T.tolist()))
    return (float(centre[0]), float(centre[1]), radius,
            *(lo - pad).tolist(), *(hi + pad).tolist(), edges)


# cap on pose x obstacle pairs held at once by a sweep
_MAX_PAIRS = 1 << 20


def _colliding_poses(xs, ys, thetas, verts, obstacles):
    out = np.zeros(xs.shape[0], dtype=np.bool_)
    if obstacles.shape[0] == 0 or xs.shape[0] == 0:
        return out
    mx, my, r, lo_x, lo_y, hi_x, hi_y, _ = _shapes(
        np.ascontiguousarray(verts, dtype=np.float64).tobytes()
    )
    c = np.cos(thetas)
    s = np.sin(thetas)
    # centre of the footprint's box for every pose
    cx = xs + c * mx - s * my
    cy = ys + s * mx + c * my
    ox = obstacles[:, 0]
    oy = obstacles[:, 1]
    # only the obstacles near some pose take part in the pairwise tests
    keep = (
        (ox >= cx.min() - r) & (ox <= cx.max() + r)
        & (oy >= cy.min() - r) & (oy <= cy.max() + r)
    )
    ox = ox[keep]
    oy = oy[keep]
    if ox.shape[0] == 0:
        return out
    if xs.shape[0] > 1 and xs.shape[0] * ox.shape[0] > _MAX_PAIRS:
        h = xs.shape[0] // 2
        sub = np.stack([ox, oy], axis=1)
        out[:h] = _colliding_poses(xs[:h], ys[:h], thetas[:h], verts, sub)
        out[h:] = _colliding_poses(xs[h:], ys[h:], thetas[h:], verts, sub)
        return out
    # circle about the box centre, then the vehicle-frame box, then the
    # edge tests on the few points left
    near = (ox[None, :] - cx[:, None]) ** 2 + (oy[None, :] - cy[:, None]) ** 2 <= r * r
    pose, k = np.nonzero(near)
    if pose.shape[0] == 0:
        return out
    dx = ox[k] - xs[pose]
    dy = oy[k] - ys[pose]
    cp = c[pose]
    sp = s[pose]
    lx = cp * dx + sp * dy
    ly = -sp * dx + cp * dy
    inbox = (lx >= lo_x) & (lx <= hi_x) & (ly >= lo_y) & (ly <= hi_y)
    if not inbox.any():
        return out
    local = np.stack([lx[inbox], ly[inbox]], axis=1)
    out[pose[inbox][point_in_convex_polygon(local, verts)]] = True
    return out


def pose_collides(x, y, theta, verts, by_x):
    """``colliding_poses`` for one pose, over the obstacle points sorted by x.

    ``by_x`` holds the sorted x values as a list and the x and y columns in
    that order. The points whose x passes the circle's bounds are found by
    bisection; the rest of the test makes the kernel's comparisons on the
    same float operations, so the answer is the kernel's. That holds while
    ``math.cos`` and ``math.sin`` give numpy's values bit for bit, which
    ``tests/test_geometry.py`` checks on the poses it compares.
    """
    mx, my, r, lo_x, lo_y, hi_x, hi_y, edges = _shapes(verts.tobytes())
    xs_sorted, ox, oy = by_x
    c = math.cos(theta)
    s = math.sin(theta)
    cx = x + c * mx - s * my
    cy = y + s * mx + c * my
    i = bisect_left(xs_sorted, cx - r)
    j = bisect_right(xs_sorted, cx + r)
    if i == j:
        return False
    dx = ox[i:j] - x
    dy = oy[i:j] - y
    lx = c * dx + s * dy
    ly = -s * dx + c * dy
    inbox = np.flatnonzero((lx >= lo_x) & (lx <= hi_x) & (ly >= lo_y) & (ly <= hi_y))
    for k in inbox.tolist():
        px, py, u, v = float(ox[i + k]), float(oy[i + k]), float(lx[k]), float(ly[k])
        # products, not ** 2: the kernel squares arrays by multiplication
        ex = px - cx
        ey = py - cy
        if (
            cy - r <= py <= cy + r
            and ex * ex + ey * ey <= r * r
            and all(ux * (v - ay) - uy * (u - ax) >= -COLLISION_TOL
                    for ax, ay, ux, uy in edges)
        ):
            return True
    return False


def first_colliding_pose(xs, ys, thetas, verts, obstacles):
    hit = np.flatnonzero(_colliding_poses(xs, ys, thetas, verts, obstacles))
    return int(hit[0]) if hit.shape[0] else -1


# the public name of the sweep; calls inside this module use the private
# one, so a tracer that wraps the public name sees each caller's sweep once
colliding_poses = _colliding_poses
