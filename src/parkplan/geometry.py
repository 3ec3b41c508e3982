"""Vehicle footprint construction, SE(2) transforms, and collision checks.

The vehicle frame has the rear-axle center at the origin, +x forward and
+y to the left. The footprint is a chamfered rectangle: the four corners of
the L x W body box are cropped by a longitudinal offset ``crop_l`` and a
lateral offset ``crop_w``, giving a convex eight-vertex polygon.

Obstacles are sparse contour points; a pose collides when any point lies
inside or on the boundary of the world-frame footprint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import kernels
from .errors import FINITE, POSITIVE, ConfigurationError, require

TWO_PI = 2.0 * math.pi


def wrap_angle(theta):
    """Normalize an angle (scalar or array) to (-pi, pi].

    In-range values pass through bit-exactly. An angle the modulo rounds
    to -pi, such as one just above pi, maps to pi.
    """
    if isinstance(theta, (float, int)):
        if -math.pi < theta <= math.pi:
            return float(theta)
        wrapped = math.pi - (math.pi - theta) % TWO_PI
        return math.pi if wrapped == -math.pi else wrapped
    theta = np.asarray(theta)
    wrapped = np.pi - (np.pi - theta) % TWO_PI
    wrapped = np.where(wrapped == -np.pi, np.pi, wrapped)
    return np.where((theta > -np.pi) & (theta <= np.pi), theta, wrapped)


@dataclass(frozen=True)
class Pose2D:
    """Planar pose: rear-axle position in meters, heading in radians."""

    x: float
    y: float
    theta: float

    def __post_init__(self):
        object.__setattr__(self, "theta", float(wrap_angle(self.theta)))


@dataclass(frozen=True)
class VehicleSpec:
    """Physical vehicle parameters (meters / radians)."""

    wheelbase: float = 3.0
    width: float = 2.0
    rear_overhang: float = 1.025
    front_overhang: float = 3.925
    max_steer: float = math.radians(32.0)
    crop_l: float = 0.3
    crop_w: float = 0.2

    def __post_init__(self):
        require(self, POSITIVE, "wheelbase", "width", "max_steer", "crop_l", "crop_w")
        require(self, FINITE, "rear_overhang", "front_overhang")
        # past length/2 the front and rear crops cross and fold the outline;
        # a positive crop_l below length/2 also makes the length positive
        if not (self.crop_l < self.front_overhang and 2 * self.crop_l < self.length):
            raise ConfigurationError("crop_l must lie in (0, front_overhang) and below length/2")
        if not self.crop_w < self.width / 2:
            raise ConfigurationError("crop_w must lie in (0, width/2)")
        if not self.max_steer < math.pi / 2:
            raise ConfigurationError(f"max_steer must lie in (0, pi/2), got {self.max_steer}")

    @property
    def length(self) -> float:
        """Body length, rear bumper to front bumper."""
        return self.rear_overhang + self.front_overhang

    @property
    def center_offset(self) -> float:
        """Distance from the rear axle to the body's geometric center."""
        return (self.front_overhang - self.rear_overhang) / 2.0

    @property
    def min_turn_radius(self) -> float:
        return self.wheelbase / math.tan(self.max_steer)

    def geometric_center(self, pose: Pose2D) -> tuple[float, float]:
        """World (x, y) of the body's geometric center for a rear-axle
        pose."""
        d = self.center_offset
        return pose.x + d * math.cos(pose.theta), pose.y + d * math.sin(pose.theta)


@lru_cache(maxsize=None)
def footprint_polygon(spec: VehicleSpec) -> np.ndarray:
    """Chamfered body polygon for ``spec`` as an (8, 2) array,
    counter-clockwise from the rear-right cropped corner. The array is
    cached and read-only: every caller shares it."""
    lb, lf = spec.rear_overhang, spec.front_overhang
    hw, cl, cw = spec.width / 2.0, spec.crop_l, spec.crop_w
    verts = np.array(
        [
            (-lb + cl, -hw),
            (lf - cl, -hw),
            (lf, -hw + cw),
            (lf, hw - cw),
            (lf - cl, hw),
            (-lb + cl, hw),
            (-lb, hw - cw),
            (-lb, -hw + cw),
        ]
    )
    verts.setflags(write=False)
    return verts


def _rotation(theta: float) -> tuple[float, float]:
    return math.cos(theta), math.sin(theta)


def transform_to_world(points, pose: Pose2D) -> np.ndarray:
    """Rigid transform of (N, 2) points (or a single point) out of the frame
    anchored at ``pose``."""
    pts = np.asarray(points, dtype=float)
    c, s = _rotation(pose.theta)
    x = pts[..., 0]
    y = pts[..., 1]
    return np.stack([pose.x + c * x - s * y, pose.y + s * x + c * y], axis=-1)


def transform_to_ego(points, pose: Pose2D) -> np.ndarray:
    """Inverse of :func:`transform_to_world`."""
    pts = np.asarray(points, dtype=float)
    c, s = _rotation(pose.theta)
    dx = pts[..., 0] - pose.x
    dy = pts[..., 1] - pose.y
    return np.stack([c * dx + s * dy, -s * dx + c * dy], axis=-1)


def world_to_ego(ego: Pose2D, p: Pose2D) -> Pose2D:
    """Express a world-frame pose in the frame anchored at ``ego``."""
    xy = transform_to_ego((p.x, p.y), ego)
    return Pose2D(float(xy[0]), float(xy[1]), wrap_angle(p.theta - ego.theta))


def ego_to_world(ego: Pose2D, p: Pose2D) -> Pose2D:
    """Inverse of :func:`world_to_ego`."""
    xy = transform_to_world((p.x, p.y), ego)
    return Pose2D(float(xy[0]), float(xy[1]), wrap_angle(p.theta + ego.theta))


def as_obstacle_array(obstacles) -> np.ndarray:
    """Coerce an obstacle point sequence to a C-contiguous (N, 2) float array."""
    if isinstance(obstacles, np.ndarray) and obstacles.dtype == np.float64:
        arr = obstacles
    else:
        arr = np.asarray(obstacles, dtype=np.float64)
    if arr.size == 0:
        return np.empty((0, 2))
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"obstacles must be (N, 2), got shape {arr.shape}")
    return np.ascontiguousarray(arr)


def collides(pose: Pose2D, spec: VehicleSpec, obstacles) -> bool:
    """True iff any obstacle point lies inside or on the footprint boundary.

    The exact test without a raster, for one-off poses; repeated queries
    go through a :class:`CollisionWorld`."""
    return bool(
        kernels.colliding_poses(
            np.array([pose.x], dtype=np.float64),
            np.array([pose.y], dtype=np.float64),
            np.array([pose.theta], dtype=np.float64),
            footprint_polygon(spec),
            as_obstacle_array(obstacles),
        )[0]
    )


def dilate_points(points, origin, shape, resolution, radius) -> np.ndarray:
    """Boolean raster of the cells whose centre lies within ``radius``
    (inclusive) of any point. Cell (i, j) spans ``origin + (i, j) *
    resolution`` to one resolution beyond."""
    if not radius >= 0.0:
        raise ValueError(f"dilation radius must be >= 0, got {radius}")
    nx, ny = shape
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    r_cells = int(math.ceil(radius / resolution)) + 1
    offs = np.arange(-r_cells, r_cells + 1)
    # the cells of one raster row within reach of a point form one run:
    # each point adds +1 where its run starts and -1 past its end, in every
    # row it reaches, and a running sum along each row marks covered cells
    runs = np.zeros((nx, ny + 1), dtype=np.int32)
    # batches of at most 8192 point-cell pairs keep the candidate arrays small
    batch = max(1, (1 << 13) // offs.shape[0] ** 2)
    for lo in range(0, pts.shape[0], batch):
        p = pts[lo : lo + batch]
        ci = np.floor((p[:, 0] - origin[0]) / resolution).astype(int)
        cj = np.floor((p[:, 1] - origin[1]) / resolution).astype(int)
        rows = ci[:, None] + offs
        cols = cj[:, None] + offs
        dx2 = (origin[0] + (rows + 0.5) * resolution - p[:, 0:1]) ** 2
        dy2 = (origin[1] + (cols + 0.5) * resolution - p[:, 1:2]) ** 2
        within = dx2[:, :, None] + dy2[:, None, :] <= radius * radius
        first = cj[:, None] + offs[within.argmax(axis=2)]
        start = np.clip(first, 0, ny)
        stop = np.clip(first + within.sum(axis=2), 0, ny)
        keep = (rows >= 0) & (rows < nx) & (start < stop)
        np.add.at(runs, (rows[keep], start[keep]), 1)
        np.add.at(runs, (rows[keep], stop[keep]), -1)
    return np.cumsum(runs[:, :ny], axis=1, dtype=np.int32) > 0


class CollisionWorld:
    """One obstacle set prepared for many footprint queries.

    Two rasters over the same cells settle most poses before the exact
    convex test; each is a flat boolean array, row-major over cells (i, j),
    one byte per cell.

    - *Clearance raster* (``raster``). ``N_DISCS`` discs along the body
      cover the footprint (after Ziegler & Stiller, "Fast collision checking
      for intelligent vehicle motion planning", IV 2010): each covers one
      of ``N_DISCS`` equal slabs of the bounding box. It marks the cells
      whose centre lies within a covering disc's radius, plus the cell
      half-diagonal and the exact test's tolerance band, of some obstacle
      point. A pose whose covering-disc centres all fall in unmarked cells
      is free. On the default vehicle six discs rather than three shrink
      the radius from 1.30 m to 1.08 m, so the raster settles more of the
      poses that hug a wall.
    - *Deep raster* (``deep_raster``), its dual. ``N_INNER_DISCS`` equal
      discs of radius ``inner_radius`` lie inside the footprint, on its
      long axis. It marks the cells whose centre lies within
      ``deep_reach``, the inner radius less the cell half-diagonal and
      ``DEEP_EPS``, of some obstacle point. A disc centre in a marked cell
      is then nearer than the inner radius to that point, so the point lies
      strictly inside the footprint and the pose collides. ``DEEP_EPS``
      absorbs the rounding of the disc centres and the cell lookups. The
      deep raster is built on the first deep query (:meth:`colliding`,
      :meth:`surely_colliding` or :meth:`pose_surely_colliding`), so
      :meth:`pose_collides` never pays for it.

    Every other pose goes to the exact convex test, so answers equal
    :func:`kernels.colliding_poses`'s, only faster. Disc centres beyond the
    raster are clamped onto its border cells, which neither raster marks.
    Memoryviews of the two rasters serve the scalar lookups of
    :meth:`pose_collides` and :meth:`pose_surely_colliding`; the exact test
    of the former is :func:`kernels.pose_collides` over the obstacle points
    sorted by x, sorted on its first call.
    """

    N_DISCS = 6
    N_INNER_DISCS = 3
    RESOLUTION = 0.1  # meters per raster cell
    DEEP_EPS = 1e-6  # meters of rounding slack under the inner-disc radius

    def __init__(self, spec: VehicleSpec, obstacles):
        self.obstacles = as_obstacle_array(obstacles)
        self.verts = footprint_polygon(spec)
        lo, hi = self.verts.min(axis=0), self.verts.max(axis=0)
        slab = (hi[0] - lo[0]) / self.N_DISCS
        self.disc_x = lo[0] + slab * (np.arange(self.N_DISCS) + 0.5)
        self.disc_y = (lo[1] + hi[1]) / 2.0
        disc_radius = math.hypot(slab / 2.0, (hi[1] - lo[1]) / 2.0)
        # inner discs: the end ones touch the rear and the front, and the
        # radius is the least distance from a centre to an edge line
        half = float((hi - lo).min()) / 2.0
        self.inner_x = np.linspace(lo[0] + half, hi[0] - half, self.N_INNER_DISCS)
        a = self.verts
        edge = np.roll(a, -1, axis=0) - a
        inward = (
            edge[:, 0] * (self.disc_y - a[:, 1])
            - edge[:, 1] * (self.inner_x[:, None] - a[:, 0])
        ) / np.hypot(edge[:, 0], edge[:, 1])
        self.inner_radius = float(inward.min())
        # both disc sets on the long axis: the covering discs, then the inner
        self._all_x = np.concatenate([self.disc_x, self.inner_x])
        res = self.RESOLUTION
        self.deep_reach = self.inner_radius - res * math.sqrt(0.5) - self.DEEP_EPS
        # how near an obstacle point a marked cell's centre lies
        self.reach = disc_radius + res * math.sqrt(0.5) + kernels.tolerance_pad(self.verts)
        if self.obstacles.shape[0]:
            # one free cell of margin beyond the reach: a disc centre
            # outside the raster is clamped onto a free border cell
            margin = self.reach + 2.0 * res
            self.origin = self.obstacles.min(axis=0) - margin
            extent = self.obstacles.max(axis=0) + margin - self.origin
            self.shape = tuple(int(v) for v in np.ceil(extent / res).astype(int) + 1)
        else:
            # no obstacles: one unmarked cell that every disc centre clamps onto
            self.origin = np.zeros(2)
            self.shape = (1, 1)
        self.raster = dilate_points(
            self.obstacles, self.origin, self.shape, res, self.reach
        ).ravel()
        # plain Python numbers for the scalar path
        self._raster_cells = memoryview(self.raster)
        self._origin_xy = (float(self.origin[0]), float(self.origin[1]))
        self._discs = tuple((float(dx), float(self.disc_y)) for dx in self.disc_x)
        self._inner_discs = tuple((float(dx), float(self.disc_y)) for dx in self.inner_x)

    @cached_property
    def deep_raster(self) -> np.ndarray:
        """The deep raster, laid out like ``raster``; built on first use."""
        if self.deep_reach <= 0.0:
            return np.zeros_like(self.raster)
        return dilate_points(
            self.obstacles, self.origin, self.shape, self.RESOLUTION, self.deep_reach
        ).ravel()

    @cached_property
    def _deep_cells(self) -> memoryview:
        return memoryview(self.deep_raster)

    @cached_property
    def _by_x(self) -> tuple[list, np.ndarray, np.ndarray]:
        # the obstacle points sorted by x for the scalar exact test: the x
        # values as a list, then the x and y columns; built on first use
        order = np.argsort(self.obstacles[:, 0], kind="stable")
        ox = self.obstacles[order, 0]
        return ox.tolist(), ox, self.obstacles[order, 1]

    def _disc_cells(self, disc_x, xs, ys, thetas) -> np.ndarray:
        # one row per disc: the flat raster index of that disc centre's
        # cell for every pose, each axis clamped onto the raster
        xs, ys, thetas = (np.asarray(a, dtype=np.float64) for a in (xs, ys, thetas))
        c = np.cos(thetas)
        s = np.sin(thetas)
        px = xs + np.multiply.outer(disc_x, c) - s * self.disc_y
        py = ys + np.multiply.outer(disc_x, s) + c * self.disc_y
        i = np.floor((px - self.origin[0]) / self.RESOLUTION).astype(np.intp)
        j = np.floor((py - self.origin[1]) / self.RESOLUTION).astype(np.intp)
        return np.ravel_multi_index((i, j), self.shape, mode="clip")

    def surely_free(self, xs, ys, thetas) -> np.ndarray:
        """Per pose: True when the clearance raster alone proves it
        collision-free."""
        return ~self.raster[self._disc_cells(self.disc_x, xs, ys, thetas)].any(axis=0)

    def surely_colliding(self, xs, ys, thetas) -> np.ndarray:
        """Per pose: True when the deep raster alone proves it collides."""
        return self.deep_raster[self._disc_cells(self.inner_x, xs, ys, thetas)].any(axis=0)

    def _pose_disc_marked(self, cells, discs, x: float, y: float, theta: float) -> bool:
        # True when some disc centre of the pose lies in a marked cell of
        # ``cells``: math scalars over a memoryview, each axis clamped
        c = math.cos(theta)
        s = math.sin(theta)
        ox, oy = self._origin_xy
        nx, ny = self.shape
        res = self.RESOLUTION
        for dx, dy in discs:
            i = min(max(math.floor((x + dx * c - s * dy - ox) / res), 0), nx - 1)
            j = min(max(math.floor((y + dx * s + c * dy - oy) / res), 0), ny - 1)
            if cells[i * ny + j]:
                return True
        return False

    def pose_collides(self, x: float, y: float, theta: float) -> bool:
        """True when the pose at rear axle (x, y), heading ``theta``,
        collides: the scalar form of :meth:`colliding` for one pose, with
        the same answer. It makes no numpy call when the clearance raster
        settles the pose, and one pass over the points near it otherwise."""
        if self._pose_disc_marked(self._raster_cells, self._discs, x, y, theta):
            return kernels.pose_collides(x, y, theta, self.verts, self._by_x)
        return False

    def pose_surely_colliding(self, x: float, y: float, theta: float) -> bool:
        """The scalar form of :meth:`surely_colliding` for one pose: True
        when the deep raster alone proves it collides. No numpy call once
        the deep raster is built."""
        return self._pose_disc_marked(self._deep_cells, self._inner_discs, x, y, theta)

    def colliding(self, xs, ys, thetas) -> np.ndarray:
        """Per row of an (n, m) pose array: True when any pose of the row
        collides. One lookup pass finds the cells of every pose's covering
        and inner disc centres. A row with a pose in the deep raster
        collides; the other rows send only their poses in the clearance
        raster to the exact test."""
        xs, ys, thetas = (np.asarray(a, dtype=np.float64) for a in (xs, ys, thetas))
        n, m = xs.shape
        xs, ys, thetas = xs.ravel(), ys.ravel(), thetas.ravel()
        cells = self._disc_cells(self._all_x, xs, ys, thetas)
        out = self.deep_raster[cells[self.N_DISCS :]].any(axis=0).reshape(n, m).any(axis=1)
        marked = self.raster[cells[: self.N_DISCS]].any(axis=0).reshape(n, m)
        # flat pose indices; the pose at todo[k] belongs to row todo[k] // m
        todo = np.flatnonzero(marked & ~out[:, None])
        if todo.shape[0]:
            hit = kernels.colliding_poses(
                xs[todo], ys[todo], thetas[todo], self.verts, self.obstacles
            )
            out[todo[hit] // m] = True
        return out

    def first_collision(self, xs, ys, thetas) -> int:
        """Index of the first colliding pose in a sweep, or -1."""
        xs, ys, thetas = (np.asarray(a, dtype=np.float64)[:, None] for a in (xs, ys, thetas))
        hit = np.flatnonzero(self.colliding(xs, ys, thetas))
        return int(hit[0]) if hit.shape[0] else -1
