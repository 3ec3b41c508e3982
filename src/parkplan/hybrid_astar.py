"""Hybrid A* baseline planner.

Best-first search over continuous poses indexed by (x cell, y cell, heading
bin, motion direction). Successors are constant-steering arcs of one motion
resolution, integrated in sub-steps small enough that thin contour
obstacles cannot slip between collision checks. A Reeds-Shepp connection
to the goal is attempted on the start node and then on every n-th
expansion, n = max(1, floor(h / min_turn_radius)) with h the node's
unweighted heuristic, so the shots grow denser as the goal nears (Dolgov
et al., IJRR 2010); the first collision-free connection ends the search,
and a search ends no other way. All successor arcs of one
expansion are integrated together, and their keys and costs are computed
in one numpy pass each. Only the arcs the search can keep are swept: an
arc whose key is closed, or already held at no greater cost, is dropped
before the sweep. The kept arcs are swept in one call against the
scenario's collision world (:meth:`Scenario.world`). Two of its rasters
settle most poses without the exact test: a successor pose whose covering
discs miss the clearance raster is free, and one with an inner-disc
centre in the deep raster collides, and with it its whole arc, whose
other poses then skip the exact test. A Reeds-Shepp shot first walks a
sparse subset of its 0.1 m samples, every eighth of each segment and
each segment end, with the scalar deep-raster test and is rejected at the
first pose it proves colliding; most shots end there, before the full
sampling is built. A shot that survives the walk is sampled in full and
swept as one row of the same call. Every sparse pose is one of the full
samples and the deep raster is sound, so the walk rejects no shot that
the full check would accept.

A node keeps search state only: its pose, the motion sign and steer of the
arc that reached it, its cost, its parent's key and that arc's row in the
successor table. The returned path is integrated again from its chain:
each search arc comes from its parent's full successor batch, computed as
the expansion computed it, so every path pose is, bit for bit, a pose the
sweep checked.

Arc cost (:func:`arc_cost`):

    motion_resolution * (1 or backward_cost)
    + switch_back_cost  * [direction changed]
    + steer_angle_cost  * |steer|
    + steer_change_cost * |steer - parent steer|

Search-arc costs are tabulated once per query, by parent row: one row per
successor-table row plus the start's, one column per successor arc. An
expansion adds its node's cost to its row. The same formula prices the
Reeds-Shepp suffix, one segment per arc with |steer| = max_steer on curves.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import COUNT, NON_NEGATIVE, POSITIVE, POSITIVE_OR_INF, InputError, require
from .geometry import CollisionWorld, Pose2D, VehicleSpec, dilate_points, wrap_angle
from .reeds_shepp import rs_sample_points, rs_shortest, rs_sparse_poses
from .scenarios import Scenario

GRID_MARGIN = 5.0  # heuristic grid inflation beyond the scene bbox, meters


@dataclass(frozen=True)
class PlannerConfig:
    xy_resolution: float = 0.5  # meters
    theta_resolution: float = math.radians(5.0)
    motion_resolution: float = 1.0  # arc length per expansion, meters
    n_steer: int = 20
    switch_back_cost: float = 2.0
    backward_cost: float = 1.3
    steer_angle_cost: float = 0.2
    steer_change_cost: float = 0.1
    heuristic_weight: float = 1.0
    time_budget: float = 10.0  # seconds per query
    substep: float = 0.1  # collision sampling resolution along arcs

    def __post_init__(self):
        require(self, POSITIVE, "xy_resolution", "theta_resolution", "motion_resolution",
                "substep")
        require(self, POSITIVE_OR_INF, "time_budget")
        require(self, COUNT, "n_steer")
        # zero is legal: a zero cost drops its term, a zero weight searches
        # uniform-cost; a negative or NaN weight or cost misorders the open set
        require(self, NON_NEGATIVE, "switch_back_cost", "backward_cost", "steer_angle_cost",
                "steer_change_cost", "heuristic_weight")


@dataclass(frozen=True)
class Arc:
    """Annotation for one planned motion: a search arc or an RS segment."""

    steer: float  # radians (signed)
    direction: int  # +1 forward, -1 backward
    length: float  # meters (nonnegative)
    kind: str = "arc"  # arc | rs


@dataclass
class PlannedPath:
    poses: list[Pose2D]
    directions: list[int]  # motion sign that produced each pose; 0 for the start
    cost: float
    planning_time: float
    arcs: list[Arc] = field(default_factory=list)
    nodes_expanded: int = 0
    shots: int = 0  # Reeds-Shepp shots attempted

    @property
    def length(self) -> float:
        return sum(a.length for a in self.arcs)


@dataclass
class PlanFailure:
    reason: str  # timeout | exhausted
    nodes_expanded: int
    planning_time: float
    shots: int = 0  # Reeds-Shepp shots attempted

    def __str__(self):
        return (
            f"planning failed ({self.reason}) after {self.nodes_expanded} "
            f"expansions in {self.planning_time:.2f}s"
        )


def arc_cost(cfg: PlannerConfig, length, steer, direction, prev_steer, prev_direction):
    """The cost of an arc after a parent arc; the arguments broadcast as
    numpy arrays, and the result is a numpy float or array."""
    cost = length * np.where(direction > 0, 1.0, cfg.backward_cost)
    switched = (prev_direction != 0) & (direction != prev_direction)
    cost = cost + np.where(switched, cfg.switch_back_cost, 0.0)
    cost = cost + cfg.steer_angle_cost * np.abs(steer)
    return cost + cfg.steer_change_cost * np.abs(steer - prev_steer)


# ---------------------------------------------------------------------------
# 2D holonomic heuristic
# ---------------------------------------------------------------------------


class HolonomicCostMap:
    """8-connected shortest-path distance to the goal cell, obstacles
    dilated by half the vehicle width. Unreachable cells are infinite, and
    every cell is when the goal cell is blocked."""

    def __init__(self, origin, shape, resolution, cost):
        self.origin = origin
        self.shape = shape
        self.resolution = resolution
        self.cost = cost  # (nx, ny) float array, +inf where unreachable

    def cell(self, x: float, y: float) -> tuple[int, int]:
        return (
            int(math.floor((x - self.origin[0]) / self.resolution)),
            int(math.floor((y - self.origin[1]) / self.resolution)),
        )

    def value(self, x: float, y: float) -> float:
        i, j = self.cell(x, y)
        if 0 <= i < self.shape[0] and 0 <= j < self.shape[1]:
            return float(self.cost[i, j])
        return math.inf


def holonomic_heuristic(
    obstacles,
    goal: Pose2D,
    cfg: PlannerConfig,
    spec: VehicleSpec,
    extra_points=(),
) -> HolonomicCostMap:
    """Distance-to-goal map over a grid covering the obstacles, the goal,
    and any ``extra_points`` (typically the start pose)."""
    obstacles = np.asarray(obstacles, dtype=float).reshape(-1, 2)
    anchors = [np.array([[goal.x, goal.y]])]
    if obstacles.shape[0]:
        anchors.append(obstacles)
    for p in extra_points:
        anchors.append(np.array([[p[0], p[1]]]))
    pts = np.concatenate(anchors, axis=0)
    res = cfg.xy_resolution
    lo = pts.min(axis=0) - GRID_MARGIN
    hi = pts.max(axis=0) + GRID_MARGIN
    nx = int(math.ceil((hi[0] - lo[0]) / res)) + 1
    ny = int(math.ceil((hi[1] - lo[1]) / res)) + 1

    blocked = dilate_points(obstacles, lo, (nx, ny), res, spec.width / 2.0)

    cost = np.full((nx, ny), math.inf)
    gmap = HolonomicCostMap((float(lo[0]), float(lo[1])), (nx, ny), res, cost)
    gi, gj = gmap.cell(goal.x, goal.y)
    if blocked[gi, gj]:
        return gmap
    cost[gi, gj] = 0.0
    diag = math.sqrt(2.0) * res
    moves = [
        (1, 0, res), (-1, 0, res), (0, 1, res), (0, -1, res),
        (1, 1, diag), (1, -1, diag), (-1, 1, diag), (-1, -1, diag),
    ]
    heap = [(0.0, gi, gj)]
    while heap:
        c, i, j = heapq.heappop(heap)
        if c > cost[i, j]:
            continue
        for di, dj, w in moves:
            ni, nj = i + di, j + dj
            if 0 <= ni < nx and 0 <= nj < ny and not blocked[ni, nj]:
                nc = c + w
                if nc < cost[ni, nj]:
                    cost[ni, nj] = nc
                    heapq.heappush(heap, (nc, ni, nj))
    return gmap


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


@dataclass
class _Node:
    x: float
    y: float
    theta: float
    direction: int  # motion sign of the arc that reached this node (0 at start)
    steer: float
    g: float
    parent_key: tuple | None
    row: int  # successor-table row of the arc that reached this node, or the start row


def _keys(cfg: PlannerConfig, xs, ys, thetas, directions) -> list[tuple]:
    """Search keys (x cell, y cell, heading bin, direction) of many poses,
    in one numpy pass. Headings must lie in [-pi, pi], as ``arc_poses``
    and ``Pose2D`` give them; -pi is binned as pi, as ``wrap_angle`` maps
    it."""
    thetas = np.where(thetas == -np.pi, np.pi, thetas)
    return list(
        zip(
            np.floor(xs / cfg.xy_resolution).astype(int).tolist(),
            np.floor(ys / cfg.xy_resolution).astype(int).tolist(),
            np.floor(thetas / cfg.theta_resolution).astype(int).tolist(),
            directions,
        )
    )


def analytic_expansion(
    pose: Pose2D,
    goal: Pose2D,
    spec: VehicleSpec,
    cfg: PlannerConfig,
    world: CollisionWorld,
):
    """Attempt a Reeds-Shepp connection from ``pose`` to ``goal``.

    Returns (rs_path, its samples as :func:`rs_sample_points` gives them)
    when every sample is collision-free in ``world``, else None.
    """
    rs = rs_shortest(pose, goal, spec.min_turn_radius)
    # most shots collide early: a sparse walk over a subset of the samples
    # rejects them at the first one the deep raster proves colliding,
    # before the full sampling is built
    surely = world.pose_surely_colliding
    if any(surely(x, y, th) for x, y, th in rs_sparse_poses(rs, pose, cfg.substep)):
        return None
    points = rs_sample_points(rs, pose, cfg.substep)
    xs, ys, ths = np.array(points[:3])
    if world.colliding(xs[None], ys[None], wrap_angle(ths)[None])[0]:
        return None
    return rs, points


def plan(scenario: Scenario, spec: VehicleSpec, cfg: PlannerConfig):
    """Search for a collision-free path from the scenario's initial pose to
    its target pose. Returns a :class:`PlannedPath` or a :class:`PlanFailure`.
    """
    t0 = time.perf_counter()
    start = scenario.initial_pose
    goal = scenario.target_pose
    world = scenario.world(spec)
    if world.pose_collides(start.x, start.y, start.theta):
        raise InputError("start pose collides with obstacles")
    if world.pose_collides(goal.x, goal.y, goal.theta):
        raise InputError("goal pose collides with obstacles")

    hmap = holonomic_heuristic(
        scenario.obstacles, goal, cfg, spec, extra_points=[(start.x, start.y)]
    )

    min_radius = spec.min_turn_radius
    h_cache: dict[tuple, float] = {}

    def heuristic(x, y, theta, key3):
        # cached per discrete cell: poses in one cell share the estimate
        h = h_cache.get(key3)
        if h is None:
            h = rs_shortest(Pose2D(x, y, theta), goal, min_radius).total_length
            h2d = hmap.value(x, y)
            # an infinite 2D value means the axle sits inside the dilated
            # band next to a wall, or the goal cell itself is blocked (a
            # very tight bay); fall back to the Reeds-Shepp length, never prune
            if not math.isinf(h2d):
                h = max(h, h2d)
            h_cache[key3] = h
        return h

    # a single steering value is the straight arc, not a hard lock
    steer_values = (
        [float(s) for s in np.linspace(-spec.max_steer, spec.max_steer, cfg.n_steer)]
        if cfg.n_steer > 1 else [0.0]
    )
    n_sub = max(1, int(math.ceil(cfg.motion_resolution / cfg.substep)))
    # every successor arc of an expansion, forward arcs first
    arc_dirs = [d for d in (1, -1) for _ in steer_values]
    arc_steers = steer_values * 2
    # per-arc step length and heading change of one sub-step
    arc_d = np.array(arc_dirs, dtype=float) * cfg.motion_resolution / n_sub
    arc_dth = arc_d / spec.wheelbase * np.array([math.tan(s) for s in arc_steers])
    sub_index = np.arange(n_sub)
    # cost of each successor arc (column) after each parent row: the
    # successor rows, then the start's (steer 0, no direction)
    start_row = len(arc_dirs)
    steers, dirs = np.array(arc_steers + [0.0]), np.array(arc_dirs + [0])
    arc_costs = arc_cost(cfg, cfg.motion_resolution, steers[:-1], dirs[:-1],
                         steers[:, None], dirs[:, None])

    def arc_poses(node):
        """Sub-step poses (xs, ys, thetas), each (arcs, sub-steps), of every
        successor arc of ``node``: the heading before each sub-step, then
        positions by cumulative sum."""
        ths_pre = node.theta + arc_dth[:, None] * sub_index
        xs = node.x + arc_d[:, None] * np.cumsum(np.cos(ths_pre), axis=1)
        ys = node.y + arc_d[:, None] * np.cumsum(np.sin(ths_pre), axis=1)
        ths = np.pi - (np.pi - (ths_pre + arc_dth[:, None])) % (2.0 * np.pi)
        return xs, ys, ths

    start_key = _keys(
        cfg, np.array([start.x]), np.array([start.y]), np.array([start.theta]), [0]
    )[0]
    nodes: dict[tuple, _Node] = {
        start_key: _Node(start.x, start.y, start.theta, 0, 0.0, 0.0, None, start_row)
    }
    counter = 0
    open_heap = [
        (
            cfg.heuristic_weight
            * heuristic(start.x, start.y, start.theta, start_key[:3]),
            0,
            start_key,
        )
    ]
    closed: set = set()
    expanded = 0
    shots = 0

    while open_heap:
        if time.perf_counter() - t0 > cfg.time_budget:
            return PlanFailure("timeout", expanded, time.perf_counter() - t0, shots)
        _, _, key = heapq.heappop(open_heap)
        if key in closed:
            continue
        closed.add(key)
        node = nodes[key]
        expanded += 1

        # analytic shortcut to the goal, tried every n-th expansion with n
        # the node's heuristic in turning radii (Dolgov et al., IJRR 2010):
        # far from the goal a shot almost never clears, and the unweighted
        # cached estimate keeps n defined at any heuristic weight
        every = max(1, math.floor(h_cache[key[:3]] / min_radius))
        if (expanded - 1) % every == 0:
            shots += 1
            shot = analytic_expansion(
                Pose2D(node.x, node.y, node.theta), goal, spec, cfg, world
            )
            if shot is not None:
                rs, points = shot
                return _reconstruct(
                    cfg, spec, nodes, key, arc_poses, rs, points, expanded, shots, t0
                )

        arc_xs, arc_ys, arc_ths = arc_poses(node)
        end_xs, end_ys, end_ths = arc_xs[:, -1], arc_ys[:, -1], arc_ths[:, -1]
        succ_keys = _keys(cfg, end_xs, end_ys, end_ths, arc_dirs)
        succ_g = (node.g + arc_costs[node.row]).tolist()
        # sweep only the arcs the loop below could keep: a held cost only
        # falls within an expansion, so an arc whose key is closed or held
        # at no greater cost now is dropped there whatever the sweep says
        sweep = []
        for a, nkey in enumerate(succ_keys):
            held = nodes.get(nkey)
            if nkey not in closed and (held is None or held.g > succ_g[a]):
                sweep.append(a)
        if not sweep:
            continue
        # an arc is rejected iff any of its sub-step poses collides
        blocked = world.colliding(arc_xs[sweep], arc_ys[sweep], arc_ths[sweep]).tolist()
        for i, a in enumerate(sweep):
            if blocked[i]:
                continue
            nkey, g = succ_keys[a], succ_g[a]
            # an earlier arc of this expansion may have reached the same key
            existing = nodes.get(nkey)
            if existing is not None and existing.g <= g:
                continue
            x, y, th = float(end_xs[a]), float(end_ys[a]), float(end_ths[a])
            nodes[nkey] = _Node(x, y, th, arc_dirs[a], arc_steers[a], g, key, a)
            counter += 1
            f = g + cfg.heuristic_weight * heuristic(x, y, th, nkey[:3])
            heapq.heappush(open_heap, (f, counter, nkey))

    return PlanFailure("exhausted", expanded, time.perf_counter() - t0, shots)


def _reconstruct(cfg, spec, nodes, key, arc_poses, rs, rs_points, expanded, shots, t0):
    """The path through the search chain ending at ``key``, each arc read
    from its parent's successor batch, then the Reeds-Shepp suffix."""
    chain = []
    k = key
    while k is not None:
        chain.append(nodes[k])
        k = nodes[k].parent_key
    chain.reverse()

    poses = [Pose2D(chain[0].x, chain[0].y, chain[0].theta)]
    directions = [0]
    arcs: list[Arc] = []
    for parent, node in zip(chain, chain[1:]):
        xs, ys, ths = (a[node.row].tolist() for a in arc_poses(parent))
        poses += map(Pose2D, xs, ys, ths)
        directions += [node.direction] * len(xs)
        arcs.append(Arc(node.steer, node.direction, cfg.motion_resolution))

    cost = chain[-1].g
    prev_steer = chain[-1].steer
    prev_dir = chain[-1].direction
    for seg in rs.segments:
        steer = {"L": spec.max_steer, "R": -spec.max_steer}.get(seg.kind, 0.0)
        arc = Arc(steer, seg.direction, seg.length * rs.radius, kind="rs")
        # a Python float: a numpy scalar would change the cost's repr
        cost += float(arc_cost(cfg, arc.length, steer, seg.direction, prev_steer, prev_dir))
        arcs.append(arc)
        prev_steer, prev_dir = steer, seg.direction
    xs, ys, ths, dirs = rs_points
    poses += map(Pose2D, xs[1:], ys[1:], ths[1:])
    directions += dirs[1:]

    return PlannedPath(
        poses=poses,
        directions=directions,
        cost=cost,
        planning_time=time.perf_counter() - t0,
        arcs=arcs,
        nodes_expanded=expanded,
        shots=shots,
    )
