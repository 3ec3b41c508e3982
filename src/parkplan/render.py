"""Static SVG rendering of scenarios, planned paths, and attention maps.

Color conventions: obstacles red, start footprint magenta, target footprint
cyan, path polyline blue, intermediate vehicle footprints gray. Attention
overlays highlight the top-20 weighted obstacle points.
"""

from __future__ import annotations

import io
import math

import numpy as np

from .geometry import Pose2D, VehicleSpec, footprint_polygon, transform_to_world

SCALE = 28.0  # px per meter
PAD = 2.0  # meters around the content
TOP_ATTENTION = 20
GRID_STEP = 5.0  # meters between grid lines
FOOTPRINT_STRIDE = 12  # every 12th path pose gets a gray footprint


class _Svg:
    def __init__(self, lo, hi):
        self.lo = lo
        self.hi = hi
        self.w = (hi[0] - lo[0]) * SCALE
        self.h = (hi[1] - lo[1]) * SCALE
        self.body = io.StringIO()

    def pt(self, x, y):
        return (x - self.lo[0]) * SCALE, (self.hi[1] - y) * SCALE

    def polyline(self, pts, color, width=1.5, close=False, opacity=1.0):
        coords = " ".join(f"{px:.1f},{py:.1f}" for px, py in (self.pt(*p) for p in pts))
        tag = "polygon" if close else "polyline"
        self.body.write(
            f'<{tag} points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="{width}" opacity="{opacity}"/>\n'
        )

    def circle(self, x, y, r_px, color, opacity=1.0):
        px, py = self.pt(x, y)
        self.body.write(
            f'<circle cx="{px:.1f}" cy="{py:.1f}" r="{r_px:.1f}" '
            f'fill="{color}" opacity="{opacity}"/>\n'
        )

    def line(self, x1, y1, x2, y2, color, width):
        a, b = self.pt(x1, y1)
        c, d = self.pt(x2, y2)
        self.body.write(
            f'<line x1="{a:.1f}" y1="{b:.1f}" x2="{c:.1f}" y2="{d:.1f}" '
            f'stroke="{color}" stroke-width="{width}"/>\n'
        )

    def arrow(self, pose, length=0.8, color="black", width=1.2):
        x2 = pose.x + length * math.cos(pose.theta)
        y2 = pose.y + length * math.sin(pose.theta)
        self.line(pose.x, pose.y, x2, y2, color, width)

    def grid(self):
        x = math.ceil(self.lo[0] / GRID_STEP) * GRID_STEP
        while x <= self.hi[0]:
            self.line(x, self.lo[1], x, self.hi[1], "#dddddd", 0.5)
            x += GRID_STEP
        y = math.ceil(self.lo[1] / GRID_STEP) * GRID_STEP
        while y <= self.hi[1]:
            self.line(self.lo[0], y, self.hi[0], y, "#dddddd", 0.5)
            y += GRID_STEP

    def document(self) -> str:
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{self.w:.0f}" height="{self.h:.0f}" '
            f'viewBox="0 0 {self.w:.0f} {self.h:.0f}">\n'
            f'<rect width="100%" height="100%" fill="white"/>\n'
            f"{self.body.getvalue()}</svg>\n"
        )


def _bounds(scenario, poses):
    pts = [
        (scenario.initial_pose.x, scenario.initial_pose.y),
        (scenario.target_pose.x, scenario.target_pose.y),
    ]
    if scenario.obstacles.shape[0]:
        pts.extend(scenario.obstacles.tolist())
    pts.extend((p.x, p.y) for p in poses)
    arr = np.asarray(pts)
    return arr.min(axis=0) - PAD, arr.max(axis=0) + PAD


def _footprint(svg, pose, spec, color, width=2.0, opacity=1.0):
    poly = transform_to_world(footprint_polygon(spec), pose)
    svg.polyline(poly.tolist(), color, width=width, close=True, opacity=opacity)
    svg.arrow(pose, length=spec.wheelbase / 2.5, color=color, width=width * 0.7)


def render_svg(
    scenario,
    path_poses: list[Pose2D] | None = None,
    spec: VehicleSpec | None = None,
    attention: np.ndarray | None = None,
    attention_points: np.ndarray | None = None,
    extra_poses: list[Pose2D] | None = None,
) -> str:
    """Compose the scene as an SVG document string.

    ``attention`` is a weight vector over ``attention_points`` (world
    coordinates); the top-20 weights are highlighted with orange halos.
    ``extra_poses`` draws light arrows (e.g. sampled initial poses).
    """
    spec = spec or VehicleSpec()
    poses = list(path_poses or [])
    lo, hi = _bounds(scenario, poses + list(extra_poses or []))
    svg = _Svg(lo, hi)
    svg.grid()

    for x, y in scenario.obstacles:
        svg.circle(x, y, 1.6, "red")

    if attention is not None and attention_points is not None and len(attention):
        order = np.argsort(attention)[::-1][:TOP_ATTENTION]
        top = [i for i in order if attention[i] > 0]
        wmax = max(attention[i] for i in top) if top else 1.0
        for i in top:
            x, y = attention_points[i]
            svg.circle(x, y, 3.0 + 6.0 * attention[i] / wmax, "orange", opacity=0.55)

    if poses:
        for p in poses[::FOOTPRINT_STRIDE]:
            _footprint(svg, p, spec, "#999999", width=0.8, opacity=0.5)
        svg.polyline([(p.x, p.y) for p in poses], "blue", width=2.0)

    for p in extra_poses or []:
        svg.arrow(p, length=1.0, color="#7733aa", width=1.2)
        svg.circle(p.x, p.y, 2.0, "#7733aa", opacity=0.8)

    _footprint(svg, scenario.initial_pose, spec, "magenta")
    _footprint(svg, scenario.target_pose, spec, "cyan")
    return svg.document()


def save_svg(doc: str, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(doc)
