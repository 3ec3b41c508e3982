"""Benchmark scenarios: data model, JSON persistence and synthetic layouts.

A scenario is one parking case: a logged initial pose, a target pose, and
obstacle contour points (the sparse form a perception stack would hand to
the planner). One builder, ``_bay_scene``, lays out every synthetic scene:
a bay off a lane with a facing wall. The three archetypes of the bundled
pack are rows of its defaults in ``_ARCHETYPES``: a perpendicular bay off
an open apron, a bay cut into a walled corridor, and a bay near the closed
end of a dead-end lane.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import InfeasibleGeometryError, ScenarioFormatError
from .geometry import (
    CollisionWorld,
    Pose2D,
    VehicleSpec,
    as_obstacle_array,
    collides,
    ego_to_world,
    transform_to_world,
)

N_MAX_OBSTACLES = 100_000
CONTOUR_SPACING = 0.1  # max gap between sampled wall points, meters


@dataclass
class Scenario:
    id: str
    initial_pose: Pose2D
    target_pose: Pose2D
    obstacles: np.ndarray  # (N, 2) world-frame contour points

    def __post_init__(self):
        self.obstacles = as_obstacle_array(self.obstacles)
        self._worlds: dict = {}

    def world(self, spec: VehicleSpec) -> CollisionWorld:
        """The collision world of this scenario's obstacles for ``spec``,
        built on first use. Assigning a new obstacle array makes the next
        call build a new world; writing into the array in place does not."""
        cached = self._worlds.get(spec)
        if cached is None or cached[0] is not self.obstacles:
            cached = self._worlds[spec] = (
                self.obstacles,
                CollisionWorld(spec, self.obstacles),
            )
        return cached[1]

    def validate(self) -> "Scenario":
        if self.obstacles.shape[0] > N_MAX_OBSTACLES:
            raise ScenarioFormatError(
                f"scenario '{self.id}': {self.obstacles.shape[0]} obstacle points "
                f"exceed the limit of {N_MAX_OBSTACLES}"
            )
        values = [
            self.initial_pose.x,
            self.initial_pose.y,
            self.initial_pose.theta,
            self.target_pose.x,
            self.target_pose.y,
            self.target_pose.theta,
        ]
        if not (np.all(np.isfinite(values)) and np.all(np.isfinite(self.obstacles))):
            raise ScenarioFormatError(f"scenario '{self.id}': non-finite coordinates")
        for name, pose in (("target", self.target_pose), ("initial", self.initial_pose)):
            if collides(pose, VehicleSpec(), self.obstacles):
                raise ScenarioFormatError(
                    f"scenario '{self.id}': {name} pose collides with obstacles"
                )
        return self

    def transformed(self, frame: Pose2D) -> "Scenario":
        """Rigidly move the whole scenario into the world frame ``frame``."""
        return Scenario(
            self.id,
            ego_to_world(frame, self.initial_pose),
            ego_to_world(frame, self.target_pose),
            transform_to_world(self.obstacles, frame),
        )


def _pose_to_list(p: Pose2D) -> list[float]:
    return [p.x, p.y, p.theta]


def save_scenario(scenario: Scenario, path) -> None:
    doc = {
        "id": scenario.id,
        "initial_pose": _pose_to_list(scenario.initial_pose),
        "target_pose": _pose_to_list(scenario.target_pose),
        "obstacles": scenario.obstacles.tolist(),
    }
    Path(path).write_text(json.dumps(doc), encoding="utf-8")


def scenario_from_dict(doc: dict, source: str = "<dict>") -> Scenario:
    """The scenario of a JSON document: a string ``id`` usable as one file
    name, ``initial_pose`` and ``target_pose`` of three numbers each, and
    optional ``obstacles``, a list of two-number points. Any other key is
    an error, so a misspelt ``obstacles`` cannot drop the walls."""
    if not isinstance(doc, dict):
        raise ScenarioFormatError(
            f"{source}: a scenario must be a JSON object, got {type(doc).__name__}"
        )
    unknown = sorted(doc.keys() - {"id", "initial_pose", "target_pose", "obstacles"})
    if unknown:
        raise ScenarioFormatError(f"{source}: unknown scenario keys {unknown}")
    # matched by type(), as JSON true and false load as bool, an int subclass
    numbers = {int, float}
    try:
        sid, init, target = doc["id"], doc["initial_pose"], doc["target_pose"]
        obstacles = doc.get("obstacles", [])
        if type(sid) is not str:
            raise TypeError(f"id must be a string, got {sid!r}")
        # outputs are written to <out>/<id>.svg, so the id names one file
        # inside the output directory
        if sid in ("", ".", "..") or any(c in sid for c in "/\\\0"):
            raise ValueError(f"id must be usable as one file name, got {sid!r}")
        for name, pose in (("initial_pose", init), ("target_pose", target)):
            if not (type(pose) is list and len(pose) == 3
                    and set(map(type, pose)) <= numbers):
                raise TypeError(f"{name} must be three numbers, got {pose!r}")
        # one pass over the values of all points; Scenario checks the (N, 2) shape
        if not (type(obstacles) is list
                and set(map(type, chain.from_iterable(obstacles))) <= numbers):
            raise TypeError("obstacle points must be pairs of numbers")
        scenario = Scenario(
            sid, Pose2D(*map(float, init)), Pose2D(*map(float, target)), obstacles
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioFormatError(f"{source}: malformed scenario document: {exc}")
    return scenario.validate()


def _read_json(path: Path, what: str, error=ScenarioFormatError):
    """The JSON document in ``path``, which must be UTF-8 text; ``error``
    is raised for a file that is not."""
    if not path.is_file():
        raise FileNotFoundError(f"{what} file not found: {path}")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise error(f"{path}: not a JSON {what}: the file is not UTF-8 JSON ({exc})")


def load_scenario(path) -> Scenario:
    path = Path(path)
    return scenario_from_dict(_read_json(path, "scenario"), source=str(path))


# ---------------------------------------------------------------------------
# synthetic layouts
# ---------------------------------------------------------------------------


def _segment_points(x0, y0, x1, y1, spacing=CONTOUR_SPACING):
    length = math.hypot(x1 - x0, y1 - y0)
    n = max(1, int(math.ceil(length / spacing)))
    ts = np.linspace(0.0, 1.0, n + 1)
    return np.stack([x0 + ts * (x1 - x0), y0 + ts * (y1 - y0)], axis=1)


# one row per archetype: its defaults of _bay_scene's lane and bay; only a
# dead end takes end_clearance, the other lanes are open at both ends
_ARCHETYPES = {
    # perpendicular bay off an open apron with a facing wall
    "perpendicular_bay": dict(bay_width=2.6, bay_depth=5.5, corridor_width=6.0,
                              corridor_length=18.0),
    # bay cut into one side of a walled corridor, axis across the corridor's
    "corridor": dict(bay_width=2.7, bay_depth=5.5, corridor_width=6.0, corridor_length=26.0),
    # bay near the closed end of a dead-end lane; the end wall caps the forward room
    "dead_end": dict(bay_width=2.8, bay_depth=5.5, corridor_width=6.0, corridor_length=16.0,
                     end_clearance=3.5),
}


def synth_scenario(kind: str, spec: VehicleSpec | None = None, **params) -> Scenario:
    """One synthetic archetype by name: its row of defaults, overridden by
    ``params``, which may also give ``start`` and ``id``."""
    try:
        defaults = _ARCHETYPES[kind]
    except KeyError:
        raise ScenarioFormatError(
            f"unknown scenario kind '{kind}' (expected one of {sorted(_ARCHETYPES)})"
        )
    unknown = sorted(params.keys() - defaults.keys() - {"start", "id"})
    if unknown:
        raise TypeError(f"synth_scenario('{kind}') got unexpected keywords {unknown}")
    return _bay_scene(spec, **{"id": kind, **defaults, **params})


def _bay_scene(spec, id, bay_width, bay_depth, corridor_width, corridor_length,
               end_clearance=None, start=None) -> Scenario:
    """A bay cut into the near edge of a lane of ``corridor_length`` along
    x, with a facing wall ``corridor_width`` away. An open lane is centred
    on the bay; a dead end is closed by a wall across the lane
    ``end_clearance`` beyond the bay. The default start is 3 m into the
    lane from its left end, on its centre line."""
    spec = spec or VehicleSpec()
    _check_bay(spec, bay_width, bay_depth)
    hw = bay_width / 2.0
    if end_clearance is None:
        x0, x1, end_wall = -corridor_length / 2.0, corridor_length / 2.0, []
    else:
        x1 = hw + end_clearance
        x0, end_wall = x1 - corridor_length, [(x1, 0.0, x1, corridor_width)]
    segments = [
        (-hw, 0.0, -hw, -bay_depth),  # bay left wall
        (hw, 0.0, hw, -bay_depth),  # bay right wall
        (-hw, -bay_depth, hw, -bay_depth),  # bay back wall
        (x0, 0.0, -hw, 0.0),  # near edge, left of the bay
        (hw, 0.0, x1, 0.0),  # near edge, right of the bay
        *end_wall,
        (x0, corridor_width, x1, corridor_width),  # facing wall
    ]
    obstacles = np.concatenate([_segment_points(*seg) for seg in segments])
    # rear-in: nose toward the opening (+y), body centered along the bay
    target = Pose2D(0.0, -bay_depth / 2.0 - spec.center_offset, math.pi / 2.0)
    init = start or (x0 + 3.0, corridor_width / 2.0, 0.0)
    return _finish(spec, id, init, target, obstacles)


def _check_bay(spec: VehicleSpec, bay_width: float, bay_depth: float) -> None:
    if bay_width <= 0 or bay_depth <= 0:
        raise InfeasibleGeometryError("bay dimensions must be positive")
    if bay_width < spec.width:
        raise InfeasibleGeometryError(
            f"bay width {bay_width} m is narrower than the vehicle ({spec.width} m)"
        )


def _finish(spec, id, init, target, obstacles) -> Scenario:
    scenario = Scenario(id, Pose2D(*init), target, obstacles)
    if collides(scenario.target_pose, spec, scenario.obstacles):
        raise InfeasibleGeometryError(
            f"scenario '{id}': vehicle does not fit in the bay"
        )
    if collides(scenario.initial_pose, spec, scenario.obstacles):
        raise InfeasibleGeometryError(f"scenario '{id}': initial pose collides")
    return scenario


# ---------------------------------------------------------------------------
# bundled pack
# ---------------------------------------------------------------------------


def bundled_scenarios() -> list[Scenario]:
    """The synthetic scenario pack shipped with the package."""
    root = resources.files("parkplan").joinpath("data/scenarios")
    out = []
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".json"):
            out.append(scenario_from_dict(_read_json(entry, "scenario"), entry.name))
    return out
