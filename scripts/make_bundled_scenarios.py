"""Regenerate the bundled synthetic scenario pack.

Run from the repo root; the script imports the checkout's own ``src``:

    python3 scripts/make_bundled_scenarios.py [--check-planner]

With --check-planner every scenario must be solved by Hybrid A* at default
settings before it is written (slower; used when the pack changes).
"""

import argparse
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the checkout's own sources first, so the script runs without an install
sys.path.insert(0, str(ROOT / "src"))

from parkplan.geometry import Pose2D  # noqa: E402
from parkplan.scenarios import save_scenario, synth_scenario  # noqa: E402

OUT = ROOT / "src" / "parkplan" / "data" / "scenarios"

SPECS = [
    ("perpendicular_bay", dict(bay_width=2.6, bay_depth=5.5, corridor_width=6.0)),
    ("perpendicular_bay", dict(bay_width=2.8, bay_depth=5.8, corridor_width=5.5,
                               start=(-7.0, 2.6, 0.0))),
    ("perpendicular_bay", dict(bay_width=3.0, bay_depth=6.0, corridor_width=7.0,
                               start=(6.5, 3.5, math.pi)),
     ("transform", (12.0, -4.0, math.radians(30)))),
    ("perpendicular_bay", dict(bay_width=2.5, bay_depth=5.4, corridor_width=6.5,
                               start=(-8.0, 3.2, 0.0))),
    ("corridor", dict(corridor_width=6.0, corridor_length=26.0, bay_width=2.7)),
    ("corridor", dict(corridor_width=5.5, corridor_length=24.0, bay_width=2.9,
                      bay_depth=5.6, start=(-8.0, 2.8, 0.0))),
    ("corridor", dict(corridor_width=6.5, corridor_length=28.0, bay_width=2.6,
                      start=(10.0, 3.4, math.pi)),
     ("transform", (-6.0, 9.0, math.radians(-55)))),
    ("corridor", dict(corridor_width=7.0, corridor_length=30.0, bay_width=3.0,
                      bay_depth=6.0, start=(-11.0, 3.5, 0.0))),
    ("dead_end", dict(corridor_width=6.0, corridor_length=16.0, bay_width=2.8,
                      end_clearance=3.5)),
    ("dead_end", dict(corridor_width=6.5, corridor_length=18.0, bay_width=2.6,
                      end_clearance=4.5, start=(-10.0, 3.2, 0.0))),
    ("dead_end", dict(corridor_width=5.5, corridor_length=15.0, bay_width=3.0,
                      bay_depth=5.8, end_clearance=4.0)),
    ("dead_end", dict(corridor_width=6.0, corridor_length=17.0, bay_width=2.7,
                      end_clearance=5.0, start=(-9.5, 2.6, 0.0)),
     ("transform", (4.0, 14.0, math.radians(120)))),
]


def build_all():
    counters: dict[str, int] = {}
    scenarios = []
    for entry in SPECS:
        kind, params = entry[0], dict(entry[1])
        counters[kind] = counters.get(kind, 0) + 1
        sid = f"{kind}-{counters[kind]:02d}"
        s = synth_scenario(kind, id=sid, **params)
        for extra in entry[2:]:
            if extra[0] == "transform":
                tx, ty, rot = extra[1]
                s = s.transformed(Pose2D(tx, ty, rot))
        scenarios.append(s)
    return scenarios


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--check-planner", action="store_true")
    args = ap.parse_args()

    scenarios = build_all()
    if args.check_planner:
        from parkplan.hybrid_astar import PlannedPath, PlannerConfig, plan
        from parkplan.geometry import VehicleSpec

        for s in scenarios:
            result = plan(s, VehicleSpec(), PlannerConfig())
            if not isinstance(result, PlannedPath):
                print(f"FAIL {s.id}: {result}")
                sys.exit(1)
            print(f"ok {s.id}: cost={result.cost:.2f} "
                  f"time={result.planning_time:.2f}s poses={len(result.poses)} "
                  f"expansions={result.nodes_expanded} shots={result.shots}")

    OUT.mkdir(parents=True, exist_ok=True)
    for old in OUT.glob("*.json"):
        old.unlink()
    for s in scenarios:
        save_scenario(s, OUT / f"{s.id}.json")
        print(f"wrote {s.id}: {s.obstacles.shape[0]} points")


if __name__ == "__main__":
    main()
