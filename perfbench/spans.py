"""Span tracing installed from outside the program.

``Tracer.install`` replaces the public functions and methods named in
``TRACED`` with wrappers that record one span per call: its name, start,
end and parent span. Module-level functions are replaced in every parkplan
module that imported them by name, so calls through ``from .x import f``
are seen too; methods are replaced on their class, never the class itself
(``analytic_expansion`` checks ``isinstance`` against ``CollisionWorld``).

Self time is a span's duration minus the time its child spans cover. The
wrappers also count a few outcomes (Reeds-Shepp shot hits, poses the
raster settles, observations handed to the policy) where the work
happens.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# layer module -> traced attributes ("Class.method" or a function name)
TRACED = {
    "hybrid_astar": ("plan", "analytic_expansion", "holonomic_heuristic",
                     "HolonomicCostMap.value"),
    "reeds_shepp": ("rs_shortest", "rs_sample_points"),
    "geometry": ("collides", "CollisionWorld.__init__",
                 "CollisionWorld.surely_free", "CollisionWorld.colliding",
                 "CollisionWorld.first_collision"),
    "kernels": ("first_colliding_pose", "colliding_poses"),
    "env": ("build_observation", "ParkingEnv.reset", "ParkingEnv.step_primitive",
            "ParkingEnv.chunk_step"),
    "kinematics": ("step",),
    "curriculum": ("sample_init",),
    "policy": ("batch_observations", "PolicyNetwork.forward", "PolicyNetwork.gradients"),
    "ppo": ("collect_rollouts", "ppo_update", "compute_advantages",
            "ppo_loss_and_grads", "Adam.step"),
}
LAYERS = tuple(TRACED)


def _shape_tag(tokens) -> str:
    b, k = tokens.shape[:2]
    return f"b{b}_k{k}"


# per-call span names that carry the batch shape
_NAMERS = {
    "policy.PolicyNetwork.forward": lambda args: _shape_tag(args[1]["tokens"]),
    "policy.PolicyNetwork.gradients": lambda args: _shape_tag(args[1]["tokens"]),
}


def _count_shot(counters, args, result):
    counters["rs_shot_hits"] += result is not None


def _count_raster(counters, args, result):
    counters["raster_poses"] += result.shape[0]
    counters["raster_free"] += int(np.count_nonzero(result))


def _count_exact(counters, args, result):
    counters["exact_poses"] += len(args[0])


def _count_handed(counters, args, result):
    counters["observations_handed"] += len(args[0])


def _count_steps(counters, args, result):
    counters["primitive_steps"] += result.primitive_steps


_OBSERVERS = {
    "hybrid_astar.analytic_expansion": _count_shot,
    "geometry.CollisionWorld.surely_free": _count_raster,
    "kernels.first_colliding_pose": _count_exact,
    "kernels.colliding_poses": _count_exact,
    "policy.batch_observations": _count_handed,
    "ppo.collect_rollouts": _count_steps,
}


class Tracer:
    """Spans and counters of one traced stretch of a run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: list[int] = []
        self.total_s: list[float] = []
        self.self_s: list[float] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._child: list[float] = []
        self._undo: list[tuple] = []

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total_s.append(0.0)
            self.self_s.append(0.0)
        return nid

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``; the benchmark's own
        operations use this to root the spans of one query, update or
        decision."""
        return self._wrap(name, fn)(*args, **kwargs)

    def _wrap(self, name, fn):
        tracer = self
        namer = _NAMERS.get(name)
        observe = _OBSERVERS.get(name)
        fixed_id = self._name_id(name) if namer is None else None
        stack, child = self._stack, self._child
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        counters = self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nid = fixed_id
            if nid is None:
                nid = tracer._name_id(f"{name}.{namer(args)}")
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            child.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                covered = child.pop()
                starts[sid] = t0
                ends[sid] = t1
                dur = t1 - t0
                if child:
                    child[-1] += dur
                tracer.calls[nid] += 1
                tracer.total_s[nid] += dur
                tracer.self_s[nid] += dur - covered
            if observe is not None:
                observe(counters, args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == "parkplan" or n.startswith("parkplan.")]
        for layer, attrs in TRACED.items():
            module = sys.modules[f"parkplan.{layer}"]
            for attr in attrs:
                name = f"{layer}.{attr}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    orig = cls.__dict__[meth]
                    self._undo.append((cls, meth, orig))
                    setattr(cls, meth, self._wrap(name, orig))
                    continue
                orig = getattr(module, attr)
                wrapped = self._wrap(name, orig)
                for m in modules:
                    if m.__dict__.get(attr) is orig:
                        self._undo.append((m, attr, orig))
                        setattr(m, attr, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- results -------------------------------------------------------------

    def stat(self, name: str) -> tuple[int, float, float]:
        """(calls, inclusive seconds, self seconds) of one span name."""
        nid = self._ids.get(name)
        if nid is None:
            return 0, 0.0, 0.0
        return self.calls[nid], self.total_s[nid], self.self_s[nid]

    def layer_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, s in zip(self.names, self.self_s):
            layer = name.split(".")[0]
            if layer in out:
                out[layer] += s
        return out

    def save(self, path) -> None:
        """Write every span: name index, parent span index (-1 at a root),
        start and end in seconds of ``time.perf_counter``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
