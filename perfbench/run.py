"""parkplan benchmark: Hybrid A* pack, smoke training and closed-loop decisions.

    python3 perfbench/run.py --workload astar-pack --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory. One run sets the workload up three times, then repeats
whole passes over the workload's inputs for about ``--seconds`` (at least
two passes). Without ``--trace``, a second process runs the same passes on
the other CPU, both time a fixed reference work between operations
(``speed.py``), and every operation is scored by the mean of its
repetitions scaled to the reference machine. The first pass is checked
against independent computations, and every other pass, the second
process's included, must give the same outputs.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics without
tracing, per-layer metrics with ``--trace 1``). See ``perfbench/README.md``.
"""

import os

# pinned before numpy is imported: an unpinned BLAS made a 32x16384x32
# matmul take 13-353 ms instead of 1.7 ms on a 2-CPU machine
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import importlib.util
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRACE_DIR = HERE / "traces"
SETUP_REPEATS = 3
MIN_PASSES = 2
SAMPLER_GRACE_S = 120  # the sampler's set-up and last pass, beyond --seconds


def machine_info() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            model = next(
                (line.split(":", 1)[1].strip() for line in f if line.startswith("model name")),
                model,
            )
    except OSError:
        pass
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def per_op_s(groups) -> list[float]:
    """Mean scaled time of each operation over every pass of the run.

    ``groups`` holds (passes, scale) per process; every pass repeats the
    same operations, whose outputs are checked to be identical.
    """
    scaled = [[t * scale for t in p.op_s] for passes, scale in groups for p in passes]
    return [statistics.fmean(times) for times in zip(*scaled)]


def end_to_end(per_op, work, setup_s) -> dict:
    return {
        "throughput_per_s": (work / sum(per_op), "1/s"),
        "latency_ms_p50": (statistics.median(per_op) * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tracer, n_traced, untraced, traced_walls) -> dict:
    def per_pass(*names):
        return sum(tracer.stat(n)[1] for n in names) / n_traced

    def calls(name):
        return tracer.stat(name)[0] / n_traced

    def us(name):
        c, total, _ = tracer.stat(name)
        return total / c * 1e6 if c else 0.0

    def share(num, den):
        return num / den if den else 0.0

    cnt = tracer.counters
    shots = tracer.stat("hybrid_astar.analytic_expansion")[0]
    built = tracer.stat("env.build_observation")[0]
    expansions = untraced.counts.get("expansions", 0)
    out = {
        "hybrid_astar.expansions": (expansions, "count"),
        "hybrid_astar.expansions_per_s": (share(expansions, sum(untraced.op_s)), "1/s"),
        "hybrid_astar.search_self_s": (tracer.stat("hybrid_astar.plan")[2] / n_traced, "s"),
        "hybrid_astar.rs_shot_s": (per_pass("hybrid_astar.analytic_expansion"), "s"),
        "hybrid_astar.rs_shot_attempts": (shots / n_traced, "count"),
        "hybrid_astar.rs_shot_hit_share": (share(cnt["rs_shot_hits"], shots), "share"),
        "hybrid_astar.heuristic_2d_s": (
            per_pass("hybrid_astar.holonomic_heuristic", "hybrid_astar.HolonomicCostMap.value"), "s"),
        "reeds_shepp.rs_shortest_calls": (calls("reeds_shepp.rs_shortest"), "count"),
        "reeds_shepp.rs_shortest_s": (per_pass("reeds_shepp.rs_shortest"), "s"),
        "reeds_shepp.rs_sample_points_s": (per_pass("reeds_shepp.rs_sample_points"), "s"),
        "geometry.world_build_s": (per_pass("geometry.CollisionWorld.__init__"), "s"),
        "geometry.raster_s": (per_pass("geometry.CollisionWorld.surely_free"), "s"),
        "geometry.raster_free_share": (share(cnt["raster_free"], cnt["raster_poses"]), "share"),
        "kernels.exact_s": (per_pass("kernels.first_colliding_pose", "kernels.colliding_poses"), "s"),
        "kernels.exact_poses": (cnt["exact_poses"] / n_traced, "count"),
        "env.chunk_step_us": (us("env.ParkingEnv.chunk_step"), "us"),
        "env.step_primitive_us": (us("env.ParkingEnv.step_primitive"), "us"),
        "env.build_observation_us": (us("env.build_observation"), "us"),
        "env.observation_use_share": (share(cnt["observations_handed"], built), "share"),
        "env.reset_us": (us("env.ParkingEnv.reset"), "us"),
        "geometry.collides_us": (us("geometry.collides"), "us"),
        "kinematics.step_us": (us("kinematics.step"), "us"),
        "policy.forward_us.b1_k256": (us("policy.PolicyNetwork.forward.b1_k256"), "us"),
        "policy.forward_us.b8_k64": (us("policy.PolicyNetwork.forward.b8_k64"), "us"),
        "policy.forward_us.b256_k64": (us("policy.PolicyNetwork.forward.b256_k64"), "us"),
        "policy.gradients_us.b256_k64": (us("policy.PolicyNetwork.gradients.b256_k64"), "us"),
        "ppo.collect_s": (per_pass("ppo.collect_rollouts"), "s"),
        "ppo.update_s": (per_pass("ppo.ppo_update"), "s"),
        "ppo.compute_advantages_s": (per_pass("ppo.compute_advantages"), "s"),
        "ppo.adam_step_s": (per_pass("ppo.Adam.step"), "s"),
        "ppo.primitive_steps": (cnt["primitive_steps"] / n_traced, "count"),
        "curriculum.sample_init_s": (per_pass("curriculum.sample_init"), "s"),
    }
    for layer, s in tracer.layer_self_s().items():
        out[f"{layer}.self_s"] = (s / n_traced, "s")
    traced_s = statistics.median(traced_walls)
    out["trace.untraced_pass_s"] = (untraced.wall_s, "s")
    out["trace.traced_pass_s"] = (traced_s, "s")
    out["trace.overhead_share"] = (traced_s / untraced.wall_s - 1.0, "share")
    out["trace.spans_per_pass"] = (len(tracer.span_name) / n_traced, "count")
    return out


def run_passes(wl, inp, seconds, min_passes, tracer=None):
    """Whole passes until the next one would end past ``seconds``. With a
    tracer, every pass after the first is traced; without one, the machine's
    speed is timed between operations. Returns (passes, wall times of the
    traced passes, errors, speed scale or None)."""
    from speed import SpeedProbe

    passes, traced_walls, errors = [], [], []
    speed = SpeedProbe() if tracer is None else None
    t_start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) > 0
        if traced and not traced_walls:
            tracer.install()
        # each pass starts from the same heap: later passes keep only their
        # digest, so collector work does not grow from pass to pass
        gc.collect()
        p = wl.run_pass(inp, tracer if traced else None, speed)
        if passes:
            if p.digest != passes[0].digest:
                errors.append(f"pass {len(passes) + 1} output differs from pass 1")
            p.outputs = None
        passes.append(p)
        if traced:
            traced_walls.append(p.wall_s)
        elapsed = time.perf_counter() - t_start
        if len(passes) >= min_passes and elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    if tracer is not None:
        tracer.uninstall()
        return passes, traced_walls, errors, None
    speed.tick(force=True)
    return passes, traced_walls, errors, speed.scale()


def start_sampler(args):
    """A second process running the same passes on the other CPU, so that
    every operation is timed on both; ``None`` on a one-CPU machine."""
    if len(os.sched_getaffinity(0)) < 2:
        return None
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--sampler"]
    return subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)


def sampler_passes(proc, timeout):
    """The sampler's passes, without outputs, and its speed scale; raises
    RuntimeError when it failed."""
    from workloads import Pass

    out, _ = proc.communicate(timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"sampler exited with code {proc.returncode}")
    doc = json.loads(out.strip().splitlines()[-1])
    return [Pass(**p) for p in doc["passes"]], doc["scale"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--sampler", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "parkplan" / "__init__.py").is_file():
        print(f"error: no parkplan sources under {src}; run from the root of a "
              "parkplan checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    t_import = time.perf_counter()
    import parkplan  # noqa: F401  (numpy and the package, timed as set-up)
    import workloads
    import checks
    from spans import Tracer
    import_s = time.perf_counter() - t_import
    if Path(parkplan.__file__).resolve().parent != (src / "parkplan").resolve():
        print(f"error: parkplan imported from {parkplan.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    oracles = checks.load_oracles(ROOT)

    if args.sampler:
        inp = wl.setup(args.seed)
        wl.prepare_checks(inp, oracles)
        passes, _, _, scale = run_passes(wl, inp, args.seconds, 1)
        fields = ("wall_s", "op_s", "work", "attempted", "failed", "digest")
        print(json.dumps({"scale": scale,
                          "passes": [{f: getattr(p, f) for f in fields} for p in passes]}))
        return 0

    info = machine_info()
    print("# machine " + json.dumps(info), flush=True)
    errors = []
    setup_times, digests = [], set()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inp = wl.setup(args.seed)
        setup_times.append(time.perf_counter() - t0)
        digests.add(wl.inputs_digest(inp))
    if len(digests) != 1:
        errors.append("repeated set-ups made different inputs")
    setup_s = import_s + statistics.median(setup_times)
    wl.prepare_checks(inp, oracles)

    tracer = Tracer() if args.trace else None
    sampler = None if tracer else start_sampler(args)
    try:
        passes, traced_walls, pass_errors, scale = run_passes(
            wl, inp, args.seconds, MIN_PASSES, tracer)
        groups = [(passes, scale)]
        if sampler is not None:
            groups.append(sampler_passes(sampler, args.seconds + SAMPLER_GRACE_S))
    finally:
        if sampler is not None and sampler.poll() is None:
            sampler.kill()
            sampler.wait()
    errors += pass_errors
    everything = [p for group, _ in groups for p in group]
    if any(p.digest != passes[0].digest for p in everything):
        errors.append("the sampler's output differs from pass 1")
    if tracer is not None:
        metrics = per_layer(tracer, len(traced_walls), passes[0], traced_walls)
    else:
        per_op = per_op_s(groups)
        metrics = end_to_end(per_op, passes[0].work, setup_s)
    errors += wl.check(inp, passes[0], oracles)

    attempted = sum(p.attempted for p in everything)
    failed = sum(p.failed for p in everything)
    summary = {
        "workload": wl.name, "seed": args.seed, "passes": len(passes),
        "sampler_passes": len(everything) - len(passes), "traced_passes": len(traced_walls),
        "work_unit": wl.work_unit, "setup_runs_s": setup_times, "import_s": import_s,
        "pass_s": [p.wall_s for p in everything],
        "failed_per_pass": passes[0].failed, "check_errors": len(errors),
    }
    if tracer is None:
        summary["speed_scale"] = [g[1] for g in groups]
        summary["headline"] = wl.headline(per_op, passes[0].work)
        raw = per_op_s([(g[0], 1.0) for g in groups])
        summary["unscaled"] = {k: v for k, (v, _) in end_to_end(raw, passes[0].work, setup_s).items()
                               if k.startswith(("throughput", "latency"))}
    print("# run " + json.dumps(summary), flush=True)
    for e in errors[:20]:
        print(f"# check failed: {e}", file=sys.stderr)

    if tracer is not None:
        tracer.save(TRACE_DIR / f"{wl.name}.npz")
        spans = {n: dict(zip(("calls", "total_s", "self_s"), tracer.stat(n)))
                 for n in tracer.names}
        (TRACE_DIR / f"{wl.name}.json").write_text(json.dumps(
            {"machine": info, "run": summary, "spans": spans,
             "metrics": {k: v for k, (v, _) in metrics.items()}}, indent=1))
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
