"""perfbench's workloads still run against the package.

``perfbench/workloads.py`` builds envs, workers and rollout buffers through
keyword calls into the package and reads the env's reward config. Setting
up every workload and checking a sample of closed-loop episodes here makes
a signature change fail this suite rather than a benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load(name, monkeypatch):
    """perfbench module ``name``, importable by that name (workloads.py
    imports checks.py so) while the test runs."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_workloads_set_up_and_pass_their_checks(monkeypatch):
    checks = load("checks", monkeypatch)
    workloads = load("workloads", monkeypatch)
    oracles = checks.load_oracles(ROOT)
    inputs = {}
    for name, workload in workloads.WORKLOADS.items():
        inputs[name] = workload.setup(1)
        workload.prepare_checks(inputs[name], oracles)

    closed_loop = workloads.WORKLOADS["closed-loop"]
    inp = inputs["closed-loop"]
    inp.episodes = inp.episodes[::24]
    first = closed_loop.run_pass(inp)
    assert first.work > 0 and first.failed == 0
    assert closed_loop.check(inp, first, oracles) == []
