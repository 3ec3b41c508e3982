"""perfbench's span tracer still finds every function it traces.

``perfbench/spans.py`` wraps functions by name, and ``Tracer.install``
raises on a name that is gone. Loading it here makes a rename in the
package fail this suite rather than ``perfbench/run.py --trace 1``.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bound_names():
    """Every (owner, attribute) -> object binding the tracer may replace:
    module-level names in each parkplan module and methods on classes."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "parkplan" or name.startswith("parkplan."):
            for attr, obj in vars(module).items():
                out[(name, attr)] = obj
                if isinstance(obj, type) and obj.__module__ == name:
                    for meth, fn in vars(obj).items():
                        out[(name, f"{attr}.{meth}")] = fn
    return out


def test_tracer_wraps_every_traced_name_and_restores_it():
    spans = load_spans()
    for layer in spans.TRACED:
        importlib.import_module(f"parkplan.{layer}")
    before = bound_names()
    tracer = spans.Tracer()
    try:
        tracer.install()
        for layer, attrs in spans.TRACED.items():
            home = f"parkplan.{layer}"
            for attr in attrs:
                owner = sys.modules[home]
                for part in attr.split(".")[:-1]:
                    owner = getattr(owner, part)
                leaf = attr.split(".")[-1]
                wrapper = vars(owner)[leaf]
                assert wrapper.__wrapped__ is before[(home, attr)], f"{home}.{attr}"
    finally:
        tracer.uninstall()
    after = bound_names()
    changed = sorted(k for k in before if after.get(k) is not before[k])
    assert changed == []
