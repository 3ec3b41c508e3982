"""Print the seed-1 output digests of every benchmark workload.

    python3 scripts/bench_digests.py

Run from anywhere inside a source checkout. For each workload in
``perfbench/workloads.py`` it sets the inputs up with seed 1, runs one
pass and the benchmark's own output checks, then prints one line: the
workload, the first 12 hex digits of its inputs digest and of the pass
digest, the failed operations and the check errors. A change that must
keep every output bit-identical leaves the digests as they were. The exit
status is 1 when any workload fails an operation or a check, else 0.
"""

import os

# pinned before numpy is imported, as perfbench/run.py does
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import checks
    import workloads

    oracles = checks.load_oracles(ROOT)
    bad = 0
    print("workload      inputs        pass          failed  check_errors")
    for name, wl in workloads.WORKLOADS.items():
        inp = wl.setup(SEED)
        wl.prepare_checks(inp, oracles)
        first = wl.run_pass(inp)
        errors = wl.check(inp, first, oracles)
        print(f"{name:<13} {wl.inputs_digest(inp)[:12]:<13} {first.digest[:12]:<13} "
              f"{first.failed:<7} {len(errors)}", flush=True)
        for e in errors[:5]:
            print(f"  {e}", file=sys.stderr)
        bad += first.failed > 0 or bool(errors)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
