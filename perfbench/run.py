"""mapprior benchmark: one workload per process.

    python3 perfbench/run.py --workload localize --seed 1 --seconds 8 --trace 0

Run from the root of a source checkout; the package is imported from
./src.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  A fuller record (details,
environment, spans) goes under .perfbench/.  Exit status: 0 when every
output check passed, 1 when one failed, 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# Pin BLAS threads before numpy loads: on two cores, shared BLAS threads
# make timings collapse by 20-500x when anything else runs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mapprior" / "__init__.py").is_file():
        return _fail(f"no mapprior sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))

    import json
    import harness
    import mapprior

    if Path(mapprior.__file__).resolve().parent != ROOT / "src" / "mapprior":
        return _fail(f"imported mapprior from {mapprior.__file__}, "
                     f"not from {ROOT / 'src'}")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read BENCHMARK.json: {exc}")
    errors = harness.check_spec(spec)
    if errors:
        return _fail("; ".join(errors))
    if args.workload not in harness.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(harness.WORKLOADS)}")
    if args.seconds <= 0:
        return _fail("--seconds must be > 0")

    result = harness.run(args.workload, args.seed, args.seconds,
                         bool(args.trace), ROOT)
    path = harness.write_result(result, ROOT)
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}  ({path.relative_to(ROOT)})")
    print("env " + json.dumps(result["env"], sort_keys=True))
    details = result["details"]
    for name, m in result["metrics"].items():
        note = details.get(name)
        print(f"  {name:<58} {m['value']:>14.6g} {m['unit']:<9}"
              f"{' ' + json.dumps(note, sort_keys=True) if note else ''}")
    for problem in result["problems"]:
        print(f"  CHECK FAILED: {problem}")
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
