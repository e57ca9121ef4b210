"""Benchmark command for the supercell pipeline.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: train-covid, drift-stream, baseline-lake, or ``all`` to run the
three in one process. Run it from the repository root; it imports the
package from ``src/``. The report lines name every metric with its unit;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``. The traced run first repeats the untraced run, then replays
the same operations under tracing; the difference is the tracing overhead.
A full record of each run goes to ``.perfbench/results/``.

Exit codes: 0 when every correctness check passed, 1 when a check failed
or a workload crashed, 2 when the package or BENCHMARK.json is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"


def cap_threads() -> int:
    """Run the BLAS/OpenMP pools on one thread and return the cores this
    process may use. The workloads are one client in one process, and their
    products are small (48 by 48): on two cores a second BLAS thread doubled
    the CPU time of a training epoch and did not shorten it. Must run
    before numpy is imported."""
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return nproc or 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs and model, for the self-test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = cap_threads()
    bench_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "supercell" / "__init__.py").is_file() or not bench_path.is_file():
        print(f"perfbench: no src/supercell package or BENCHMARK.json under {ROOT}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import layers
    import workloads

    bench = json.loads(bench_path.read_text(encoding="utf-8"))
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        print(f"perfbench: unknown workload {unknown[0]!r}; choose one of "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2

    env = layers.environment(nproc)
    print("ENV " + " ".join(f"{k}={v}" for k, v in env.items()))
    sizes = workloads.TINY if args.tiny else workloads.FULL
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    outputs = []
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as workdir:
        for name in names:
            record = layers.run_workload(
                name, workloads.WORKLOADS[name], args, sizes, Path(workdir), bench, env
            )
            suffix = "-tiny" if args.tiny else ""
            result_path = OUT / "results" / f"{name}-seed{args.seed}-trace{args.trace}{suffix}.json"
            result_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                                   encoding="utf-8")
            print(f"RECORD {name} {result_path.relative_to(ROOT)}")
            outputs.append((name, record))

    if len(outputs) == 1:
        metrics = outputs[0][1]["metrics"]
    else:
        metrics = {f"{n}/{k}": v for n, r in outputs for k, v in r["metrics"].items()}
    line = {
        "correct": all(r["correct"] for _, r in outputs),
        "attempted": sum(r["attempted"] for _, r in outputs),
        "failed": sum(r["failed"] for _, r in outputs),
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
