"""Self-test of the benchmark at tiny sizes (about a minute on two cores).

    python3 perfbench/selftest.py

It checks that
- each untraced run prints every end-to-end metric of BENCHMARK.json with
  its unit, and its report lines name every metric of metric_map.json's
  ``report_names`` with a unit;
- each traced run prints every per-layer metric with its unit, and every
  time and call count of a function that exists in the code is non-zero
  on at least one workload;
- metric_map.json maps every per-layer metric, and only to workloads and
  report metrics that exist;
- two runs with one seed give identical deterministic outputs, and the
  traced replay gave the same ones as the untraced run;
- the tracer counts the writes of a TargetTable.apply that raises an
  AggModeConflict part-way;
- in a directory holding only BENCHMARK.json and the benchmark's files,
  the command exits non-zero without printing a result.

Exits 0 when every check passes and prints one line per failure otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SEED = 3


def run(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", *args, "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result_line(proc: subprocess.CompletedProcess) -> dict | None:
    lines = proc.stdout.strip().splitlines()
    try:
        line = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    return line if isinstance(line, dict) and "metrics" in line else None


def record(workload: str, trace: int) -> dict:
    path = ROOT / ".perfbench" / "results" / f"{workload}-seed{SEED}-trace{trace}-tiny.json"
    return json.loads(path.read_text(encoding="utf-8"))


def reported(proc: subprocess.CompletedProcess) -> dict[tuple[str, str], str]:
    """(workload, metric) -> unit, from the METRIC report lines."""
    out = {}
    for line in proc.stdout.splitlines():
        parts = line.split()
        if parts[:1] == ["METRIC"] and len(parts) >= 6 and parts[3] == "=":
            out[(parts[1], parts[2])] = parts[5]
    return out


def raising_apply_counted() -> bool:
    """Apply a value to one attribute, then a cell whose first attribute
    is written before its second conflicts on aggregation mode. The traced
    counters must hold both writes."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from supercell import assemble, core
    from tracing import Tracer

    schema = core.TargetSchema(
        attributes=("k", "a", "b"), key_attributes=("k",),
        key_domains={"k": core.KeyDomain((), open=True)},
    )
    table = assemble.TargetTable(schema)
    tracer = Tracer()
    tracer.install()
    tracer.active = True
    try:
        table.apply(core.SuperCell("s", ("x",), ("b",), ("1",), 0),
                    core.TargetPosition(("x",), ("b",), core.AggMode.SUM))
        try:
            table.apply(core.SuperCell("s", ("x",), ("a", "b"), ("2", "3"), 0),
                        core.TargetPosition(("x",), ("a", "b"), core.AggMode.REPLACE))
        except assemble.AggModeConflict:
            pass
    finally:
        tracer.restore()
    return table.report.cells_written == 2 and tracer.counters["assemble.cells_written"] == 2


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metric_map = json.loads((HERE / "metric_map.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in bench["workloads"]]
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    failures: list[str] = []

    def expect(ok: bool, message: str) -> None:
        if not ok:
            failures.append(message)

    # The mapping document agrees with BENCHMARK.json.
    expect(set(metric_map["per_layer"]) == set(layer),
           f"metric_map per_layer differs from BENCHMARK.json: "
           f"{sorted(set(metric_map['per_layer']) ^ set(layer))}")
    expect(set(metric_map["report_names"]) == set(workloads), "metric_map report_names workloads")
    for name, entry in metric_map["per_layer"].items():
        for workload, moved in entry["moves"].items():
            known = metric_map["report_names"].get(workload, {})
            expect(all(m in known for m in moved), f"{name} moves unknown metrics on {workload}")
        expect(set(entry["moves"]) | set(entry["unchanged_on"]) <= set(workloads),
               f"{name} names an unknown workload")
    for workload, names in metric_map["report_names"].items():
        expect(all(v is None or v in e2e for v in names.values()),
               f"report_names of {workload} map to unknown end-to-end metrics")

    # Untraced: every end-to-end metric, every reported name, determinism.
    first = run(["--workload", "all", "--seed", str(SEED), "--seconds", "0.3", "--trace", "0"])
    first_records = {w: record(w, 0) for w in workloads}
    again = run(["--workload", "all", "--seed", str(SEED), "--seconds", "0.3", "--trace", "0"])
    for proc in (first, again):
        expect(proc.returncode == 0, f"untraced run exited {proc.returncode}: {proc.stderr[-2000:]}")
    line = result_line(first)
    expect(line is not None and line.get("correct") is True, "untraced run has no correct result")
    units = reported(first)
    for workload in workloads:
        metrics = (line or {}).get("metrics", {})
        for name, unit in e2e.items():
            got = metrics.get(f"{workload}/{name}")
            expect(got is not None and got["unit"] == unit and isinstance(got["value"], (int, float)),
                   f"{workload}: end-to-end metric {name} missing or without unit {unit}")
        for name in metric_map["report_names"][workload]:
            expect((workload, name) in units, f"{workload}: report line for {name} missing")
        expect(first_records[workload]["deterministic"] == record(workload, 0)["deterministic"],
               f"{workload}: deterministic outputs differ between two runs with one seed")

    # Traced: every per-layer metric; those whose code exists are non-zero
    # somewhere.
    nonzero: set[str] = set()
    absent: set[str] = set()
    for workload in workloads:
        proc = run(["--workload", workload, "--seed", str(SEED), "--seconds", "0.3", "--trace", "1"])
        expect(proc.returncode == 0, f"{workload}: traced run exited {proc.returncode}: "
                                     f"{proc.stderr[-2000:]}")
        traced = result_line(proc) or {"metrics": {}}
        expect(set(traced["metrics"]) == set(layer), f"{workload}: traced metrics differ from per_layer")
        for name, unit in layer.items():
            got = traced["metrics"].get(name)
            expect(got is not None and got["unit"] == unit, f"{workload}: {name} without unit {unit}")
            if got is not None and got["value"] != 0:
                nonzero.add(name)
        rec = record(workload, 1)
        absent.update(rec["absent"])
        expect(rec["checks"].get("trace_matches_untraced") is True,
               f"{workload}: traced and untraced deterministic outputs differ")
    for name in layer:
        if name.endswith(("_s", ".calls")) and name not in nonzero:
            expect(any(name.startswith(a + ".") for a in absent),
                   f"per-layer metric {name} is zero on every workload")

    expect(raising_apply_counted(), "writes of a raising TargetTable.apply are not counted")

    # Without the program, the command fails without printing a result.
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench", prefix="bare-") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in bench["paths"]:
            shutil.copytree(ROOT / path, Path(bare) / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(["--workload", workloads[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
                   cwd=Path(bare))
        expect(proc.returncode != 0 and result_line(proc) is None,
               "the bare directory run did not fail without a result")

    for failure in failures:
        print(f"FAIL {failure}")
    print(f"selftest: {'ok' if not failures else f'{len(failures)} failure(s)'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
