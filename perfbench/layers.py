"""Runs one workload untraced (the end-to-end metrics) and, with ``--trace
1``, again under the tracer (the per-layer metrics), and prints both."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import statistics
import sys
from dataclasses import replace

from tracing import Tracer
from workloads import FAMILIES, Run


def blas_threads() -> int | None:
    """Threads of the OpenBLAS bundled with numpy, asked of the library."""
    import numpy

    pattern = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(nproc: int) -> dict:
    import numpy

    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": blas_threads(),
        "machine": platform.machine(),
    }


def per_layer_values(tracer: Tracer, traced, plain) -> tuple[dict[str, float], dict]:
    """Per-layer metrics from the traced run's spans and counters.

    The epoch split is self time: ``heads`` is the self time of the forward
    pass plus that of the loss, so the seven parts and the self time of
    ``train`` itself (``learner.epoch_split.unaccounted_s``) add up to the
    traced epoch time ``learner.epoch.busy_s``.
    """
    stats = tracer.stats()
    counts = tracer.counters

    def self_s(name):
        return stats[name].self_s

    def busy_s(name):
        return stats[name].busy_s

    written, skipped = counts["assemble.cells_written"], counts["assemble.cells_skipped"]
    overhead_s = traced.measured_s - plain.measured_s
    families = traced.deterministic.get("family_agreement", {})
    values = {
        "learner.embed_gather.self_s": self_s("learner.embed_gather"),
        "learner.gru_scan.self_s": self_s("learner.gru_scan"),
        "learner.heads.self_s": self_s("learner.forward_batch") + self_s("learner.loss_and_grads"),
        "learner.gru_backward.self_s": self_s("learner.gru_backward"),
        "learner.embed_scatter.self_s": self_s("learner.embed_scatter"),
        "learner.adam.self_s": self_s("learner.adam"),
        "learner.accuracy_pass.self_s": self_s("learner.accuracy_pass"),
        "learner.accuracy_pass.busy_s": busy_s("learner.accuracy_pass"),
        "learner.epoch.busy_s": busy_s("learner.train") - busy_s("learner.encode_samples")
        - busy_s("learner.init_params"),
        "learner.epoch_split.unaccounted_s": self_s("learner.train"),
        "learner.encode_samples.busy_s": busy_s("learner.encode_samples"),
        "learner.loss_and_grads.calls": stats["learner.loss_and_grads"].calls,
        "mapping.generate_training_data.busy_s": busy_s("mapping.generate_training_data"),
        "perturb.augment.busy_s": busy_s("perturb.augment"),
        "perturb.samples_out": counts["perturb.samples_out"],
        "ingest.decompose.busy_s": busy_s("ingest.decompose"),
        "ingest.decompose.calls": stats["ingest.decompose"].calls,
        "ingest.cells_out": counts["ingest.cells_out"],
        "canon.canonicalize.busy_s": busy_s("canon.canonicalize"),
        "canon.canonicalize.calls": stats["canon.canonicalize"].calls,
        "core.render_feature.busy_s": busy_s("core.render_feature"),
        "mapping.resolve_position.busy_s": busy_s("mapping.resolve_position"),
        "learner.predict_cells.busy_s": busy_s("learner.predict_cells"),
        "learner.predict_cells.cells": counts["learner.predict_cells.cells"],
        "learner.ModelParams.save.busy_s": busy_s("learner.ModelParams.save"),
        "learner.ModelParams.load.busy_s": busy_s("learner.ModelParams.load"),
        "assemble.TargetTable.apply.busy_s": busy_s("assemble.TargetTable.apply"),
        "assemble.TargetTable.apply.calls": stats["assemble.TargetTable.apply"].calls,
        "assemble.cells_written": written,
        "assemble.cells_skipped": skipped,
        "assemble.write_ratio": written / (written + skipped) if written + skipped else 0.0,
        "assemble.finalize_and_write.busy_s": busy_s("assemble.finalize_and_write"),
        "baseline.signature.busy_s": busy_s("baseline.signature"),
        "baseline.signature.calls": stats["baseline.signature"].calls,
        "baseline.match_columns.busy_s": busy_s("baseline.match_columns"),
        "baseline.baseline_integrate.busy_s": busy_s("baseline.baseline_integrate"),
        "baseline.save_signatures.busy_s": busy_s("baseline.save_signatures"),
        "baseline.store_bytes": counts["baseline.store_bytes"],
        "trace.overhead_s": overhead_s,
        "trace.overhead_frac": overhead_s / plain.measured_s,
        "trace.spans": tracer.span_count(),
        "trace.wrapper_cost_s": tracer.span_count() * tracer.span_cost_s(),
    }
    values.update({f"drift.agreement.{f}": families.get(f, 0.0) for f in FAMILIES})
    spans = {
        name: {"calls": s.calls, "busy_s": s.busy_s, "self_s": s.self_s}
        for name, s in stats.items()
    }
    return values, spans


def _print_report(name: str, result, bench: dict) -> None:
    attempted, failed = result.value_counts or (result.attempted, result.failed)
    what = "values of the first pass" if result.value_counts else "operations"
    setups = result.setup_samples
    lines = [
        ("setup_s", statistics.median(setups), "s",
         (f"median of {len(setups)} set-ups" if len(setups) > 1 else "one set-up")
         + " at reference speed"),
        ("ops_failed_frac", failed / attempted if attempted else 0.0, "ratio",
         f"{failed} of {attempted} {what} failed"),
        ("host_speed", result.host_speed, "ratio",
         "median reference-kernel time over its nominal time"),
    ] + result.report
    for metric, value, unit, note in lines:
        print(f"METRIC {name} {metric} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    for metric, value in result.metrics.items():
        print(f"E2E {name} {metric} = {value:.6g} {units.get(metric, '?')}")
    for check, passed in result.checks.items():
        print(f"CHECK {name} {check} {'PASS' if passed else 'FAIL'}")
    for error in result.errors:
        print(f"ERROR {name} {error}")


def run_workload(name, fn, args, sizes, workdir, bench, env) -> dict:
    run = Run(args.seed, args.seconds, sizes, workdir)
    plain = fn(run)
    _print_report(name, plain, bench)
    checks = dict(plain.checks)
    record = {
        "workload": name, "seed": args.seed, "seconds": args.seconds,
        "tiny": args.tiny, "env": env,
        "report": [list(r) for r in plain.report], "setup_samples": plain.setup_samples,
        "deterministic": plain.deterministic, "ops": plain.ops,
        "measured_s": plain.measured_s, "errors": plain.errors, "timings": plain.timings,
        "value_counts": plain.value_counts, "host_speed": plain.host_speed,
    }
    if args.trace == 0:
        metrics = {
            m["name"]: {"value": plain.metrics[m["name"]], "unit": m["unit"]}
            for m in bench["end_to_end"]
        }
    else:
        tracer = Tracer()
        tracer.install()
        tracer.active = True
        try:
            traced = fn(replace(run, tracer=tracer, ops_limit=plain.ops, setup_repeats=1))
        finally:
            tracer.restore()
        values, spans = per_layer_values(tracer, traced, plain)
        checks["trace_matches_untraced"] = traced.deterministic == plain.deterministic
        suffix = "-tiny" if args.tiny else ""
        span_path = workdir.parent / "results" / f"{name}-seed{args.seed}{suffix}.spans.csv.gz"
        tracer.write_spans(str(span_path))
        metrics = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in bench["per_layer"]
        }
        print(f"TRACE {name} overhead {values['trace.overhead_s']:.4f} s "
              f"({values['trace.overhead_frac']:.2%}) over {plain.ops} replayed operations; "
              f"set-up {traced.setup_samples[0]:.3f} s traced vs "
              f"{statistics.median(plain.setup_samples):.3f} s untraced")
        print(f"TRACE {name} epoch split unaccounted {values['learner.epoch_split.unaccounted_s']:.4f} s "
              f"of {values['learner.epoch.busy_s']:.4f} s traced epoch time; the wrappers cost "
              f"about {values['trace.wrapper_cost_s']:.4f} s over {values['trace.spans']} spans")
        if tracer.absent:
            print(f"TRACE {name} absent from the code: {', '.join(tracer.absent)}")
        for metric in bench["per_layer"]:
            print(f"LAYER {name} {metric['name']} = {values[metric['name']]:.6g} {metric['unit']}")
        record.update(
            per_layer=values, spans=spans, absent=tracer.absent,
            traced_deterministic=traced.deterministic,
            spans_file=str(span_path.relative_to(workdir.parent.parent)),
        )
    for check in set(checks) - set(plain.checks):
        print(f"CHECK {name} {check} {'PASS' if checks[check] else 'FAIL'}")
    correct = all(checks.values()) and not plain.errors
    record.update(checks=checks, correct=correct, attempted=plain.attempted,
                  failed=plain.failed, metrics=metrics)
    sys.stdout.flush()
    return record
