"""The benchmark's three workloads.

Each is a closed loop with one client: the next operation starts when the
previous one has finished. Inputs are generated from the workload seed
before measurement; the program under test only ever sees those generated
tables. Every workload checks its output against the deterministic oracle
(``mapping.oracle_integrate``) with ``assemble.diff_tables``. Operations
and set-ups are timed by a ``calibrate.Clock``, which reports them in
seconds at reference speed as well as raw.

The functions call into the program through module attributes
(``learner.train``, not a name imported from it), so a tracer that swaps a
module's function is seen here too.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from calibrate import Clock
from supercell import assemble, baseline, canon, core, datasets, ingest, learner, mapping, perturb

FAMILIES = ("rename", "reformat", "reorder", "pivot", "expansion")

# The augmentation plan and init seed of the test suite's COVID models.
# Both are fixed, so every workload seed trains the same model on the same
# 9,902 samples (3,177 cells of the seed-7 fixture); the train-covid seed
# permutes the order the samples arrive in. Left to vary, the init seed
# alone decides whether a short fit converges (0.76 against 1.0 agreement
# after two epochs), which would swamp any change to the program.
TRAIN_PLAN = perturb.PerturbationPlan(
    seed=5, attr_rename_rate=0.583, char_noise_rate=0.08, value_reformat_rate=0.4,
    key_expansion_rate=0.12, add_remove_noise_columns=40, synonym_dict="covid_synonyms",
)
MODEL_INIT_SEED = 3
# Seed of the COVID fixture every model trains on. It is kept apart from the
# workload seed, so a claim can be re-checked on a workload seed that was not
# used while the change was written.
TRAIN_FIXTURE_SEED = 7
RENAME_RATE = 0.5
REFORMAT_RATE = 0.5
LAKE_SIGNATURE_L = 128
# Fixture seeds of the drift stream and the lake are offset from the
# workload seed so that they never coincide with the training fixture's.
DRIFT_FIXTURE_OFFSET = 10_000
LAKE_FIXTURE_OFFSET = 20_000


@dataclass(frozen=True)
class Sizes:
    """Input sizes and model dimensions (the desk config by default)."""

    train_dates: int = 20
    states: int | None = None
    # train-covid fits three epochs; two already bring drift-stream's model,
    # trained on the samples in their generated order, to full agreement.
    epochs: int = 3
    drift_epochs: int = 2
    embed_dim: int = 32
    hidden: int = 48
    bucket_count: int = 4096
    batch_size: int = 128
    history_dates: int = 40
    stream_dates: int = 60
    # With 40 dates (2,000 rows) both mobility columns ranging over -80..40
    # hold every value, so their shingle sets tie on every seed.
    lake_dates: int = 40
    wide_columns: int = 459
    narrow_columns: int = 11
    wide_rows: int = 25
    # Floor of the agreement checks of train-covid's model and drift-stream's
    # clean backfill; the seed code reaches 1.0 on both. Tiny models learn
    # too little to be held to it.
    agreement_floor: float = 0.95


FULL = Sizes()
TINY = Sizes(
    train_dates=3, states=6, epochs=12, drift_epochs=12, embed_dim=16, hidden=16, bucket_count=512,
    batch_size=32, history_dates=2, stream_dates=5, lake_dates=3,
    wide_columns=12, narrow_columns=3, wide_rows=5, agreement_floor=0.0,
)


@dataclass
class Run:
    seed: int
    seconds: float
    sizes: Sizes
    workdir: Path
    tracer: object | None = None
    # Replay exactly this many operations instead of running for ``seconds``
    # (the traced run repeats the untraced run's work).
    ops_limit: int | None = None
    setup_repeats: int | None = None

    def untraced(self):
        return self.tracer.paused() if self.tracer is not None else contextlib.nullcontext()

    def keep_going(self, ops_done: int, started: float, min_ops: int = 1,
                   next_op_s: float = 0.0) -> bool:
        """Whether to start another operation: one expected to take
        ``next_op_s`` starts only if it can end within the run."""
        if self.ops_limit is not None:
            return ops_done < self.ops_limit
        return ops_done < min_ops or time.perf_counter() - started + next_op_s < self.seconds


@dataclass
class Result:
    metrics: dict[str, float]
    # (name printed in the report, value, unit, note)
    report: list[tuple[str, float, str, str]]
    deterministic: dict
    checks: dict[str, bool]
    attempted: int
    failed: int
    ops: int
    measured_s: float
    setup_samples: list[float]
    errors: list[str] = field(default_factory=list)
    # Every timed sample in seconds, by what was timed, for the run record.
    timings: dict[str, list[float]] = field(default_factory=dict)
    # (attempted, failed) values of drift-stream's first pass, when the
    # report's ops_failed_frac counts values rather than operations.
    value_counts: tuple[int, int] | None = None
    # Median reference-kernel time over its nominal time (calibrate.Clock).
    host_speed: float = 1.0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def repeated_setup(run: Run, clock: Clock, setup):
    """Set up nine times and keep the last state; return it with the
    calibrated set-up times. A set-up longer than ten seconds
    (drift-stream's, which trains its model) runs once: repeating it would
    cost more than the measurement itself and push a full set of benchmark
    runs past its time budget."""
    state = None
    while True:
        with clock.op("setup"):
            state = setup()
        durations = clock.calibrated("setup")
        wanted = run.setup_repeats or (1 if clock.raw["setup"][0] > 10.0 else 9)
        if len(durations) >= wanted:
            return state, list(durations)


def timings(clock: Clock) -> dict[str, list[float]]:
    """Every timed sample of a run, raw and calibrated, and the kernel's."""
    out = {f"{kind}_raw": list(v) for kind, v in clock.raw.items()}
    out.update({kind: list(clock.calibrated(kind)) for kind in clock.raw})
    out["reference_kernel"] = list(clock.ref)
    return out


def train_config(sizes: Sizes, seed: int, epochs: int) -> learner.TrainConfig:
    return learner.TrainConfig(
        encoder="recurrent", embed_dim=sizes.embed_dim, hidden=sizes.hidden,
        bucket_count=sizes.bucket_count, epochs=epochs,
        batch_size=sizes.batch_size, seed=seed, learning_rate=3e-3,
    )


def model_context(fixture: datasets.Fixture):
    kinds = fixture.spec.key_kinds()
    key_kinds = [kinds[a] for a in fixture.spec.target.key_attributes]
    payload = {name: d.groups for name, d in fixture.dictionaries.items()}
    return key_kinds, payload


def training_samples(fixture: datasets.Fixture):
    base = mapping.generate_training_data(fixture.spec, fixture.corpora, fixture.dictionaries)
    return perturb.augment(
        base, TRAIN_PLAN, fixture.dictionaries,
        corpus=fixture.all_cells(), hierarchy=fixture.spec.key_hierarchy,
        parent_component=fixture.parent_component or None,
    )


def same_arrays(a: learner.ModelParams, b: learner.ModelParams) -> bool:
    return a.arrays.keys() == b.arrays.keys() and all(
        np.array_equal(a.arrays[k], b.arrays[k]) for k in a.arrays
    )


class Assembly:
    """Applies predicted positions and accounts for every value: written,
    dropped by a NULL/discard prediction, skipped by assembly, or lost to an
    aggregation-mode conflict or another exception. Skipped and lost values
    are the failed operations."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def apply(self, table: assemble.TargetTable, cell: core.SuperCell, pos) -> None:
        self.attempted += cell.width
        report = table.report
        written, skipped = report.cells_written, report.cells_skipped
        try:
            table.apply(cell, pos)
        except Exception as exc:  # counted, never dropped
            if not isinstance(exc, assemble.AggModeConflict) and len(self.errors) < 5:
                self.errors.append(f"{type(exc).__name__}: {exc}")
            intended = 0 if pos.is_discard else sum(a is not None for a in pos.attributes)
            done = report.cells_written - written + report.cells_skipped - skipped
            self.failed += max(intended - done, 0)
        self.failed += report.cells_skipped - skipped

    def lost(self, values: int, exc: Exception) -> None:
        self.attempted += values
        self.failed += values
        if len(self.errors) < 5:
            self.errors.append(f"{type(exc).__name__}: {exc}")


def rows_where(table: assemble.TargetTable, keep) -> assemble.TargetTable:
    out = assemble.TargetTable(table.schema)
    out.rows = {key: row for key, row in table.rows.items() if keep(key)}
    return out


def restricted(table: assemble.TargetTable, schema: core.TargetSchema) -> assemble.TargetTable:
    out = assemble.TargetTable(schema)
    out.rows = {
        key: {a: state for a, state in row.items() if a in schema.attributes}
        for key, row in table.rows.items()
    }
    return out


# --------------------------------------------------------------------------
# train-covid


def train_covid(run: Run) -> Result:
    sizes = run.sizes

    def setup():
        with run.untraced():
            fixture = datasets.build_covid_fixture(
                seed=TRAIN_FIXTURE_SEED, n_dates=sizes.train_dates, n_states=sizes.states
            )
        samples = training_samples(fixture)
        order = np.random.default_rng(run.seed).permutation(len(samples))
        return fixture, [samples[int(i)] for i in order]

    clock = Clock(enabled=run.tracer is None)
    with clock.optimizer_checkpoints():
        (fixture, samples), setup_samples = repeated_setup(run, clock, setup)
        config = train_config(sizes, MODEL_INIT_SEED, sizes.epochs)
        key_kinds, payload = model_context(fixture)
        steps_per_fit = sizes.epochs * math.ceil(len(samples) / sizes.batch_size)

        done = 0
        first = None
        curve = None
        errors: list[str] = []
        failed_steps = 0
        started = time.perf_counter()
        # A fit takes about as long as a run measures, so the next fit
        # starts only if it can end within the run.
        while run.keep_going(done, started, next_op_s=clock.raw["fit"][-1] if done else 0.0):
            try:
                with clock.op("fit"):
                    params, fit_curve = learner.train(
                        samples, config, fixture.spec.target, key_kinds, payload
                    )
            except Exception as exc:  # a crashed fit fails all its steps
                failed_steps += steps_per_fit
                errors.append(f"{type(exc).__name__}: {exc}")
                break
            done += 1
            if first is None:
                first, curve = params, fit_curve
    if first is None:
        raise RuntimeError(f"no fit completed: {errors[0]}")
    fits = clock.calibrated("fit")[:done]
    measured_s = sum(clock.raw["fit"][:done])

    model_path = run.workdir / "train_covid_model.npz"
    first.save(model_path)
    model_bytes = model_path.stat().st_size
    with run.untraced():
        round_trip = same_arrays(first, learner.ModelParams.load(model_path))
        oracle = mapping.oracle_integrate(fixture.spec, fixture.corpora, fixture.dictionaries)
        table = learner.integrate_predictions(fixture.all_cells(), first)
        agreement = assemble.diff_tables(oracle, table)["agreement"]
    checks = {
        "model_round_trip": round_trip,
        "agreement_floor": agreement >= sizes.agreement_floor,
    }
    deterministic = {
        "samples": len(samples), "steps_per_fit": steps_per_fit, "agreement": agreement,
        "model_file_bytes": model_bytes, "final_loss": curve[-1].loss,
        "final_train_acc": curve[-1].train_acc,
    }
    samples_per_s = len(fits) * len(samples) * sizes.epochs / sum(fits)
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "bulk_per_s": samples_per_s,
        "op_p50_ms": statistics.median(fits) * 1000.0,
        "op_p90_ms": percentile(fits, 0.9) * 1000.0,
        "agreement": agreement,
        "stored_bytes": float(model_bytes),
    }
    n = f"n={len(fits)} fits of {sizes.epochs} epochs over {len(samples)} samples"
    report = [
        ("train_s", statistics.median(fits), "s", f"median fit at reference speed, {n}; "
         f"raw {statistics.median(clock.raw['fit'][:done]):.3f} s"),
        ("train_samples_per_s", samples_per_s, "1/s", "sample-epochs per second at reference speed"),
        ("train_clean_agreement", agreement, "ratio", "vs oracle on the clean fixture"),
        ("model_file_bytes", float(model_bytes), "bytes", ""),
    ]
    return Result(
        metrics, report, deterministic, checks, (len(fits) * steps_per_fit) + failed_steps,
        failed_steps, len(fits), measured_s, setup_samples, errors, timings(clock),
        host_speed=clock.speed(),
    )


# --------------------------------------------------------------------------
# drift-stream


@dataclass
class Drop:
    sources: list[tuple[ingest.RawTable, ingest.SourceDescriptor]]
    clean_values: int


def _rows_on(table: ingest.RawTable, column: int, value: str) -> ingest.RawTable:
    return ingest.RawTable(table.header, tuple(r for r in table.rows if r[column] == value))


def _renamed(tables, fixture, seed):
    """Value columns renamed to synonyms or one-edit variants; the source's
    descriptor follows the new names, as a user would update it."""
    plan = perturb.PerturbationPlan(seed=seed, attr_rename_rate=RENAME_RATE,
                                    synonym_dict="covid_synonyms")
    out = []
    for source_id, table in tables.items():
        desc = fixture.spec.descriptor(source_id)
        value_cols = [c for c in table.header if c not in desc.key_columns]
        renames = perturb.rename_map([c.lower() for c in value_cols], plan, fixture.dictionaries)
        taken = {c.lower() for c in table.header}
        new = {}
        for col in value_cols:
            name = renames.get(col.lower())
            if name and name.lower() not in taken:
                taken.add(name.lower())
                new[col] = name
        header = tuple(new.get(c, c) for c in table.header)
        renamed_desc = replace(
            desc,
            supercell_groups=tuple(tuple(new.get(c, c) for c in g) for g in desc.supercell_groups),
            canonicalizers={new.get(c, c): k for c, k in desc.canonicalizers.items()},
        )
        out.append((ingest.RawTable(header, table.rows), renamed_desc))
    return out


def _reformatted(tables, fixture, seed):
    """Key values in alternate surface forms (date formats, region
    abbreviations) under a descriptor that declares no key canonicalizers,
    so the new forms reach the learner and COPY resolution."""
    rng = np.random.default_rng(seed)
    dictionary = fixture.dictionaries["covid_synonyms"]
    out = []
    for source_id, table in tables.items():
        desc = fixture.spec.descriptor(source_id)
        key_idx = [table.header.index(c) for c in desc.key_columns]
        rows = []
        for row in table.rows:
            row = list(row)
            for j in key_idx:
                if rng.random() < REFORMAT_RATE:
                    alt = perturb.reformat_value(row[j], rng, dictionary)
                    if alt is not None:
                        row[j] = alt
            rows.append(tuple(row))
        plain_keys = replace(desc, canonicalizers={
            c: k for c, k in desc.canonicalizers.items() if c not in desc.key_columns
        })
        out.append((ingest.RawTable(table.header, tuple(rows)), plain_keys))
    return out


def _reordered(tables, fixture, seed):
    return [
        (perturb.reorder_attributes(table, seed + i), fixture.spec.descriptor(source_id))
        for i, (source_id, table) in enumerate(tables.items())
    ]


def _pivoted(tables, fixture, seed):
    """Deaths pivoted so the date is a column header, beside the case
    counts without deaths and the unchanged mobility source."""
    view = datasets.Fixture(spec=fixture.spec, tables=dict(tables))
    pivoted, pivoted_desc = datasets.build_pivoted_deaths(view)
    rest, rest_desc = datasets.covid_unpivoted_view(view)
    return [(rest, rest_desc), (pivoted, pivoted_desc),
            (tables["mobility"], fixture.spec.descriptor("mobility"))]


def _expanded(tables, fixture, seed):
    """Case counts reported per county: each state row splits into its
    hierarchy children under a new key column, with counts that sum back."""
    rng = np.random.default_rng(seed)
    hierarchy = fixture.spec.key_hierarchy
    table = tables["covid"]
    desc = fixture.spec.descriptor("covid")
    state = table.header.index(desc.key_columns[fixture.parent_component["covid"]])
    counts = [table.header.index(c) for g in desc.supercell_groups for c in g]
    rows = []
    for row in table.rows:
        parent = canon.canonicalize(
            row[state], desc.canon_kind(table.header[state]), fixture.dictionaries
        )
        children = hierarchy.children[parent]
        splits = {j: perturb._partition_integer(int(row[j]), len(children), rng) for j in counts}
        for c, child in enumerate(children):
            child_row = list(row) + [child]
            for j in counts:
                child_row[j] = str(splits[j][c])
            rows.append(tuple(child_row))
    expanded_desc = replace(desc, key_columns=desc.key_columns + ("County",))
    return [(ingest.RawTable(table.header + ("County",), tuple(rows)), expanded_desc),
            (tables["mobility"], fixture.spec.descriptor("mobility"))]


DRIFTS = {
    "rename": _renamed, "reformat": _reformatted, "reorder": _reordered,
    "pivot": _pivoted, "expansion": _expanded,
}


def _cells_on(fixture: datasets.Fixture, dates: set[str]) -> dict[str, list[core.SuperCell]]:
    return {
        source_id: [c for c in cells if c.keys[0] in dates]
        for source_id, cells in fixture.corpora.items()
    }


@dataclass
class DriftInputs:
    history: list[core.SuperCell]
    history_oracle: assemble.TargetTable
    drops: list[Drop]
    stream_oracle: assemble.TargetTable
    family_dates: dict[str, set[str]]


def drift_inputs(fixture: datasets.Fixture, seed: int, sizes: Sizes) -> DriftInputs:
    dates = sorted({row[0] for row in fixture.tables["covid"].rows})
    history = set(dates[: sizes.history_dates])
    stream = dates[sizes.history_dates : sizes.history_dates + sizes.stream_dates]
    history_corpora = _cells_on(fixture, history)
    stream_corpora = _cells_on(fixture, set(stream))
    drops = []
    family_dates: dict[str, set[str]] = {f: set() for f in FAMILIES}
    for i, date in enumerate(stream):
        family = FAMILIES[i % len(FAMILIES)]
        family_dates[family].add(date)
        tables = {sid: _rows_on(t, 0, date) for sid, t in fixture.tables.items()}
        clean_values = sum(
            c.width for cells in stream_corpora.values() for c in cells if c.keys[0] == date
        )
        drops.append(Drop(DRIFTS[family](tables, fixture, seed * 1000 + i), clean_values))
    return DriftInputs(
        history=[c for d in fixture.spec.sources for c in history_corpora[d.source_id]],
        history_oracle=mapping.oracle_integrate(fixture.spec, history_corpora, fixture.dictionaries),
        drops=drops,
        stream_oracle=mapping.oracle_integrate(fixture.spec, stream_corpora, fixture.dictionaries),
        family_dates=family_dates,
    )


def drift_stream(run: Run) -> Result:
    sizes = run.sizes
    model_path = run.workdir / "drift_model.npz"

    def setup():
        with run.untraced():
            train_fixture = datasets.build_covid_fixture(
                seed=TRAIN_FIXTURE_SEED, n_dates=sizes.train_dates, n_states=sizes.states
            )
            fixture = datasets.build_covid_fixture(
                seed=run.seed + DRIFT_FIXTURE_OFFSET,
                n_dates=sizes.history_dates + sizes.stream_dates, n_states=sizes.states,
            )
            inputs = drift_inputs(fixture, run.seed, sizes)
        samples = training_samples(train_fixture)
        key_kinds, payload = model_context(train_fixture)
        params, _ = learner.train(
            samples, train_config(sizes, MODEL_INIT_SEED, sizes.drift_epochs),
            train_fixture.spec.target, key_kinds, payload,
        )
        params.save(model_path)
        return fixture, inputs, learner.ModelParams.load(model_path)

    clock = Clock(enabled=run.tracer is None)
    with clock.optimizer_checkpoints():
        (fixture, inputs, model), setup_samples = repeated_setup(run, clock, setup)
    dictionaries = fixture.dictionaries
    # Values are accounted over the first pass only, which every run
    # completes, so that the count is the same for a seed however many
    # passes fit in the run.
    assembly = Assembly()
    first_pass_counts = None

    backfills = 0
    backfill_csv = None
    drops = 0
    lost_drops = 0
    drop_cells = 0
    first_output = None
    first_table = None
    passes_identical = True
    out_path = run.workdir / "drift_target.csv"
    started = time.perf_counter()
    while run.keep_going(drops, started, min_ops=len(inputs.drops)):
        # Each pass starts with a cold backfill: a freshly loaded model has
        # an empty subword hash cache.
        if backfills:
            model = learner.ModelParams.load(model_path)
        with clock.op("backfill"):
            backfill = assemble.TargetTable(model.schema)
            predictions = learner.predict_cells(inputs.history, model)
            for cell, prediction in zip(inputs.history, predictions):
                assembly.apply(backfill, cell, prediction.position)
        backfills += 1
        if backfill_csv is None:
            backfill_csv, first_backfill = backfill.to_csv(), backfill
        else:
            passes_identical = passes_identical and backfill.to_csv() == backfill_csv

        table = assemble.TargetTable(model.schema)
        complete = True
        for drop in inputs.drops:
            if not run.keep_going(drops, started, min_ops=len(inputs.drops)):
                complete = False
                break
            with clock.op("drop"):
                try:
                    cells = [
                        c for source, desc in drop.sources
                        for c in ingest.decompose(source, desc, dictionaries)
                    ]
                    predictions = learner.predict_cells(cells, model)
                except Exception as exc:  # the whole drop is lost
                    assembly.lost(drop.clean_values, exc)
                    lost_drops += 1
                else:
                    for cell, prediction in zip(cells, predictions):
                        assembly.apply(table, cell, prediction.position)
                    drop_cells += len(cells)
            drops += 1
        with clock.op("finalize"):
            assemble.finalize_and_write(table, out_path)
        if first_pass_counts is None:
            first_pass_counts = (assembly.attempted, assembly.failed)
        if complete:
            output = out_path.read_bytes()
            if first_output is None:
                first_output, first_table = output, table
            else:
                passes_identical = passes_identical and output == first_output
    drop_times = clock.calibrated("drop")
    backfill_times = clock.calibrated("backfill")
    measured_s = sum(clock.raw["drop"]) + sum(clock.raw["backfill"])

    with run.untraced():
        backfill_agreement = assemble.diff_tables(inputs.history_oracle, first_backfill)["agreement"]
        agreement = assemble.diff_tables(inputs.stream_oracle, first_table)["agreement"]
        date_slot = model.schema.key_attributes.index("date")
        families = {}
        for family, dates in inputs.family_dates.items():
            keep = lambda key, dates=dates: key[date_slot] in dates
            families[family] = assemble.diff_tables(
                rows_where(inputs.stream_oracle, keep), rows_where(first_table, keep)
            )["agreement"]
    model_bytes = model_path.stat().st_size
    drop_values = sum(d.clean_values for d in inputs.drops)
    cells_per_s = drop_cells / (sum(drop_times) + sum(clock.calibrated("finalize")))
    backfill_per_s = len(inputs.history) * len(backfill_times) / sum(backfill_times)
    checks = {
        "backfill_agreement_floor": backfill_agreement >= sizes.agreement_floor,
        "passes_identical": passes_identical,
        "no_exceptions": not assembly.errors,
    }
    deterministic = {
        "agreement": agreement, "backfill_agreement": backfill_agreement,
        "family_agreement": families, "model_file_bytes": model_bytes,
        "history_cells": len(inputs.history), "drops": len(inputs.drops),
        "stream_clean_values": drop_values,
        "first_pass_sha256": hashlib.sha256(first_output).hexdigest(),
    }
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "bulk_per_s": backfill_per_s,
        "op_p50_ms": statistics.median(drop_times) * 1000.0,
        "op_p90_ms": percentile(drop_times, 0.9) * 1000.0,
        "agreement": agreement,
        "stored_bytes": float(model_bytes),
    }
    n = f"n={len(drop_times)} drops, at reference speed"
    raw = clock.raw["drop"]
    report = [
        ("backfill_cells_per_s", backfill_per_s, "1/s", f"at reference speed, over "
         f"{len(backfill_times)} cold backfills of {len(inputs.history)} cells"),
        ("drift_cells_per_s", cells_per_s, "1/s",
         "at reference speed, drops incl. finalize_and_write"),
        ("drift_drop_p50_ms", metrics["op_p50_ms"], "ms",
         f"{n}; raw {statistics.median(raw) * 1000.0:.2f} ms"),
        ("drift_drop_p90_ms", metrics["op_p90_ms"], "ms",
         f"{n}; raw {percentile(raw, 0.9) * 1000.0:.2f} ms"),
        ("drift_agreement", agreement, "ratio", "vs oracle on the clean stream"),
        ("backfill_agreement", backfill_agreement, "ratio", "vs oracle on the history"),
    ] + [
        (f"drift.agreement.{f}", families[f], "ratio", f"{len(inputs.family_dates[f])} drops")
        for f in FAMILIES
    ] + [("model_file_bytes", float(model_bytes), "bytes", "")]
    # The operations are the drops and the backfills; a drop fails when it
    # raises. Values skipped or lost inside a drop count in ops_failed_frac
    # and cost agreement.
    return Result(
        metrics, report, deterministic, checks, drops + backfills, lost_drops,
        drops, measured_s, setup_samples, assembly.errors, timings(clock),
        value_counts=first_pass_counts, host_speed=clock.speed(),
    )


# --------------------------------------------------------------------------
# baseline-lake


@dataclass
class Query:
    name: str
    sources: dict[str, ingest.RawTable]
    example: ingest.RawTable
    schema: core.TargetSchema
    expected: assemble.TargetTable
    pivoted: bool = False


def _sub_schema(schema: core.TargetSchema, value_attrs: tuple[str, ...]) -> core.TargetSchema:
    return core.TargetSchema(
        attributes=schema.key_attributes + value_attrs,
        key_attributes=schema.key_attributes,
        key_domains=dict(schema.key_domains),
    )


def _example(oracle: assemble.TargetTable, schema: core.TargetSchema, rows) -> ingest.RawTable:
    """A user's example of the target: some oracle rows, some attributes."""
    header = oracle.header()
    keep = [header.index(a) for a in schema.attributes]
    return ingest.RawTable(
        tuple(header[i] for i in keep), tuple(tuple(r[i] for i in keep) for r in rows)
    )


def lake_queries(fixture, lake, seed) -> list[Query]:
    rng = np.random.default_rng(seed)
    target = fixture.spec.target
    oracle = mapping.oracle_integrate(fixture.spec, fixture.corpora, fixture.dictionaries)
    rows = oracle.finalized_rows()

    def sample(fraction):
        picked = sorted(rng.choice(len(rows), size=max(1, int(fraction * len(rows))), replace=False))
        return [rows[int(i)] for i in picked]

    cases = _sub_schema(target, ("confirmed", "recovered", "deaths"))
    mobility = _sub_schema(target, ("workplace", "recreation", "grocery"))
    deaths = _sub_schema(target, ("deaths",))
    pivoted, _ = datasets.build_pivoted_deaths(fixture)
    return [
        Query("full", lake, _example(oracle, target, rows), target, oracle),
        Query("cases", lake, _example(oracle, cases, sample(0.5)), cases, restricted(oracle, cases)),
        Query("mobility", lake, _example(oracle, mobility, sample(0.25)), mobility,
              restricted(oracle, mobility)),
        # Criterion 7: dates live in the pivoted headers, so no column
        # matches `date` and the join must refuse.
        Query("pivoted", {"covid": pivoted}, _example(oracle, target, rows), target,
              restricted(oracle, deaths), pivoted=True),
    ]


def baseline_lake(run: Run) -> Result:
    sizes = run.sizes
    store_path = run.workdir / "lake.sig"

    def setup():
        with run.untraced():
            fixture = datasets.build_covid_fixture(
                seed=run.seed + LAKE_FIXTURE_OFFSET, n_dates=sizes.lake_dates, n_states=sizes.states
            )
            wide = datasets.build_wide_tables(
                seed=run.seed, wide_columns=sizes.wide_columns,
                narrow_columns=sizes.narrow_columns, n_rows=sizes.wide_rows,
            )
            lake = {**fixture.tables, **wide}
            return fixture, lake, lake_queries(fixture, lake, run.seed)

    clock = Clock(enabled=run.tracer is None)
    (fixture, lake, queries), setup_samples = repeated_setup(run, clock, setup)
    key_kinds = fixture.spec.key_kinds()

    n_columns = sum(len(t.header) for t in lake.values())

    def write_store():
        """The write path: sign every lake column and save the store."""
        signatures = {}
        for source_id, table in lake.items():
            for column in table.header:
                try:
                    signatures[(source_id, column)] = baseline.signature(
                        table.column(column), L=LAKE_SIGNATURE_L
                    )
                except baseline.EmptyColumn:
                    continue
        baseline.save_signatures(signatures, store_path)
        return signatures

    outcomes: dict[str, dict] = {}
    done = 0
    failed = 0
    errors: list[str] = []
    started = time.perf_counter()
    while run.keep_going(done, started, min_ops=len(queries)):
        # The store is rewritten before each round of queries, so that both
        # paths are sampled across the whole run.
        if done % len(queries) == 0:
            with clock.op("write"):
                signatures = write_store()
        query = queries[done % len(queries)]
        table = None
        unmatched = None
        ok = True
        with clock.op("query"):
            try:
                matches = baseline.match_columns(query.sources, query.example, threshold=0.5,
                                                 L=LAKE_SIGNATURE_L)
                unmatched = sorted(matches.unmatched)
                if query.pivoted:
                    ok = "date" in unmatched
                    try:
                        baseline.baseline_integrate(matches, query.sources, query.schema,
                                                    key_kinds, fixture.dictionaries)
                        ok = False
                    except baseline.UncoverableAttribute:
                        pass
                else:
                    table = baseline.baseline_integrate(matches, query.sources, query.schema,
                                                        key_kinds, fixture.dictionaries)
            except Exception as exc:  # counted as a failed query
                ok = False
                if len(errors) < 5:
                    errors.append(f"{query.name}: {type(exc).__name__}: {exc}")
        done += 1
        failed += not ok
        cells = table.cells() if table is not None else None
        if query.name not in outcomes:
            outcomes[query.name] = {"ok": ok, "cells": cells, "table": table,
                                    "unmatched": unmatched}
        elif outcomes[query.name]["cells"] != cells:
            failed += 1
            errors.append(f"{query.name}: result differs between repetitions")
    latencies = clock.calibrated("query")
    write_times = clock.calibrated("write")
    measured_s = sum(clock.raw["query"]) + sum(clock.raw["write"])
    store_bytes = store_path.stat().st_size + Path(str(store_path) + ".index.json").stat().st_size

    with run.untraced():
        round_trip = baseline.load_signatures(store_path) == signatures
        mismatched = total = 0
        per_query = {}
        for query in queries:
            expected_cells = len(query.expected.cells())
            table = outcomes[query.name]["table"]
            if table is None:
                diff = {"mismatched": expected_cells, "total_cells": expected_cells,
                        "agreement": 0.0}
            else:
                diff = assemble.diff_tables(query.expected, table)
            mismatched += diff["mismatched"]
            total += diff["total_cells"]
            per_query[query.name] = diff["agreement"]
        agreement = 1.0 - mismatched / total
    pivot = outcomes["pivoted"]
    checks = {
        "pivot_date_unmatched": pivot["ok"] and "date" in (pivot["unmatched"] or ()),
        "store_round_trip": round_trip,
        "no_failed_queries": failed == 0,
    }
    sign_per_s = n_columns * len(write_times) / sum(write_times)
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "bulk_per_s": sign_per_s,
        "op_p50_ms": statistics.median(latencies) * 1000.0,
        "op_p90_ms": percentile(latencies, 0.9) * 1000.0,
        "agreement": agreement,
        "stored_bytes": float(store_bytes),
    }
    n = f"n={len(latencies)} queries over {n_columns} lake columns, at reference speed"
    raw = clock.raw["query"]
    report = [
        ("lake_sign_columns_per_s", sign_per_s, "1/s",
         f"at reference speed, over {len(write_times)} store writes"),
        ("lake_query_p50_ms", metrics["op_p50_ms"], "ms",
         f"{n}; raw {statistics.median(raw) * 1000.0:.2f} ms"),
        ("lake_query_p90_ms", metrics["op_p90_ms"], "ms",
         f"{n}; raw {percentile(raw, 0.9) * 1000.0:.2f} ms"),
        ("baseline_agreement", agreement, "ratio", "pooled over the query sequence"),
        ("signature_store_bytes", float(store_bytes), "bytes", f"L={LAKE_SIGNATURE_L}"),
    ] + [(f"baseline_agreement.{q}", a, "ratio", "") for q, a in per_query.items()]
    deterministic = {
        "agreement": agreement, "per_query": per_query, "store_bytes": store_bytes,
        "columns": n_columns, "pivot_unmatched": pivot["unmatched"],
    }
    return Result(
        metrics, report, deterministic, checks, len(latencies), failed,
        len(latencies), measured_s, setup_samples, errors, timings(clock),
        host_speed=clock.speed(),
    )


WORKLOADS = {
    "train-covid": train_covid,
    "drift-stream": drift_stream,
    "baseline-lake": baseline_lake,
}
