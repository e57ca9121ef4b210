"""Measurement protocol: super-cell accuracy under incrementally added
schema changes, augmentation on/off comparison, learner-vs-baseline
comparison, and timing/storage reports.

Reports split into two files per run: a deterministic report (accuracies,
agreements, storage bytes) that must be byte-identical across runs with the
same seeds, and a timing report that is hardware-bound and exempt from the
byte-identity guarantee.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from .assemble import TargetTable, diff_tables, finalize_and_write
from .baseline import (
    UncoverableAttribute,
    baseline_integrate,
    match_columns,
    storage_report,
)
from .canon import DictionaryStore
from .core import Record, Timings, write_csv, write_json
from .datasets import Fixture, build_pivoted_deaths, build_wide_tables, covid_unpivoted_view
from .ingest import RawTable, decompose
from .learner import ModelParams, TrainConfig, accuracy, integrate_predictions, train
from .mapping import LabeledSample, MappingSpec, generate_training_data, oracle_integrate
from .perturb import PerturbationPlan, augment, noise_samples, perturb_corpus


@dataclass(frozen=True)
class AblationVariant(Record):
    """One test condition: a named perturbation plan applied to the test
    corpus only. ``reference_target`` is an informational accuracy target
    from prior published measurements of this protocol, never a gate."""

    name: str
    plan: PerturbationPlan = field(default_factory=PerturbationPlan)
    reference_target: float | None = None


@dataclass(frozen=True)
class AblationConfig(Record):
    """The test ladder and the training condition: ``train_plan``, or None
    to train on the generated samples alone."""

    variants: list[AblationVariant]
    train_plan: PerturbationPlan | None = None

    def config_hash(self, model_config: TrainConfig) -> str:
        """The run directory's name: it covers the learner block too, so two
        runs that differ only in their model write to two directories."""
        run = {"ablation": self.to_dict(), "model": model_config.to_dict()}
        return hashlib.sha256(json.dumps(run, sort_keys=True).encode()).hexdigest()[:12]


def default_variants(seed: int, synonym_dict: str | None) -> list[AblationVariant]:
    """The incremental schema-change ladder used by the ablation report;
    its renames draw on the synonym dictionary ``synonym_dict`` (None: none)."""

    def plan(**kw) -> PerturbationPlan:
        return PerturbationPlan(seed=seed, synonym_dict=synonym_dict, **kw)

    return [
        AblationVariant("clean", reference_target=0.999),
        AblationVariant("irrelevant_data", plan(add_remove_noise_columns=30),
                        reference_target=0.999),
        AblationVariant("rename_2_attrs", plan(attr_rename_rate=2 / 7),
                        reference_target=0.999),
        AblationVariant("rename_5_attrs", plan(attr_rename_rate=5 / 7),
                        reference_target=0.999),
        AblationVariant(
            "rename_6_attrs_value_formats",
            plan(attr_rename_rate=6 / 7, value_reformat_rate=0.5),
            reference_target=0.975,
        ),
        AblationVariant(
            "key_expansion",
            plan(key_expansion_rate=0.2),
            reference_target=0.964,
        ),
    ]


def variant_test_set(
    fixture: Fixture,
    base_samples: list[LabeledSample],
    variant: AblationVariant,
) -> list[LabeledSample]:
    """Build one variant's evaluation set.

    A plan with noise columns is scored on that many irrelevant columns
    alone, all labeled as discards. Otherwise the plan's schema changes
    apply to the test cells only; labels are carried over from the clean
    cells (renames and reformats never change where a cell belongs), except
    key expansion, which rewrites aggregation labels."""
    plan = variant.plan
    if plan.add_remove_noise_columns > 0:
        return noise_samples(
            "noise_source", plan.add_remove_noise_columns, 10, plan.seed + 23,
            fixture.spec.target.q,
        )
    return perturb_corpus(
        fixture.all_cells(), [s.label for s in base_samples], plan, fixture.dictionaries,
        fixture.spec.key_hierarchy, fixture.parent_component,
    )


def build_training_samples(
    fixture: Fixture, plan: PerturbationPlan | None
) -> list[LabeledSample]:
    """The fixture's generated samples, augmented under ``plan`` unless it is None."""
    base = generate_training_data(fixture.spec, fixture.corpora, fixture.dictionaries)
    if plan is None:
        return base
    return augment(
        base,
        plan,
        fixture.dictionaries,
        corpus=fixture.all_cells(),
        hierarchy=fixture.spec.key_hierarchy,
        parent_component=fixture.parent_component,
    )


def train_from_spec(
    samples: list[LabeledSample],
    config: TrainConfig,
    spec: MappingSpec,
    dictionaries: DictionaryStore,
) -> tuple[ModelParams, list]:
    """Train a model for ``spec``'s target: the model carries the key kinds
    in key-slot order and the dictionaries, for COPY resolution at
    prediction time."""
    kinds = spec.key_kinds()
    return train(
        samples, config, spec.target,
        [kinds[a] for a in spec.target.key_attributes],
        {name: d.groups for name, d in dictionaries.items()},
    )


def train_on_fixture(
    fixture: Fixture, config: TrainConfig, plan: PerturbationPlan | None
) -> tuple[ModelParams, list, list[LabeledSample]]:
    samples = build_training_samples(fixture, plan)
    params, curve = train_from_spec(samples, config, fixture.spec, fixture.dictionaries)
    return params, curve, samples


def run_ablation(
    model_config: TrainConfig,
    fixture: Fixture,
    ablation: AblationConfig,
    out_dir: str | Path,
) -> list[dict]:
    """Train once under ``train_plan`` and score every variant.

    Writes ``ablation.csv`` (deterministic) and ``timings.json`` under a
    run directory named by the config hash; returns the report rows."""
    run_dir = Path(out_dir) / ablation.config_hash(model_config)
    run_dir.mkdir(parents=True, exist_ok=True)
    plan = ablation.train_plan
    condition = {"with_augmentation": plan is not None,
                 "dictionary": "local" if plan is not None and plan.synonym_dict else "none"}
    timings = Timings()
    with timings.block("train_s"):
        params, _, _ = train_on_fixture(fixture, model_config, plan)

    base_samples = generate_training_data(
        fixture.spec, fixture.corpora, fixture.dictionaries
    )
    rows: list[dict] = []
    for variant in ablation.variants:
        test_set = variant_test_set(fixture, base_samples, variant)
        with timings.block(f"eval_{variant.name}_s"):
            acc = accuracy(test_set, params)
        rows.append(
            {
                "variant": variant.name,
                "accuracy": round(acc, 4),
                "n_samples": len(test_set),
                "reference_target": variant.reference_target,
                **condition,
            }
        )

    header = ["variant", "accuracy", "n_samples", "reference_target", *condition]
    write_csv(header, ([row[name] for name in header] for row in rows), run_dir / "ablation.csv")
    timings.write(run_dir)
    return rows


def target_example_from_oracle(oracle: TargetTable) -> RawTable:
    """The user-provided example of the expected output: here, the oracle
    table itself, the most generous example the baseline could hope for."""
    return RawTable(tuple(oracle.header()), tuple(tuple(r) for r in oracle.finalized_rows()))


def compare_baseline(
    fixture: Fixture,
    params: ModelParams,
    out_dir: str | Path,
    model_path: Path | None = None,
) -> dict:
    """Learner pipeline vs MinHash baseline on the clean fixture and on the
    pivoted variant; cell agreement with the oracle, storage accounting,
    and stage timings."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    oracle = oracle_integrate(fixture.spec, fixture.corpora, fixture.dictionaries)
    timings = Timings()
    report: dict = {}

    # Learner on the clean corpus.
    cells = fixture.all_cells()
    with timings.block("learner_predict_assemble_s"):
        learner_table = integrate_predictions(cells, params)
    report["learner_clean_agreement"] = round(
        diff_tables(oracle, learner_table)["agreement"], 4
    )

    # Learner on the pivoted scenario: deaths arrive pivoted, the remaining
    # case counts unpivoted; the super-cell multiset is unchanged.
    has_pivot_scenario = (
        "covid" in fixture.tables
        and "Deaths" in fixture.tables["covid"].header
        and "mobility" in fixture.corpora
    )
    if has_pivot_scenario:
        pivoted_table, pivoted_desc = build_pivoted_deaths(fixture)
        cr_table, cr_desc = covid_unpivoted_view(fixture)
        with timings.block("pivot_decompose_s"):
            pivoted_cells = (
                decompose(cr_table, cr_desc, fixture.dictionaries)
                + decompose(pivoted_table, pivoted_desc, fixture.dictionaries)
                + fixture.corpora["mobility"]
            )
        pivot_learner = integrate_predictions(pivoted_cells, params)
        report["learner_pivoted_agreement"] = round(
            diff_tables(oracle, pivot_learner)["agreement"], 4
        )

    # Baseline on the clean raw tables.
    example = target_example_from_oracle(oracle)
    raw_sources = dict(fixture.tables)
    with timings.block("baseline_match_s"):
        matches = match_columns(raw_sources, example, threshold=0.5)
    report["baseline_unmatched_clean"] = sorted(matches.unmatched)
    kinds = fixture.spec.key_kinds()
    try:
        with timings.block("baseline_join_s"):
            baseline_table = baseline_integrate(
                matches, raw_sources, fixture.spec.target, kinds, fixture.dictionaries
            )
        report["baseline_clean_agreement"] = round(
            diff_tables(oracle, baseline_table)["agreement"], 4
        )
    except UncoverableAttribute as exc:
        report["baseline_clean_agreement"] = 0.0
        report["baseline_clean_error"] = str(exc)

    # Baseline on the pivoted source: the pivot attribute has no column.
    if has_pivot_scenario:
        pivot_matches = match_columns(
            {"covid": pivoted_table}, example, threshold=0.5
        )
        report["baseline_pivoted_unmatched"] = sorted(pivot_matches.unmatched)

    # Storage accounting at L=512, the signature length criterion 8 compares.
    n_fixture_columns = sum(len(t.header) for t in fixture.tables.values())
    report["fixture_columns"] = n_fixture_columns
    report["signature_store_bytes_fixture"] = storage_report(n_fixture_columns, 512)
    wide = build_wide_tables()
    n_wide = sum(len(t.header) for t in wide.values())
    report["wide_columns"] = n_wide
    report["signature_store_bytes_wide"] = storage_report(n_wide, 512)
    if model_path is not None and Path(model_path).exists():
        report["model_file_bytes"] = Path(model_path).stat().st_size

    write_json(dict(sorted(report.items())), out_dir / "comparison.json")
    timings.write(out_dir)
    finalize_and_write(oracle, out_dir / "oracle.csv")
    finalize_and_write(learner_table, out_dir / "learner.csv")
    return report

