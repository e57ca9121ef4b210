"""Report machinery: ablation table and variant construction."""

import hashlib
import json
from dataclasses import replace

from supercell.core import AggMode
from supercell.datasets import build_covid_fixture, build_log_fixture
from supercell.evaluate import (
    AblationConfig,
    AblationVariant,
    build_training_samples,
    compare_baseline,
    default_variants,
    run_ablation,
    variant_test_set,
)
from supercell.learner import TrainConfig, init_params
from supercell.mapping import generate_training_data
from supercell.perturb import PerturbationPlan

from conftest import desk_train_config


def tokens(samples):
    return {t for s in samples for t in s.feature.tokens}


def tiny_fixture():
    return build_covid_fixture(seed=21, n_dates=3, n_states=6)


def tiny_config():
    return desk_train_config(embed_dim=16, hidden=16, bucket_count=512, epochs=4)


def tiny_ablation(seed=1):
    return AblationConfig(
        variants=default_variants(seed + 9001, "covid_synonyms"),
        train_plan=PerturbationPlan(
            seed=seed, attr_rename_rate=0.5, char_noise_rate=0.05,
            value_reformat_rate=0.3, key_expansion_rate=0.1,
            add_remove_noise_columns=10, synonym_dict="covid_synonyms",
        ),
    )


class TestVariants:
    def test_clean_equals_base(self):
        fixture = tiny_fixture()
        base = generate_training_data(fixture.spec, fixture.corpora, fixture.dictionaries)
        out = variant_test_set(fixture, base, AblationVariant("clean"))
        assert out == base

    def test_rename_preserves_labels(self):
        fixture = tiny_fixture()
        base = generate_training_data(fixture.spec, fixture.corpora, fixture.dictionaries)
        variant = AblationVariant(
            "rename",
            PerturbationPlan(seed=2, attr_rename_rate=1.0,
                             synonym_dict="covid_synonyms"),
        )
        out = variant_test_set(fixture, base, variant)
        assert [s.label for s in out] == [s.label for s in base]
        assert any(s.feature != b.feature for s, b in zip(out, base))

    def test_expansion_rewrites_agg(self):
        fixture = tiny_fixture()
        base = generate_training_data(fixture.spec, fixture.corpora, fixture.dictionaries)
        variant = AblationVariant(
            "expand",
            PerturbationPlan(seed=2, key_expansion_rate=1.0),
        )
        out = variant_test_set(fixture, base, variant)
        assert len(out) > len(base)
        assert any(s.label.agg_mode is AggMode.SUM for s in out)

    def test_irrelevant_all_discard(self):
        fixture = tiny_fixture()
        base = generate_training_data(fixture.spec, fixture.corpora, fixture.dictionaries)
        variant = AblationVariant(
            "noise", PerturbationPlan(seed=3, add_remove_noise_columns=30)
        )
        out = variant_test_set(fixture, base, variant)
        assert out
        assert all(s.label.is_discard for s in out)
        assert len({s.feature for s in out}) == len(out) == 30 * 10

    def test_plan_payload_names_the_variant(self):
        # Two variants differ only by their plans, so the run directory
        # hash follows the plan.
        plain = AblationConfig(variants=[AblationVariant("v")])
        noisy = AblationConfig(variants=[
            AblationVariant("v", PerturbationPlan(add_remove_noise_columns=1))
        ])
        assert AblationVariant("v").plan == PerturbationPlan()
        assert plain.config_hash(tiny_config()) != noisy.config_hash(tiny_config())

    def test_config_hash_is_the_records_json(self):
        ablation, config = tiny_ablation(), tiny_config()
        text = json.dumps({"ablation": ablation.to_dict(), "model": config.to_dict()},
                          sort_keys=True)
        assert ablation.config_hash(config) == hashlib.sha256(text.encode()).hexdigest()[:12]
        assert AblationConfig.from_dict(json.loads(text)["ablation"]) == ablation

    def test_log_ladder_renames_through_the_log_dictionary(self):
        fixture = build_log_fixture(n_stamps=6)
        base = generate_training_data(fixture.spec, fixture.corpora, fixture.dictionaries)
        variants = {v.name: v for v in default_variants(9001, "log_synonyms")}
        renamed = variant_test_set(fixture, base, variants["rename_5_attrs"])
        aliases = {t for group in fixture.dictionaries["log_synonyms"].groups for t in group}
        assert (tokens(renamed) - tokens(base)) & aliases


class TestAblationReport:
    def test_report_rows_and_file(self, tmp_path):
        fixture = tiny_fixture()
        ablation = tiny_ablation()
        rows = run_ablation(tiny_config(), fixture, ablation, tmp_path)
        assert [r["variant"] for r in rows] == [v.name for v in ablation.variants]
        run_dir = tmp_path / ablation.config_hash(tiny_config())
        content = (run_dir / "ablation.csv").read_text()
        assert content.startswith("variant,accuracy,n_samples")
        assert (run_dir / "timings.json").exists()

    def test_clean_row_dominates_for_unaugmented_model(self, tmp_path):
        fixture = tiny_fixture()
        ablation = replace(tiny_ablation(seed=6), train_plan=None)
        rows = run_ablation(
            desk_train_config(embed_dim=16, hidden=24, bucket_count=512, epochs=14),
            fixture, ablation, tmp_path,
        )
        by_name = {r["variant"]: r["accuracy"] for r in rows}
        clean = by_name.pop("clean")
        assert all(clean >= acc for acc in by_name.values()), by_name

    def test_empty_variant_list(self, tmp_path):
        fixture = tiny_fixture()
        ablation = AblationConfig(variants=[], train_plan=None)
        rows = run_ablation(tiny_config(), fixture, ablation, tmp_path)
        assert rows == []
        content = (tmp_path / ablation.config_hash(tiny_config()) / "ablation.csv").read_text()
        assert content == (
            "variant,accuracy,n_samples,reference_target,"
            "with_augmentation,dictionary\n"
        )

    def test_learner_block_names_its_own_run_directory(self, tmp_path):
        # Two runs that differ only in the model's width must not share a
        # run directory, or the second overwrites the first's reports.
        fixture = tiny_fixture()
        ablation = AblationConfig([AblationVariant("clean")])
        narrow = desk_train_config(embed_dim=4, hidden=4, bucket_count=64, epochs=1)
        for config in (narrow, replace(narrow, hidden=8)):
            run_ablation(config, fixture, ablation, tmp_path)
        assert len(list(tmp_path.glob("*/ablation.csv"))) == 2


class TestTrainingCondition:
    # The plan is the whole training condition: None trains on the generated
    # samples alone, and a plan without a synonym_dict uses no dictionary.

    def test_no_plan_trains_on_generated_samples(self):
        fixture = tiny_fixture()
        base = generate_training_data(fixture.spec, fixture.corpora, fixture.dictionaries)
        assert build_training_samples(fixture, None) == base

    def test_all_zero_plan_adds_nothing(self):
        fixture = tiny_fixture()
        base = generate_training_data(fixture.spec, fixture.corpora, fixture.dictionaries)
        assert build_training_samples(fixture, PerturbationPlan(seed=3)) == base

    def test_report_columns_follow_the_plan(self, tmp_path):
        fixture = tiny_fixture()
        config = desk_train_config(embed_dim=4, hidden=4, bucket_count=64, epochs=1)
        plans = {
            "True,local": PerturbationPlan(seed=1, synonym_dict="covid_synonyms"),
            "True,none": PerturbationPlan(seed=1),
            "False,none": None,
        }
        for columns, plan in plans.items():
            ablation = AblationConfig([AblationVariant("clean")], plan)
            (row,) = run_ablation(config, fixture, ablation, tmp_path)
            lines = (tmp_path / ablation.config_hash(config) / "ablation.csv").read_text().splitlines()
            assert lines[1].endswith("," + columns)
            assert f"{row['with_augmentation']},{row['dictionary']}" == columns


class TestDictionaryAxis:
    def test_no_dictionary_falls_back_to_char_noise(self):
        # Without the local synonym dictionary, augmentation can only rename
        # through character noise; no alias surface forms appear.
        fixture = tiny_fixture()
        plan = PerturbationPlan(
            seed=4, attr_rename_rate=1.0, synonym_dict="covid_synonyms"
        )
        with_dict = build_training_samples(fixture, plan)
        without = build_training_samples(fixture, replace(plan, synonym_dict=None))
        aliases = {"positive_total", "healed_total", "fatalities",
                   "workplaces_pct", "retail_recreation", "grocery_pharmacy"}
        assert aliases & tokens(with_dict)
        assert not aliases & tokens(without)


def test_baseline_without_key_columns_reports_its_failure(tmp_path):
    # A log workspace has no table to sign, so no target key attribute
    # finds a column and the baseline join cannot be stated.
    fixture = build_log_fixture(n_stamps=2)
    params = init_params(TrainConfig(embed_dim=4, hidden=4, bucket_count=64),
                         fixture.spec.target)
    report = compare_baseline(fixture, params, tmp_path)
    assert report["baseline_clean_agreement"] == 0.0
    assert report["baseline_clean_error"] == "['ts', 'host']"
    assert json.loads((tmp_path / "comparison.json").read_text()) == report
