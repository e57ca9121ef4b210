"""Report machinery: ablation table and variant construction."""

from supercell.core import AggMode
from supercell.datasets import build_covid_fixture
from supercell.evaluate import (
    AblationConfig,
    AblationVariant,
    default_variants,
    run_ablation,
    variant_test_set,
)
from supercell.mapping import generate_training_data
from supercell.perturb import PerturbationPlan

from conftest import desk_train_config


def tiny_fixture():
    return build_covid_fixture(seed=21, n_dates=3, n_states=6)


def tiny_config():
    return desk_train_config(embed_dim=16, hidden=16, bucket_count=512, epochs=4)


def tiny_ablation(seed=1):
    return AblationConfig(
        variants=default_variants(seed + 9001),
        with_augmentation=True,
        train_plan=PerturbationPlan(
            seed=seed, attr_rename_rate=0.5, char_noise_rate=0.05,
            value_reformat_rate=0.3, key_expansion_rate=0.1,
            add_remove_noise_columns=10, synonym_dict="covid_synonyms",
        ),
        seed=seed,
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
        assert plain.config_hash() != noisy.config_hash()


class TestAblationReport:
    def test_report_rows_and_file(self, tmp_path):
        fixture = tiny_fixture()
        ablation = tiny_ablation()
        rows = run_ablation(tiny_config(), fixture, ablation, tmp_path)
        assert [r["variant"] for r in rows] == [v.name for v in ablation.variants]
        run_dir = tmp_path / ablation.config_hash()
        content = (run_dir / "ablation.csv").read_text()
        assert content.startswith("variant,accuracy,n_samples")
        assert (run_dir / "timings.json").exists()

    def test_clean_row_dominates_for_unaugmented_model(self, tmp_path):
        fixture = tiny_fixture()
        ablation = tiny_ablation(seed=6)
        ablation.with_augmentation = False
        rows = run_ablation(
            desk_train_config(embed_dim=16, hidden=24, bucket_count=512, epochs=14),
            fixture, ablation, tmp_path,
        )
        by_name = {r["variant"]: r["accuracy"] for r in rows}
        clean = by_name.pop("clean")
        assert all(clean >= acc for acc in by_name.values()), by_name

    def test_empty_variant_list(self, tmp_path):
        fixture = tiny_fixture()
        ablation = AblationConfig(
            variants=[], with_augmentation=False,
            train_plan=PerturbationPlan(seed=1), seed=1,
        )
        rows = run_ablation(tiny_config(), fixture, ablation, tmp_path)
        assert rows == []
        content = (tmp_path / ablation.config_hash() / "ablation.csv").read_text()
        assert content == (
            "variant,accuracy,n_samples,reference_target,"
            "with_augmentation,dictionary\n"
        )


class TestDictionaryAxis:
    def test_no_dictionary_falls_back_to_char_noise(self):
        # Without the local synonym dictionary, augmentation can only rename
        # through character noise; no alias surface forms appear.
        from supercell.evaluate import build_training_samples

        fixture = tiny_fixture()
        plan = PerturbationPlan(
            seed=4, attr_rename_rate=1.0, synonym_dict="covid_synonyms"
        )
        with_dict = build_training_samples(fixture, plan, True, dictionary="local")
        without = build_training_samples(fixture, plan, True, dictionary="none")
        aliases = {"positive_total", "healed_total", "fatalities",
                   "workplaces_pct", "retail_recreation", "grocery_pharmacy"}

        def tokens(samples):
            return {t for s in samples for t in s.feature.tokens}

        assert aliases & tokens(with_dict)
        assert not aliases & tokens(without)
