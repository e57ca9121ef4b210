"""Perturbation operators: renames, reformats, expansion, augmentation."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from supercell.canon import CanonKind, SynonymDictionary, canonicalize
from supercell.core import ATTR, AggMode, SuperCell, render_feature
from supercell.datasets import build_covid_fixture
from supercell.evaluate import default_variants, variant_test_set
from supercell.mapping import (
    KeyHierarchy,
    LabeledSample,
    generate_training_data,
    position_for_cell,
)
from supercell.perturb import (
    LogEntry,
    PerturbationPlan,
    augment,
    char_noise,
    expand_keys,
    noise_samples,
    perturb_corpus,
    reformat_value,
    reformat_values,
    rename_attributes,
    rename_map,
)


DICTS = {
    "d": SynonymDictionary("d", [
        ["longitude", "long_"],
        ["province/state", "province_state"],
        ["arizona", "az"],
    ])
}


def plan(**kw):
    return PerturbationPlan(seed=kw.pop("seed", 42), synonym_dict="d", **kw)


def cells(n=4):
    return [
        SuperCell("s", ("2020-01-22 17:00:00", "arizona"),
                  ("longitude", "confirmed"), ("-112.07", str(10 + i)), i)
        for i in range(n)
    ]


class TestRename:
    def test_synonym_replacement(self):
        mapping = rename_map(["longitude"], plan(attr_rename_rate=1.0), DICTS)
        assert mapping == {"longitude": "long_"}

    def test_province_state(self):
        mapping = rename_map(["province/state"], plan(attr_rename_rate=1.0), DICTS)
        assert mapping == {"province/state": "province_state"}

    def test_rate_zero_unchanged(self):
        corpus = cells()
        assert rename_attributes(corpus, plan(attr_rename_rate=0.0), DICTS) == corpus

    def test_no_group_falls_back_to_char_noise(self):
        mapping = rename_map(["blorp"], plan(attr_rename_rate=1.0), DICTS)
        assert "blorp" in mapping
        assert mapping["blorp"] != "blorp"

    def test_consistent_within_corpus(self):
        renamed = rename_attributes(cells(), plan(attr_rename_rate=1.0), DICTS)
        names = {c.attributes[0] for c in renamed}
        assert names == {"long_"}

    def test_coverage_fraction(self):
        # Selecting a 58.3% fraction of n attributes lands within one
        # attribute of the requested coverage.
        attrs = [f"attr_{i}" for i in range(24)]
        mapping = rename_map(attrs, plan(attr_rename_rate=0.583), DICTS)
        assert abs(len(mapping) - 0.583 * len(attrs)) <= 1


class TestReformat:
    def test_datetime_cycle(self):
        rng = np.random.default_rng(0)
        assert reformat_value("2020-01-22 17:00:00", rng, None) == "1/22/2020 17:00"

    def test_dictionary_swap(self):
        rng = np.random.default_rng(0)
        assert reformat_value("arizona", rng, DICTS["d"]) == "az"

    def test_rate_zero_unchanged(self):
        corpus = cells()
        assert reformat_values(corpus, plan(value_reformat_rate=0.0), DICTS) == corpus

    def test_round_trip_through_canonicalization(self):
        rng = np.random.default_rng(1)
        kind_date = CanonKind("date")
        kind_dict = CanonKind("dict", "d")
        for value, kind in [
            ("2020-01-22 17:00:00", kind_date),
            ("2020-10-06", kind_date),
            ("arizona", kind_dict),
        ]:
            for trial in range(10):
                alt = reformat_value(value, rng, DICTS["d"])
                assert alt is not None
                assert canonicalize(alt, kind, DICTS) == canonicalize(value, kind, DICTS)

    def test_labels_untouched(self):
        corpus = cells()
        out = reformat_values(corpus, plan(value_reformat_rate=1.0), DICTS)
        assert [c.row_ordinal for c in out] == [c.row_ordinal for c in corpus]
        assert [c.attributes for c in out] == [c.attributes for c in corpus]


class TestCharNoise:
    def test_single_edit(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            out = char_noise("confirmed", rng)
            assert out != "confirmed"
            assert len(out) in (8, 9)

    def test_deletion_variant_reachable(self):
        variants = set()
        for seed in range(200):
            variants.add(char_noise("confirmed", np.random.default_rng(seed)))
        assert "confirmd" in variants

    def test_short_token_never_empties(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            assert len(char_noise("a", rng)) == 1

    def test_empty_token_unchanged(self):
        assert char_noise("", np.random.default_rng(5)) == ""


def hierarchy():
    return KeyHierarchy(
        key_attr="state",
        children={"arizona": ("arizona north", "arizona south")},
    )


def labeled(corpus):
    from supercell.core import TargetPosition, copy_marker

    return [
        TargetPosition(
            (copy_marker(0), copy_marker(1)), c.attributes, AggMode.REPLACE
        )
        for c in corpus
    ]


class TestExpandKeys:
    def test_sum_conservation(self):
        corpus = [
            SuperCell("s", ("2020-10-06", "arizona"), ("confirmed",), ("10",), 0)
        ]
        labels = labeled(corpus)
        out_cells, out_labels = expand_keys(
            corpus, labels, hierarchy(), plan(key_expansion_rate=1.0),
            {"s": 1},
        )
        assert len(out_cells) == 2
        assert all(len(c.keys) == 3 for c in out_cells)
        assert sum(int(c.values[0]) for c in out_cells) == 10
        assert all(l.agg_mode is AggMode.SUM for l in out_labels)
        assert all(l.keys == labels[0].keys for l in out_labels)

    def test_corpus_must_parallel_labels(self):
        corpus = cells()
        with pytest.raises(ValueError, match="corpus and labels must be parallel"):
            expand_keys(corpus, labeled(corpus)[1:], hierarchy(),
                        plan(key_expansion_rate=0.0), {"s": 1})

    def test_rate_zero_unchanged(self):
        corpus = cells()
        labels = labeled(corpus)
        out_cells, out_labels = expand_keys(
            corpus, labels, hierarchy(), plan(key_expansion_rate=0.0), {"s": 1}
        )
        assert out_cells == corpus
        assert out_labels == labels

    def test_source_absent_from_parent_component_unexpanded(self):
        corpus = [
            SuperCell("s", ("2020-10-06", "arizona"), ("confirmed",), ("10",), 0)
        ]
        labels = labeled(corpus)
        counters = {}
        out_cells, out_labels = expand_keys(
            corpus, labels, hierarchy(), plan(key_expansion_rate=1.0),
            {"other": 1}, counters,
        )
        assert out_cells == corpus
        assert out_labels == labels
        assert counters["non_numeric_expansion"] == 0

    def test_non_numeric_row_skipped(self):
        corpus = [SuperCell("s", ("2020-10-06", "arizona"), ("note",), ("abc",), 0)]
        labels = labeled(corpus)
        counters = {}
        out_cells, _ = expand_keys(
            corpus, labels, hierarchy(), plan(key_expansion_rate=1.0),
            {"s": 1}, counters,
        )
        assert out_cells == corpus
        assert counters["non_numeric_expansion"] == 1

    def test_negative_parent_partitions(self):
        corpus = [SuperCell("s", ("2020-10-06", "arizona"), ("delta",), ("-7",), 0)]
        out_cells, _ = expand_keys(
            corpus, labeled(corpus), hierarchy(), plan(key_expansion_rate=1.0),
            {"s": 1},
        )
        assert sum(int(c.values[0]) for c in out_cells) == -7


class TestExpandedLabels:
    """An expanded child is labelled by the oracle's rule: its COPY markers
    index the child's own canonically ordered keys, among which the new
    child component can sort before a parent component."""

    @settings(max_examples=30, deadline=None)
    @given(
        fixture_seed=st.integers(0, 2**32 - 1),
        n_states=st.integers(1, 50),
        plan_seed=st.integers(0, 2**63),
        rate=st.floats(0.1, 1.0),
    )
    def test_child_label_is_oracle_label(self, fixture_seed, n_states, plan_seed, rate):
        fixture = build_covid_fixture(seed=fixture_seed, n_dates=1, n_states=n_states)
        corpus = fixture.all_cells()
        base = generate_training_data(fixture.spec, fixture.corpora, fixture.dictionaries)
        out_cells, out_labels = expand_keys(
            corpus, [s.label for s in base], fixture.spec.key_hierarchy,
            PerturbationPlan(seed=plan_seed, key_expansion_rate=rate),
            fixture.parent_component,
        )
        children = [(c, l) for c, l in zip(out_cells, out_labels) if len(c.keys) == 4]
        assert len(children) == 2 * (len(out_cells) - len(corpus))
        for child, label in children:
            assert label == position_for_cell(
                fixture.spec, child, fixture.dictionaries, as_label=True
            )

    def test_combined_plan_expands_as_many_rows(self):
        fixture = build_covid_fixture()
        labels = [
            s.label
            for s in generate_training_data(fixture.spec, fixture.corpora, fixture.dictionaries)
        ]

        def plan(**rates):
            return PerturbationPlan(seed=9001, synonym_dict="covid_synonyms",
                                    key_expansion_rate=0.2, **rates)

        def perturbed(plan):
            return perturb_corpus(
                fixture.all_cells(), labels, plan,
                fixture.dictionaries, fixture.spec.key_hierarchy, fixture.parent_component,
            )

        alone = perturbed(plan())
        combined_plan = plan(value_reformat_rate=0.5)
        combined = perturbed(combined_plan)
        assert len(alone) > len(labels)
        assert len(combined) == len(alone)
        # An abbreviation can move a key component in the canonical order,
        # so each label must follow its reformatted cell.
        expanded, _ = expand_keys(
            fixture.all_cells(), labels, fixture.spec.key_hierarchy, combined_plan,
            fixture.parent_component,
        )
        reformatted = reformat_values(expanded, combined_plan, fixture.dictionaries)
        for sample, cell in zip(combined, reformatted, strict=True):
            assert sample.feature == render_feature(cell)
            assert sample.label == position_for_cell(
                fixture.spec, cell, fixture.dictionaries, as_label=True
            )


def samples(corpus):
    return [LabeledSample.of(c, l) for c, l in zip(corpus, labeled(corpus))]


class TestAugment:
    def test_all_rates_zero_is_identity(self):
        base = samples(cells())
        assert augment(base, plan(), DICTS, corpus=cells()) == base

    def test_corpus_must_parallel_samples(self):
        with pytest.raises(ValueError):
            augment(samples(cells()), plan(), DICTS, corpus=cells(3))

    def test_originals_prefix_preserved(self):
        base = samples(cells())
        out = augment(base, plan(attr_rename_rate=1.0, char_noise_rate=0.2), DICTS,
                      corpus=cells())
        assert out[: len(base)] == base
        assert len(out) > len(base)

    def test_labels_preserved(self):
        base = samples(cells())
        out = augment(
            base,
            plan(attr_rename_rate=1.0, value_reformat_rate=0.5, char_noise_rate=0.2),
            DICTS,
            corpus=cells(),
        )
        base_labels = {s.label for s in base}
        assert all(s.label in base_labels for s in out)

    def test_expansion_changes_agg_label(self):
        corpus = [
            SuperCell("s", ("2020-10-06", "arizona"), ("confirmed",), ("10",), 0)
        ]
        base = samples(corpus)
        out = augment(
            base, plan(key_expansion_rate=1.0), DICTS,
            corpus=corpus, hierarchy=hierarchy(), parent_component={"s": 1},
        )
        added = out[len(base):]
        assert len(added) == 2
        assert all(s.label.agg_mode is AggMode.SUM for s in added)

    def test_deterministic(self):
        base = samples(cells())
        kwargs = dict(corpus=cells(), hierarchy=hierarchy(),
                      parent_component={"s": 1})
        p = plan(attr_rename_rate=0.5, char_noise_rate=0.3,
                 value_reformat_rate=0.5, key_expansion_rate=0.5,
                 add_remove_noise_columns=3)
        a = augment(base, p, DICTS, **kwargs)
        b = augment(base, p, DICTS, **kwargs)
        assert a == b

    def test_noise_columns_added_as_discards(self):
        base = samples(cells())
        out = augment(base, plan(add_remove_noise_columns=2), DICTS, corpus=cells())
        added = out[len(base):]
        assert added
        assert all(s.label.is_discard for s in added)

    def test_perturbation_log(self):
        base = samples(cells())
        log = []
        augment(base, plan(attr_rename_rate=1.0), DICTS, corpus=cells(), log=log)
        assert log
        assert all(isinstance(e, LogEntry) and e.ops_applied for e in log)

    def test_corpus_reformat_carries_labels(self):
        # Abbreviating "zeta" as "alpha" moves it ahead of "mid" in the
        # canonical key order, so the copy's COPY markers must swap.
        from supercell.core import TargetPosition, copy_marker
        from supercell.mapping import resolve_position

        dicts = {"g": SynonymDictionary("g", [["zeta", "alpha"]])}
        cell = SuperCell("s", ("mid", "zeta"), ("confirmed",), ("1",), 0)
        label = TargetPosition((copy_marker(1), copy_marker(0)), ("confirmed",),
                               AggMode.REPLACE)
        log = []
        out = augment([LabeledSample.of(cell, label)],
                      PerturbationPlan(seed=3, value_reformat_rate=1.0, synonym_dict="g"),
                      dicts, corpus=[cell], log=log)
        copies = [out[e.sample_id] for e in log if e.ops_applied == ["corpus_rename_reformat"]]
        reformatted = SuperCell("s", ("mid", "alpha"), ("confirmed",), ("1",), 0)
        assert [s.feature for s in copies] == [render_feature(reformatted)]
        kinds = [CanonKind("dict", "g")] * 2
        resolved, _, _ = resolve_position(copies[0].label, reformatted.sorted_keys(), kinds,
                                       dicts)
        assert resolved.keys == ("zeta", "mid")


def test_noise_samples_deterministic_and_singleton():
    a = noise_samples("n", 3, 2, seed=1, q=2)
    b = noise_samples("n", 3, 2, seed=1, q=2)
    assert a == b
    assert all(len(s.label.attributes) == 1 for s in a)
    assert all(s.label.is_discard and len(s.label.keys) == 2 for s in a)
    assert len(a) == 6
    attr_tokens = {
        tuple(t for t, tag in zip(s.feature.tokens, s.feature.segment_tags) if tag == ATTR)
        for s in a
    }
    assert len(attr_tokens) == 3


def numeric_cells():
    """Rows of two sources, some with an expandable state and integer values."""
    return [
        SuperCell(source, ("2020-10-06", state), ("confirmed", "deaths"),
                  (str(10 * i), str(i)), i)
        for source in ("s", "t")
        for i, state in enumerate(["arizona", "texas", "arizona", "arizona"])
    ]


class TestComposedPath:
    """``perturb_corpus`` applies rename, reformat and key expansion in turn."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**63), synonyms=st.sampled_from(["d", None]))
    def test_zero_plan_is_identity(self, seed, synonyms):
        corpus = numeric_cells()
        labels = labeled(corpus)
        p = PerturbationPlan(seed=seed, synonym_dict=synonyms)
        out = perturb_corpus(corpus, labels, p, DICTS, hierarchy(), {"s": 1, "t": 1})
        assert out == [LabeledSample.of(c, l) for c, l in zip(corpus, labels)]

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**63),
        family=st.sampled_from(["attr_rename_rate", "value_reformat_rate",
                                "key_expansion_rate"]),
        rate=st.floats(0.05, 1.0),
    )
    def test_single_family_equals_its_function(self, seed, family, rate):
        corpus = numeric_cells()
        labels = labeled(corpus)
        p = PerturbationPlan(seed=seed, synonym_dict="d", **{family: rate})
        parents = {"s": 1}
        if family == "attr_rename_rate":
            cells_out, labels_out = rename_attributes(corpus, p, DICTS), labels
        elif family == "value_reformat_rate":
            cells_out, labels_out = reformat_values(corpus, p, DICTS), labels
        else:
            cells_out, labels_out = expand_keys(corpus, labels, hierarchy(), p, parents)
        out = perturb_corpus(corpus, labels, p, DICTS, hierarchy(), parents)
        assert out == [LabeledSample.of(c, l) for c, l in zip(cells_out, labels_out)]

    def test_expansion_without_hierarchy_rejected(self):
        corpus = numeric_cells()
        with pytest.raises(ValueError):
            perturb_corpus(corpus, labeled(corpus), plan(key_expansion_rate=0.5), DICTS,
                           None, {})


def digest(samples, entries=()):
    h = hashlib.sha256()
    for s in samples:
        h.update(s.to_json().encode() + b"\n")
    for entry in entries:
        h.update(json.dumps(entry.to_dict(), sort_keys=True).encode() + b"\n")
    return h.hexdigest()


class TestPinnedOutput:
    """Augmentation and the ablation ladder are pure functions of their
    seeds: these digests pin their output on a small COVID fixture, with a
    plan that turns on every family, so a refactor that moves an RNG draw
    fails here."""

    PLAN = PerturbationPlan(
        seed=7, attr_rename_rate=0.6, char_noise_rate=0.1, value_reformat_rate=0.6,
        key_expansion_rate=0.3, add_remove_noise_columns=3, synonym_dict="covid_synonyms",
    )
    VARIANTS = {
        "clean": "db036483a5eca7f244d36c8d8507d819d54c51f804e8981a623183e304f05308",
        "irrelevant_data": "d3a0e5f754bb42c48eee5e29d4478214f005ecb763375c26cb6cb306baa45f92",
        "rename_2_attrs": "3ba6eefda392d75e720b3f9066171eb028f74324aaf1e3f488b9440bcf4aeb4d",
        "rename_5_attrs": "14fbcefd4c5993d6c9f96aacad208871602763717665c5f034f59c208130d417",
        "rename_6_attrs_value_formats":
            "6f3f3420cc0b2af916400281307a5c063bf914b0f8cfa3ce0f26d9515ed15cb1",
        "key_expansion": "9c5a6d8206c2b6ef03ae065bceaeb490d51e4a29a8c9592383eac3a3765bbf04",
    }

    @pytest.fixture(scope="class")
    def small(self):
        fixture = build_covid_fixture(n_dates=2, n_states=4)
        base = generate_training_data(fixture.spec, fixture.corpora, fixture.dictionaries)
        return fixture, base

    def test_augment_and_log(self, small):
        fixture, base = small
        log = []
        out = augment(
            base, self.PLAN, fixture.dictionaries, corpus=fixture.all_cells(),
            hierarchy=fixture.spec.key_hierarchy,
            parent_component=fixture.parent_component, log=log,
        )
        assert {op for e in log for op in e.ops_applied} == {
            "rename", "reformat", "char_noise", "corpus_rename_reformat",
            "key_expansion", "noise_column",
        }
        assert (len(base), len(out), len(log)) == (25, 103, 78)
        assert digest(out, log) == (
            "71ef3d6bae4f9fa7ace873c03f76b60cde378c2ebf98733aea21190680183c47"
        )

    def test_default_variant_test_sets(self, small):
        fixture, base = small
        digests = {
            v.name: digest(variant_test_set(fixture, base, v))
            for v in default_variants(9001, "covid_synonyms")
        }
        assert digests == self.VARIANTS


def test_plan_rates_validated():
    with pytest.raises(ValueError):
        PerturbationPlan(attr_rename_rate=1.5)


def test_plan_json_round_trip():
    p = PerturbationPlan(seed=9, attr_rename_rate=0.5, synonym_dict="d")
    assert PerturbationPlan(**p.to_dict()) == p
