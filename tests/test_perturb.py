"""Perturbation operators: renames, reformats, expansion, augmentation."""

import numpy as np
import pytest

from supercell.canon import CanonKind, SynonymDictionary, canonicalize
from supercell.core import AggMode, SuperCell, render_feature
from supercell.mapping import KeyHierarchy, LabeledSample
from supercell.perturb import (
    PerturbationLog,
    PerturbationPlan,
    augment,
    char_noise,
    expand_keys,
    noise_cells,
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


def hierarchy():
    return KeyHierarchy(
        key_attr="state",
        children={"arizona": ("arizona north", "arizona south")},
        rollup=AggMode.SUM,
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

    def test_rate_zero_unchanged(self):
        corpus = cells()
        labels = labeled(corpus)
        out_cells, out_labels = expand_keys(
            corpus, labels, hierarchy(), plan(key_expansion_rate=0.0)
        )
        assert out_cells == corpus
        assert out_labels == labels

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


def samples(corpus):
    return [
        LabeledSample(render_feature(c), l, (c.source_id, c.row_ordinal))
        for c, l in zip(corpus, labeled(corpus))
    ]


class TestAugment:
    def test_all_rates_zero_is_identity(self):
        base = samples(cells())
        assert augment(base, plan(), DICTS) == base

    def test_originals_prefix_preserved(self):
        base = samples(cells())
        out = augment(base, plan(attr_rename_rate=1.0, char_noise_rate=0.2), DICTS)
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
        out = augment(base, plan(add_remove_noise_columns=2), DICTS)
        added = out[len(base):]
        assert added
        assert all(s.label.is_discard for s in added)

    def test_perturbation_log(self):
        base = samples(cells())
        log = PerturbationLog()
        augment(base, plan(attr_rename_rate=1.0), DICTS, log=log)
        assert log.entries
        assert all("ops_applied" in e for e in log.entries)


def test_noise_cells_deterministic_and_singleton():
    a = noise_cells("n", 3, 2, seed=1)
    b = noise_cells("n", 3, 2, seed=1)
    assert a == b
    assert all(c.width == 1 for c in a)
    assert len(a) == 6
    assert len({c.attributes[0] for c in a}) == 3


def test_plan_rates_validated():
    with pytest.raises(ValueError):
        PerturbationPlan(attr_rename_rate=1.5)


def test_plan_json_round_trip():
    p = PerturbationPlan(seed=9, attr_rename_rate=0.5, synonym_dict="d")
    assert PerturbationPlan(**p.to_dict()) == p
