"""Mapping specs: oracle integration, label generation, consistency."""

import json
import re
from dataclasses import replace

import pytest

from supercell.canon import CanonKind, SynonymDictionary
from supercell.core import (
    WILDCARD,
    AggMode,
    KeyDomain,
    SuperCell,
    TargetPosition,
    TargetSchema,
    copy_marker,
)
from supercell.ingest import LogRule, Pivot, SourceDescriptor
from supercell.mapping import (
    DISCARD,
    KeyHierarchy,
    KeyMapEntry,
    KeyResolutionFailure,
    LabeledSample,
    MappingSpec,
    SpecViolation,
    carry_label,
    consistency_check,
    generate_training_data,
    oracle_integrate,
    position_for_cell,
    resolve_position,
)
from supercell.core import render_feature


DICTS = {
    "geo": SynonymDictionary(
        "geo", [["arizona", "az"], ["united states", "us"]]
    )
}
GEO = CanonKind("dict", "geo")


def two_source_spec(agg_confirmed=AggMode.REPLACE):
    schema = TargetSchema(
        attributes=("date", "state", "country", "confirmed", "recovered",
                    "workplace", "recreation", "grocery"),
        key_attributes=("date", "state", "country"),
        key_domains={
            "date": KeyDomain((), open=True),
            "state": KeyDomain(("arizona",)),
            "country": KeyDomain(("united states",)),
        },
        agg_modes={"confirmed": agg_confirmed, "recovered": agg_confirmed},
    )
    covid = SourceDescriptor(
        source_id="covid", key_columns=("Date", "State", "Country"),
        supercell_groups=(("Confirmed", "Recovered"),),
    )
    mobility = SourceDescriptor(
        source_id="mobility", key_columns=("Time", "SubRegion", "Region"),
        supercell_groups=(("Workplace", "Recreation", "Grocery"),),
    )
    entries = [
        KeyMapEntry("date", 0, CanonKind("date")),
        KeyMapEntry("state", 1, GEO),
        KeyMapEntry("country", 2, GEO),
    ]
    return MappingSpec(
        target=schema,
        sources=[covid, mobility],
        key_map={"covid": entries, "mobility": list(entries)},
        attr_map={
            "covid": {"confirmed": "confirmed", "recovered": "recovered"},
            "mobility": {"workplace": "workplace", "recreation": "recreation",
                         "grocery": "grocery"},
        },
    )


def covid_cell(values=("3103", "2214"), ordinal=0):
    return SuperCell(
        "covid", ("2020-10-06", "arizona", "united states"),
        ("confirmed", "recovered"), tuple(values), ordinal,
    )


def mobility_cell(ordinal=0):
    return SuperCell(
        "mobility", ("2020-10-06", "arizona", "united states"),
        ("workplace", "recreation", "grocery"), ("21", "5", "17"), ordinal,
    )


class TestOracle:
    def test_join_on_shared_keys(self):
        spec = two_source_spec()
        table = oracle_integrate(
            spec,
            {"covid": [covid_cell()], "mobility": [mobility_cell()]},
            DICTS,
        )
        rows = table.finalized_rows()
        assert len(rows) == 1
        assert rows[0] == ["2020-10-06", "arizona", "united states",
                           "3103", "2214", "21", "5", "17"]

    def test_identity_single_source(self):
        spec = two_source_spec()
        table = oracle_integrate(spec, {"covid": [covid_cell()]}, DICTS)
        rows = table.finalized_rows()
        assert rows[0][:5] == ["2020-10-06", "arizona", "united states",
                               "3103", "2214"]
        assert rows[0][5:] == ["", "", ""]  # outer join leaves gaps empty

    def test_sum_aggregation(self):
        spec = two_source_spec(agg_confirmed=AggMode.SUM)
        table = oracle_integrate(
            spec,
            {"covid": [covid_cell(("3103", "1")), covid_cell(("120", "2"), 1)]},
            DICTS,
        )
        row = table.finalized_rows()[0]
        assert row[3] == "3223"

    def test_mixed_agg_modes_in_one_cell_rejected(self):
        spec = two_source_spec()
        spec = replace(spec, target=replace(spec.target, agg_modes={
            "confirmed": AggMode.SUM, "recovered": AggMode.REPLACE}))
        with pytest.raises(SpecViolation, match=r"covid: one super cell mixes aggregation "
                                                r"modes \['replace', 'sum'\]"):
            position_for_cell(spec, covid_cell(), DICTS)

    def test_component_out_of_range(self):
        # The spec maps the country from component 2; this cell has two keys.
        cell = SuperCell("covid", ("2020-10-06", "arizona"), ("confirmed",), ("1",), 0)
        with pytest.raises(KeyResolutionFailure, match="covid: component 2 out of range"):
            position_for_cell(two_source_spec(), cell, DICTS)


class TestTrainingData:
    def test_copy_labels_for_matching_keys(self):
        spec = two_source_spec()
        samples = generate_training_data(
            spec, {"covid": [], "mobility": [mobility_cell()]}, DICTS
        )
        assert len(samples) == 1
        label = samples[0].label
        # Sorted keys: date < arizona < united states
        assert label.keys == (copy_marker(0), copy_marker(1), copy_marker(2))
        assert label.attributes == ("workplace", "recreation", "grocery")
        assert label.agg_mode is AggMode.REPLACE

    def test_unlisted_attribute_discards(self):
        spec = two_source_spec()
        noise = SuperCell("covid", ("2020-10-06", "arizona", "united states"),
                          ("blorp",), ("1",), 0)
        samples = generate_training_data(spec, {"covid": [noise]}, DICTS)
        label = samples[0].label
        assert label.is_discard
        assert label.agg_mode is AggMode.DISCARD

    def test_rendered_key_is_literal_not_copy(self):
        schema = TargetSchema(
            attributes=("datetime", "v"),
            key_attributes=("datetime",),
            key_domains={"datetime": KeyDomain(("Oct 6, 2020",), open=True)},
        )
        desc = SourceDescriptor(source_id="s", key_columns=("Date",))
        spec = MappingSpec(
            target=schema,
            sources=[desc],
            key_map={"s": [KeyMapEntry("datetime", 0, CanonKind("date"),
                                       render="long_date")]},
            attr_map={"s": {"v": "v"}},
        )
        cell = SuperCell("s", ("2020-10-06",), ("v",), ("x",), 0)
        samples = generate_training_data(spec, {"s": [cell]})
        assert samples[0].label.keys == ("Oct 6, 2020",)

    def test_pivoted_cell_with_an_appended_child_sums(self):
        # A pivoted cell's keys are its key columns plus the pivot axis; under
        # a key hierarchy one component more is a child that expand_keys
        # appended, and its values sum into the parent's row.
        spec = sparse_spec()
        spec = replace(spec, target=replace(spec.target, agg_modes={}),
                       key_hierarchy=KeyHierarchy("region", {"east": ("e1", "e2")}))
        cell = SuperCell("deaths", ("east", "2020-10-06"), ("deaths",), ("5",), 0)
        child = replace(cell, keys=cell.keys + ("e1",))
        parent_pos, child_pos = position_for_cell(spec, cell), position_for_cell(spec, child)
        assert parent_pos.agg_mode is AggMode.REPLACE
        assert child_pos.agg_mode is AggMode.SUM
        assert child_pos.keys == parent_pos.keys == ("2020-10-06", WILDCARD, "east")

    def test_copy_survives_reformatted_keys(self):
        # A reformatted surface form still canonicalizes to the target key,
        # so the label stays a COPY marker.
        spec = two_source_spec()
        cell = SuperCell("covid", ("10/6/2020", "AZ", "US"),
                         ("confirmed", "recovered"), ("1", "2"), 0)
        samples = generate_training_data(spec, {"covid": [cell]}, DICTS)
        assert samples[0].label.keys == (
            copy_marker(0), copy_marker(1), copy_marker(2)
        )

    def test_feature_is_render_feature_of_cell(self):
        spec = two_source_spec()
        cell = covid_cell()
        samples = generate_training_data(spec, {"covid": [cell]}, DICTS)
        assert samples[0].feature == render_feature(cell)
        assert samples[0].origin == ("covid", 0)

    def test_one_sample_per_cell(self):
        spec = two_source_spec()
        corpora = {
            "covid": [covid_cell(ordinal=i) for i in range(4)],
            "mobility": [mobility_cell(ordinal=i) for i in range(3)],
        }
        samples = generate_training_data(spec, corpora, DICTS)
        assert len(samples) == 7

    def test_sample_json_round_trip(self):
        spec = two_source_spec()
        sample = generate_training_data(spec, {"covid": [covid_cell()]}, DICTS)[0]
        assert LabeledSample.from_json(sample.to_json()) == sample


class TestResolvePosition:
    def test_copy_resolution_canonicalizes(self):
        spec = two_source_spec()
        kinds = [spec.key_kinds()[a] for a in spec.target.key_attributes]
        cell = SuperCell("covid", ("10/6/2020", "AZ", "US"),
                         ("confirmed", "recovered"), ("1", "2"), 0)
        label = generate_training_data(spec, {"covid": [cell]}, DICTS)[0].label
        resolved, degraded, outside = resolve_position(label, cell.sorted_keys(), kinds, DICTS)
        assert degraded == outside == 0
        assert resolved.keys == ("2020-10-06", "arizona", "united states")

    def test_out_of_range_copy_degrades(self):
        from supercell.core import TargetPosition

        cell = SuperCell("covid", ("k",), ("a",), ("1",), 0)
        pos = TargetPosition((copy_marker(5),), ("a",), AggMode.REPLACE)
        resolved, degraded, outside = resolve_position(pos, cell.sorted_keys(), [CanonKind("none")])
        assert (degraded, outside) == (1, 0)
        assert resolved.keys == (None,)


class TestCarryLabel:
    def test_copy_markers_follow_their_components(self):
        parent = covid_cell()
        child = SuperCell("covid", parent.keys + ("arizona north",), parent.attributes,
                          parent.values, 0)
        # Parent sorts date < arizona < united states; the child puts
        # "arizona north" before "united states".
        label = TargetPosition(
            (copy_marker(0), copy_marker(1), copy_marker(2)),
            ("confirmed", "recovered"), AggMode.REPLACE,
        )
        carried = carry_label(label, parent, child)
        assert carried.keys == (copy_marker(0), copy_marker(1), copy_marker(3))
        assert (carried.attributes, carried.agg_mode) == (label.attributes, label.agg_mode)

    def test_copy_markers_follow_reformatted_slots(self):
        parent = covid_cell()
        # The child abbreviates "arizona" and appends "arizona north", which
        # now sorts between the date and "az".
        keys = tuple("az" if k == "arizona" else k for k in parent.keys)
        child = SuperCell("covid", keys + ("arizona north",), parent.attributes,
                          parent.values, 0)
        label = TargetPosition(
            (copy_marker(0), copy_marker(1), copy_marker(2)),
            ("confirmed", "recovered"), AggMode.REPLACE,
        )
        carried = carry_label(label, parent, child)
        assert carried.keys == (copy_marker(0), copy_marker(2), copy_marker(3))

    def test_literal_and_wildcard_entries_carry_over(self):
        parent = covid_cell()
        child = SuperCell("covid", parent.keys + ("a",), parent.attributes, parent.values, 0)
        label = TargetPosition(
            ("2020-10-06", WILDCARD, copy_marker(2)), ("confirmed", "recovered"),
            AggMode.SUM,
        )
        assert carry_label(label, parent, child).keys == (
            "2020-10-06", WILDCARD, copy_marker(3)
        )

    def test_out_of_range_marker_rejected(self):
        parent = covid_cell()
        label = TargetPosition(
            (copy_marker(3), None, None), ("confirmed", "recovered"), AggMode.REPLACE
        )
        with pytest.raises(KeyResolutionFailure):
            carry_label(label, parent, parent)


class TestConsistency:
    def test_clean_fixture_is_consistent(self):
        spec = two_source_spec()
        corpora = {
            "covid": [covid_cell(ordinal=i) for i in range(3)],
            "mobility": [mobility_cell(ordinal=i) for i in range(3)],
        }
        report = consistency_check(spec, corpora, DICTS)
        assert report["mismatched"] == 0

    def test_corrupted_label_detected(self):
        from supercell.mapping import assemble_labels
        from supercell.assemble import diff_tables

        spec = two_source_spec()
        corpora = {"covid": [covid_cell()], "mobility": []}
        samples = generate_training_data(spec, corpora, DICTS)
        bad = samples[0].label
        corrupted = type(bad)(
            keys=bad.keys,
            attributes=("recovered", "confirmed"),  # swapped
            agg_mode=bad.agg_mode,
        )
        rebuilt = assemble_labels(spec, corpora, [corrupted], DICTS)
        oracle = oracle_integrate(spec, corpora, DICTS)
        diff = diff_tables(oracle, rebuilt)
        assert diff["mismatched"] == 2
        with pytest.raises(SpecViolation):
            assemble_labels(spec, corpora, [corrupted, corrupted], DICTS)


class TestSpecValidation:
    def test_uncovered_key_attribute(self):
        spec = two_source_spec()
        with pytest.raises(SpecViolation):
            MappingSpec(
                target=spec.target,
                sources=spec.sources,
                key_map={"covid": spec.key_map["covid"][:2],
                         "mobility": spec.key_map["mobility"]},
                attr_map=spec.attr_map,
            )

    def test_unknown_attr_target(self):
        spec = two_source_spec()
        with pytest.raises(SpecViolation):
            MappingSpec(
                target=spec.target,
                sources=spec.sources,
                key_map=spec.key_map,
                attr_map={"covid": {"confirmed": "nope"}},
            )

    @pytest.mark.parametrize("kwargs, message", [
        (dict(component=0, wildcard=True), "'date' is wildcard and mapped"),
        (dict(), "'date' needs a component or wildcard"),
        (dict(component=0, render="upper"), "unknown render 'upper'"),
    ], ids=["wildcard_and_mapped", "neither", "unknown_render"])
    def test_bad_key_map_entry(self, kwargs, message):
        with pytest.raises(SpecViolation, match=message):
            KeyMapEntry("date", **kwargs)

    @pytest.mark.parametrize("edit, message", [
        (lambda spec: {"attr_map": {"covid": {"confirmed": "state"}}},
         "covid: 'confirmed' maps to key attribute 'state'"),
        (lambda spec: {"key_map": {**spec.key_map, "mobility": [
            KeyMapEntry("date", 0, CanonKind("none")), *spec.key_map["mobility"][1:]]}},
         "conflicting canon kinds for key 'date'"),
    ], ids=["key_attribute_target", "conflicting_kinds"])
    def test_bad_spec(self, edit, message):
        spec = two_source_spec()
        fields = dict(target=spec.target, sources=spec.sources, key_map=spec.key_map,
                      attr_map=spec.attr_map)
        with pytest.raises(SpecViolation, match=message):
            MappingSpec(**{**fields, **edit(spec)})

    def test_unknown_source_has_no_descriptor(self):
        with pytest.raises(SpecViolation, match="unknown source 'nope'"):
            two_source_spec().descriptor("nope")

    def test_discarded_source_needs_no_key_map(self):
        spec = two_source_spec()
        MappingSpec(
            target=spec.target,
            sources=spec.sources,
            key_map={"covid": spec.key_map["covid"]},
            attr_map={
                "covid": spec.attr_map["covid"],
                "mobility": {"workplace": DISCARD},
            },
        )

    @pytest.mark.parametrize("attr_map, agg_map", [
        ({"covid": {"confirmed": "confirmed"}, "mobility": {"workplace": "confirmed"}},
         {"covid": {"confirmed": "sum"}}),
        ({"covid": {"confirmed": "confirmed", "recovered": "confirmed"}},
         {"covid": {"recovered": "max"}}),
    ], ids=["two_sources", "two_attributes_of_one_source"])
    def test_target_attribute_fed_under_two_modes(self, attr_map, agg_map, tmp_path):
        # Modes belong to the target attribute (target.agg_modes), so one
        # attribute cannot be fed under two modes: the per-source agg_map
        # that could say so is no spec key, and a file that has one is
        # refused by name.
        spec = two_source_spec().to_dict()
        spec.update(attr_map=attr_map, agg_map=agg_map)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        with pytest.raises(SpecViolation, match=f"^{re.escape(str(path))}: KeyError: "
                                                f".*unknown MappingSpec field 'agg_map'"):
            MappingSpec.load(path)
        del spec["agg_map"]
        path.write_text(json.dumps(spec))
        assert MappingSpec.load(path).target.agg_modes == two_source_spec().target.agg_modes

    @pytest.mark.parametrize("mode", [m for m in AggMode if m is not AggMode.SUM])
    def test_hierarchy_rollup_must_be_sum(self, mode, tmp_path):
        # Key expansion splits values as integer sums (a max rollup of the
        # children 7 and 5 of the value 12 would give 7 back), so expanded
        # rows always sum and a spec file that names a rollup is rejected.
        spec = two_source_spec().to_dict()
        spec["key_hierarchy"] = {"key_attr": "state", "children": {}, "rollup": mode.value}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        with pytest.raises(SpecViolation, match=f"^{re.escape(str(path))}: .*rollup"):
            MappingSpec.load(path)

    def test_json_round_trip(self, tmp_path):
        spec = two_source_spec()
        path = tmp_path / "spec.json"
        spec.dump(path)
        again = MappingSpec.load(path)
        assert again.to_dict() == spec.to_dict()

    def test_file_that_leaves_out_optional_keys_loads(self, tmp_path):
        # Written before every field was written: no key_hierarchy, no
        # pivot, log rules or constant keys where a source has none, and no
        # wildcard, component, kind or render where an entry leaves them out.
        path = tmp_path / "spec.json"
        path.write_text(SPARSE_SPEC_JSON, encoding="utf-8")
        assert MappingSpec.load(path) == sparse_spec()
        assert MappingSpec.from_json(sparse_spec().to_json()) == sparse_spec()


SPARSE_SPEC_JSON = r"""{
 "target": {"attributes": ["day", "host", "region", "cpu", "deaths"],
            "key_attributes": ["day", "host", "region"],
            "key_domains": {"region": {"values": ["east", "west"], "open": false}},
            "agg_modes": {"deaths": "sum"}},
 "sources": [
  {"source_id": "logs", "format": "log_lines", "key_columns": ["ts", "host"],
   "supercell_groups": [], "canonicalizers": {"ts": "date"},
   "log_rules": [
    {"pattern": "^Time: (?P<ts>\\S+)$", "key_captures": {"ts": "ts"},
     "attr_value_captures": {}},
    {"pattern": "^cpu (?P<v>\\d+)$", "key_captures": {},
     "attr_value_captures": {"cpu": "v"}}],
   "constant_keys": {"host": "web1"}},
  {"source_id": "deaths", "format": "pivoted_csv", "key_columns": ["Region"],
   "supercell_groups": [], "canonicalizers": {"Date": "date"},
   "pivot": {"pivot_axis_name": "Date", "value_attr_name": "Deaths"}}],
 "key_map": {
  "logs": [{"target": "day", "component": 0, "kind": "date", "render": "long_date"},
           {"target": "host", "component": 1, "kind": "none"},
           {"target": "region", "wildcard": true}],
  "deaths": [{"target": "day", "component": 1, "kind": "date"},
             {"target": "host", "wildcard": true},
             {"target": "region", "component": 0, "kind": "none"}]},
 "attr_map": {"logs": {"cpu": "cpu"}, "deaths": {"deaths": "deaths"}}
}
"""


def sparse_spec():
    date = CanonKind("date")
    return MappingSpec(
        target=TargetSchema(("day", "host", "region", "cpu", "deaths"),
                            ("day", "host", "region"),
                            {"region": KeyDomain(("east", "west"))},
                            {"deaths": AggMode.SUM}),
        sources=[
            SourceDescriptor(
                "logs", format="log_lines", key_columns=("ts", "host"),
                log_rules=(LogRule(r"^Time: (?P<ts>\S+)$", {"ts": "ts"}),
                           LogRule(r"^cpu (?P<v>\d+)$", attr_value_captures={"cpu": "v"})),
                constant_keys={"host": "web1"}, canonicalizers={"ts": date}),
            SourceDescriptor("deaths", format="pivoted_csv", key_columns=("Region",),
                             pivot=Pivot("Date", "Deaths"), canonicalizers={"Date": date}),
        ],
        key_map={
            "logs": [KeyMapEntry("day", 0, date, render="long_date"), KeyMapEntry("host", 1),
                     KeyMapEntry("region", wildcard=True)],
            "deaths": [KeyMapEntry("day", 1, date), KeyMapEntry("host", wildcard=True),
                       KeyMapEntry("region", 0)],
        },
        attr_map={"logs": {"cpu": "cpu"}, "deaths": {"deaths": "deaths"}},
    )


class TestWildcard:
    def test_wildcard_key_map_entry(self):
        schema = TargetSchema(
            attributes=("date", "state", "population"),
            key_attributes=("date", "state"),
            key_domains={"date": KeyDomain((), open=True),
                         "state": KeyDomain(("arizona",))},
        )
        pop = SourceDescriptor(source_id="pop", key_columns=("State",))
        spec = MappingSpec(
            target=schema,
            sources=[pop],
            key_map={"pop": [KeyMapEntry("date", wildcard=True),
                             KeyMapEntry("state", 0, GEO)]},
            attr_map={"pop": {"population": "population"}},
        )
        cell = SuperCell("pop", ("arizona",), ("population",), ("7278717",), 0)
        label = generate_training_data(spec, {"pop": [cell]}, DICTS)[0].label
        assert label.keys[0] == "WILDCARD"
        assert label.keys[1] == copy_marker(0)
