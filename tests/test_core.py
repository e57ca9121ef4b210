"""Core model: feature rendering, label round-trips, serialization."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from supercell.core import (
    AGG_MODES,
    AggMode,
    FeatureSentence,
    InvalidPosition,
    InvalidSuperCell,
    KeyDomain,
    LabelSpace,
    MalformedRecord,
    SuperCell,
    TargetPosition,
    TargetSchema,
    Timings,
    UnknownKeyValue,
    WILDCARD,
    copy_index,
    copy_marker,
    discard_position,
    fnv1a64,
    fnv1a64_spans,
    ngram_hashes,
    read_json,
    read_jsonl,
    read_text,
    render_feature,
    write_json,
    write_jsonl,
)
from supercell.mapping import LabeledSample, Origin

from conftest import reference_fnv1a64


def make_cell(keys, attrs, values, source="s", ordinal=0):
    return SuperCell(source, tuple(keys), tuple(attrs), tuple(values), ordinal)


class TestRenderFeature:
    def test_covid_mobility_example(self):
        cell = make_cell(
            ["2020-10-06", "az", "us"],
            ["mobility.workplace", "mobility.recreation", "mobility.grocery"],
            ["21", "5", "17"],
        )
        sentence = render_feature(cell)
        assert " ".join(sentence.tokens) == (
            "2020-10-06 az us mobility.workplace 21 mobility.recreation 5 "
            "mobility.grocery 17"
        )
        assert sentence.segment_tags == (
            "KEY", "KEY", "KEY", "ATTR", "VAL", "ATTR", "VAL", "ATTR", "VAL"
        )

    def test_minimal_cell(self):
        sentence = render_feature(make_cell(["k"], ["a"], ["v"]))
        assert sentence.tokens == ("k", "a", "v")
        assert sentence.segment_tags == ("KEY", "ATTR", "VAL")

    def test_key_order_is_canonical(self):
        # Pivoted decomposition stores the pivot key last; the rendered
        # sentence must not depend on storage order.
        a = make_cell(["2020-01-22", "hubei", "china"], ["deaths"], ["17"])
        b = make_cell(["hubei", "china", "2020-01-22"], ["deaths"], ["17"])
        assert render_feature(a) == render_feature(b)

    def test_lowercases_and_splits(self):
        cell = make_cell(["New York", "US"], ["Confirmed Cases"], ["3103"])
        sentence = render_feature(cell)
        assert sentence.tokens == ("new", "york", "us", "confirmed", "cases", "3103")

    def test_different_content_differs(self):
        a = render_feature(make_cell(["k"], ["a"], ["1"]))
        b = render_feature(make_cell(["k"], ["a"], ["2"]))
        assert a != b


class TestSuperCell:
    def test_parallel_vectors_enforced(self):
        with pytest.raises(ValueError):
            make_cell(["k"], ["a", "b"], ["1"])
        with pytest.raises(ValueError):
            make_cell(["k"], [], [])

    def test_negative_row_ordinal_rejected(self):
        with pytest.raises(InvalidSuperCell, match="row_ordinal must be >= 0"):
            make_cell(["k"], ["a"], ["1"], ordinal=-1)

    def test_json_round_trip(self):
        cell = make_cell(["2020-10-06", "az"], ["confirmed"], ["3103"], ordinal=7)
        again = SuperCell.from_json(cell.to_json())
        assert again == cell
        obj = json.loads(cell.to_json())
        assert set(obj) == {"source_id", "keys", "attributes", "values", "row_ordinal"}

    def test_signature_ignores_key_order(self):
        a = make_cell(["x", "y"], ["a"], ["1"])
        b = make_cell(["y", "x"], ["a"], ["1"])
        assert a.signature() == b.signature()


class TestRecordFiles:
    def test_jsonl_round_trip_for_cells_and_samples(self, tmp_path):
        cells = [make_cell(["é", "az"], ["confirmed"], ["3"], ordinal=i) for i in range(3)]
        samples = [LabeledSample.of(c, discard_position(2, 1)) for c in cells]
        for records, kind in ((cells, SuperCell), (samples, LabeledSample)):
            path = tmp_path / f"{kind.__name__}.jsonl"
            assert write_jsonl(records, path) == 3
            assert path.read_text(encoding="utf-8") == "".join(
                r.to_json() + "\n" for r in records)
            assert read_jsonl(path, kind) == records

    def test_blank_lines_are_skipped(self, tmp_path):
        cell = make_cell(["k"], ["a"], ["1"])
        path = tmp_path / "c.jsonl"
        path.write_text("\n" + cell.to_json() + "\n\n", encoding="utf-8")
        assert read_jsonl(path, SuperCell) == [cell]

    @pytest.mark.parametrize("bad", [
        "{not json", "[1, 2]", '{"source_id": "s"}',
        '{"source_id": "s", "keys": [], "attributes": [], "values": [], "row_ordinal": 0}',
    ])
    def test_malformed_line_names_file_and_line(self, tmp_path, bad):
        path = tmp_path / "c.jsonl"
        path.write_text(make_cell(["k"], ["a"], ["1"]).to_json() + "\n" + bad + "\n")
        with pytest.raises(MalformedRecord, match=rf"c\.jsonl:2: not a SuperCell"):
            read_jsonl(path, SuperCell)

    @pytest.mark.parametrize("edit", [
        lambda obj: obj.update(weight=1),
        lambda obj: obj["label"].update(weight=1),
        lambda obj: obj.update(origin=5),
        lambda obj: obj["feature"].update(tokens={"a": 1}),
        lambda obj: obj["feature"].update(tokens=[1] * len(obj["feature"]["tokens"])),
        lambda obj: obj["feature"].update(segment_tags=[None] * len(obj["feature"]["tokens"])),
    ], ids=["unknown_field", "unknown_nested_field", "origin_shape", "tokens_shape",
            "token_type", "tag_type"])
    def test_malformed_sample_names_file_and_line(self, tmp_path, edit):
        sample = LabeledSample.of(make_cell(["k"], ["a"], ["1"]), discard_position(1, 1))
        bad = json.loads(sample.to_json())
        edit(bad)
        path = tmp_path / "s.jsonl"
        path.write_text(sample.to_json() + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(MalformedRecord, match=r"s\.jsonl:2: not a LabeledSample"):
            read_jsonl(path, LabeledSample)

    @pytest.mark.parametrize("tp, value", [
        (list[list[str]], [[1, 2]]), (list[list[str]], [["a", {"a": 1}]]),
        (dict[str, int], {"a": "1"}), (tuple[str | None, ...], [None, True]),
    ], ids=["number_in_list", "object_in_list", "string_in_map", "bool_in_optional"])
    def test_wrong_element_type_names_file(self, tmp_path, tp, value):
        path = tmp_path / "d.json"
        path.write_text(json.dumps(value))
        with pytest.raises(MalformedRecord, match=r"d\.json: TypeError: must be"):
            read_json(path, tp)

    def test_directory_is_malformed_record_naming_it(self, tmp_path):
        for read in (read_text, lambda path: read_json(path, object)):
            with pytest.raises(MalformedRecord, match=re.escape(f"{tmp_path}: a directory")):
                read(tmp_path)

    def test_write_json_keeps_key_order(self, tmp_path):
        write_json({"b": 1, "a": [2]}, tmp_path / "r.json")
        assert (tmp_path / "r.json").read_text() == '{\n "b": 1,\n "a": [\n  2\n ]\n}\n'

    def test_timings_record_only_blocks_that_finish(self, tmp_path):
        timings = Timings()
        with timings.block("ok_s"):
            pass
        with pytest.raises(KeyError):
            with timings.block("raised_s"):
                raise KeyError("x")
        timings.write(tmp_path)
        written = json.loads((tmp_path / "timings.json").read_text())
        assert list(written) == ["ok_s"] and written["ok_s"] >= 0


SCHEMA = TargetSchema(
    attributes=("date", "state", "confirmed", "recovered"),
    key_attributes=("date", "state"),
    key_domains={
        "date": KeyDomain(("Oct 6, 2020",), open=True),
        "state": KeyDomain(("arizona", "utah"), open=False),
    },
)


class TestLabels:
    def test_discard_round_trip(self):
        pos = discard_position(2, 3)
        space = LabelSpace(SCHEMA, max_copy=6, max_width=4)
        ids = space.render(pos)
        assert len(ids) == len(space.head_sizes)
        assert all(i == 0 for i in ids[:-1])
        assert AGG_MODES[ids[-1]] is AggMode.DISCARD
        assert space.decode(ids, 3) == pos

    def test_slots_past_width_are_null(self):
        space = LabelSpace(SCHEMA, max_copy=6, max_width=4)
        pos = TargetPosition(("Oct 6, 2020", "arizona"), ("confirmed",), AggMode.SUM)
        ids = space.render(pos)
        assert len(ids) == len(space.head_sizes)
        assert ids[3:6] == (0, 0, 0)
        assert space.decode(ids, 1) == pos

    def test_live_heads(self):
        space = LabelSpace(SCHEMA, max_copy=6, max_width=4)
        assert space.live_heads(1) == [0, 1, 2, 6]
        assert space.live_heads(4) == [0, 1, 2, 3, 4, 5, 6]
        # A cell wider than max_width is scored on max_width slots.
        assert space.live_heads(9) == space.live_heads(4)

    def test_live_mask_rows_are_live_heads(self):
        space = LabelSpace(SCHEMA, max_copy=6, max_width=4)
        widths = [1, 9, 4, 1, 0, 2]
        mask = space.live_mask(widths)
        assert mask.shape == (len(widths), len(space.head_sizes))
        assert [np.flatnonzero(row).tolist() for row in mask] == [
            space.live_heads(w) for w in widths]
        assert space.live_mask([]).shape == (0, len(space.head_sizes))

    def test_wide_cell_decodes_to_max_width(self):
        space = LabelSpace(SCHEMA, max_copy=6, max_width=2)
        pos = TargetPosition(("Oct 6, 2020", "utah"), ("confirmed", "recovered"),
                             AggMode.SUM)
        assert space.decode(space.render(pos), 5) == pos

    def test_copy_round_trip(self):
        pos = TargetPosition(
            keys=(copy_marker(0), copy_marker(1)),
            attributes=("confirmed",),
            agg_mode=AggMode.REPLACE,
        )
        space = LabelSpace(SCHEMA, max_copy=6, max_width=4)
        assert space.decode(space.render(pos), len(pos.attributes)) == pos

    def test_write_processor_keys_in_domain(self):
        # Rendered long-form date and title-cased region names are literal,
        # in-domain key entries.
        schema = TargetSchema(
            attributes=("datetime", "state", "country"),
            key_attributes=("datetime", "state", "country"),
            key_domains={
                "datetime": KeyDomain(("Oct 6, 2020",)),
                "state": KeyDomain(("Arizona",)),
                "country": KeyDomain(("United States",)),
            },
        )
        pos = TargetPosition(
            keys=("Oct 6, 2020", "Arizona", "United States"),
            attributes=("datetime",),
            agg_mode=AggMode.REPLACE,
        )
        space = LabelSpace(schema, max_copy=6, max_width=4)
        assert space.decode(space.render(pos), len(pos.attributes)) == pos

    def test_unknown_key_value(self):
        pos = TargetPosition(
            keys=("2020-10-06", "oregon"),  # oregon not in the state domain
            attributes=("confirmed",),
            agg_mode=AggMode.REPLACE,
        )
        with pytest.raises(UnknownKeyValue):
            LabelSpace(SCHEMA, max_copy=6, max_width=4).render(pos)

    def test_wildcard_and_null_round_trip(self):
        pos = TargetPosition(
            keys=(WILDCARD, "arizona"),
            attributes=("confirmed", None),
            agg_mode=AggMode.SUM,
        )
        space = LabelSpace(SCHEMA, max_copy=6, max_width=4)
        assert space.decode(space.render(pos), len(pos.attributes)) == pos

    def test_position_json_round_trip(self):
        pos = TargetPosition(
            keys=(copy_marker(2), None),
            attributes=(None, "recovered"),
            agg_mode=AggMode.CONCAT,
        )
        assert TargetPosition.from_dict(pos.to_dict()) == pos

    def test_discard_requires_null_keys(self):
        with pytest.raises(InvalidPosition):
            TargetPosition(("arizona",), (None,), AggMode.DISCARD)

    def test_position_needs_an_attribute(self):
        with pytest.raises(InvalidPosition, match="attributes must be nonempty"):
            TargetPosition(("arizona",), (), AggMode.SUM)

    def test_schema_needs_a_key_attribute(self):
        with pytest.raises(ValueError, match="at least one key attribute"):
            TargetSchema(attributes=("confirmed",), key_attributes=())

    def test_render_rejects_a_position_wider_than_max_width(self):
        pos = TargetPosition(("2020-10-06", "arizona"), ("confirmed",) * 3, AggMode.SUM)
        with pytest.raises(InvalidPosition, match="cell width 3 exceeds max 2"):
            LabelSpace(SCHEMA, max_copy=6, max_width=2).render(pos)

    def test_copy_marker_parsing(self):
        assert copy_index(copy_marker(3)) == 3
        assert copy_index("arizona") is None
        assert copy_index(None) is None
        assert copy_index(WILDCARD) is None


@st.composite
def positions(draw):
    schema = SCHEMA
    q = schema.q
    width = draw(st.integers(1, 4))
    if draw(st.booleans()) and draw(st.integers(0, 9)) == 0:
        return discard_position(q, width), schema
    key_choices = [
        [None, copy_marker(0), copy_marker(1), copy_marker(2), WILDCARD]
        + list(schema.domain(k).values)
        for k in schema.key_attributes
    ]
    keys = tuple(draw(st.sampled_from(choices)) for choices in key_choices)
    attrs = tuple(
        draw(st.sampled_from([None, "confirmed", "recovered"])) for _ in range(width)
    )
    if all(a is None for a in attrs):
        return discard_position(q, width), schema
    agg = draw(st.sampled_from(list(AggMode)))
    return TargetPosition(keys, attrs, agg), schema


@given(positions())
@settings(max_examples=200, deadline=None)
def test_label_round_trip_property(case):
    pos, schema = case
    space = LabelSpace(schema, max_copy=3, max_width=4)
    assert space.decode(space.render(pos), len(pos.attributes)) == pos


texts = st.text(max_size=8)
sentences = st.lists(st.tuples(texts, st.sampled_from(["KEY", "ATTR", "VAL"])),
                     min_size=1, max_size=6).map(
    lambda pairs: FeatureSentence(*zip(*pairs)))


@st.composite
def any_positions(draw):
    width = draw(st.integers(1, 4))
    attrs = tuple(draw(st.lists(st.none() | texts, min_size=width, max_size=width)))
    keys = draw(st.lists(st.none() | texts, min_size=1, max_size=3))
    if all(a is None for a in attrs):
        keys = [None] * len(keys)
    return TargetPosition(tuple(keys), attrs, draw(st.sampled_from(list(AggMode))))


@st.composite
def cells(draw):
    width = draw(st.integers(1, 4))
    return SuperCell(
        draw(texts), tuple(draw(st.lists(texts, max_size=3))),
        tuple(draw(st.lists(texts, min_size=width, max_size=width))),
        tuple(draw(st.lists(texts, min_size=width, max_size=width))),
        draw(st.integers(0, 2**40)),
    )


samples = st.builds(LabeledSample, sentences, any_positions(),
                    st.builds(Origin, texts, st.integers(0, 2**40)))


@pytest.mark.parametrize("kind, records", [
    (SuperCell, cells()), (TargetPosition, any_positions()),
    (FeatureSentence, sentences), (LabeledSample, samples),
], ids=["SuperCell", "TargetPosition", "FeatureSentence", "LabeledSample"])
def test_record_json_round_trip(kind, records):
    @given(records)
    @settings(max_examples=100, deadline=None)
    def check(record):
        assert kind.from_json(record.to_json()) == record

    check()


def test_feature_sentence_round_trip():
    sentence = FeatureSentence(("a", "b"), ("KEY", "VAL"))
    assert FeatureSentence.from_dict(sentence.to_dict()) == sentence


class TestFnv1a64Spans:
    @given(st.binary(max_size=40), st.data())
    @settings(max_examples=200, deadline=None)
    def test_each_span_is_the_per_byte_loop(self, blob, data):
        spans = data.draw(st.lists(st.integers(0, len(blob)).flatmap(
            lambda a: st.tuples(st.just(a), st.integers(0, len(blob) - a))), max_size=12))
        start = np.array([a for a, _ in spans], np.int64)
        span = np.array([n for _, n in spans], np.int64)
        got = fnv1a64_spans(blob, start, span)
        assert got.dtype == np.uint64
        assert got.tolist() == [reference_fnv1a64(blob[a : a + n]) for a, n in spans]

    @given(st.text(max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_fnv1a64_is_the_per_byte_loop(self, text):
        assert fnv1a64(text) == reference_fnv1a64(text)

    @given(st.lists(st.text(max_size=8), min_size=1, max_size=5), st.data())
    @settings(max_examples=100, deadline=None)
    def test_ngram_hashes_are_the_hashes_of_the_sliced_strings(self, texts, data):
        grams = []
        for _ in range(data.draw(st.integers(0, 10))):
            t = data.draw(st.integers(0, len(texts) - 1))
            offset = data.draw(st.integers(0, len(texts[t])))
            grams.append((t, offset, data.draw(st.integers(0, len(texts[t]) - offset))))
        text, offset, width = (np.array([g[i] for g in grams], np.int64) for i in range(3))
        assert ngram_hashes(texts, text, offset, width).tolist() == [
            fnv1a64(texts[t][a : a + n]) for t, a, n in grams]

    def test_lone_surrogate_raises(self):
        with pytest.raises(UnicodeEncodeError):
            fnv1a64("\ud800")
        with pytest.raises(UnicodeEncodeError):
            ngram_hashes(["ok", "a\udfffb"], np.array([0]), np.array([0]), np.array([2]))
