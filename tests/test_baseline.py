"""MinHash signatures, column matching, source selection, baseline join."""

import hashlib
import json
import re
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from supercell import baseline
from supercell.baseline import (
    ColumnMatch,
    EmptyColumn,
    IncompatibleSignatures,
    MatchReport,
    MinHashSignature,
    UncoverableAttribute,
    baseline_integrate,
    estimate_jaccard,
    load_signatures,
    match_columns,
    match_signatures,
    save_signatures,
    select_sources,
    sign_columns,
    signature,
    storage_report,
)
from supercell.assemble import TargetTable
from supercell.canon import DATE, NONE, NUMBER, canonicalize
from supercell.core import (
    AggMode, KeyDomain, MalformedRecord, SuperCell, TargetPosition, TargetSchema,
)
from supercell.datasets import build_covid_fixture
from supercell.ingest import RawTable, is_missing

from conftest import reference_fnv1a64


def reference_shingles(value: str) -> set[str]:
    """The 3-character shingles of a value, lowercased; a shorter value is
    its own one shingle."""
    text = value.strip().lower()
    if len(text) <= 3:
        return {text} if text else set()
    return {text[i : i + 3] for i in range(len(text) - 2)}


def reference_column_shingles(column: list[str]) -> set[str]:
    out: set[str] = set()
    for value in column:
        if not is_missing(value):
            out |= reference_shingles(value)
    return out


def reference_signature(column: list[str], L: int) -> MinHashSignature:
    """``signature`` as a string set: every shingle sliced out as a string
    and hashed byte by byte."""
    shingle_set = reference_column_shingles(column)
    if not shingle_set:
        raise EmptyColumn("no shingles")
    base = np.array([reference_fnv1a64(s) for s in shingle_set], np.uint64)
    return MinHashSignature(baseline._hash_matrix(base, L).min(axis=0).tolist(), L)


# Values that strip or lowercase to another length or to a missing token,
# and characters of every UTF-8 length.
TRICKY = ["", " ", "NA", " null ", "Na\t", "İ", "İİİİ", "\x00", "a\x00b", "é", "中文",
          "😀", "x😀yz", " \u2003ab\u2003 ", "ß", "ABC", "abcd"]
values = st.one_of(st.sampled_from(TRICKY), st.text(max_size=8))


class TestSignature:
    def test_identical_columns_identical_signatures(self):
        column = ["2020-10-06", "2020-10-07", "2020-10-08"]
        assert signature(column) == signature(list(column))

    def test_row_permutation_invariant(self):
        column = ["alpha", "beta", "gamma"]
        assert signature(column) == signature(column[::-1])

    def test_deterministic_across_runs(self):
        sig = signature(["alpha", "beta"], L=16)
        assert sig == signature(["alpha", "beta"], L=16)

    def test_empty_column(self):
        with pytest.raises(EmptyColumn):
            signature(["", "NA", "null"])

    @pytest.mark.parametrize("L", [0, -1])
    def test_length_below_one_rejected(self, L):
        with pytest.raises(IncompatibleSignatures):
            signature(["alpha"], L=L)
        with pytest.raises(IncompatibleSignatures):
            sign_columns({"s": table(["c"], [["alpha"]])}, L)
        with pytest.raises(IncompatibleSignatures):
            MinHashSignature((), L)

    def test_value_count_must_be_l(self):
        with pytest.raises(IncompatibleSignatures, match="2 values for L=3"):
            MinHashSignature((1, 2), 3)

    def test_disjoint_columns_rarely_agree(self):
        rng = np.random.default_rng(0)
        a = ["".join(chr(97 + int(rng.integers(13))) for _ in range(12))
             for _ in range(30)]
        b = ["".join(chr(110 + int(rng.integers(13))) for _ in range(12))
             for _ in range(30)]
        est = estimate_jaccard(signature(a, L=128), signature(b, L=128))
        assert est < 3 / 128


class TestShingleHashing:
    @given(st.lists(values, max_size=8), st.sampled_from([1, 3, 16]))
    @example(["İ"], 4)
    @example(["abc", "ABCD", " abc "], 8)
    @settings(max_examples=300, deadline=None)
    def test_signature_is_the_string_set_reference(self, column, L):
        try:
            expected = reference_signature(column, L)
        except EmptyColumn:
            with pytest.raises(EmptyColumn):
                signature(column, L)
            return
        assert signature(column, L) == expected

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_sign_columns_is_the_reference_per_column(self, data):
        # Columns share one blob in a call, so each must keep to its own bytes.
        n_rows = data.draw(st.integers(0, 5))
        columns = data.draw(st.lists(st.lists(values, min_size=n_rows, max_size=n_rows),
                                     min_size=1, max_size=4))
        raw = table([f"c{i}" for i in range(len(columns))], columns)
        expected = {}
        for column in raw.header:
            try:
                expected[("s", column)] = reference_signature(raw.column(column), 8)
            except EmptyColumn:
                continue
        assert sign_columns({"s": raw}, 8) == expected

    @pytest.mark.parametrize("column", [["a\ud800b"], ["ok", "\udfff"], ["\ud83d"]])
    def test_lone_surrogate_raises(self, column):
        with pytest.raises(UnicodeEncodeError):
            signature(column, 8)
        with pytest.raises(UnicodeEncodeError):
            sign_columns({"s": table(["c"], [column])}, 8)

    def test_signature_store_bytes_are_pinned(self, tmp_path):
        # Any change to the shingles, their FNV-1a hash or the hash family
        # changes these bytes, and every stored signature with them.
        words = [["Café", " 中文字 ", "😀ok", "İstanbul", "a\x00b", "NA", "x"],
                 ["2020-10-06", "-12", "", "null", "ab", "Ab", "ÉTÉ"]]
        sources = {**build_covid_fixture(seed=31, n_dates=3, n_states=6).tables,
                   "words": table(["w", "v"], words)}
        path = tmp_path / "sigs.bin"
        save_signatures(sign_columns(sources, L=32), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "633b7edaff3768d8ab4325ce74cdabbce31e4b43df9af2c5cf14af1336c62e05")


class TestJaccardEstimate:
    def test_self_similarity(self):
        sig = signature(["abcdef"])
        assert estimate_jaccard(sig, sig) == 1.0

    def test_known_half_overlap(self):
        # Shingle sets {abc,bcd,cde} and {bcd,cde,def}: exact J = 2/4.
        a = signature(["abcde"], L=128)
        b = signature(["bcdef"], L=128)
        assert reference_shingles("abcde") == {"abc", "bcd", "cde"}
        assert reference_shingles("bcdef") == {"bcd", "cde", "def"}
        assert abs(estimate_jaccard(a, b) - 0.5) <= 0.15

    def test_disjoint_sets_near_zero(self):
        a = signature(["aaaa"], L=128)
        b = signature(["zzzz"], L=128)
        assert estimate_jaccard(a, b) <= 0.05

    def test_incompatible_signatures(self):
        with pytest.raises(IncompatibleSignatures):
            estimate_jaccard(signature(["abc"], L=8), signature(["abc"], L=16))


def table(header, columns):
    rows = tuple(zip(*columns))
    return RawTable(tuple(header), rows)


# Small random sources: few rows drawn from few values, so that empty,
# missing-only and duplicate-valued columns are common.
CELL_VALUES = ["", "NA", "null", "abc", "abcd", "bcde", "x", "xyzw", "2020-10-06", "-12"]


@st.composite
def raw_tables(draw, prefix="c"):
    n_columns = draw(st.integers(1, 4))
    n_rows = draw(st.integers(0, 5))
    columns = [draw(st.lists(st.sampled_from(CELL_VALUES), min_size=n_rows, max_size=n_rows))
               for _ in range(n_columns)]
    return table([f"{prefix}{i}" for i in range(n_columns)], columns)


lake_sources = st.dictionaries(st.sampled_from(["s1", "s2", "s3"]), raw_tables(), max_size=3)


def reference_match(store, example, threshold):
    """``match_signatures`` as a loop over ``signature`` and
    ``estimate_jaccard`` per (attribute, stored column)."""
    first = next(iter(store.values()), None)
    if first is None:
        return MatchReport({}, {}, list(example.header))
    best, per_source = {}, {}
    for attr in example.header:
        try:
            target = signature(example.column(attr), first.L)
        except EmptyColumn:
            continue
        for (source_id, column), sig in store.items():
            score = estimate_jaccard(target, sig)
            if score < threshold:
                continue
            key = (attr, source_id)
            if key not in per_source or score > per_source[key].score:
                per_source[key] = ColumnMatch(source_id, column, score)
            if attr not in best or score > best[attr].score:
                best[attr] = ColumnMatch(source_id, column, score)
    return MatchReport(best, per_source, [a for a in example.header if a not in best])


class TestOneHashingPass:
    @given(lake_sources, st.sampled_from([1, 4, 10, 16]))
    @settings(max_examples=100, deadline=None)
    def test_sign_columns_is_signature_per_column(self, sources, L):
        expected = {}
        for source_id, raw in sources.items():
            for column in raw.header:
                try:
                    expected[(source_id, column)] = signature(raw.column(column), L)
                except EmptyColumn:
                    continue
        store = sign_columns(sources, L)
        assert list(store) == list(expected)
        assert store == expected

    @given(lake_sources, raw_tables(prefix="a"), st.sampled_from([1, 4, 10, 16]),
           st.sampled_from([0.0, 0.1, 0.3, 0.5, 0.7, 1.0]))
    @example({"s1": table(["c0"], [["abc", "x"]])}, table(["a0"], [["abc", "x"]]), 10, 0.3)
    @settings(max_examples=150, deadline=None)
    def test_match_signatures_is_the_brute_force_loop(self, sources, example, L, threshold):
        store = sign_columns(sources, L)
        assert match_signatures(store, example, threshold) == reference_match(
            store, example, threshold)

    @given(st.data(), st.sampled_from([1, 4, 10, 16]), st.sampled_from([0.0, 0.3, 0.5, 1.0]))
    @settings(max_examples=100, deadline=None)
    def test_match_columns_is_match_signatures_of_the_store(self, data, L, threshold):
        # Header names may repeat: the store keeps one entry per name.
        sources = {
            source_id: RawTable(
                tuple(data.draw(st.sampled_from(["c0", "c1"])) for _ in raw.header), raw.rows)
            for source_id, raw in data.draw(lake_sources).items()
        }
        example = data.draw(raw_tables(prefix="a"))
        assert match_columns(sources, example, threshold, L) == match_signatures(
            sign_columns(sources, L), example, threshold)

    @given(raw_tables(prefix="a"))
    @example(table(["a0", "a1"], [["", "NA"], ["null", ""]]))
    @settings(max_examples=50, deadline=None)
    def test_mixed_l_store_rejected_whatever_the_example(self, example):
        store = {("s", "a"): signature(["alpha"], L=16), ("s", "b"): signature(["beta"], L=32)}
        with pytest.raises(IncompatibleSignatures):
            match_signatures(store, example)

    def test_three_of_ten_agreeing_positions_meet_threshold_point_three(self):
        # 3 / 10 == 0.3, while 0.3 * 10 == 3.0000000000000004.
        values = ["alpha", "beta"]
        target = signature(values, L=10)
        stored = MinHashSignature(
            [v if j < 3 else (v + 1) % 2**32 for j, v in enumerate(target.values)], 10)
        report = match_signatures({("s", "c"): stored}, table(["a"], [values]), threshold=0.3)
        assert report.best == {"a": ColumnMatch("s", "c", 0.3)}
        assert estimate_jaccard(target, stored) == 0.3


class TestMatchColumns:
    def test_exact_copy_matches_high(self):
        values = [f"value_{i:04d}" for i in range(40)]
        source = table(["c0", "c1"], [values, [f"zz{i}" for i in range(40)]])
        target = table(["wanted"], [values])
        report = match_columns({"src": source}, target, threshold=0.5, L=128)
        match = report.best["wanted"]
        assert (match.source_id, match.column) == ("src", "c0")
        assert match.score > 0.9

    def test_no_match_recorded(self):
        source = table(["c0"], [["aaaa"] * 5])
        target = table(["wanted"], [["zzzz"] * 5])
        report = match_columns({"src": source}, target)
        assert report.best == {}
        assert report.unmatched == ["wanted"]

    def test_pivoted_source_misses_date_attribute(self):
        dates = [f"2020-10-{d:02d}" for d in range(1, 11)]
        states = ["arizona", "utah", "texas"]
        rows = [(s, str(100 + i)) for i, s in enumerate(states)]
        pivoted = RawTable(
            ("Province/State",) + tuple(dates[:3]),
            tuple((s, "1", "2", "3") for s in states),
        )
        target = table(
            ["date", "state", "deaths"],
            [dates[:3] * 3, states * 3, [str(i) for i in range(9)]],
        )
        report = match_columns({"deaths_pivoted": pivoted}, target)
        assert "date" in report.unmatched


class TestSignColumns:
    def test_skips_empty_columns_in_source_then_header_order(self):
        words = ["alpha", "beta", "gamma"]
        sources = {
            "b": table(["x", "blank", "y"], [words, ["", "NA", "null"], words[::-1]]),
            "a": table(["z"], [["delta", "epsilon", "zeta"]]),
        }
        store = sign_columns(sources, L=16)
        assert list(store) == [("b", "x"), ("b", "y"), ("a", "z")]
        for (source_id, column), sig in store.items():
            assert sig == signature(sources[source_id].column(column), L=16)

    def test_no_sources_no_store(self):
        assert sign_columns({}) == {}


class TestMatchSignatures:
    """Matching over a signed store is ``match_columns`` split in two."""

    VALUES = [f"value_{i:04d}" for i in range(40)]

    def assert_same_as_match_columns(self, sources, example):
        report = match_signatures(sign_columns(sources), example)
        assert report == match_columns(sources, example)
        return report

    def test_tie_goes_to_earlier_source(self):
        sources = {
            "first": table(["c"], [self.VALUES]),
            "second": table(["c"], [self.VALUES]),
        }
        report = self.assert_same_as_match_columns(
            sources, table(["wanted"], [self.VALUES])
        )
        assert report.best["wanted"].source_id == "first"
        assert set(report.per_source) == {("wanted", "first"), ("wanted", "second")}

    def test_duplicate_header_keeps_each_unmatched_entry(self):
        sources = {"src": table(["c"], [self.VALUES])}
        example = table(
            ["wanted", "lost", "wanted", "lost"],
            [self.VALUES, ["zz"] * 40, self.VALUES, ["zz"] * 40],
        )
        report = self.assert_same_as_match_columns(sources, example)
        assert list(report.best) == ["wanted"]
        assert report.unmatched == ["lost", "lost"]

    def test_empty_store_leaves_every_attribute_unmatched(self):
        example = table(["b", "a", "blank"], [self.VALUES, self.VALUES, [""] * 40])
        report = self.assert_same_as_match_columns({}, example)
        assert report.unmatched == ["b", "a", "blank"]
        assert (report.best, report.per_source) == ({}, {})

    def test_example_signed_with_store_l(self):
        sources = {"src": table(["c"], [self.VALUES])}
        example = table(["wanted"], [self.VALUES])
        report = match_signatures(sign_columns(sources, L=32), example)
        assert report == match_columns(sources, example, L=32)
        assert report.best["wanted"].score == 1.0

    def test_mixed_l_store_rejected(self):
        store = {
            ("s", "a"): signature(self.VALUES, L=16),
            ("s", "b"): signature(self.VALUES, L=32),
        }
        with pytest.raises(IncompatibleSignatures):
            match_signatures(store, table(["wanted"], [self.VALUES]))


class TestSelectSources:
    def test_single_covering_source(self):
        matches = {
            "a": ColumnMatch("s1", "a", 0.9),
            "b": ColumnMatch("s1", "b", 0.9),
        }
        assert select_sources(matches) == ["s1"]

    def test_two_half_coverers(self):
        matches = {
            "a": ColumnMatch("s1", "a", 0.9),
            "b": ColumnMatch("s2", "b", 0.9),
        }
        assert sorted(select_sources(matches)) == ["s1", "s2"]

    def test_redundant_third_excluded(self):
        matches = {
            "a": ColumnMatch("s1", "a", 0.9),
            "b": ColumnMatch("s1", "b", 0.9),
            "c": ColumnMatch("s2", "c", 0.9),
        }
        selected = select_sources(matches)
        assert "s3" not in selected
        assert set(selected) == {"s1", "s2"}

    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(st.sampled_from("abcdefgh"), st.sampled_from(["s1", "s2", "s3", "s4"]),
                           max_size=8))
    def test_selection_covers_every_matched_attribute(self, source_of):
        # Each attribute is covered only by its own match's source, so the
        # cover is every such source, once.
        matches = {attr: ColumnMatch(source, attr, 0.9) for attr, source in source_of.items()}
        selected = select_sources(matches)
        assert sorted(selected) == sorted(set(source_of.values()))


def integration_fixture():
    dates = [f"2020-10-{d:02d}" for d in range(1, 9)]
    states = ["arizona"] * len(dates)
    confirmed = [str(100 + i) for i in range(len(dates))]
    workplace = [str(-10 - i) for i in range(len(dates))]
    cases = table(["Date", "State", "Confirmed"], [dates, states, confirmed])
    mobility = table(["Time", "Region", "Workplace"], [dates, states, workplace])
    schema = TargetSchema(
        attributes=("date", "state", "confirmed", "workplace"),
        key_attributes=("date", "state"),
        key_domains={"date": KeyDomain((), open=True),
                     "state": KeyDomain(("arizona",), open=True)},
    )
    target = table(
        ["date", "state", "confirmed", "workplace"],
        [dates, states, confirmed, workplace],
    )
    return {"cases": cases, "mobility": mobility}, schema, target


class TestBaselineIntegrate:
    def test_clean_join_matches_target(self):
        sources, schema, target = integration_fixture()
        report = match_columns(sources, target, threshold=0.35)
        result = baseline_integrate(report, sources, schema)
        got = {tuple(r) for r in result.finalized_rows()}
        expected = {tuple(r) for r in target.rows}
        assert got == expected

    def test_reformatted_key_breaks_matching(self):
        sources, schema, target = integration_fixture()
        cases = sources["cases"]
        idx = cases.header.index("Date")
        def mdy(iso):
            return f"{int(iso[5:7])}/{int(iso[8:10])}/{iso[:4]}"
        rows = tuple(
            tuple(mdy(v) if i == idx else v for i, v in enumerate(row))
            for row in cases.rows
        )
        sources["cases"] = RawTable(cases.header, rows)
        report = match_columns(sources, target, threshold=0.35)
        with pytest.raises(UncoverableAttribute):
            baseline_integrate(report, sources, schema)

    def test_key_attribute_without_a_match_is_uncoverable(self):
        sources, schema, _ = integration_fixture()
        report = MatchReport({"confirmed": ColumnMatch("cases", "Confirmed", 1.0)}, {},
                             ["date", "state", "workplace"])
        with pytest.raises(UncoverableAttribute, match=r"^\['date', 'state'\]$"):
            baseline_integrate(report, sources, schema)

    def test_signed_zero_keys_share_one_row(self):
        schema = TargetSchema(attributes=("k", "v"), key_attributes=("k",))
        source = table(["K", "V"], [["-0", "0.00", "2"], ["a", "b", "c"]])
        report = MatchReport(
            {"k": ColumnMatch("s", "K", 1.0), "v": ColumnMatch("s", "V", 1.0)},
            {("k", "s"): ColumnMatch("s", "K", 1.0)}, [])
        result = baseline_integrate(report, {"s": source}, schema, {"k": NUMBER})
        assert result.finalized_rows() == [["0", "b"], ["2", "c"]]

    def test_repeated_column_name_joins_the_matched_column(self):
        # Signing reads the first "v" column, so the join must read it too.
        keys = [f"k{i}" for i in range(8)]
        first = [f"value_{i}" for i in range(8)]
        source = table(["k", "v", "v"], [keys, first, [f"x{i * 7}" for i in range(8)]])
        example = table(["k", "v"], [keys, first])
        schema = TargetSchema(attributes=("k", "v"), key_attributes=("k",))
        report = match_columns({"s": source}, example)
        assert report.best["v"] == ColumnMatch("s", "v", 1.0)
        result = baseline_integrate(report, {"s": source}, schema)
        assert result.finalized_rows() == [list(row) for row in example.rows]

    def test_single_source_pass_through(self):
        sources, schema, target = integration_fixture()
        only = {"cases": sources["cases"]}
        narrow_schema = TargetSchema(
            attributes=("date", "state", "confirmed"),
            key_attributes=("date", "state"),
        )
        narrow_target = RawTable(
            ("date", "state", "confirmed"),
            tuple((r[0], r[1], r[2]) for r in target.rows),
        )
        report = match_columns(only, narrow_target, threshold=0.35)
        result = baseline_integrate(report, only, narrow_schema)
        assert {tuple(r) for r in result.finalized_rows()} == {
            tuple(r) for r in narrow_target.rows
        }


class TestCanonicalizedOnce:
    KEY_VALUES = ["1", "01", "1.0", "-0", "0", "x", "NA"]
    ROWS = st.lists(st.tuples(st.sampled_from(KEY_VALUES), st.sampled_from(KEY_VALUES),
                              st.sampled_from(["5", "", "7"])), min_size=1, max_size=8)

    @given(ROWS, ROWS)
    @settings(max_examples=60, deadline=None)
    def test_each_key_value_is_canonicalized_once_per_call(self, rows_a, rows_b):
        # The key attributes differ in kind, so a call's (value, kind)
        # names its (key attribute, raw value).
        sources = {"a": RawTable(("K1", "K2", "V"), rows_a),
                   "b": RawTable(("K1", "K2", "W"), rows_b)}
        schema = TargetSchema(attributes=("k1", "k2", "v", "w"), key_attributes=("k1", "k2"))
        kinds = {"k1": NUMBER, "k2": NONE}
        keys = {(a, s): ColumnMatch(s, c, 1.0) for a, c in (("k1", "K1"), ("k2", "K2"))
                for s in sources}
        report = MatchReport(
            {"k1": keys["k1", "a"], "k2": keys["k2", "a"], "v": ColumnMatch("a", "V", 1.0),
             "w": ColumnMatch("b", "W", 1.0)}, keys, [])
        calls = []
        canonicalize = baseline.canonicalize

        def counted(value, kind, dictionaries=None):
            calls.append((value, kind))
            return canonicalize(value, kind, dictionaries)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(baseline, "canonicalize", counted)
            baseline_integrate(report, sources, schema, kinds)
        expected = {(row[i], kinds[k]) for raw in sources.values() for row in raw.rows
                    for i, k in enumerate(("k1", "k2"))}
        assert len(calls) == len(set(calls)) == len(expected)
        assert set(calls) == expected



def reference_integrate(report, sources, schema, key_kinds=None, dictionaries=None):
    """``baseline_integrate`` as one ``SuperCell``, ``TargetPosition`` and
    ``TargetTable.apply`` per source row with a present value. Header names
    must not repeat: a name's column is looked up by name."""
    missing_keys = [k for k in schema.key_attributes if k not in report.best]
    if missing_keys:
        raise UncoverableAttribute(missing_keys)
    key_kinds = key_kinds or {}
    table = TargetTable(schema)
    for source_id in select_sources(report.best):
        raw = sources[source_id]
        key_cols = {}
        for k in schema.key_attributes:
            match = report.per_source.get((k, source_id))
            if match is None:
                raise UncoverableAttribute(f"source {source_id!r} has no column matching key {k!r}")
            key_cols[k] = match.column
        value_attrs = [a for a in schema.attributes if a not in schema.key_attributes
                       and a in report.best and report.best[a].source_id == source_id]
        idx = {name: i for i, name in enumerate(raw.header)}
        for row in raw.rows:
            key = tuple(canonicalize(row[idx[key_cols[k]]], key_kinds.get(k, NONE), dictionaries)
                        for k in schema.key_attributes)
            attrs, values = [], []
            for attr in value_attrs:
                raw_value = row[idx[report.best[attr].column]]
                if not is_missing(raw_value):
                    attrs.append(attr)
                    values.append(raw_value)
            if attrs:
                cell = SuperCell(source_id, key, tuple(attrs), tuple(values), 0)
                table.apply(cell, TargetPosition(key, tuple(attrs), AggMode.REPLACE))
    return table


# Date keys that fail to parse pass through canonicalization unchanged, the
# wildcard and COPY markers among them.
JOIN_DATES = ["2020-01-22", "1/22/2020", "Jan 23, 2020", "someday", "WILDCARD", "COPY(1)", "", "NA"]
JOIN_STATES = ["AZ", "az", " Utah", "WILDCARD", "NA"]
JOIN_VALUES = ["1", "2", "x", "", "NA", " null", "3.50"]


@st.composite
def join_cases(draw):
    """Sources of repeated and missing keys and values, and a match report
    that assigns each value attribute to some source's column."""
    header = ("D", "S", "A", "B")
    sources = {}
    for source_id in draw(st.lists(st.sampled_from(["s0", "s1", "s2"]), min_size=1, max_size=3,
                                   unique=True)):
        rows = draw(st.lists(st.tuples(st.sampled_from(JOIN_DATES), st.sampled_from(JOIN_STATES),
                                       st.sampled_from(JOIN_VALUES), st.sampled_from(JOIN_VALUES)),
                             max_size=8))
        sources[source_id] = RawTable(header, rows)
    ids = list(sources)
    per_source = {(k, source_id): ColumnMatch(source_id, column, 1.0)
                  for k, column in (("date", "D"), ("state", "S")) for source_id in ids
                  if draw(st.integers(0, 9))}  # a source now and then lacks a key match
    best = {k: ColumnMatch(ids[0], column, 1.0) for k, column in (("date", "D"), ("state", "S"))}
    for attr in ("v", "w", "x"):
        if draw(st.booleans()):
            best[attr] = ColumnMatch(draw(st.sampled_from(ids)), draw(st.sampled_from(header)), 1.0)
    return sources, MatchReport(best, per_source, [])


class TestJoinReference:
    SCHEMA = TargetSchema(attributes=("date", "state", "v", "w", "x"),
                          key_attributes=("date", "state"))

    @given(join_cases())
    @settings(max_examples=200, deadline=None)
    def test_join_is_the_per_row_apply_loop(self, case):
        sources, report = case
        kinds = {"date": DATE}
        outcomes = []
        for integrate in (baseline_integrate, reference_integrate):
            try:
                table = integrate(report, sources, self.SCHEMA, kinds)
                outcomes.append((table.rows, table.report, table.to_csv()))
            except UncoverableAttribute as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]

class TestStorage:
    def test_paper_scale_arithmetic(self):
        assert storage_report(470, 512) == 962_560

    def test_zero_columns(self):
        assert storage_report(0, 512) == 0

    def test_small(self):
        assert storage_report(10, 128) == 5_120

    def test_signature_store_round_trip(self, tmp_path):
        sigs = {
            ("s1", "a"): signature(["alpha", "beta"], L=16),
            ("s1", "b"): signature(["gamma"], L=16),
        }
        path = tmp_path / "sigs.bin"
        save_signatures(sigs, path)
        assert path.stat().st_size == 2 * 16 * 4
        assert path.read_bytes() == b"".join(
            struct.pack("<16I", *sig.values) for sig in sigs.values()
        )
        assert load_signatures(path) == sigs

    @pytest.mark.parametrize("damage, damaged", [
        (lambda path, index: path.unlink(), "store"),
        (lambda path, index: path.write_bytes(path.read_bytes()[:60]), "store"),
        (lambda path, index: index.write_text(
            json.dumps([{**e, "seed": 0} for e in json.loads(index.read_text())])), "index"),
        (lambda path, index: index.write_text(
            json.dumps([{**e, "L": 0} for e in json.loads(index.read_text())])), "store"),
    ], ids=["missing_store", "store_short_of_its_index", "index_entry_with_seed",
            "index_entry_with_zero_l"])
    def test_damaged_store_is_malformed_record(self, tmp_path, damage, damaged):
        path = tmp_path / "sigs.bin"
        index = tmp_path / "sigs.bin.index.json"
        save_signatures({("s1", "a"): signature(["alpha"], L=16)}, path)
        damage(path, index)
        named = path if damaged == "store" else index
        with pytest.raises(MalformedRecord, match=f"^{re.escape(str(named))}: "):
            load_signatures(path)


def test_column_shingles_drops_missing():
    assert reference_column_shingles(["", "NA", "abcd"]) == {"abc", "bcd"}
    assert signature(["", "NA", "abcd"], 16) == signature(["abcd"], 16)
