"""Decomposition of CSV, pivoted CSV, and log sources into super cells."""

import dataclasses
import datetime
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from supercell import ingest
from supercell.canon import CanonKind, SynonymDictionary
from supercell.datasets import build_covid_fixture, build_pivoted_deaths, covid_unpivoted_view
from supercell.ingest import (
    DecomposeStats,
    DuplicateCellOnPivot,
    EmptyInput,
    LogRule,
    MissingKeyColumn,
    NoRuleMatchedAnything,
    Pivot,
    RaggedRow,
    RawTable,
    RepeatedColumn,
    SourceDescriptor,
    decompose,
    decompose_log,
    pivot_table,
)
from supercell.perturb import reorder_attributes


DICTS = {"us_states": SynonymDictionary("us_states", [["arizona", "az"]])}


def covid_descriptor():
    return SourceDescriptor(
        source_id="covid",
        key_columns=("Date", "State", "Country"),
        supercell_groups=(("Confirmed", "Recovered"),),
        canonicalizers={
            "Date": CanonKind("date"),
            "State": CanonKind("dict", "us_states"),
            "Confirmed": CanonKind("number"),
            "Recovered": CanonKind("number"),
        },
    )


def covid_table(rows):
    return RawTable(("Date", "State", "Country", "Confirmed", "Recovered"), rows)


class TestDecompose:
    def test_covid_row(self):
        cells = decompose(
            covid_table([("2020-10-06", "AZ", "US", "3103", "2214")]),
            covid_descriptor(),
            DICTS,
        )
        assert len(cells) == 1
        cell = cells[0]
        assert cell.keys == ("2020-10-06", "arizona", "us")
        assert cell.attributes == ("confirmed", "recovered")
        assert cell.values == ("3103", "2214")
        assert cell.row_ordinal == 0

    def test_singleton_source(self):
        desc = SourceDescriptor(source_id="tiny", key_columns=("K",))
        cells = decompose(RawTable(("K", "V"), [("k1", "v1")]), desc)
        assert len(cells) == 1
        assert cells[0].attributes == ("v",)

    def test_ungrouped_columns_become_singletons(self):
        table = RawTable(
            ("Date", "State", "Country", "Confirmed", "Recovered", "Extra"),
            [("2020-10-06", "AZ", "US", "3103", "2214", "x")],
        )
        cells = decompose(table, covid_descriptor(), DICTS)
        assert [c.attributes for c in cells] == [("confirmed", "recovered"), ("extra",)]

    def test_empty_cells_skipped(self):
        table = covid_table([
            ("2020-10-06", "AZ", "US", "", "2214"),
            ("2020-10-07", "AZ", "US", "NA", "null"),
        ])
        stats = DecomposeStats()
        cells = decompose(table, covid_descriptor(), DICTS, stats)
        assert len(cells) == 1
        assert cells[0].attributes == ("recovered",)
        assert stats.skipped_empty_cells == 3

    def test_missing_key_value_skips_row(self):
        table = covid_table([("", "AZ", "US", "1", "2")])
        stats = DecomposeStats()
        cells = decompose(table, covid_descriptor(), DICTS, stats)
        assert cells == []
        assert stats.skipped_missing_key_rows == 1

    def test_errors(self):
        with pytest.raises(EmptyInput):
            decompose(covid_table([]), covid_descriptor(), DICTS)
        with pytest.raises(RaggedRow):
            decompose(covid_table([("a", "b", "c", "d")]), covid_descriptor(), DICTS)
        bad = SourceDescriptor(source_id="covid", key_columns=("Nope",))
        with pytest.raises(MissingKeyColumn):
            decompose(covid_table([("1", "2", "3", "4", "5")]), bad, DICTS)

    @pytest.mark.parametrize("header, name", [
        (("Date", "State", "Country", "Confirmed", "Confirmed"), "Confirmed"),
        (("Date", "State", "State", "Confirmed", "Recovered"), "State"),
    ], ids=["value", "key"])
    def test_repeated_column_rejected(self, header, name):
        # Each name maps to one position, so a repeat would lose a column.
        table = RawTable(header, [("2020-03-01", "az", "us", "1", "2")])
        with pytest.raises(RepeatedColumn, match=f"'covid'.*'{name}'"):
            decompose(table, covid_descriptor(), DICTS)

    def test_absent_key_column_takes_its_constant_key(self):
        # One date's rows of the covid table without their Date column, as a
        # daily report carries them, decompose to those rows' cells.
        fixture = build_covid_fixture(seed=29)
        table, desc = fixture.tables["covid"], fixture.spec.descriptor("covid")
        rows = [row for row in table.rows if row[0] == "2020-10-01"]
        assert len(rows) == 50
        full = decompose(RawTable(table.header, rows), desc, fixture.dictionaries)
        daily = RawTable(table.header[1:], [row[1:] for row in rows])
        constant = dataclasses.replace(desc, constant_keys={"Date": "2020-10-01"})
        cells = decompose(daily, constant, fixture.dictionaries)
        assert [c.signature() for c in cells] == [c.signature() for c in full]
        with pytest.raises(MissingKeyColumn, match="Date"):
            decompose(daily, desc, fixture.dictionaries)

    def test_grouped_column_absent_from_header(self):
        desc = SourceDescriptor(source_id="covid", key_columns=("Date",),
                                supercell_groups=(("Confirmed", "Deaths"),))
        with pytest.raises(MissingKeyColumn, match="grouped column 'Deaths' absent"):
            decompose(covid_table([("2020-10-06", "AZ", "US", "1", "2")]), desc, DICTS)

    @pytest.mark.parametrize("groups, message", [
        ((("Date", "Confirmed"),), "'Date' is both key and grouped"),
        ((("Confirmed",), ("Recovered", "Confirmed")), "'Confirmed' appears in two groups"),
    ])
    def test_overlapping_groups_rejected(self, groups, message):
        with pytest.raises(ValueError, match=message):
            SourceDescriptor(source_id="covid", key_columns=("Date",), supercell_groups=groups)

    def test_each_attribute_name_is_canonicalized_once_per_call(self, monkeypatch):
        table = RawTable(
            ("Date", "State", "Country", "Confirmed", "Recovered", "Extra"),
            [(f"2020-10-0{day}", "AZ", "US", str(day), "", "x") for day in range(1, 6)],
        )
        names = {"Confirmed", "Recovered", "Extra"}
        calls = Counter()
        canonicalize = ingest.canonicalize

        def counted(value, *args):
            calls[value] += 1
            return canonicalize(value, *args)

        monkeypatch.setattr(ingest, "canonicalize", counted)
        cells = decompose(table, covid_descriptor(), DICTS)
        assert [c.attributes for c in cells[:2]] == [("confirmed",), ("extra",)]
        assert {name: calls[name] for name in names} == dict.fromkeys(names, 1)
        # The names are not kept between calls.
        decompose(table, covid_descriptor(), DICTS)
        assert {name: calls[name] for name in names} == dict.fromkeys(names, 2)

    def test_output_order_row_then_group(self):
        table = covid_table([
            ("2020-10-06", "AZ", "US", "1", "2"),
            ("2020-10-07", "AZ", "US", "3", "4"),
        ])
        cells = decompose(table, covid_descriptor(), DICTS)
        assert [c.row_ordinal for c in cells] == [0, 1]

    def test_determinism(self):
        table = covid_table([("2020-10-06", "AZ", "US", "1", "2")])
        a = decompose(table, covid_descriptor(), DICTS)
        b = decompose(table, covid_descriptor(), DICTS)
        assert a == b


class TestPivotedDecompose:
    def test_two_dates(self):
        desc = SourceDescriptor(
            source_id="deaths",
            format="pivoted_csv",
            key_columns=("Province/State", "Country/Region"),
            pivot=Pivot(pivot_axis_name="date", value_attr_name="deaths"),
            canonicalizers={"date": CanonKind("date")},
        )
        table = RawTable(
            ("Province/State", "Country/Region", "1/22/2020", "1/23/2020"),
            [("Hubei", "China", "17", "25")],
        )
        cells = decompose(table, desc)
        assert len(cells) == 2
        assert cells[0].keys == ("hubei", "china", "2020-01-22")
        assert cells[0].attributes == ("deaths",)
        assert cells[0].values == ("17",)
        assert cells[1].keys == ("hubei", "china", "2020-01-23")
        assert cells[1].values == ("25",)

    def test_pivot_requires_pivot_block(self):
        with pytest.raises(ValueError):
            SourceDescriptor(source_id="x", format="pivoted_csv", key_columns=("K",))

    PIVOTED = SourceDescriptor(
        source_id="deaths",
        format="pivoted_csv",
        key_columns=("State",),
        pivot=Pivot(pivot_axis_name="date", value_attr_name="deaths"),
        canonicalizers={"date": CanonKind("date"), "deaths": CanonKind("number")},
    )

    def test_empty_pivoted_cell_counted(self):
        table = RawTable(
            ("State", "1/22/2020", "1/23/2020"),
            [("AZ", "17", ""), ("NY", "NA", "null"), ("", "1", "2")],
        )
        stats = DecomposeStats()
        cells = decompose(table, self.PIVOTED, stats=stats)
        assert [c.keys for c in cells] == [("az", "2020-01-22")]
        assert stats == DecomposeStats(
            rows=3, cells=1, skipped_missing_key_rows=1, skipped_empty_cells=3
        )

    def test_value_attribute_is_canonicalized_once_per_call(self, monkeypatch):
        calls = Counter()
        canonicalize = ingest.canonicalize

        def counted(value, *args):
            calls[value] += 1
            return canonicalize(value, *args)

        monkeypatch.setattr(ingest, "canonicalize", counted)
        table = RawTable(("State", "1/22/2020", "1/23/2020"), [("AZ", "1", "2"), ("NY", "3", "4")])
        assert len(decompose(table, self.PIVOTED)) == 4
        assert calls["deaths"] == 1
        # The pivot-axis headers too; their warnings count per emitted cell.
        assert calls["1/22/2020"] == calls["1/23/2020"] == 1

    def test_unparseable_date_header_counted_per_present_cell(self):
        table = RawTable(
            ("State", "someday", "1/23/2020"),
            [("AZ", "17", "1"), ("NY", "", "2"), ("CA", "3", "x")],
        )
        stats = DecomposeStats()
        cells = decompose(table, self.PIVOTED, stats=stats)
        assert [c.keys for c in cells] == [
            ("az", "someday"), ("az", "2020-01-23"), ("ny", "2020-01-23"),
            ("ca", "someday"), ("ca", "2020-01-23"),
        ]
        assert stats.canon.unparseable_date == 2
        assert stats.canon.unparseable_number == 1
        assert (stats.rows, stats.cells, stats.skipped_empty_cells) == (3, 5, 1)


class TestLogDecompose:
    UBUNTU = SourceDescriptor(
        source_id="ubuntu",
        format="log_lines",
        key_columns=("host", "ts"),
        constant_keys={"host": "host1"},
        log_rules=(
            LogRule(r"^T (?P<t>\S+)$", {"ts": "t"}),
            LogRule(r"^%Cpu\(s\): (?P<us>[\d.]+) us", {}, {"cpu_user": "us"}),
        ),
        canonicalizers={"cpu_user": CanonKind("number")},
    )

    def test_ubuntu_cpu_line(self):
        cells = decompose_log(["T t0", "%Cpu(s): 14.9 us"], self.UBUNTU)
        assert len(cells) == 1
        assert cells[0].keys == ("host1", "t0")
        assert cells[0].attributes == ("cpu_user",)
        assert cells[0].values == ("14.9",)

    def test_android_cpu_line(self):
        desc = SourceDescriptor(
            source_id="android",
            format="log_lines",
            key_columns=("host",),
            constant_keys={"host": "droid"},
            log_rules=(
                LogRule(r"^(?P<t>\d+)%cpu (?P<u>\d+)%user", {}, {"cpu_user": "u"}),
            ),
        )
        cells = decompose_log(["400%cpu 86%user"], desc)
        assert cells[0].attributes == ("cpu_user",)
        assert cells[0].values == ("86",)

    def test_empty_stream_errors(self):
        with pytest.raises(NoRuleMatchedAnything):
            decompose_log([], self.UBUNTU)

    def test_unmatched_lines_counted(self):
        # Blank lines are skipped and not counted as unmatched.
        stats = DecomposeStats()
        decompose_log(
            ["garbage", "", "T t0", "   \n", "%Cpu(s): 1.0 us", "\t"], self.UBUNTU,
            stats=stats,
        )
        assert stats.unmatched_lines == 1

    def test_empty_optional_capture_counted(self):
        desc = SourceDescriptor(
            source_id="mem",
            format="log_lines",
            key_columns=("host",),
            constant_keys={"host": "h1"},
            log_rules=(
                LogRule(r"^used (?P<u>\w+)(?: free (?P<f>\d+))?$", {},
                        {"used": "u", "free": "f"}),
            ),
        )
        stats = DecomposeStats()
        cells = decompose_log(["used 5", "used NA free 7", "used na", "junk"], desc, stats=stats)
        assert [(c.attributes, c.values, c.row_ordinal) for c in cells] == [
            (("used",), ("5",), 0), (("free",), ("7",), 1),
        ]
        assert stats == DecomposeStats(cells=2, skipped_empty_cells=4, unmatched_lines=1)

    def test_missing_ambient_key_raises(self):
        # No "T" line has set the ts key before the first cpu line.
        with pytest.raises(MissingKeyColumn, match=r"\['ts'\] at line 1"):
            decompose_log(["junk", "%Cpu(s): 1.0 us", "T t0"], self.UBUNTU)

    def test_each_rule_attribute_is_canonicalized_once_per_call(self, monkeypatch):
        calls = Counter()
        canonicalize = ingest.canonicalize

        def counted(value, *args):
            calls[value] += 1
            return canonicalize(value, *args)

        monkeypatch.setattr(ingest, "canonicalize", counted)
        lines = ["T t0", "%Cpu(s): 1.0 us", "%Cpu(s): 2.0 us", "T t1", "%Cpu(s): 3.0 us"]
        assert len(decompose_log(lines, self.UBUNTU)) == 3
        assert calls["cpu_user"] == 1

    def test_first_matching_rule_wins(self):
        desc = SourceDescriptor(
            source_id="s",
            format="log_lines",
            key_columns=(),
            log_rules=(
                LogRule(r"x (?P<a>\d+)", {}, {"first": "a"}),
                LogRule(r"x (?P<a>\d+)", {}, {"second": "a"}),
            ),
        )
        cells = decompose_log(["x 1"], desc)
        assert cells[0].attributes == ("first",)


class TestPivotTable:
    def test_round_trip_multiset(self):
        desc = SourceDescriptor(
            source_id="t", key_columns=("k", "d"),
        )
        table = RawTable(
            ("k", "d", "v"),
            [("a", "d1", "1"), ("a", "d2", "2"), ("b", "d1", "3")],
        )
        direct = decompose(table, desc)
        pivoted = pivot_table(table, ["k", "d"], "d")
        assert pivoted.header == ("k", "d1", "d2")
        pdesc = SourceDescriptor(
            source_id="t", format="pivoted_csv", key_columns=("k",),
            pivot=Pivot(pivot_axis_name="d", value_attr_name="v"),
        )
        via_pivot = decompose(pivoted, pdesc)
        assert Counter(c.signature() for c in direct) == Counter(
            c.signature() for c in via_pivot
        )

    def test_single_row(self):
        table = RawTable(("k", "d", "v"), [("a", "d1", "1")])
        pivoted = pivot_table(table, ["k", "d"], "d")
        assert pivoted.rows == (("a", "1"),)

    def test_duplicate_cell(self):
        table = RawTable(("k", "d", "v"), [("a", "d1", "1"), ("a", "d1", "2")])
        with pytest.raises(DuplicateCellOnPivot):
            pivot_table(table, ["k", "d"], "d")

    @pytest.mark.parametrize("key_columns, axis, message", [
        (["k"], "d", "axis 'd' must be one of the key columns"),
        (["k", "d"], "d", r"exactly one value column, found \['v', 'w'\]"),
    ], ids=["axis_not_a_key", "two_value_columns"])
    def test_bad_arguments_rejected(self, key_columns, axis, message):
        table = RawTable(("k", "d", "v", "w"), [("a", "d1", "1", "2")])
        with pytest.raises(ValueError, match=message):
            pivot_table(table, key_columns, axis)


class TestInvariance:
    def test_column_order(self):
        table = covid_table([("2020-10-06", "AZ", "US", "3103", "2214")])
        shuffled = RawTable(
            ("Recovered", "Country", "Date", "Confirmed", "State"),
            [("2214", "US", "2020-10-06", "3103", "AZ")],
        )
        a = decompose(table, covid_descriptor(), DICTS)
        b = decompose(shuffled, covid_descriptor(), DICTS)
        assert Counter(c.signature() for c in a) == Counter(c.signature() for c in b)

    def test_reorder_attributes_preserves_multiset(self):
        table = covid_table([
            ("2020-10-06", "AZ", "US", "1", "2"),
            ("2020-10-07", "AZ", "US", "3", "4"),
        ])
        reordered = reorder_attributes(table, seed=5)
        assert sorted(reordered.header) == sorted(table.header)
        a = decompose(table, covid_descriptor(), DICTS)
        b = decompose(reordered, covid_descriptor(), DICTS)
        assert Counter(c.signature() for c in a) == Counter(c.signature() for c in b)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_random_reorder_invariance(seed):
    table = covid_table([
        ("2020-10-06", "AZ", "US", "1", "2"),
        ("2020-10-07", "AZ", "US", "3", "4"),
    ])
    reordered = reorder_attributes(table, seed=seed)
    a = decompose(table, covid_descriptor(), DICTS)
    b = decompose(reordered, covid_descriptor(), DICTS)
    assert Counter(c.signature() for c in a) == Counter(c.signature() for c in b)


@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 12))
@settings(max_examples=25, deadline=None)
def test_covid_scenario_views_lose_no_cell(seed, n_dates, n_states):
    # Deaths pivoted so dates are headers, beside the covid source without
    # them, decompose to exactly the covid source's super cells.
    fixture = build_covid_fixture(seed=seed, n_dates=n_dates, n_states=n_states)
    views = (build_pivoted_deaths(fixture), covid_unpivoted_view(fixture))
    cells = [c for table, desc in views for c in decompose(table, desc, fixture.dictionaries)]
    assert Counter(c.signature() for c in cells) == Counter(
        c.signature() for c in fixture.corpora["covid"]
    )


def test_csv_round_trip(tmp_path):
    table = RawTable(("a", "b"), [("1", "x,y"), ("2", 'quo"te')])
    path = tmp_path / "t.csv"
    table.write(path)
    assert RawTable.read(path) == table


def test_byte_order_mark_is_dropped(tmp_path):
    table = covid_table([("2020-03-01", "az", "us", "1", "2"), ("2020-03-02", "AZ", "us", "3", "")])
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    table.write(plain)
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert RawTable.read(marked) == RawTable.read(plain) == table
    cells = decompose(RawTable.read(marked), covid_descriptor(), DICTS)
    assert cells == decompose(table, covid_descriptor(), DICTS) and cells


def test_empty_csv_file_has_no_header(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(EmptyInput, match="no header row"):
        RawTable.read(path)


def test_covid_fixture_dates_are_consecutive_calendar_days():
    # 1,250 days from 2020-10-01 run through the leap day 2024-02-29.
    fixture = build_covid_fixture(n_dates=1250, n_states=1)
    for table in fixture.tables.values():
        days = [datetime.date.fromisoformat(d) for d in table.column(table.header[0])]
        assert days[0] == datetime.date(2020, 10, 1)
        assert all(b - a == datetime.timedelta(days=1) for a, b in zip(days, days[1:]))
        assert datetime.date(2024, 2, 29) in days
