"""Aggregation semantics and the shared table writer."""

import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from supercell.assemble import (
    AggModeConflict,
    CellState,
    TargetTable,
    diff_tables,
    finalize_and_write,
    render_decimal,
)
from supercell.core import (
    AggMode,
    KeyDomain,
    SuperCell,
    TargetPosition,
    TargetSchema,
    WILDCARD,
    discard_position,
)

SCHEMA = TargetSchema(
    attributes=("date", "state", "v"),
    key_attributes=("date", "state"),
    key_domains={"date": KeyDomain((), open=True), "state": KeyDomain((), open=True)},
)

THIRTY_DIGITS = "123456789012345678901234567890"


def write(table, key, value, mode, attr="v"):
    cell = SuperCell("s", key, (attr,), (str(value),), 0)
    table.apply(cell, TargetPosition(key, (attr,), mode))


def cell_value(table, key, attr="v"):
    return table.rows[key][attr].finalize()


class TestModes:
    def test_sum(self):
        table = TargetTable(SCHEMA)
        write(table, ("d", "s"), 3, AggMode.SUM)
        write(table, ("d", "s"), 4, AggMode.SUM)
        assert cell_value(table, ("d", "s")) == "7"

    def test_replace_and_discard(self):
        table = TargetTable(SCHEMA)
        write(table, ("d", "s"), "a", AggMode.REPLACE)
        write(table, ("d", "s"), "b", AggMode.REPLACE)
        assert cell_value(table, ("d", "s")) == "b"
        table2 = TargetTable(SCHEMA)
        write(table2, ("d", "s"), "a", AggMode.DISCARD)
        write(table2, ("d", "s"), "b", AggMode.DISCARD)
        assert cell_value(table2, ("d", "s")) == "a"

    def test_avg_exact(self):
        table = TargetTable(SCHEMA)
        for v in (1, 2, 2):
            write(table, ("d", "s"), v, AggMode.AVG)
        assert cell_value(table, ("d", "s")) == "1.666667"

    def test_count_ignores_values(self):
        table = TargetTable(SCHEMA)
        for v in ("x", "y", "z"):
            write(table, ("d", "s"), v, AggMode.COUNT)
        assert cell_value(table, ("d", "s")) == "3"

    def test_concat_arrival_order(self):
        table = TargetTable(SCHEMA)
        for v in ("a", "b", "c"):
            write(table, ("d", "s"), v, AggMode.CONCAT)
        assert cell_value(table, ("d", "s")) == "a|b|c"

    def test_mode_conflict(self):
        table = TargetTable(SCHEMA)
        write(table, ("d", "s"), 1, AggMode.SUM)
        with pytest.raises(AggModeConflict):
            write(table, ("d", "s"), 2, AggMode.REPLACE)

    def test_large_counter_sum_keeps_every_digit(self):
        # 12,000 maximum u64 byte counters sum to 24 integer digits, past
        # the 28 digits that 6 fractional ones leave room for.
        table = TargetTable(SCHEMA)
        for _ in range(12000):
            write(table, ("d", "s"), 18446744073709551615, AggMode.SUM)
        assert cell_value(table, ("d", "s")) == str(12000 * 18446744073709551615)
        assert table.to_csv().splitlines()[1] == f"d,s,{12000 * 18446744073709551615}"

    @pytest.mark.parametrize("mode, values, expected", [
        (AggMode.SUM, [THIRTY_DIGITS] * 2, "246913578024691357802469135780"),
        (AggMode.MIN, [THIRTY_DIGITS, "123456789012345678901234567891"], THIRTY_DIGITS),
        (AggMode.MAX, ["123456789012345678901234567889", THIRTY_DIGITS], THIRTY_DIGITS),
        # A mean of 23 integer digits keeps its 6 fractional ones.
        (AggMode.AVG, ["100000000000000000000000", "1", "0"], "33333333333333333333333.666667"),
        # The exact mean 0.1234574999... rounds once, to 0.123457.
        (AggMode.AVG, ["0.3703724999999999999999999999", "0", "0"], "0.123457"),
        # A negative aggregate that rounds to zero renders without its sign.
        (AggMode.SUM, ["-0.0000001"], "0"),
        (AggMode.MIN, ["-0.0000001"], "0"),
        (AggMode.AVG, ["-0.0000004"], "0"),
    ])
    def test_long_values_are_exact(self, mode, values, expected):
        table = TargetTable(SCHEMA)
        for v in values:
            write(table, ("d", "s"), v, mode)
        assert cell_value(table, ("d", "s")) == expected

    @given(st.lists(
        st.builds(lambda digits, places: format(Decimal(f"{digits}e-{places}"), "f"),
                  st.integers(-(10**30 - 1), 10**30 - 1), st.integers(0, 30)),
        min_size=1, max_size=6))
    @example(["0.3703724999999999999999999999", "0", "0"])
    @settings(max_examples=300, deadline=None)
    def test_avg_is_the_exact_mean_rounded_once(self, values):
        table = TargetTable(SCHEMA)
        for v in values:
            write(table, ("d", "s"), v, AggMode.AVG)
        mean = sum(Fraction(v) for v in values) / len(values)
        micros, rest = divmod(mean.numerator * 10**6, mean.denominator)
        if 2 * rest > mean.denominator or (2 * rest == mean.denominator and micros % 2):
            micros += 1
        whole, frac = divmod(abs(micros), 10**6)
        text = f"{whole}.{frac:06d}".rstrip("0").rstrip(".")
        expected = f"-{text}" if micros < 0 else text
        assert cell_value(table, ("d", "s")) == expected

    def test_numeric_parse_failure_skips(self):
        table = TargetTable(SCHEMA)
        write(table, ("d", "s"), "oops", AggMode.SUM)
        assert table.report.cells_skipped == 1
        write(table, ("d", "s"), 5, AggMode.SUM)
        assert cell_value(table, ("d", "s")) == "5"


class TestWildcard:
    def test_broadcast_to_matching_rows(self):
        table = TargetTable(SCHEMA)
        for date in ("d1", "d2", "d3"):
            write(table, (date, "arizona"), 1, AggMode.REPLACE)
        write(table, ("d1", "utah"), 1, AggMode.REPLACE)
        cell = SuperCell("pop", ("arizona",), ("v",), ("777",), 0)
        table.apply(
            cell, TargetPosition((WILDCARD, "arizona"), ("v",), AggMode.REPLACE)
        )
        hits = [k for k in table.rows if cell_value(table, k) == "777"]
        assert sorted(hits) == [("d1", "arizona"), ("d2", "arizona"),
                                ("d3", "arizona")]

    def test_wildcard_never_creates_rows(self):
        table = TargetTable(SCHEMA)
        cell = SuperCell("pop", ("nowhere",), ("v",), ("1",), 0)
        table.apply(
            cell, TargetPosition((WILDCARD, "nowhere"), ("v",), AggMode.REPLACE)
        )
        assert table.rows == {}
        assert (table.report.cells_written, table.report.cells_skipped) == (0, cell.width)

    def test_discard_position_is_noop(self):
        table = TargetTable(SCHEMA)
        cell = SuperCell("s", ("d", "s"), ("v",), ("1",), 0)
        table.apply(cell, discard_position(2, 1))
        assert table.rows == {}


def brute_force(mode: AggMode, values: list) -> str:
    nums = [Decimal(str(v)) for v in values] if mode in (
        AggMode.SUM, AggMode.AVG, AggMode.MIN, AggMode.MAX
    ) else None
    if mode is AggMode.SUM:
        return render_decimal(sum(nums))
    if mode is AggMode.MIN:
        return render_decimal(min(nums))
    if mode is AggMode.MAX:
        return render_decimal(max(nums))
    if mode is AggMode.AVG:
        return render_decimal(sum(nums) / len(nums))
    if mode is AggMode.COUNT:
        return str(len(values))
    if mode is AggMode.REPLACE:
        return str(values[-1])
    if mode is AggMode.DISCARD:
        return str(values[0])
    return "|".join(str(v) for v in values)


COMMUTATIVE = (AggMode.SUM, AggMode.MIN, AggMode.MAX, AggMode.AVG, AggMode.COUNT)


class TestBruteForceEquivalence:
    @pytest.mark.parametrize("mode", list(AggMode))
    def test_random_sequences(self, mode):
        rng = np.random.default_rng(hash(mode.value) % 2**32)
        for trial in range(200):
            n = int(rng.integers(1, 8))
            if mode in (AggMode.SUM, AggMode.AVG, AggMode.MIN, AggMode.MAX):
                values = [int(rng.integers(-1000, 1000)) for _ in range(n)]
            else:
                values = [f"t{int(rng.integers(100))}" for _ in range(n)]
            table = TargetTable(SCHEMA)
            for v in values:
                write(table, ("d", "s"), v, mode)
            assert cell_value(table, ("d", "s")) == brute_force(mode, values)

    @pytest.mark.parametrize("mode", COMMUTATIVE)
    def test_permutation_invariance(self, mode):
        rng = np.random.default_rng(7)
        values = [int(rng.integers(-50, 50)) for _ in range(6)]
        outputs = set()
        for _ in range(5):
            perm = rng.permutation(len(values))
            table = TargetTable(SCHEMA)
            for i in perm:
                write(table, ("d", "s"), values[int(i)], mode)
            outputs.add(cell_value(table, ("d", "s")))
        assert len(outputs) == 1


WIDE = TargetSchema(
    attributes=("date", "state", "u", "v", "w"),
    key_attributes=("date", "state"),
    key_domains={"date": KeyDomain((), open=True), "state": KeyDomain((), open=True)},
)
NUMERIC = (AggMode.SUM, AggMode.AVG, AggMode.MIN, AggMode.MAX)


@st.composite
def cell_sequences(draw):
    """Multi-attribute cells over WIDE, each target attribute with one fixed
    mode, under concrete and wildcard keys; some values do not parse, some
    slots are NULL and some cells are wider than their position."""
    attrs = WIDE.value_attributes
    modes = dict(zip(attrs, draw(st.lists(st.sampled_from(list(AggMode)),
                                          min_size=len(attrs), max_size=len(attrs)))))
    value = st.one_of(st.integers(-50, 50).map(str), st.sampled_from(["t1", "t2", "oops"]))
    sequence = []
    for ordinal in range(draw(st.integers(1, 12))):
        mode = modes[draw(st.sampled_from(attrs))]
        same_mode = [a for a in attrs if modes[a] is mode]
        placed = draw(st.permutations(same_mode))[: draw(st.integers(1, len(same_mode)))]
        slots = list(placed) + [None] * draw(st.integers(0, 1))
        slots = [slots[i] for i in draw(st.permutations(range(len(slots))))]
        values = draw(st.lists(value, min_size=len(slots) + draw(st.integers(0, 1)),
                               max_size=len(slots) + 1))
        keys = tuple(draw(st.sampled_from([WILDCARD, "x1", "x2"])) for _ in range(2))
        cell = SuperCell("s", keys, tuple(f"c{i}" for i in range(len(values))),
                         tuple(values), ordinal)
        sequence.append((cell, TargetPosition(keys, tuple(slots), mode)))
    return sequence


def replay(sequence):
    """Brute-force assembly: the values each (row, attribute) receives in
    arrival order, plus the written and skipped counts."""
    merged: dict[tuple, list[str]] = {}
    modes: dict[str, AggMode] = {}
    written = skipped = 0
    for cell, pos in sequence:
        skipped += len(cell.values) - len(pos.attributes)
        concrete = [(i, k) for i, k in enumerate(pos.keys) if k != WILDCARD]
        if len(concrete) == len(pos.keys):
            rows = [pos.keys]
        else:
            existing = {key[:-1] for key in merged}
            rows = [r for r in existing if all(r[i] == k for i, k in concrete)]
        for attr, value in zip(pos.attributes, cell.values):
            if attr is None:
                continue
            modes[attr] = pos.agg_mode
            if not rows:
                skipped += 1
            for row in rows:
                if pos.agg_mode in NUMERIC and not value.lstrip("-").isdigit():
                    skipped += 1
                    continue
                merged.setdefault(tuple(row) + (attr,), []).append(value)
                written += 1
    cells = {key: brute_force(modes[key[-1]], values) for key, values in merged.items()}
    return cells, written, skipped


@given(cell_sequences())
@settings(max_examples=200, deadline=None)
def test_multi_attribute_wildcard_replay_matches_brute_force(sequence):
    table = TargetTable(WIDE)
    for cell, pos in sequence:
        table.apply(cell, pos)
    cells, written, skipped = replay(sequence)
    assert table.cells() == cells
    assert (table.report.cells_written, table.report.cells_skipped) == (written, skipped)


class TestWriter:
    def test_empty_table_header_only(self, tmp_path):
        table = TargetTable(SCHEMA)
        path, report = finalize_and_write(table, tmp_path / "t.csv")
        assert path.read_text() == "date,state,v\n"
        assert report.cells_written == 0

    def test_rows_sorted_by_key(self, tmp_path):
        table = TargetTable(SCHEMA)
        write(table, ("d2", "b"), 1, AggMode.REPLACE)
        write(table, ("d1", "z"), 2, AggMode.REPLACE)
        write(table, ("d1", "a"), 3, AggMode.REPLACE)
        path, _ = finalize_and_write(table, tmp_path / "t.csv")
        lines = path.read_text().splitlines()
        assert lines[1:] == ["d1,a,3", "d1,z,2", "d2,b,1"]

    def test_finalize_idempotent(self, tmp_path):
        table = TargetTable(SCHEMA)
        write(table, ("d", "s"), 5, AggMode.AVG)
        first = table.to_csv()
        second = table.to_csv()
        assert first == second

    def test_report_fields(self, tmp_path):
        table = TargetTable(SCHEMA)
        write(table, ("d", "s"), 5, AggMode.SUM)
        _, report = finalize_and_write(table, tmp_path / "t.csv")
        assert report.to_dict() == {"cells_written": 1, "cells_skipped": 0}


class TestAccounting:
    def test_values_past_position_width_are_skipped(self):
        # A cell wider than the model's max_width gets a shorter position.
        table = TargetTable(SCHEMA)
        cell = SuperCell("s", ("d", "s"), ("v", "w"), ("1", "2"), 0)
        table.apply(cell, TargetPosition(("d", "s"), ("v",), AggMode.REPLACE))
        report = table.report
        assert (report.cells_written, report.cells_skipped) == (1, 1)
        assert report.cells_written + report.cells_skipped == cell.width

    @pytest.mark.parametrize("keys", [("d",), ("d", "s", "x")], ids=["one_key", "three_keys"])
    def test_position_with_another_key_count_writes_nothing(self, keys):
        table = TargetTable(SCHEMA)
        table.apply(SuperCell("s", keys, ("v",), ("1",), 0),
                    TargetPosition(keys, ("v",), AggMode.REPLACE))
        assert (table.report.cells_written, table.report.cells_skipped) == (0, 1)
        assert table.finalized_rows() == []

    def test_unaddressable_wide_cell_skips_every_value(self):
        table = TargetTable(SCHEMA)
        cell = SuperCell("s", ("d", "s"), ("v", "w"), ("1", "2"), 0)
        table.apply(cell, TargetPosition((None, "s"), ("v",), AggMode.REPLACE))
        assert (table.report.cells_written, table.report.cells_skipped) == (0, 2)

    def test_null_slot_counts_alike_with_or_without_rows(self):
        # A NULL slot drops its value uncounted whether the position
        # addresses rows or not; only the placed value is counted.
        cell = SuperCell("pop", ("arizona",), ("v", "w"), ("1", "2"), 0)
        pos = TargetPosition((WILDCARD, "arizona"), ("v", None), AggMode.REPLACE)
        empty = TargetTable(SCHEMA)
        empty.apply(cell, pos)
        assert (empty.report.cells_written, empty.report.cells_skipped) == (0, 1)
        table = TargetTable(SCHEMA)
        write(table, ("d1", "arizona"), 5, AggMode.REPLACE)
        table.apply(cell, pos)
        assert (table.report.cells_written, table.report.cells_skipped) == (2, 0)

    def test_failed_merge_leaves_no_row(self):
        # A value that fails to parse must not leave an empty row behind for
        # a later wildcard write to broadcast onto.
        schema = TargetSchema(("k", "a", "b"), ("k",), {"k": KeyDomain((), open=True)})
        table = TargetTable(schema)
        write(table, ("x",), "oops", AggMode.SUM, attr="a")
        assert table.rows == {}
        assert table.to_csv() == "k,a,b\n"
        write(table, (WILDCARD,), "v", AggMode.REPLACE, attr="a")
        assert table.to_csv() == "k,a,b\n"
        assert (table.report.cells_written, table.report.cells_skipped) == (0, 2)
        # A row holding a value survives a failed merge of another attribute.
        write(table, ("x",), "1", AggMode.SUM, attr="a")
        write(table, ("x",), "oops", AggMode.SUM, attr="b")
        assert table.to_csv() == "k,a,b\nx,1,\n"
        assert (table.report.cells_written, table.report.cells_skipped) == (1, 3)

    def test_conflict_counts_the_rest_of_the_cell_once(self):
        # The value that conflicts and every value after it are skipped;
        # the value written before the conflict stays written.
        schema = TargetSchema(("k", "a", "b", "c"), ("k",), {"k": KeyDomain((), open=True)})
        table = TargetTable(schema)
        write(table, ("x",), "1", AggMode.SUM, attr="b")
        cell = SuperCell("s", ("x",), ("a", "b", "c", "d"), ("2", "3", "4", "5"), 0)
        with pytest.raises(AggModeConflict):
            table.apply(cell, TargetPosition(("x",), ("a", "b", "c"), AggMode.REPLACE))
        assert (table.report.cells_written, table.report.cells_skipped) == (2, 3)
        assert table.to_csv() == "k,a,b,c\nx,2,1,\n"



_REFERENCE_COPY_RE = re.compile(r"^COPY\((\d+)\)$")


def reference_apply(table, cell, pos):
    """``TargetTable.apply`` as one generic method: build the placed values,
    find the target rows, then merge value by value."""
    if pos.is_discard:
        return
    unplaced = max(len(cell.values) - len(pos.attributes), 0)
    placed = [(a, v) for a, v in zip(pos.attributes, cell.values) if a is not None]
    targets = reference_target_rows(table, pos.keys)
    if not targets:
        table.report.cells_skipped += len(placed) + unplaced
        return
    for done, (attr, value) in enumerate(placed):
        try:
            for key in targets:
                reference_write(table, key, attr, value, pos.agg_mode)
        except AggModeConflict:
            table.report.cells_skipped += len(placed) - done + unplaced
            raise
    table.report.cells_skipped += unplaced


def reference_target_rows(table, keys):
    if len(keys) != table.schema.q:
        return []
    if any(k == WILDCARD for k in keys):
        concrete = [(i, k) for i, k in enumerate(keys) if k != WILDCARD]
        if any(k is None for _, k in concrete):
            return []
        return [key for key in table.rows if all(key[i] == k for i, k in concrete)]
    if any(k is None or _REFERENCE_COPY_RE.match(k) for k in keys):
        return []
    return [tuple(keys)]


def reference_write(table, key, attr, value, mode):
    row = table.rows.get(key, {})
    state = row.get(attr) or CellState(mode=mode)
    if state.mode is not mode:
        raise AggModeConflict(
            f"cell ({key}, {attr!r}) written with {state.mode.value} then {mode.value}"
        )
    if not state.merge(value):
        table.report.cells_skipped += 1
        return
    row[attr] = state
    table.rows[key] = row
    table.report.cells_written += 1


TWO_KEYS = TargetSchema(
    attributes=("k1", "k2", "v", "w"),
    key_attributes=("k1", "k2"),
    key_domains={"k1": KeyDomain((), open=True), "k2": KeyDomain((), open=True)},
)
# Literal keys, the wildcard, NULL, COPY markers and strings that only look
# like one ("COPY(1)\n" matches the marker pattern, "COPY(x)" does not).
KEY_ENTRIES = st.sampled_from(
    ["a", "b", WILDCARD, None, "COPY(0)", "COPY(12)", "COPY(x)", "COPY()", "copy(1)", "COPY(1)\n"]
)
VALUES = st.sampled_from(["1", "2.5", "-0", "007", "1e3", "x", "", "NA"])
MODES = st.sampled_from(
    [AggMode.SUM, AggMode.REPLACE, AggMode.CONCAT, AggMode.MAX, AggMode.AVG, AggMode.COUNT]
)


@st.composite
def placements(draw):
    """One super cell and a position for it: keys of 1 to 3 components,
    NULL slots, and cells wider or narrower than the position."""
    keys = tuple(draw(st.lists(KEY_ENTRIES, min_size=1, max_size=3)))
    attributes = tuple(draw(st.lists(st.sampled_from(["v", "w", None]), min_size=1, max_size=3)))
    if all(a is None for a in attributes):
        pos = discard_position(len(keys), len(attributes))
    else:
        pos = TargetPosition(keys, attributes, draw(MODES))
    values = tuple(draw(st.lists(VALUES, min_size=1, max_size=4)))
    cell = SuperCell("s", ("a", "b"), tuple(f"c{i}" for i in range(len(values))), values, 0)
    return cell, pos


def outcome(step, table, *args):
    """The outcome of one write: the exception raised, if any, and the
    report's counts after it."""
    try:
        step(table, *args)
        raised = None
    except AggModeConflict as exc:
        raised = str(exc)
    return raised, table.report.cells_written, table.report.cells_skipped


class TestOneWriter:
    @given(st.lists(placements(), min_size=1, max_size=14))
    @example([
        (SuperCell("s", ("a",), ("c0",), ("1",), 0),
         TargetPosition(("a", "b"), ("v",), AggMode.SUM)),
        (SuperCell("s", ("a",), ("c0", "c1", "c2"), ("2", "x", "3"), 0),
         TargetPosition((WILDCARD, "b"), ("w", "v"), AggMode.REPLACE)),
    ])
    @settings(max_examples=300, deadline=None)
    def test_apply_is_the_reference_apply(self, steps):
        table, reference = TargetTable(TWO_KEYS), TargetTable(TWO_KEYS)
        for cell, pos in steps:
            assert outcome(TargetTable.apply, table, cell, pos) == outcome(
                reference_apply, reference, cell, pos)
        assert table.rows == reference.rows
        assert table.finalized_rows() == reference.finalized_rows()
        assert table.report == reference.report

    @given(st.lists(st.tuples(
        st.lists(KEY_ENTRIES, min_size=1, max_size=3),
        st.lists(st.tuples(st.sampled_from(["v", "w", "other"]), VALUES), min_size=1, max_size=3),
        MODES,
    ), min_size=1, max_size=14))
    @settings(max_examples=200, deadline=None)
    def test_write_is_apply_of_the_equivalent_cell(self, writes):
        written, applied = TargetTable(TWO_KEYS), TargetTable(TWO_KEYS)
        for keys, pairs, mode in writes:
            attributes, values = (tuple(x) for x in zip(*pairs))
            cell = SuperCell("s", ("a", "b"), attributes, values, 0)
            assert outcome(TargetTable.write, written, keys, attributes, values, mode) == outcome(
                TargetTable.apply, applied, cell, TargetPosition(keys, attributes, mode))
        assert written.rows == applied.rows
        assert written.report == applied.report

class TestDiff:
    def test_identical_tables(self):
        a = TargetTable(SCHEMA)
        write(a, ("d", "s"), 1, AggMode.REPLACE)
        b = TargetTable(SCHEMA)
        write(b, ("d", "s"), 1, AggMode.REPLACE)
        assert diff_tables(a, b)["agreement"] == 1.0

    def test_extra_and_missing_cells_count(self):
        a = TargetTable(SCHEMA)
        write(a, ("d", "s"), 1, AggMode.REPLACE)
        b = TargetTable(SCHEMA)
        write(b, ("d", "other"), 1, AggMode.REPLACE)
        report = diff_tables(a, b)
        assert report["total_cells"] == 2
        assert report["mismatched"] == 2


def test_render_decimal():
    assert render_decimal(Decimal("3.1400000")) == "3.14"
    assert render_decimal(Decimal("7")) == "7"
    assert render_decimal(Decimal("1") / Decimal("3")) == "0.333333"
    assert render_decimal(Decimal("-2.5")) == "-2.5"
    assert render_decimal(Decimal("-0.0000001")) == "0"
    assert render_decimal(Decimal("-0.0000004")) == "0"
    assert render_decimal(Decimal("-0.0000005")) == "0"
