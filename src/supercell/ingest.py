"""Parsing raw sources into super-cell streams.

Three source shapes are supported: plain CSV tables, pivoted CSV tables
(one key dimension spread across column headers), and line-oriented machine
logs described by regex rules. Decomposition is pure and deterministic:
identical bytes plus an identical descriptor always yield the same cells in
the same order.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass, field
from pathlib import Path

from .canon import CanonCounters, CanonKind, DictionaryStore, NONE, canonicalize
from .core import DataError, Record, SuperCell, read_text, write_csv

# Cell values treated as missing and skipped during decomposition.
_MISSING = {"", "na", "null"}


class MissingKeyColumn(DataError):
    pass


class RaggedRow(DataError):
    pass


class EmptyInput(DataError):
    pass


class NoRuleMatchedAnything(DataError):
    pass


class DuplicateCellOnPivot(DataError):
    pass


class RepeatedColumn(DataError):
    """A header that names a column twice: decompose could read only one."""


def is_missing(value: str) -> bool:
    return value.strip().lower() in _MISSING


@dataclass(frozen=True)
class RawTable:
    """An in-memory tabular source: header row plus string rows."""

    header: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "header", tuple(self.header))
        object.__setattr__(self, "rows", tuple(tuple(r) for r in self.rows))

    def column(self, name: str) -> list[str]:
        idx = self.header.index(name)
        return [row[idx] for row in self.rows]

    @staticmethod
    def read(path: str | Path) -> "RawTable":
        rows = list(csv.reader(io.StringIO(read_text(path))))
        if not rows:
            raise EmptyInput(f"{path}: no header row")
        return RawTable(rows[0], rows[1:])

    def write(self, path: str | Path) -> None:
        write_csv(self.header, self.rows, path)


@dataclass(frozen=True)
class LogRule(Record):
    """One line pattern for log decomposition.

    ``key_captures`` maps key-column names to capture-group names; a match
    updates the ambient key state. ``attr_value_captures`` maps attribute
    names to capture-group names; a match emits one super cell carrying all
    captured attribute/value pairs under the current ambient keys. The
    pattern must compile and hold every group the captures name.
    """

    pattern: str
    key_captures: dict[str, str] = field(default_factory=dict)
    attr_value_captures: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        captures = {*self.key_captures.values(), *self.attr_value_captures.values()}
        try:
            missing = sorted(captures - self.compiled().groupindex.keys())
        except re.error as exc:
            raise ValueError(f"log rule pattern {self.pattern!r}: {exc}") from None
        if missing:
            raise ValueError(f"log rule pattern {self.pattern!r} lacks group(s) {missing}")

    def compiled(self) -> re.Pattern:
        return re.compile(self.pattern)


@dataclass(frozen=True)
class Pivot(Record):
    pivot_axis_name: str
    value_attr_name: str


@dataclass(frozen=True)
class SourceDescriptor(Record):
    """How one raw source decomposes into super cells."""

    source_id: str
    format: str = "csv"  # csv | pivoted_csv | log_lines
    key_columns: tuple[str, ...] = ()
    supercell_groups: tuple[tuple[str, ...], ...] = ()
    pivot: Pivot | None = None
    log_rules: tuple[LogRule, ...] = ()
    constant_keys: dict[str, str] = field(default_factory=dict)
    canonicalizers: dict[str, CanonKind] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "key_columns", tuple(self.key_columns))
        object.__setattr__(
            self, "supercell_groups", tuple(tuple(g) for g in self.supercell_groups)
        )
        object.__setattr__(self, "log_rules", tuple(self.log_rules))
        if self.format not in ("csv", "pivoted_csv", "log_lines"):
            raise ValueError(f"unknown source format {self.format!r}")
        if self.format == "pivoted_csv" and self.pivot is None:
            raise ValueError("pivoted_csv requires a pivot block")
        if self.format == "log_lines" and not self.log_rules:
            raise ValueError(f"source {self.source_id!r} has no log rules")
        keyset = set(self.key_columns)
        seen: set[str] = set()
        for group in self.supercell_groups:
            for col in group:
                if col in keyset:
                    raise ValueError(f"column {col!r} is both key and grouped")
                if col in seen:
                    raise ValueError(f"column {col!r} appears in two groups")
                seen.add(col)

    def canon_kind(self, column: str) -> CanonKind:
        return self.canonicalizers.get(column, NONE)


@dataclass
class DecomposeStats:
    rows: int = 0
    cells: int = 0
    skipped_missing_key_rows: int = 0
    skipped_empty_cells: int = 0
    unmatched_lines: int = 0
    canon: CanonCounters = field(default_factory=CanonCounters)


def _emit(
    cells: list[SuperCell],
    desc: SourceDescriptor,
    keys: tuple[str, ...],
    pairs,
    ordinal: int,
    dictionaries: DictionaryStore | None,
    stats: DecomposeStats,
    axis: tuple[str, CanonCounters] | None = None,
) -> None:
    """Append one super cell of the present (canonical attribute, value
    kind, raw value) triples in ``pairs``.

    Missing values are skipped and counted; a cell with no present value is
    not emitted. ``axis`` is a pivoted column's canonical header, appended
    as the last key component, and the warnings its canonicalization
    counted, which count again for each cell emitted under it.
    """
    attrs: list[str] = []
    values: list[str] = []
    for attr, kind, raw in pairs:
        if raw is None or is_missing(raw):
            stats.skipped_empty_cells += 1
            continue
        attrs.append(attr)
        values.append(canonicalize(raw, kind, dictionaries, stats.canon))
    if not attrs:
        return
    if axis is not None:
        form, counted = axis
        keys = keys + (form,)
        stats.canon.unparseable_date += counted.unparseable_date
        stats.canon.unparseable_number += counted.unparseable_number
    cells.append(SuperCell(desc.source_id, keys, tuple(attrs), tuple(values), ordinal))
    stats.cells += 1


def _attribute(desc: SourceDescriptor, name: str) -> tuple[str, CanonKind]:
    """A source attribute's canonical name and the kind of its values."""
    return canonicalize(name, NONE), desc.canon_kind(name)


def _group_plan(
    header: tuple[str, ...],
    col_index: dict[str, int],
    desc: SourceDescriptor,
    dictionaries: DictionaryStore | None,
) -> list[tuple[tuple[str, CanonCounters] | None, tuple[tuple[str, CanonKind, int], ...]]]:
    """Per emitted cell of a row: its pivot axis (None for a plain table)
    and its (canonical attribute, value kind, column index) triples. Each
    attribute name and each pivot-axis header is canonicalized once, here.

    A plain table plans its declared groups first, then a singleton group
    for each remaining non-key column. A pivoted table plans one singleton
    group per non-key column, whose canonical header, with the warnings
    counted canonicalizing it, is the ``_emit`` axis.
    """
    keyset = set(desc.key_columns)
    rest = [c for c in header if c not in keyset]
    if desc.format == "pivoted_csv":
        value = _attribute(desc, desc.pivot.value_attr_name)
        axis_kind = desc.canon_kind(desc.pivot.pivot_axis_name)
        plan = []
        for c in rest:
            counted = CanonCounters()
            axis = (canonicalize(c, axis_kind, dictionaries, counted), counted)
            plan.append((axis, ((*value, col_index[c]),)))
        return plan
    grouped = [c for g in desc.supercell_groups for c in g]
    for col in grouped:
        if col not in col_index:
            raise MissingKeyColumn(f"grouped column {col!r} absent from header")
    groups = list(desc.supercell_groups) + [(c,) for c in rest if c not in grouped]
    return [(None, tuple((*_attribute(desc, c), col_index[c]) for c in g)) for g in groups]


def decompose(
    table: RawTable,
    desc: SourceDescriptor,
    dictionaries: DictionaryStore | None = None,
    stats: DecomposeStats | None = None,
) -> list[SuperCell]:
    """Decompose a tabular source into one super cell per (row, group).

    Key values are canonicalized in descriptor order; for a pivoted table
    the pivot-axis value is appended as the last key component. A key
    column absent from the header takes its value from
    ``desc.constant_keys`` (a daily report's date, say, which only its file
    name carries); one in neither raises MissingKeyColumn. A header that
    repeats a name raises RepeatedColumn. Missing cells are skipped; rows
    missing a key value are skipped and counted.
    """
    stats = stats if stats is not None else DecomposeStats()
    if not table.rows:
        raise EmptyInput(f"source {desc.source_id!r} has no data rows")
    for row in table.rows:
        if len(row) != len(table.header):
            raise RaggedRow(
                f"row of width {len(row)} under header of width {len(table.header)}"
            )
    col_index = {name: i for i, name in enumerate(table.header)}
    if len(col_index) < len(table.header):
        repeated = next(name for i, name in enumerate(table.header) if col_index[name] != i)
        raise RepeatedColumn(f"source {desc.source_id!r}: column {repeated!r} is repeated")
    for key_col in desc.key_columns:
        if key_col not in col_index and key_col not in desc.constant_keys:
            raise MissingKeyColumn(key_col)
    plan = _group_plan(table.header, col_index, desc, dictionaries)
    key_kinds = [desc.canon_kind(c) for c in desc.key_columns]
    # Each key's column index, or None and its constant value.
    key_sources = [(col_index.get(c), desc.constant_keys.get(c)) for c in desc.key_columns]

    cells: list[SuperCell] = []
    for ordinal, row in enumerate(table.rows):
        stats.rows += 1
        raw_keys = [constant if i is None else row[i] for i, constant in key_sources]
        if any(is_missing(v) for v in raw_keys):
            stats.skipped_missing_key_rows += 1
            continue
        keys = tuple(
            canonicalize(v, kind, dictionaries, stats.canon) for kind, v in zip(key_kinds, raw_keys)
        )
        for axis, columns in plan:
            pairs = [(attr, kind, row[i]) for attr, kind, i in columns]
            _emit(cells, desc, keys, pairs, ordinal, dictionaries, stats, axis)
    return cells


def decompose_log(
    lines,
    desc: SourceDescriptor,
    dictionaries: DictionaryStore | None = None,
    stats: DecomposeStats | None = None,
) -> list[SuperCell]:
    """Decompose a line stream using the descriptor's log rules.

    The first matching rule per line wins. Rules that capture keys update
    the ambient key state (host, timestamp, ...); rules that capture
    attribute/value pairs emit one super cell per match under the current
    ambient keys. Lines matched by no rule are counted and skipped.
    """
    stats = stats if stats is not None else DecomposeStats()
    compiled = [
        (rule, rule.compiled(),
         [(*_attribute(desc, a), c) for a, c in rule.attr_value_captures.items()])
        for rule in desc.log_rules
    ]
    ambient: dict[str, str] = dict(desc.constant_keys)

    cells: list[SuperCell] = []
    for lineno, line in enumerate(lines):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        for rule, pattern, captures in compiled:
            m = pattern.search(line)
            if m is None:
                continue
            for key_name, capture in rule.key_captures.items():
                ambient[key_name] = canonicalize(
                    m.group(capture), desc.canon_kind(key_name), dictionaries, stats.canon
                )
            if captures:
                missing_keys = [k for k in desc.key_columns if k not in ambient]
                if missing_keys:
                    raise MissingKeyColumn(
                        f"no ambient value for key(s) {missing_keys} at line {lineno}"
                    )
                keys = tuple(ambient[k] for k in desc.key_columns)
                pairs = [(attr, kind, m.group(c)) for attr, kind, c in captures]
                _emit(cells, desc, keys, pairs, lineno, dictionaries, stats)
            break
        else:
            stats.unmatched_lines += 1
    if not cells:
        raise NoRuleMatchedAnything(
            f"source {desc.source_id!r}: no rule produced any super cell"
        )
    return cells


def pivot_table(table: RawTable, key_columns: list[str], axis: str) -> RawTable:
    """Pivot a keyed table: values of the ``axis`` key column become headers.

    The table must have exactly one non-key value column; raises
    DuplicateCellOnPivot if two rows collide in the pivoted grid.
    """
    if axis not in key_columns:
        raise ValueError(f"axis {axis!r} must be one of the key columns")
    value_cols = [c for c in table.header if c not in key_columns]
    if len(value_cols) != 1:
        raise ValueError(
            f"pivot requires exactly one value column, found {value_cols}"
        )
    value_col = value_cols[0]
    other_keys = [c for c in key_columns if c != axis]
    idx = {name: i for i, name in enumerate(table.header)}

    axis_values: list[str] = []
    seen_axis: set[str] = set()
    grid: dict[tuple[str, ...], dict[str, str]] = {}
    row_order: list[tuple[str, ...]] = []
    for row in table.rows:
        axis_value = row[idx[axis]]
        if axis_value not in seen_axis:
            seen_axis.add(axis_value)
            axis_values.append(axis_value)
        rest = tuple(row[idx[c]] for c in other_keys)
        if rest not in grid:
            grid[rest] = {}
            row_order.append(rest)
        if axis_value in grid[rest]:
            raise DuplicateCellOnPivot(f"duplicate cell at {rest} x {axis_value!r}")
        grid[rest][axis_value] = row[idx[value_col]]

    header = tuple(other_keys) + tuple(axis_values)
    rows = tuple(
        rest + tuple(grid[rest].get(v, "") for v in axis_values) for rest in row_order
    )
    return RawTable(header, rows)
