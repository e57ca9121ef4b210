"""Materializing predicted positions into the target table.

The table is a keyed accumulation structure: each cell carries its
aggregation mode, one exact ``Decimal`` aggregate (the sum, minimum or
maximum so far) and a count of the values merged, enough to merge values
in arrival order. Numeric results are exact until they render, rounded
once to 6 decimals, so golden files are bit-stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from .canon import EXACT, canonical_number
from .core import (
    AggMode,
    DataError,
    Record,
    SuperCell,
    TargetPosition,
    TargetSchema,
    WILDCARD,
    copy_index,
    csv_text,
    write_csv,
)

# A tuple: membership tests compare by identity and never call Enum.__hash__.
NUMERIC_MODES = (AggMode.SUM, AggMode.AVG, AggMode.MIN, AggMode.MAX)


class AggModeConflict(DataError):
    """Two different aggregation modes were written to one cell."""


def render_decimal(value: Decimal) -> str:
    """Render with at most 6 fractional digits, trailing zeros trimmed;
    integral values render without a decimal point. Every integer digit
    is kept, however many. A value that rounds to zero renders "0", never "-0"."""
    rounded = value.quantize(Decimal("1e-6"), context=EXACT)
    return "0" if rounded.is_zero() else format(rounded.normalize(EXACT), "f")


@dataclass(slots=True)
class CellState:
    """Aggregation state of one target cell: ``number`` is the exact sum
    (SUM, AVG), minimum or maximum of the numeric values merged so far, and
    ``count`` the number of values merged."""

    mode: AggMode
    value: str = ""
    number: Decimal | None = None
    count: int = 0

    def merge(self, incoming: str) -> bool:
        """Fold one arriving value in; returns False on a numeric parse failure."""
        if self.mode in NUMERIC_MODES:
            text = canonical_number(incoming)
            if text is None:
                return False
            num = Decimal(text)
            if self.number is None:
                self.number = num
            elif self.mode is AggMode.MIN:
                self.number = min(self.number, num)
            elif self.mode is AggMode.MAX:
                self.number = max(self.number, num)
            else:  # SUM, AVG
                self.number = EXACT.add(self.number, num)
        elif self.mode is AggMode.CONCAT and self.count:
            self.value = f"{self.value}|{incoming}"  # arrival order
        elif self.mode is AggMode.REPLACE or self.count == 0:
            self.value = incoming  # every REPLACE value, the first of the others
        self.count += 1
        return True

    def finalize(self) -> str:
        """The cell's rendered value. A state is stored only once a value
        has merged, so ``number`` is set in every numeric mode."""
        if self.mode is AggMode.AVG:
            # The exact mean, rounded once (half-even) to the 6 rendered places.
            micros = round(Fraction(self.number) / self.count * 10**6)
            return render_decimal(Decimal(micros).scaleb(-6, EXACT))
        if self.mode in NUMERIC_MODES:
            return render_decimal(self.number)
        if self.mode is AggMode.COUNT:
            return str(self.count)
        return self.value


@dataclass
class AssemblyReport(Record):
    """Value counts only, so the report is byte-identical across runs."""

    cells_written: int = 0
    cells_skipped: int = 0


class TargetTable:
    """Keyed accumulation structure for assembled predictions.

    Rows are addressed by the full target-key tuple. A cell's aggregation
    mode is fixed by its first write; writing a different mode raises
    AggModeConflict. A concrete key creates its row when a value first
    merges there. Wildcard key components broadcast to every existing row
    matching the concrete components and never create rows. ``write`` is
    the one writer; ``apply`` places a predicted super cell through it.
    """

    def __init__(self, schema: TargetSchema):
        self.schema = schema
        self.rows: dict[tuple[str, ...], dict[str, CellState]] = {}
        self.report = AssemblyReport()

    def apply(self, cell: SuperCell, pos: TargetPosition) -> None:
        """Write one super cell at its (already COPY-resolved) position.

        A discard position writes nothing and a NULL attribute slot drops
        its value uncounted. Values past the position's last attribute (a
        cell wider than the model's ``max_width``) have nowhere to go and
        count as skipped. The placed values go through ``write``."""
        if pos.is_discard:
            return
        attributes, values = pos.attributes, cell.values
        self.report.cells_skipped += max(len(values) - len(attributes), 0)
        placed = [(a, v) for a, v in zip(attributes, values) if a is not None]
        self.write(pos.keys, [a for a, _ in placed], [v for _, v in placed], pos.agg_mode)

    def write(
        self, keys: Sequence[str | None], attributes: Sequence[str], values: Sequence[str],
        mode: AggMode,
    ) -> None:
        """Merge ``values`` in order into the cells of the parallel
        ``attributes`` in the row(s) that ``keys`` address.

        Keys with a None or COPY(i) component, or the wrong number of
        components, address no row, and every value counts as skipped. A
        value that fails to parse in a numeric mode counts as skipped and
        creates no row. On an AggModeConflict the conflicting value and every
        value after it count as skipped before the conflict propagates;
        values written before it stay written."""
        report = self.report
        targets = self._target_rows(keys)
        if not targets:
            report.cells_skipped += len(values)
            return
        rows = self.rows
        for done, (attr, value) in enumerate(zip(attributes, values)):
            for key in targets:
                row = rows.get(key) or {}
                state = row.get(attr) or CellState(mode)
                if state.mode is not mode:
                    report.cells_skipped += len(values) - done
                    raise AggModeConflict(
                        f"cell ({key}, {attr!r}) written with {state.mode.value} then {mode.value}"
                    )
                if not state.merge(value):
                    report.cells_skipped += 1
                    continue
                # A row and its cell state are stored once a value has landed.
                row[attr] = state
                rows[key] = row
                report.cells_written += 1

    def _target_rows(self, keys: Sequence[str | None]) -> list[tuple[str, ...]]:
        """Row keys a write goes to (a concrete key's row may not exist
        yet); empty when the keys address no row."""
        if len(keys) != self.schema.q or None in keys:
            return []
        if WILDCARD in keys:
            concrete = [(i, k) for i, k in enumerate(keys) if k != WILDCARD]
            return [
                key for key in self.rows if all(key[i] == k for i, k in concrete)
            ]
        # Every COPY(i) component contains "COPY(", so the join is a cheap
        # first test; an unresolved key addresses no row.
        if "COPY(" in "".join(keys) and any(copy_index(k) is not None for k in keys):
            return []
        return [tuple(keys)]

    def finalized_rows(self) -> list[list[str]]:
        """Rows sorted by key tuple: key attributes first, then the remaining
        schema attributes in order, empty cells as empty strings."""
        value_attrs = self.schema.value_attributes
        out: list[list[str]] = []
        for key in sorted(self.rows):
            row = self.rows[key]
            out.append(
                list(key) + [row[a].finalize() if a in row else "" for a in value_attrs]
            )
        return out

    def header(self) -> list[str]:
        return list(self.schema.key_attributes + self.schema.value_attributes)

    def to_csv(self) -> str:
        return csv_text(self.header(), self.finalized_rows())

    def cells(self) -> dict[tuple[str, str], str]:
        """Finalized cell map {(key_tuple..., attr): value} for diffing."""
        out: dict[tuple, str] = {}
        value_attrs = self.schema.value_attributes
        for key, row in self.rows.items():
            for attr in value_attrs:
                if attr in row:
                    out[key + (attr,)] = row[attr].finalize()
        return out


def finalize_and_write(
    table: TargetTable, path: str | Path
) -> tuple[Path, AssemblyReport]:
    """Write the finalized table as CSV and return the table's report."""
    write_csv(table.header(), table.finalized_rows(), path)
    return Path(path), table.report


def diff_tables(expected: TargetTable, actual: TargetTable) -> dict:
    """Cell-level diff between two finalized tables.

    Cells are compared over the union of both tables' occupied positions;
    the fraction reported is agreement over the expected table's cells plus
    any spurious cells in the actual table.
    """
    exp = expected.cells()
    act = actual.cells()
    mismatched = sorted(
        k for k in (set(exp) | set(act)) if exp.get(k) != act.get(k)
    )
    total = len(set(exp) | set(act))
    return {
        "total_cells": total,
        "mismatched": len(mismatched),
        "agreement": 1.0 if total == 0 else 1.0 - len(mismatched) / total,
        "examples": [
            {"cell": list(k), "expected": exp.get(k), "actual": act.get(k)}
            for k in mismatched[:20]
        ],
    }
