"""Decomposing raw sources into super cells.

A super cell is a group of cells from one source tuple that always map to
the target table together: the row's keys plus parallel attribute/value
vectors. The same logical data decomposes to the same cells whether the
source arrives as a plain table, with its columns shuffled, or pivoted so
that a key dimension lives in the headers.
"""

from collections import Counter

from supercell import CanonKind, RawTable, SourceDescriptor, decompose, render_feature
from supercell.ingest import Pivot, pivot_table
from supercell.perturb import reorder_attributes

table = RawTable(
    ("Date", "Province/State", "Country/Region", "Deaths"),
    (
        ("2020-10-06", "Arizona", "United States", "17"),
        ("2020-10-07", "Arizona", "United States", "25"),
        ("2020-10-06", "Utah", "United States", "4"),
        ("2020-10-07", "Utah", "United States", "9"),
    ),
)

desc = SourceDescriptor(
    source_id="deaths",
    key_columns=("Date", "Province/State", "Country/Region"),
    canonicalizers={"Date": CanonKind("date"), "Deaths": CanonKind("number")},
)

cells = decompose(table, desc)
print(f"{len(cells)} super cells from the plain table; the first:")
print(" ", cells[0])
print("  feature sentence:", " ".join(render_feature(cells[0]).tokens))
print()

# Shuffle the columns: decomposition keys columns by name, so nothing changes.
shuffled = decompose(reorder_attributes(table, seed=3), desc)
same = Counter(c.signature() for c in cells) == Counter(c.signature() for c in shuffled)
print("column order shuffled   -> same super-cell multiset:", same)

# Pivot the date dimension into the headers (the classic time-series layout
# change) and decompose with a pivoted descriptor: same cells again.
pivoted = pivot_table(table, ["Date", "Province/State", "Country/Region"], "Date")
print("pivoted header:", pivoted.header)
pivoted_desc = SourceDescriptor(
    source_id="deaths",
    format="pivoted_csv",
    key_columns=("Province/State", "Country/Region"),
    pivot=Pivot(pivot_axis_name="Date", value_attr_name="Deaths"),
    canonicalizers={"Date": CanonKind("date"), "Deaths": CanonKind("number")},
)
from_pivot = decompose(pivoted, pivoted_desc)
same = Counter(c.signature() for c in cells) == Counter(c.signature() for c in from_pivot)
print("pivoted decomposition   -> same super-cell multiset:", same)
print()
print("feature of a pivot-derived cell:",
      " ".join(render_feature(from_pivot[0]).tokens))
print("(keys render in canonical order, so the model never sees a difference)")
