"""The MinHash column-matching baseline, and where it breaks.

The baseline stores L 32-bit minima per column, matches source columns to a
target example by estimated Jaccard similarity, picks a minimal source set,
and runs an exact equi-join. It works on clean tabular sources, pays
storage linear in the total column count, and has no answer when the key
dimension is pivoted into the headers.
"""

import tempfile
from pathlib import Path

from supercell import (
    estimate_jaccard,
    match_signatures,
    oracle_integrate,
    sign_columns,
    signature,
    storage_report,
)
from supercell.baseline import baseline_integrate, save_signatures
from supercell.datasets import build_covid_fixture, build_pivoted_deaths, build_wide_tables
from supercell.evaluate import target_example_from_oracle

fixture = build_covid_fixture(n_dates=4, n_states=8)

# Signatures estimate Jaccard similarity between cell-value shingle sets.
col_a = fixture.tables["covid"].column("Confirmed")
col_b = fixture.tables["covid"].column("Deaths")
sig_a, sig_b = signature(col_a), signature(col_b)
print(f"confirmed vs itself: {estimate_jaccard(sig_a, sig_a):.2f}")
print(f"confirmed vs deaths: {estimate_jaccard(sig_a, sig_b):.2f}")
print()

# Sign every source column once into the signature store, then match a
# user-provided example of the expected output against that store.
store = sign_columns(fixture.tables)
oracle = oracle_integrate(fixture.spec, fixture.corpora, fixture.dictionaries)
example = target_example_from_oracle(oracle)
report = match_signatures(store, example)
print("matched columns:")
for attr, match in sorted(report.best.items()):
    print(f"  {attr:12s} <- {match.source_id}.{match.column} "
          f"(score {match.score:.2f})")
print("unmatched:", report.unmatched or "none")

table = baseline_integrate(
    report, fixture.tables, fixture.spec.target,
    fixture.spec.key_kinds(), fixture.dictionaries,
)
print(f"baseline equi-join produced {len(table.rows)} rows")
print()

# The fragility: pivot the deaths view so dates become headers. No column
# of the pivoted source contains date values, so the date attribute cannot
# be matched, and the join key cannot be stated.
pivoted, _ = build_pivoted_deaths(fixture)
pivot_report = match_signatures(sign_columns({"deaths_pivoted": pivoted}), example)
print("after pivoting the time-series dimension:")
print("  unmatched target attributes:", pivot_report.unmatched)
print()

# Storage: the saved store holds L 4-byte minima per signed column, plus a
# JSON index of where each column's minima start.
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "signatures.bin"
    save_signatures(store, path)
    saved = path.stat().st_size
    index = path.with_suffix(".bin.index.json").stat().st_size
L = next(iter(store.values())).L
print(f"saved store for {len(store)} columns at L={L}: {saved} bytes "
      f"(+ {index} bytes of index)")
print(f"storage_report({len(store)}, {L}): {storage_report(len(store), L)} bytes")

# The store grows with every column in every source.
wide = build_wide_tables()
n_columns = sum(len(t.header) for t in wide.values())
wide_bytes = storage_report(n_columns, L=512)
print(f"signature store for a {n_columns}-column corpus at L=512: "
      f"{wide_bytes} bytes ({wide_bytes / 1024:.0f} KB)")
print("a trained desk-scale model file stays under 1 MB regardless of column count")
