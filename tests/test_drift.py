"""Schema drift scored against the oracle.

The raw source tables of a fresh COVID fixture drift the way a live feed
does: value columns renamed, key values reformatted, columns reordered,
deaths pivoted into date columns, or case counts reported per county. Each
drifted feed goes through decompose -> predict_cells -> TargetTable.apply
with the suite's augmented COVID model, and the assembled table is compared
cell by cell with ``oracle_integrate`` of the clean fixture.

The robustness criterion scores predictions against labels that the
perturbation code itself wrote; this check trusts only the oracle, so a
labelling defect in a perturbation family shows up here as lost agreement.
"""

from dataclasses import replace

import numpy as np
import pytest

from supercell.assemble import diff_tables
from supercell.canon import canonicalize
from supercell.datasets import build_covid_fixture, build_pivoted_deaths, covid_unpivoted_view
from supercell.ingest import RawTable, decompose
from supercell.learner import integrate_predictions
from supercell.mapping import oracle_integrate
from supercell.perturb import PerturbationPlan, reformat_value, rename_map, reorder_attributes

SEED = 29
RATE = 0.5


def _renamed(fixture):
    """Value columns renamed to synonyms or one-edit variants; each source's
    descriptor follows the new names, as a user would update it."""
    plan = PerturbationPlan(seed=SEED, attr_rename_rate=RATE, synonym_dict="covid_synonyms")
    out = []
    for source_id, table in fixture.tables.items():
        desc = fixture.spec.descriptor(source_id)
        value_cols = [c for c in table.header if c not in desc.key_columns]
        renames = rename_map([c.lower() for c in value_cols], plan, fixture.dictionaries)
        taken = {c.lower() for c in table.header}
        new = {}
        for col in value_cols:
            name = renames.get(col.lower())
            if name and name not in taken:
                taken.add(name)
                new[col] = name
        out.append((
            RawTable(tuple(new.get(c, c) for c in table.header), table.rows),
            replace(
                desc,
                supercell_groups=tuple(
                    tuple(new.get(c, c) for c in g) for g in desc.supercell_groups
                ),
                canonicalizers={new.get(c, c): k for c, k in desc.canonicalizers.items()},
            ),
        ))
    return out


def _reformatted(fixture):
    """Key values in alternate surface forms (date formats, region
    abbreviations) under descriptors that declare no key canonicalizers,
    so the new forms reach the learner and COPY resolution."""
    rng = np.random.default_rng(SEED)
    dictionary = fixture.dictionaries["covid_synonyms"]
    out = []
    for source_id, table in fixture.tables.items():
        desc = fixture.spec.descriptor(source_id)
        key_idx = [table.header.index(c) for c in desc.key_columns]
        rows = []
        for row in table.rows:
            row = list(row)
            for j in key_idx:
                alt = reformat_value(row[j], rng, dictionary) if rng.random() < RATE else None
                row[j] = row[j] if alt is None else alt
            rows.append(tuple(row))
        plain_keys = replace(desc, canonicalizers={
            c: k for c, k in desc.canonicalizers.items() if c not in desc.key_columns
        })
        out.append((RawTable(table.header, tuple(rows)), plain_keys))
    return out


def _reordered(fixture):
    return [
        (reorder_attributes(table, SEED + i), fixture.spec.descriptor(source_id))
        for i, (source_id, table) in enumerate(fixture.tables.items())
    ]


def _pivoted(fixture):
    """Deaths pivoted so the date is a column header, beside the case
    counts without deaths and the unchanged mobility source."""
    return [
        covid_unpivoted_view(fixture),
        build_pivoted_deaths(fixture),
        (fixture.tables["mobility"], fixture.spec.descriptor("mobility")),
    ]


def _expanded(fixture):
    """Case counts reported per county: each state row splits into its
    hierarchy children under a new key column, with counts that sum back."""
    rng = np.random.default_rng(SEED)
    table = fixture.tables["covid"]
    desc = fixture.spec.descriptor("covid")
    state = table.header.index(desc.key_columns[fixture.parent_component["covid"]])
    counts = [table.header.index(c) for g in desc.supercell_groups for c in g]
    rows = []
    for row in table.rows:
        parent = canonicalize(
            row[state], desc.canon_kind(table.header[state]), fixture.dictionaries
        )
        children = fixture.spec.key_hierarchy.children[parent]  # two counties
        first = {j: int(rng.integers(0, int(row[j]) + 1)) for j in counts}
        for c, child in enumerate(children):
            child_row = list(row) + [child]
            for j in counts:
                child_row[j] = str(first[j] if c == 0 else int(row[j]) - first[j])
            rows.append(tuple(child_row))
    return [
        (RawTable(table.header + ("County",), tuple(rows)),
         replace(desc, key_columns=desc.key_columns + ("County",))),
        (fixture.tables["mobility"], fixture.spec.descriptor("mobility")),
    ]


# Gates come from measuring the suite's model on fixture seeds 29, 31, 37
# and 41. Reorder and pivot leave the super cells themselves unchanged, so
# they are held to criterion 1's clean-data gate (every seed read 1.0).
# Rename and reformat get criterion 2's gate for renamed and reformatted
# data (lowest reading 0.976, rename on seed 41; seed 29 reads 0.998 and
# 0.992). Expansion read 1.0 on every seed, and 0.31 on every seed for a
# model trained on expanded children whose COPY markers still indexed the
# parent's keys; it gets the rename and reformat gate.
DRIFTS = {
    "rename": (_renamed, 0.95),
    "reformat": (_reformatted, 0.95),
    "reorder": (_reordered, 0.99),
    "pivot": (_pivoted, 0.99),
    "expansion": (_expanded, 0.95),
}


@pytest.fixture(scope="module")
def drift_fixture():
    return build_covid_fixture(seed=SEED, n_dates=4)


@pytest.fixture(scope="module")
def clean_oracle(drift_fixture):
    return oracle_integrate(
        drift_fixture.spec, drift_fixture.corpora, drift_fixture.dictionaries
    )


@pytest.mark.parametrize("family", list(DRIFTS))
def test_drift_agrees_with_oracle(family, drift_fixture, clean_oracle, covid_models):
    drift, gate = DRIFTS[family]
    cells = [
        cell
        for table, desc in drift(drift_fixture)
        for cell in decompose(table, desc, drift_fixture.dictionaries)
    ]
    table = integrate_predictions(cells, covid_models["aug"])
    agreement = diff_tables(clean_oracle, table)["agreement"]
    assert agreement >= gate, f"{family}: agreement {agreement:.4f} (gate {gate})"


def test_copy_outside_closed_domain_is_skipped(drift_fixture, covid_models):
    # A model trained without expanded children copies a county name into
    # the state slot; the state domain is closed, so those values are
    # counted as skipped instead of opening rows no oracle would have.
    cells = [
        cell
        for table, desc in _expanded(drift_fixture)
        for cell in decompose(table, desc, drift_fixture.dictionaries)
    ]
    params = covid_models["noaug"]
    table = integrate_predictions(cells, params)
    closed = params.schema.closed_values()
    outside = [
        key for key in table.rows
        if any(c is not None and v not in c for v, c in zip(key, closed))
    ]
    assert outside == []
    assert table.report.cells_skipped > 0
