"""Simulating schema changes as training-data perturbations.

Renames, value reformats, and character noise change how a cell *looks*
without changing where it belongs, so labels carry over untouched. Key
expansion is the exception: children aggregate back to the parent cell, so
the label's aggregation mode switches to SUM, and each child
re-points its COPY markers at the same key components, which can move once
the new child key sorts among them.
"""

from supercell.datasets import build_covid_fixture
from supercell import augment, expand_keys, generate_training_data
from supercell.perturb import PerturbationPlan, rename_attributes, reformat_values

fixture = build_covid_fixture(n_dates=2, n_states=4)
cells = fixture.all_cells()
samples = generate_training_data(fixture.spec, fixture.corpora, fixture.dictionaries)

plan = PerturbationPlan(
    seed=7,
    attr_rename_rate=0.6,
    value_reformat_rate=0.6,
    char_noise_rate=0.1,
    key_expansion_rate=0.3,
    add_remove_noise_columns=3,
    synonym_dict="covid_synonyms",
)

renamed = rename_attributes(cells, plan, fixture.dictionaries)
changed = sorted(
    {(a, b) for c, r in zip(cells, renamed)
     for a, b in zip(c.attributes, r.attributes) if a != b}
)
print("attribute renames applied consistently across the corpus:")
for old, new in changed:
    print(f"  {old} -> {new}")
print()

reformatted = reformat_values(cells, plan, fixture.dictionaries)
examples = [
    (a, b) for c, r in zip(cells, reformatted)
    for a, b in zip(c.keys, r.keys) if a != b
]
print("value reformats (canonicalize back to the same thing):")
for old, new in examples[:4]:
    print(f"  {old!r} -> {new!r}")
print()

expanded_cells, expanded_labels = expand_keys(
    cells, [s.label for s in samples], fixture.spec.key_hierarchy, plan,
    fixture.parent_component,
)
children = [c for c in expanded_cells if len(c.keys) == 4]
print(f"key expansion split rows into {len(children)} child-keyed cells, e.g.")
print("  keys:", children[0].keys, "values:", children[0].values)
print("  sorted keys:", children[0].sorted_keys())
print("  label keys:", expanded_labels[expanded_cells.index(children[0])].keys)
parent_total = sum(
    int(c.values[0]) for c in children if c.keys[:3] == children[0].keys[:3]
    and c.attributes == children[0].attributes
)
print(f"  children of one parent sum exactly to the parent value: {parent_total}")
print()

augmented = augment(
    samples, plan, fixture.dictionaries,
    corpus=cells,
    hierarchy=fixture.spec.key_hierarchy,
    parent_component=fixture.parent_component,
)
print(f"augment: {len(samples)} base samples -> {len(augmented)} "
      "(originals + perturbed copies + expansion copies + noise discards)")
