"""Schema-change perturbations for corpora and training samples.

Five change families are simulated: domain pivoting, key expansion,
attribute rename/reorder, value reformatting, and noise-column addition.
Renames, reformats, and character noise never alter labels; key expansion
switches the label's aggregation mode to the hierarchy's rollup mode.
Everything is driven by a single 64-bit seed and is fully deterministic.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .canon import DictionaryStore, SynonymDictionary, parse_date
from .core import (
    ATTR,
    AggMode,
    FeatureSentence,
    KEY,
    SuperCell,
    TargetPosition,
    VAL,
    discard_position,
    render_feature,
)
from .ingest import RawTable
from .mapping import KeyHierarchy, LabeledSample


@dataclass(frozen=True)
class PerturbationPlan:
    """Knobs for one perturbation pass; the seed fully determines the output."""

    seed: int = 0
    attr_rename_rate: float = 0.0
    char_noise_rate: float = 0.0
    value_reformat_rate: float = 0.0
    key_expansion_rate: float = 0.0
    add_remove_noise_columns: int = 0
    synonym_dict: str | None = None

    def __post_init__(self) -> None:
        for name in ("attr_rename_rate", "char_noise_rate", "value_reformat_rate",
                     "key_expansion_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")

    def to_dict(self) -> dict:
        return asdict(self)


def _rng(seed: int, *salt: int) -> np.random.Generator:
    return np.random.default_rng(np.array([seed & 0xFFFFFFFFFFFFFFFF, *salt], dtype=np.uint64))


_ALPHABET = "abcdefghijklmnopqrstuvwxyz"


def char_noise(token: str, rng: np.random.Generator) -> str:
    """One random single-character deletion or substitution.

    Tokens of length one only get substitutions so the token never empties.
    """
    if not token:
        return token
    pos = int(rng.integers(len(token)))
    if len(token) > 1 and rng.random() < 0.5:
        return token[:pos] + token[pos + 1 :]
    letter = _ALPHABET[int(rng.integers(len(_ALPHABET)))]
    if letter == token[pos]:
        letter = _ALPHABET[(_ALPHABET.index(letter) + 1) % len(_ALPHABET)]
    return token[:pos] + letter + token[pos + 1 :]


def rename_map(
    attributes: list[str],
    plan: PerturbationPlan,
    dictionaries: DictionaryStore,
) -> dict[str, str]:
    """Choose a consistent rename for ``round(rate * n)`` distinct attributes.

    Synonym-group members are replaced by a uniformly chosen sibling; names
    without a group get a character-noised variant.
    """
    if plan.attr_rename_rate <= 0 or not attributes:
        return {}
    rng = _rng(plan.seed, 1)
    ordered = sorted(set(attributes))
    n_pick = int(round(plan.attr_rename_rate * len(ordered)))
    picked = list(rng.choice(len(ordered), size=min(n_pick, len(ordered)), replace=False))
    dictionary = dictionaries.get(plan.synonym_dict) if plan.synonym_dict else None
    mapping: dict[str, str] = {}
    for i in sorted(int(j) for j in picked):
        name = ordered[i]
        siblings = dictionary.siblings(name) if dictionary else []
        if siblings:
            mapping[name] = str(siblings[int(rng.integers(len(siblings)))]).lower()
        else:
            mapping[name] = char_noise(name, rng)
    return mapping


def rename_attributes(
    corpus: list[SuperCell],
    plan: PerturbationPlan,
    dictionaries: DictionaryStore,
) -> list[SuperCell]:
    """Apply a consistent attribute rename across the corpus snapshot."""
    attributes = sorted({a for cell in corpus for a in cell.attributes})
    mapping = rename_map(attributes, plan, dictionaries)
    if not mapping:
        return list(corpus)
    return [
        replace(cell, attributes=tuple(mapping.get(a, a) for a in cell.attributes))
        for cell in corpus
    ]


def reorder_attributes(table: RawTable, seed: int) -> RawTable:
    """Permute the column order of a simulated source table.

    Decomposition keys columns by name, so this must leave the super-cell
    multiset unchanged; it exists to exercise that invariance.
    """
    rng = _rng(seed, 2)
    perm = list(rng.permutation(len(table.header)))
    header = tuple(table.header[int(i)] for i in perm)
    rows = tuple(tuple(row[int(i)] for i in perm) for row in table.rows)
    return RawTable(header, rows)


def _reformat_date(canonical: str, rng: np.random.Generator) -> str | None:
    parts = parse_date(canonical)
    if parts is None:
        return None
    y, mo, d, hh, mi, ss = parts
    if hh is not None:
        return f"{mo}/{d}/{y} {hh}:{mi:02d}"
    choices = [f"{mo}/{d}/{y}", f"{mo:02d}{d:02d}{y:04d}"]
    return choices[int(rng.integers(len(choices)))]


def reformat_value(
    value: str,
    rng: np.random.Generator,
    dictionary: SynonymDictionary | None,
) -> str | None:
    """An alternate surface form that canonicalizes back to ``value``.

    Two rule families are registered: the date-format cycle and the
    synonym-dictionary swap (region abbreviations). Returns None when no
    rule applies.
    """
    out = _reformat_date(value, rng)
    if out is not None:
        return out
    if dictionary is not None:
        siblings = dictionary.siblings(value)
        if siblings:
            return str(siblings[int(rng.integers(len(siblings)))])
    return None


def reformat_values(
    corpus: list[SuperCell],
    plan: PerturbationPlan,
    dictionaries: DictionaryStore,
) -> list[SuperCell]:
    """Rewrite selected key/value entries to alternate surface forms."""
    if plan.value_reformat_rate <= 0:
        return list(corpus)
    rng = _rng(plan.seed, 3)
    dictionary = dictionaries.get(plan.synonym_dict) if plan.synonym_dict else None
    out: list[SuperCell] = []
    for cell in corpus:
        keys = list(cell.keys)
        values = list(cell.values)
        for i, key in enumerate(keys):
            if rng.random() < plan.value_reformat_rate:
                alt = reformat_value(key, rng, dictionary)
                if alt is not None:
                    keys[i] = alt
        for i, value in enumerate(values):
            if rng.random() < plan.value_reformat_rate:
                alt = reformat_value(value, rng, dictionary)
                if alt is not None:
                    values[i] = alt
        out.append(replace(cell, keys=tuple(keys), values=tuple(values)))
    return out


def _partition_integer(total: int, parts: int, rng: np.random.Generator) -> list[int]:
    """Random composition of ``total`` into ``parts`` nonnegative integers."""
    if parts == 1:
        return [total]
    if total >= 0:
        cuts = sorted(int(rng.integers(0, total + 1)) for _ in range(parts - 1))
        bounds = [0] + cuts + [total]
        return [bounds[i + 1] - bounds[i] for i in range(parts)]
    flipped = _partition_integer(-total, parts, rng)
    return [-x for x in flipped]


def expand_keys(
    corpus: list[SuperCell],
    labels: list[TargetPosition],
    hierarchy: KeyHierarchy,
    plan: PerturbationPlan,
    parent_component: dict[str, int] | None = None,
    counters: dict | None = None,
) -> tuple[list[SuperCell], list[TargetPosition]]:
    """Split selected rows into child-keyed rows at finer key granularity.

    A selected row's super cells are replaced by one copy per child of its
    expandable key value, with the child name appended as a new key
    component. For a sum rollup the children's numeric values partition the
    parent value exactly; rows with non-numeric values are left unexpanded
    and counted. Labels of expanded cells keep the parent's target keys and
    switch the aggregation mode to the rollup mode.

    ``parent_component`` maps source_id to the index of the expandable key
    component (defaults to scanning for a value with children).
    """
    if len(corpus) != len(labels):
        raise ValueError("corpus and labels must be parallel")
    if plan.key_expansion_rate <= 0:
        return list(corpus), list(labels)
    rng = _rng(plan.seed, 4)
    rows: dict[tuple[str, int], list[int]] = {}
    for i, cell in enumerate(corpus):
        rows.setdefault((cell.source_id, cell.row_ordinal), []).append(i)
    row_ids = list(rows)
    n_pick = int(round(plan.key_expansion_rate * len(row_ids)))
    picked_idx = rng.choice(len(row_ids), size=min(n_pick, len(row_ids)), replace=False)
    picked = {row_ids[int(i)] for i in picked_idx}

    skipped_non_numeric = 0
    out_cells: list[SuperCell] = []
    out_labels: list[TargetPosition] = []
    for row_id in row_ids:
        indices = rows[row_id]
        if row_id not in picked:
            for i in indices:
                out_cells.append(corpus[i])
                out_labels.append(labels[i])
            continue
        source_id = row_id[0]
        first = corpus[indices[0]]
        if parent_component is not None and source_id in parent_component:
            comp = parent_component[source_id]
            children = hierarchy.children.get(first.keys[comp], ())
        else:
            comp, children = -1, ()
            for j, key in enumerate(first.keys):
                if key in hierarchy.children:
                    comp, children = j, hierarchy.children[key]
                    break
        numeric_ok = hierarchy.rollup is not AggMode.SUM or all(
            _all_int(corpus[i].values) for i in indices
        )
        if len(children) < 2 or not numeric_ok:
            if len(children) >= 2 and not numeric_ok:
                skipped_non_numeric += 1
            for i in indices:
                out_cells.append(corpus[i])
                out_labels.append(labels[i])
            continue
        for i in indices:
            cell = corpus[i]
            splits = [
                _partition_integer(int(v), len(children), rng) for v in cell.values
            ]
            for c, child in enumerate(children):
                child_values = tuple(str(splits[v][c]) for v in range(len(cell.values)))
                out_cells.append(
                    replace(cell, keys=cell.keys + (child,), values=child_values)
                )
                out_labels.append(
                    TargetPosition(labels[i].keys, labels[i].attributes, hierarchy.rollup)
                )
    if counters is not None:
        counters["non_numeric_expansion"] = (
            counters.get("non_numeric_expansion", 0) + skipped_non_numeric
        )
    return out_cells, out_labels


def _all_int(values: tuple[str, ...]) -> bool:
    for v in values:
        try:
            int(v)
        except ValueError:
            return False
    return True


_NOISE_SYLLABLES = [
    "met", "rix", "zon", "qua", "lp", "vex", "tor", "bld", "sna", "crp",
    "dru", "fen", "gor", "hax", "ilm", "jit", "kel", "osp", "pyr", "wub",
]


def noise_cells(
    source_id: str,
    n_columns: int,
    n_rows: int,
    seed: int,
    keys_of_row=None,
) -> list[SuperCell]:
    """Singleton super cells from synthetic irrelevant columns.

    This is the one generator behind both the irrelevant-data test variant
    and the discard examples mixed into augmented training sets. With
    ``keys_of_row`` the noise shares real row keys (an added column on a
    real source); without it, rows get their own synthetic keys (a wholly
    irrelevant source).
    """
    rng = _rng(seed, 5)
    cells: list[SuperCell] = []
    for c in range(n_columns):
        name = "".join(
            _NOISE_SYLLABLES[int(rng.integers(len(_NOISE_SYLLABLES)))]
            for _ in range(2 + c % 2)
        ) + f"_{c}"
        for r in range(n_rows):
            if keys_of_row is not None:
                keys = tuple(keys_of_row(r))
            else:
                keys = (
                    _NOISE_SYLLABLES[int(rng.integers(len(_NOISE_SYLLABLES)))]
                    + str(int(rng.integers(10**6))),
                    _NOISE_SYLLABLES[int(rng.integers(len(_NOISE_SYLLABLES)))]
                    + str(int(rng.integers(10**4))),
                )
            value = str(int(rng.integers(0, 100000)))
            cells.append(
                SuperCell(source_id, keys, (name,), (value,), r)
            )
    return cells


@dataclass
class PerturbationLog:
    """Which operations touched which sample, for ablation slicing."""

    entries: list[dict] = field(default_factory=list)

    def add(self, sample_id: int, ops: list[str]) -> None:
        if ops:
            self.entries.append({"sample_id": sample_id, "ops_applied": ops})

    def dump(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for entry in self.entries:
                fh.write(json.dumps(entry) + "\n")


def perturb_sentence(
    sentence: FeatureSentence,
    plan: PerturbationPlan,
    dictionaries: DictionaryStore,
    rng: np.random.Generator,
    rename: dict[str, str],
) -> tuple[FeatureSentence, list[str]]:
    """Token-level rename/reformat/char-noise on one feature sentence."""
    dictionary = dictionaries.get(plan.synonym_dict) if plan.synonym_dict else None
    ops: set[str] = set()
    tokens: list[str] = []
    for token, tag in zip(sentence.tokens, sentence.segment_tags):
        out = token
        if tag == ATTR and out in rename:
            out = rename[out]
            ops.add("rename")
        elif tag in (KEY, VAL) and plan.value_reformat_rate > 0 and rng.random() < plan.value_reformat_rate:
            alt = reformat_value(out, rng, dictionary)
            if alt is not None:
                out = alt.lower()
                ops.add("reformat")
        if plan.char_noise_rate > 0 and rng.random() < plan.char_noise_rate:
            noised = char_noise(out, rng)
            if noised != out:
                out = noised
                ops.add("char_noise")
        tokens.append(out)
    return FeatureSentence(tuple(tokens), sentence.segment_tags), sorted(ops)


def augment(
    samples: list[LabeledSample],
    plan: PerturbationPlan,
    dictionaries: DictionaryStore,
    corpus: list[SuperCell] | None = None,
    hierarchy: KeyHierarchy | None = None,
    parent_component: dict[str, int] | None = None,
    log: PerturbationLog | None = None,
) -> list[LabeledSample]:
    """Originals plus perturbed copies; labels are preserved throughout,
    except key-expansion copies whose aggregation label becomes the
    hierarchy's rollup mode.

    Token-level rename/reformat/char-noise always applies. When ``corpus``
    (the cells the samples came from, in the same order) is given, two
    richer families are added: whole-component rename+reformat copies, so
    multi-word values like state names gain their alternate surface forms,
    and — with ``hierarchy`` — key-expansion copies at finer key
    granularity. A nonzero ``add_remove_noise_columns`` mixes in synthetic
    irrelevant columns labeled as discards. Deterministic per (input order,
    plan seed).
    """
    if corpus is not None and len(corpus) != len(samples):
        raise ValueError("corpus must parallel samples")
    attr_tokens = sorted(
        {
            tok
            for s in samples
            for tok, tag in zip(s.feature.tokens, s.feature.segment_tags)
            if tag == ATTR
        }
    )
    rename = rename_map(attr_tokens, plan, dictionaries)
    out = list(samples)
    for i, sample in enumerate(samples):
        rng = _rng(plan.seed ^ 0x5CE11, 6, i)
        sentence, ops = perturb_sentence(sample.feature, plan, dictionaries, rng, rename)
        if ops and sentence != sample.feature:
            out.append(LabeledSample(sentence, sample.label, sample.origin))
            if log is not None:
                log.add(len(out) - 1, ops)

    if corpus is not None:
        perturbed = reformat_values(
            rename_attributes(corpus, plan, dictionaries), plan, dictionaries
        )
        for cell, base in zip(perturbed, samples):
            feature = render_feature(cell)
            if feature != base.feature:
                out.append(LabeledSample(feature, base.label, base.origin))
                if log is not None:
                    log.add(len(out) - 1, ["corpus_rename_reformat"])
        if hierarchy is not None and plan.key_expansion_rate > 0:
            base_key_len = {c.source_id: len(c.keys) for c in corpus}
            cells2, labels2 = expand_keys(
                corpus, [s.label for s in samples], hierarchy, plan, parent_component
            )
            for cell, label in zip(cells2, labels2):
                if len(cell.keys) > base_key_len.get(cell.source_id, len(cell.keys)):
                    out.append(
                        LabeledSample(
                            render_feature(cell), label, (cell.source_id, cell.row_ordinal)
                        )
                    )
                    if log is not None:
                        log.add(len(out) - 1, ["key_expansion"])

    if plan.add_remove_noise_columns > 0:
        q = len(samples[0].label.keys) if samples else 1
        for cell in noise_cells(
            "noise", plan.add_remove_noise_columns, 4, seed=plan.seed + 5
        ):
            out.append(
                LabeledSample(
                    render_feature(cell), discard_position(q, cell.width),
                    (cell.source_id, cell.row_ordinal),
                )
            )
            if log is not None:
                log.add(len(out) - 1, ["noise_column"])
    return out
