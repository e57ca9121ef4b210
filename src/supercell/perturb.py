"""Schema-change perturbations for corpora and training samples.

Five change families are simulated: domain pivoting, key expansion,
attribute rename/reorder, value reformatting, and noise-column addition.
A ``PerturbationPlan`` has two uses: ``augment`` mixes perturbed copies
into training data, and ``perturb_corpus`` builds the test sets of the
robustness ladder. They do not compose the families alike: ``augment``
also perturbs at token level and never renames or reformats its
key-expansion copies.
Renames, reformats, and character noise never alter what a label points
at. Key expansion labels each child with ``mapping.carry_label`` under
SUM, and both ``perturb_corpus`` and ``augment`` carry
each label through a whole-cell reformat the same way, since an
abbreviation can move a key component in the canonical order; this module
builds no key label itself. Everything is driven by a single 64-bit seed
and is fully deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .canon import DictionaryStore, SynonymDictionary, parse_date
from .core import (
    ATTR,
    AggMode,
    FeatureSentence,
    KEY,
    Record,
    SuperCell,
    TargetPosition,
    VAL,
    discard_position,
    render_feature,
)
from .ingest import RawTable
from .mapping import KeyHierarchy, LabeledSample, SpecViolation, carry_label


@dataclass(frozen=True)
class PerturbationPlan(Record):
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

    def dictionary(self, dictionaries: DictionaryStore) -> SynonymDictionary | None:
        """The synonym dictionary the plan names, or None when it names none."""
        return dictionaries.get(self.synonym_dict) if self.synonym_dict else None


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
    dictionary = plan.dictionary(dictionaries)
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
    dictionary = plan.dictionary(dictionaries)

    def redraw(entries: tuple[str, ...]) -> tuple[str, ...]:
        out = []
        for entry in entries:
            alt = None
            if rng.random() < plan.value_reformat_rate:
                alt = reformat_value(entry, rng, dictionary)
            out.append(entry if alt is None else alt)
        return tuple(out)

    # Keyword arguments evaluate left to right: keys draw before values.
    return [replace(cell, keys=redraw(cell.keys), values=redraw(cell.values)) for cell in corpus]


def _rename_reformat(
    corpus: list[SuperCell],
    plan: PerturbationPlan,
    dictionaries: DictionaryStore,
) -> list[SuperCell]:
    return reformat_values(rename_attributes(corpus, plan, dictionaries), plan, dictionaries)


def _partition_integer(total: int, parts: int, rng: np.random.Generator) -> list[int]:
    """Random composition of ``total`` into ``parts`` integers of its sign (or zero)."""
    if total >= 0:
        cuts = sorted(int(rng.integers(0, total + 1)) for _ in range(parts - 1))
        bounds = [0] + cuts + [total]
        return [bounds[i + 1] - bounds[i] for i in range(parts)]
    flipped = _partition_integer(-total, parts, rng)
    return [-x for x in flipped]


def expand_keys(
    corpus: list[SuperCell],
    labels: list[TargetPosition],
    hierarchy: KeyHierarchy | None,
    plan: PerturbationPlan,
    parent_component: dict[str, int],
    counters: dict | None = None,
) -> tuple[list[SuperCell], list[TargetPosition]]:
    """Split selected rows into child-keyed rows at finer key granularity.

    A selected row's super cells are replaced by one copy per child of its
    expandable key value, with the child name appended as a new key
    component. The children's integer values sum to the parent value; rows
    with non-integer values are left unexpanded and counted. Each child is
    labelled with ``mapping.carry_label`` of its parent's label, so its COPY
    markers name the same key components as the parent's, under SUM.

    ``parent_component`` maps source_id to the index of the expandable key
    component (``MappingSpec.parent_components``); rows of a source absent
    from it stay unexpanded.
    """
    if len(corpus) != len(labels):
        raise ValueError("corpus and labels must be parallel")
    if plan.key_expansion_rate <= 0:
        return list(corpus), list(labels)
    if hierarchy is None:
        raise SpecViolation("key expansion needs a key hierarchy")
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
        comp = parent_component.get(row_id[0]) if row_id in picked else None
        first = corpus[indices[0]]
        children = () if comp is None else hierarchy.children.get(first.keys[comp], ())
        if len(children) >= 2 and not all(_all_int(corpus[i].values) for i in indices):
            skipped_non_numeric += 1
            children = ()
        if len(children) < 2:
            out_cells += [corpus[i] for i in indices]
            out_labels += [labels[i] for i in indices]
            continue
        for i in indices:
            cell = corpus[i]
            splits = [
                _partition_integer(int(v), len(children), rng) for v in cell.values
            ]
            for c, child in enumerate(children):
                child_values = tuple(str(splits[v][c]) for v in range(len(cell.values)))
                child_cell = replace(cell, keys=cell.keys + (child,), values=child_values)
                out_cells.append(child_cell)
                out_labels.append(
                    replace(carry_label(labels[i], cell, child_cell), agg_mode=AggMode.SUM)
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


def noise_samples(
    source_id: str,
    n_columns: int,
    n_rows: int,
    seed: int,
    q: int,
) -> list[LabeledSample]:
    """Discard-labeled singleton super cells from synthetic irrelevant
    columns of a wholly irrelevant source (rows get their own synthetic
    keys); ``q`` is the target's key count.

    This is the one generator behind both the irrelevant-data test variant
    and the discard examples mixed into augmented training sets.
    """
    rng = _rng(seed, 5)
    out: list[LabeledSample] = []
    for c in range(n_columns):
        name = "".join(
            _NOISE_SYLLABLES[int(rng.integers(len(_NOISE_SYLLABLES)))]
            for _ in range(2 + c % 2)
        ) + f"_{c}"
        for r in range(n_rows):
            keys = (
                _NOISE_SYLLABLES[int(rng.integers(len(_NOISE_SYLLABLES)))]
                + str(int(rng.integers(10**6))),
                _NOISE_SYLLABLES[int(rng.integers(len(_NOISE_SYLLABLES)))]
                + str(int(rng.integers(10**4))),
            )
            value = str(int(rng.integers(0, 100000)))
            cell = SuperCell(source_id, keys, (name,), (value,), r)
            out.append(LabeledSample.of(cell, discard_position(q, cell.width)))
    return out


@dataclass(frozen=True)
class LogEntry(Record):
    """Which operations made one augmented sample, for ablation slicing."""

    sample_id: int
    ops_applied: list[str]


def perturb_sentence(
    sentence: FeatureSentence,
    plan: PerturbationPlan,
    dictionaries: DictionaryStore,
    rng: np.random.Generator,
    rename: dict[str, str],
) -> tuple[FeatureSentence, list[str]]:
    """Token-level rename/reformat/char-noise on one feature sentence."""
    dictionary = plan.dictionary(dictionaries)
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


def perturb_corpus(
    corpus: list[SuperCell],
    labels: list[TargetPosition],
    plan: PerturbationPlan,
    dictionaries: DictionaryStore,
    hierarchy: KeyHierarchy | None,
    parent_component: dict[str, int],
) -> list[LabeledSample]:
    """The corpus under the plan's schema changes, as labeled samples.

    Applies key expansion, then rename, then reformat; a family at rate 0
    returns its input untouched. Expansion runs first so that it finds
    children under the canonical key values. Labels (parallel to
    ``corpus``) carry over; expanded children get theirs from
    ``expand_keys``, and every label follows its cell through the reformat
    by ``mapping.carry_label``, since an abbreviation can move a key
    component in the canonical order."""
    cells, labels = expand_keys(corpus, labels, hierarchy, plan, parent_component)
    return [
        LabeledSample.of(after, carry_label(label, before, after))
        for before, after, label in zip(cells, _rename_reformat(cells, plan, dictionaries), labels)
    ]


def augment(
    samples: list[LabeledSample],
    plan: PerturbationPlan,
    dictionaries: DictionaryStore,
    corpus: list[SuperCell],
    hierarchy: KeyHierarchy | None = None,
    parent_component: dict[str, int] | None = None,
    log: list[LogEntry] | None = None,
) -> list[LabeledSample]:
    """Originals plus perturbed copies; labels are preserved throughout,
    except key-expansion copies whose aggregation label becomes SUM.

    ``corpus`` holds the cells the samples came from, in the same order.
    Three families of copies are added: token-level rename/reformat/char
    noise; whole-component rename+reformat copies, so multi-word values like
    state names gain their alternate surface forms, each label carried by
    ``mapping.carry_label`` as in ``perturb_corpus``; and key-expansion
    copies at finer key granularity (sources absent from
    ``parent_component`` are not expanded; a plan that expands keys without
    a ``hierarchy`` raises SpecViolation, as in ``perturb_corpus``). A nonzero
    ``add_remove_noise_columns`` mixes in synthetic irrelevant columns
    labeled as discards. Each added sample appends one ``LogEntry`` to
    ``log`` when one is given. Deterministic per (input order, plan seed).
    """
    if len(corpus) != len(samples):
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

    def add(sample: LabeledSample, ops: list[str]) -> None:
        out.append(sample)
        if log is not None:
            log.append(LogEntry(len(out) - 1, ops))

    for i, sample in enumerate(samples):
        rng = _rng(plan.seed ^ 0x5CE11, 6, i)
        sentence, ops = perturb_sentence(sample.feature, plan, dictionaries, rng, rename)
        if ops and sentence != sample.feature:
            add(LabeledSample(sentence, sample.label, sample.origin), ops)

    for before, after, base in zip(corpus, _rename_reformat(corpus, plan, dictionaries), samples):
        feature = render_feature(after)
        if feature != base.feature:
            label = carry_label(base.label, before, after)
            add(LabeledSample(feature, label, base.origin), ["corpus_rename_reformat"])

    if plan.key_expansion_rate > 0:
        base_key_len = {c.source_id: len(c.keys) for c in corpus}
        cells, labels = expand_keys(
            corpus, [s.label for s in samples], hierarchy, plan, parent_component or {}
        )
        for cell, label in zip(cells, labels):
            if len(cell.keys) > base_key_len[cell.source_id]:
                add(LabeledSample.of(cell, label), ["key_expansion"])

    if plan.add_remove_noise_columns > 0:
        q = len(samples[0].label.keys) if samples else 1
        for sample in noise_samples("noise", plan.add_remove_noise_columns, 4, plan.seed + 5, q):
            add(sample, ["noise_column"])
    return out
