"""MinHash column-matching baseline: the comparison point for the learner.

Per-column MinHash signatures estimate Jaccard similarity between a source
column and each column of a user-provided target example; matched columns
drive a greedy minimal source selection and an exact equi-join on the
canonicalized key columns. The baseline stores L 32-bit minima per column,
so its storage grows with the total column count, and it has no answer for
a pivoted source whose key dimension lives in the headers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .canon import CanonKind, DictionaryStore, NONE, canonicalize
from .core import (
    AggMode, DataError, MalformedRecord, TargetSchema, ngram_hashes, open_file, read_json, runs,
)
from .assemble import TargetTable
from .ingest import _MISSING, RawTable, is_missing


class EmptyColumn(DataError):
    pass


class IncompatibleSignatures(DataError):
    pass


class UncoverableAttribute(DataError):
    pass


@dataclass(frozen=True)
class MinHashSignature:
    """L per-hash minima over a column's 3-character shingle set."""

    values: tuple[int, ...]
    L: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        if self.L < 1:
            raise IncompatibleSignatures(f"L must be at least 1, got {self.L}")
        if len(self.values) != self.L:
            raise IncompatibleSignatures(f"{len(self.values)} values for L={self.L}")


def _shingle_hashes(texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """The ``fnv1a64`` of each 3-character shingle of each non-empty text,
    in text order, and each text's shingle count; a text of 3 or fewer
    characters is its own one shingle."""
    n_chars = np.fromiter(map(len, texts), np.int64, len(texts))
    counts = np.maximum(n_chars - 2, 1)
    text, offset = runs(counts)
    return ngram_hashes(texts, text, offset, np.minimum(n_chars, 3)[text]), counts


def _hash_matrix(base: np.ndarray, L: int) -> np.ndarray:
    """L 64-bit hashes per shingle hash in ``base``, truncated to 32 bits:
    one hash family shared by every signature, so any two signatures of
    one L compare."""
    mix = base[:, None] ^ (np.arange(L, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15))
    shift = np.uint64(33)
    mix ^= mix >> shift
    mix *= np.uint64(0xFF51AFD7ED558CCD)
    mix ^= mix >> shift
    mix *= np.uint64(0xC4CEB9FE1A85EC53)
    mix ^= mix >> shift
    return mix.astype(np.uint32)  # the low 32 bits


def _minhash(columns: list[list[str]], L: int) -> tuple[list[int], np.ndarray]:
    """The indices of the columns that have a shingle, and their
    ``(len, L)`` MinHash minima. A value is stripped and lowercased, and a
    missing one dropped. Each column's distinct texts are shingled and
    hashed in one pass over the call, each distinct shingle hash gets one
    ``_hash_matrix`` row, and a column's minima are the column-wise minimum
    over the rows of its shingles, which lie in one contiguous run."""
    if L < 1:
        raise IncompatibleSignatures(f"L must be at least 1, got {L}")
    kept: list[int] = []
    texts: list[str] = []
    sizes: list[int] = []
    for i, column in enumerate(columns):
        distinct = {value.strip().lower() for value in set(column)} - _MISSING
        if distinct:
            kept.append(i)
            texts.extend(distinct)
            sizes.append(len(distinct))
    hashes, counts = _shingle_hashes(texts)
    unique, rows = np.unique(hashes, return_inverse=True)
    matrix = _hash_matrix(unique, L)
    bounds = [0, *np.cumsum(counts)[np.cumsum(sizes, dtype=np.int64) - 1].tolist()]
    out = np.empty((len(kept), L), np.uint32)
    for i in range(len(kept)):
        out[i] = matrix[rows[bounds[i] : bounds[i + 1]]].min(axis=0)
    return kept, out


def signature(column: list[str], L: int = 128) -> MinHashSignature:
    """MinHash signature of a column: position j holds the minimum of the
    j-th hash over the column's shingle set."""
    kept, minima = _minhash([column], L)
    if not kept:
        raise EmptyColumn("no shingles after dropping missing cells")
    return MinHashSignature(minima[0].tolist(), L)


def estimate_jaccard(a: MinHashSignature, b: MinHashSignature) -> float:
    """Fraction of agreeing signature positions; unbiased for true Jaccard."""
    if a.L != b.L:
        raise IncompatibleSignatures("signatures use different L")
    agree = sum(1 for x, y in zip(a.values, b.values) if x == y)
    return agree / a.L


@dataclass(frozen=True)
class ColumnMatch:
    source_id: str
    column: str
    score: float


@dataclass
class MatchReport:
    """Column-matching outcome: global best per target attribute, the best
    per (attribute, source) for join-key lookup, and unmatched attributes."""

    best: dict[str, ColumnMatch]
    per_source: dict[tuple[str, str], ColumnMatch]
    unmatched: list[str]


def _signed(
    sources: dict[str, RawTable], L: int
) -> tuple[list[tuple[str, str]], np.ndarray]:
    """The ``(source_id, column)`` key of each non-empty column, in source
    insertion order, then header order, and their ``(len, L)`` minima, all
    signed in one ``_minhash`` call."""
    keys = [(source_id, column) for source_id, table in sources.items() for column in table.header]
    kept, minima = _minhash([sources[source_id].column(column) for source_id, column in keys], L)
    return [keys[i] for i in kept], minima


def sign_columns(
    sources: dict[str, RawTable], L: int = 128
) -> dict[tuple[str, str], MinHashSignature]:
    """The signature store: one signature per non-empty column, keyed
    ``(source_id, column)`` in source insertion order, then header order.
    A column with no shingles (``EmptyColumn``) has no entry."""
    keys, minima = _signed(sources, L)
    return {key: MinHashSignature(row.tolist(), L) for key, row in zip(keys, minima)}


def _match(
    keys: list[tuple[str, str]],
    stored: np.ndarray,
    L: int,
    target_example: RawTable,
    threshold: float,
) -> MatchReport:
    """Best stored column per target attribute, by estimated Jaccard, over
    ``stored``, the ``(len(keys), L)`` minima of the columns ``keys`` name.

    The example's columns are signed with L. Each attribute's agreement
    counts against every stored column are one array comparison; the
    scores are ``estimate_jaccard``'s. Candidates are scanned in store
    order, so ties go to the earlier column. An unmatched attribute is
    recorded, not fatal."""
    if not keys:
        return MatchReport({}, {}, list(target_example.header))
    attrs = target_example.header
    kept, minima = _minhash([target_example.column(attr) for attr in attrs], L)
    best: dict[str, ColumnMatch] = {}
    per_source: dict[tuple[str, str], ColumnMatch] = {}
    for i, row in zip(kept, minima):
        attr = attrs[i]
        scores = (stored == row).sum(axis=1) / L
        candidates = np.flatnonzero(~(scores < threshold))
        for j, score in zip(candidates.tolist(), scores[candidates].tolist()):
            source_id, column = keys[j]
            key = (attr, source_id)
            if key not in per_source or score > per_source[key].score:
                per_source[key] = ColumnMatch(source_id, column, score)
            if attr not in best or score > best[attr].score:
                best[attr] = ColumnMatch(source_id, column, score)
    unmatched = [a for a in target_example.header if a not in best]
    return MatchReport(best, per_source, unmatched)


def match_signatures(
    store: dict[tuple[str, str], MinHashSignature],
    target_example: RawTable,
    threshold: float = 0.5,
) -> MatchReport:
    """Best stored column per target attribute, by estimated Jaccard.

    The example's columns are signed with the store's own L; a store that
    mixes L values raises ``IncompatibleSignatures``. Stored columns are
    scanned in insertion order, so ties go to the earlier column.
    """
    first = next(iter(store.values()), None)
    if first is None:
        return MatchReport({}, {}, list(target_example.header))
    L = first.L
    if any(sig.L != L for sig in store.values()):
        raise IncompatibleSignatures("the store mixes signature lengths")
    stored = np.array([sig.values for sig in store.values()], np.uint32)
    return _match(list(store), stored, L, target_example, threshold)


def match_columns(
    sources: dict[str, RawTable],
    target_example: RawTable,
    threshold: float = 0.5,
    L: int = 128,
) -> MatchReport:
    """``match_signatures`` over the store ``sign_columns`` would sign from
    ``sources``, scored from the signed minima without building it."""
    keys, minima = _signed(sources, L)
    return _match(keys, minima, L, target_example, threshold)


def select_sources(matches: dict[str, ColumnMatch]) -> list[str]:
    """Greedy set cover: fewest sources whose matched columns cover every
    matched target attribute. Ties go to the earlier source. Each attribute
    is covered by its own match's source, so every step gains at least one
    attribute and the cover always completes."""
    remaining = set(matches)
    covers: dict[str, set[str]] = {}
    order: list[str] = []
    for attr, match in matches.items():
        if match.source_id not in covers:
            covers[match.source_id] = set()
            order.append(match.source_id)
        covers[match.source_id].add(attr)
    selected: list[str] = []
    while remaining:
        best = max(order, key=lambda s: (len(covers[s] & remaining), -order.index(s)))
        selected.append(best)
        remaining -= covers[best]
    return selected


def baseline_integrate(
    report: MatchReport,
    sources: dict[str, RawTable],
    schema: TargetSchema,
    key_kinds: dict[str, CanonKind] | None = None,
    dictionaries: DictionaryStore | None = None,
) -> TargetTable:
    """Exact equi-join over the matched key columns, remaining matched
    columns projected; written through the shared table writer.

    Every selected source must have matched all target key attributes
    against its own columns, or the join key cannot be stated for its rows.
    """
    missing_keys = [k for k in schema.key_attributes if k not in report.best]
    if missing_keys:
        raise UncoverableAttribute(missing_keys)
    key_kinds = key_kinds or {}
    selected = select_sources(report.best)
    table = TargetTable(schema)
    keys = schema.key_attributes
    # Canonical form by key attribute and raw value, for this call only.
    forms: dict[str, dict[str, str]] = {k: {} for k in keys}
    for source_id in selected:
        raw = sources[source_id]
        # A repeated name reads its first column, the one signing read.
        index = raw.header.index
        key_cols = []
        for k in keys:
            match = report.per_source.get((k, source_id))
            if match is None:
                raise UncoverableAttribute(
                    f"source {source_id!r} has no column matching key {k!r}"
                )
            key_cols.append((index(match.column), key_kinds.get(k, NONE), forms[k]))
        value_cols = [
            (a, index(report.best[a].column))
            for a in schema.attributes
            if a not in keys and a in report.best and report.best[a].source_id == source_id
        ]
        for row in raw.rows:
            key = []
            for i, kind, seen in key_cols:
                form = seen.get(row[i])
                if form is None:
                    form = seen[row[i]] = canonicalize(row[i], kind, dictionaries)
                key.append(form)
            present = [(a, row[i]) for a, i in value_cols if not is_missing(row[i])]
            if present:
                table.write(
                    tuple(key), [a for a, _ in present], [v for _, v in present], AggMode.REPLACE
                )
    return table


def storage_report(n_columns: int, L: int) -> int:
    """Signature-store footprint in bytes: columns x L x 4-byte minima."""
    return n_columns * L * 4


class IndexEntry(NamedTuple):
    """Where one column's minima sit in the signature store."""

    source: str
    column: str
    L: int
    offset: int


def save_signatures(
    signatures: dict[tuple[str, str], MinHashSignature], path: str | Path
) -> None:
    """Binary store of little-endian 32-bit minima plus a JSON index."""
    path = Path(path)
    index = []
    with open(path, "wb") as fh:
        offset = 0
        for (source, column), sig in signatures.items():
            fh.write(np.asarray(sig.values, "<u4").tobytes())
            index.append(IndexEntry(source, column, sig.L, offset)._asdict())
            offset += sig.L * 4
    with open(path.with_suffix(path.suffix + ".index.json"), "w", encoding="utf-8") as fh:
        json.dump(index, fh, indent=1)


def load_signatures(path: str | Path) -> dict[tuple[str, str], MinHashSignature]:
    """The store ``save_signatures`` wrote at ``path``; a missing file, or
    one too short for its index, raises MalformedRecord naming it."""
    path = Path(path)
    index = read_json(path.with_suffix(path.suffix + ".index.json"), list[IndexEntry])
    with open_file(path, "rb") as fh:
        blob = fh.read()
    try:
        return {
            (e.source, e.column): MinHashSignature(
                np.frombuffer(blob, "<u4", e.L, e.offset).tolist(), e.L
            )
            for e in index
        }
    except ValueError as exc:
        raise MalformedRecord(f"{path}: {exc}") from exc
