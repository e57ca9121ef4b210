"""Core data model: super cells, target schemas, positions, and labels.

A super cell is the atomic unit of source data: the keys shared by a group
of cells in one source tuple, plus the parallel attribute/value vectors of
that group. A target position addresses where a super cell's values land in
the target table (row key components, per-cell target attributes, and an
aggregation mode).

Key components are kept in source order on the cell but are always
*rendered and resolved* in canonical (lexicographic) order, so that two
decompositions of the same logical data — e.g. a table and its pivoted
form — produce identical feature sentences and identical COPY resolutions.

All types are immutable values and safe to share across threads.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import io
import json
import re
import time
import types
import typing
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np


class DataError(ValueError):
    """The base of every exception the program raises because of its inputs."""


class Record:
    """Base of the dataclasses that files hold: one JSON codec for all.

    ``to_dict`` writes the fields in declaration order: tuples as lists,
    enums as their values, nested records and named tuples as objects, and
    a ``Path`` or a type with ``parse(text)`` and ``render()``
    (``CanonKind``) as its string; an ``object`` field holds any JSON value.
    ``from_dict`` rebuilds through the constructor, so ``__post_init__``
    checks run; a value of the wrong shape (an object where an array
    belongs, or the reverse), a scalar field of the wrong JSON type or a
    missing required field raises TypeError, and an unknown key raises
    KeyError. The per-type codecs are derived once from the type hints and
    cached."""

    __slots__ = ()

    def to_dict(self) -> dict:
        return _codec(type(self))[0](self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), ensure_ascii=False)

    @classmethod
    def from_dict(cls, obj: dict):
        return _codec(cls)[1](obj)

    @classmethod
    def from_json(cls, text: str):
        return cls.from_dict(json.loads(text))


# A codec is (encode, decode). Scalars encode as themselves (encode None),
# and their decoder checks the JSON type, also of each element of an array
# or a map.
_Codec = tuple[Callable | None, Callable]
# The JSON values each scalar type admits: a bool is never a number, and an
# int passes for a float (and is stored as one).
_SCALARS = {str: (str,), int: (int,), float: (int, float), bool: (bool,),
            type(None): (type(None),)}


def _expect(value, kind: type, what):
    if not isinstance(value, kind):
        raise TypeError(f"{what} must be a JSON {'object' if kind is dict else 'array'}, "
                        f"got {type(value).__name__}")
    return value


def _scalar_decoder(members: tuple) -> Callable:
    admitted = tuple(t for m in members for t in _SCALARS[m])
    names = " or ".join(m.__name__ for m in members)

    def decode(v):
        if not isinstance(v, admitted) or (type(v) is bool and bool not in members):
            raise TypeError(f"must be {names}, got {v!r}")
        return float(v) if type(v) is int and float in members else v

    return decode


@functools.cache
def _codec(tp) -> _Codec:
    if tp is object:  # any JSON value, decoded as parsed
        return None, lambda v: v
    if tp is Path:
        text = _scalar_decoder((str,))
        return str, lambda v: Path(text(v))
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    members = args if origin in (typing.Union, types.UnionType) else (tp,)
    if all(m in _SCALARS for m in members):
        return None, _scalar_decoder(members)
    if len(members) > 1:
        (inner,) = [m for m in members if m is not type(None)]
        enc, dec = _codec(inner)
        return (lambda v: None if v is None else enc(v)), (lambda v: None if v is None else dec(v))
    if origin in (tuple, list):  # tuple[X, ...] or list[X]
        enc, dec = _codec(args[0])
        return (
            (lambda v: [enc(x) for x in v]) if enc else list,
            lambda v: origin(map(dec, _expect(v, list, tp))),
        )
    if origin is dict:  # dict[str, X]
        enc, dec = _codec(args[1])
        return (
            (lambda v: {k: enc(x) for k, x in v.items()}) if enc else dict,
            lambda v: {k: dec(x) for k, x in _expect(v, dict, tp).items()},
        )
    if issubclass(tp, Enum):
        return (lambda v: v.value), tp
    if hasattr(tp, "parse") and hasattr(tp, "render"):
        text = _scalar_decoder((str,))
        return tp.render, lambda v: tp.parse(text(v))
    return _object_codec(tp)


def _object_codec(tp) -> _Codec:
    """A record or named tuple as a JSON object of its fields."""
    hints = typing.get_type_hints(tp)
    is_record = dataclasses.is_dataclass(tp)
    names = [f.name for f in dataclasses.fields(tp) if f.init] if is_record else tp._fields
    encoders = [(name, _codec(hints[name])[0]) for name in names]
    decoders = {name: _codec(hints[name])[1] for name in names}

    def encode(value) -> dict:
        # A named-tuple field also writes a plain tuple of the same shape.
        items = [getattr(value, name) for name in names] if is_record else value
        return {name: enc(x) if enc else x for (name, enc), x in zip(encoders, items)}

    def decode(obj):
        kwargs = {}
        for name, value in _expect(obj, dict, tp.__name__).items():
            if name not in decoders:
                raise KeyError(f"unknown {tp.__name__} field {name!r}")
            try:
                kwargs[name] = decoders[name](value)
            except TypeError as exc:
                raise TypeError(f"{tp.__name__} field {name!r}: {exc}") from None
        try:
            return tp(**kwargs)
        except TypeError as exc:  # a required field is missing
            raise TypeError(f"{tp.__name__} {obj!r}: {exc}") from None

    return encode, decode


class AggMode(Enum):
    """How multiple values mapped to one target cell are merged."""

    SUM = "sum"
    AVG = "avg"
    MIN = "min"
    MAX = "max"
    COUNT = "count"
    REPLACE = "replace"
    DISCARD = "discard"
    CONCAT = "concat"


WILDCARD = "WILDCARD"
_COPY_RE = re.compile(r"^COPY\((\d+)\)$")


def copy_marker(index: int) -> str:
    """Key-label marker: copy of the cell's canonically ordered key component ``index``."""
    return f"COPY({index})"


def copy_index(entry: str | None) -> int | None:
    """The index inside a COPY marker, or None if ``entry`` is not one."""
    if entry is None or not entry.startswith("COPY("):
        return None
    m = _COPY_RE.match(entry)
    return int(m[1]) if m else None


class InvalidSuperCell(DataError):
    pass


class InvalidPosition(DataError):
    pass


class UnknownKeyValue(DataError, KeyError):
    """A literal key label is neither in the slot's domain nor a marker."""


@dataclass(frozen=True, slots=True)
class SuperCell(Record):
    """A group of cells from one source tuple that always travel together."""

    source_id: str
    keys: tuple[str, ...]
    attributes: tuple[str, ...]
    values: tuple[str, ...]
    row_ordinal: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "keys", tuple(self.keys))
        object.__setattr__(self, "attributes", tuple(self.attributes))
        object.__setattr__(self, "values", tuple(self.values))
        if len(self.attributes) != len(self.values) or not self.attributes:
            raise InvalidSuperCell(
                f"attributes/values must be parallel and nonempty, got "
                f"{len(self.attributes)}/{len(self.values)}"
            )
        if self.row_ordinal < 0:
            raise InvalidSuperCell("row_ordinal must be >= 0")

    @property
    def width(self) -> int:
        return len(self.values)

    def sorted_keys(self) -> tuple[str, ...]:
        """Key components in canonical (lexicographic, case-folded) order."""
        return tuple(sorted(self.keys, key=lambda k: k.strip().lower()))

    def signature(self) -> tuple:
        """Identity modulo key order and provenance; used for multiset comparison."""
        return (self.source_id, self.sorted_keys(), self.attributes, self.values)


class MalformedRecord(DataError):
    """An input file, or a line of one, that does not hold what its reader
    expects; the message names the file."""


def open_file(path: str | Path, mode: str = "r", **kwargs):
    """``open(path, mode, **kwargs)``; a missing file, a directory, or a
    path that runs through a file raises MalformedRecord naming it."""
    try:
        return open(path, mode, **kwargs)
    except FileNotFoundError as exc:
        raise MalformedRecord(f"{path}: no such file") from exc
    except IsADirectoryError as exc:
        raise MalformedRecord(f"{path}: a directory, not a file") from exc
    except NotADirectoryError as exc:
        raise MalformedRecord(f"{path}: a component of the path is a file") from exc


def read_text(path: str | Path) -> str:
    """The text of ``path``, its line ends as they are, without a leading
    byte-order mark (spreadsheet exports often begin with one); a file that
    is not UTF-8, or a path ``open_file`` rejects, raises MalformedRecord
    naming it."""
    try:
        with open_file(path, encoding="utf-8-sig", newline="") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise MalformedRecord(f"{path}: not UTF-8: {exc}") from exc


def read_json(path: str | Path, tp, error: type[Exception] = MalformedRecord):
    """The JSON file at ``path`` decoded as ``tp`` by the record codec; a file
    that is not UTF-8 or not JSON, or not a ``tp``, raises ``error`` naming
    it, and a path ``open_file`` rejects raises MalformedRecord naming it."""
    with open_file(path, encoding="utf-8") as fh:
        try:
            return _codec(tp)[1](json.load(fh))
        except (KeyError, TypeError, ValueError) as exc:
            raise error(f"{path}: {type(exc).__name__}: {exc}") from exc


def write_jsonl(records: Iterable, path: str | Path) -> int:
    """Write one ``record.to_json()`` per line; returns the record count."""
    lines = [record.to_json() + "\n" for record in records]
    Path(path).write_text("".join(lines), encoding="utf-8")
    return len(lines)


def read_jsonl(path: str | Path, record_type, check: Callable | None = None) -> list:
    """Every non-blank line of ``path`` as ``record_type.from_json(line)``.

    Raises MalformedRecord naming the file, and the line of the first bad
    line when the file is UTF-8. ``check(record)``, when given, runs on
    each record; a DataError it raises is raised again as its own type,
    its message prefixed with the file and line."""
    records = []
    for number, line in enumerate(read_text(path).split("\n"), 1):
        if not line.strip():
            continue
        try:
            record = record_type.from_json(line)
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedRecord(
                f"{path}:{number}: not a {record_type.__name__}: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        if check is not None:
            try:
                check(record)
            except DataError as exc:
                raise type(exc)(f"{path}:{number}: {exc.args[0]}") from exc
        records.append(record)
    return records


def csv_text(header: Sequence, rows: Iterable[Sequence]) -> str:
    """The one CSV rendering: a header row, then ``rows``, each line ending in LF."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def write_csv(header: Sequence, rows: Iterable[Sequence], path: str | Path) -> None:
    Path(path).write_text(csv_text(header, rows), encoding="utf-8", newline="")


def write_json(obj, path: str | Path) -> None:
    """The one writer of JSON files (reports, specs, dictionaries): UTF-8,
    one-space indent, keys in the object's order, trailing newline."""
    Path(path).write_text(json.dumps(obj, ensure_ascii=False, indent=1) + "\n", encoding="utf-8")


class Timings(dict):
    """Wall-clock seconds of named stage blocks. Hardware-bound, so they go
    to ``timings.json`` apart from the deterministic reports."""

    @contextmanager
    def block(self, name: str) -> Iterator[None]:
        """Time the body under ``name``; a body that raises records nothing."""
        started = time.perf_counter()
        yield
        self[name] = time.perf_counter() - started

    def write(self, out_dir: str | Path) -> None:
        write_json(self, Path(out_dir) / "timings.json")


@dataclass(frozen=True)
class KeyDomain(Record):
    """Admissible canonical values for one target key attribute.

    An open domain also admits values produced by COPY resolution that were
    never listed (new dates, for example).
    """

    values: tuple[str, ...] = ()
    open: bool = False


@dataclass(frozen=True)
class TargetSchema(Record):
    """Schema of the user-specified target table.

    ``agg_modes`` names how each value attribute merges the values that
    land in one cell; an attribute it does not name is REPLACE."""

    attributes: tuple[str, ...]
    key_attributes: tuple[str, ...]
    key_domains: dict[str, KeyDomain] = field(default_factory=dict)
    agg_modes: dict[str, AggMode] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "attributes", tuple(self.attributes))
        object.__setattr__(self, "key_attributes", tuple(self.key_attributes))
        missing = [k for k in self.key_attributes if k not in self.attributes]
        if missing:
            raise ValueError(f"key attributes not in attributes: {missing}")
        if not self.key_attributes:
            raise ValueError("at least one key attribute is required")
        stray = sorted(set(self.agg_modes) - set(self.value_attributes))
        if stray:
            raise ValueError(f"agg_modes names no value attribute: {stray}")

    def agg_mode(
        self, attributes: Sequence[str | None], keys: Sequence[str | None], n_components: int
    ) -> AggMode:
        """The one rule for a position's mode: DISCARD when every attribute
        is NULL; SUM when the cell has more key components than ``keys``
        has non-WILDCARD slots (a finer source, such as county rows under
        a state, rolls up); otherwise the mode of its first mapped
        attribute."""
        mapped = next((a for a in attributes if a is not None), None)
        if mapped is None:
            return AggMode.DISCARD
        if n_components > len(keys) - keys.count(WILDCARD):
            return AggMode.SUM
        return self.agg_modes.get(mapped, AggMode.REPLACE)

    @property
    def q(self) -> int:
        return len(self.key_attributes)

    @property
    def value_attributes(self) -> tuple[str, ...]:
        """Non-key attributes in schema order (the written cell columns)."""
        keyset = set(self.key_attributes)
        return tuple(a for a in self.attributes if a not in keyset)

    def domain(self, key_attr: str) -> KeyDomain:
        return self.key_domains.get(key_attr, KeyDomain(open=True))

    def closed_values(self) -> list[frozenset[str] | None]:
        """Per key attribute, the values of its closed domain; None where
        the domain is open."""
        return [
            None if d.open else frozenset(d.values) for d in map(self.domain, self.key_attributes)
        ]


@dataclass(frozen=True, slots=True)
class TargetPosition(Record):
    """A prediction label: where one super cell lands in the target table.

    ``keys`` has one entry per target key attribute: a literal canonical
    value, None (NULL), a COPY(i) marker, or WILDCARD (broadcast across all
    existing rows matching the other components). ``attributes`` parallels
    the super cell's values; None entries discard that cell. An all-None
    attribute vector denotes "discard the whole super cell" and requires
    all-None keys.
    """

    keys: tuple[str | None, ...]
    attributes: tuple[str | None, ...]
    agg_mode: AggMode

    def __post_init__(self) -> None:
        object.__setattr__(self, "keys", tuple(self.keys))
        object.__setattr__(self, "attributes", tuple(self.attributes))
        if not self.attributes:
            raise InvalidPosition("attributes must be nonempty")
        if self.is_discard:
            if any(k is not None for k in self.keys):
                raise InvalidPosition("all-NULL attributes require all-NULL keys")
            object.__setattr__(self, "agg_mode", AggMode.DISCARD)

    @property
    def is_discard(self) -> bool:
        return self.attributes.count(None) == len(self.attributes)


def discard_position(q: int, width: int) -> TargetPosition:
    return TargetPosition(
        keys=(None,) * q, attributes=(None,) * width, agg_mode=AggMode.DISCARD
    )


KEY, ATTR, VAL = "KEY", "ATTR", "VAL"


@dataclass(frozen=True, slots=True)
class FeatureSentence(Record):
    """Tokenized rendering of a super cell, with per-token segment tags."""

    tokens: tuple[str, ...]
    segment_tags: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "tokens", tuple(self.tokens))
        object.__setattr__(self, "segment_tags", tuple(self.segment_tags))
        if len(self.tokens) != len(self.segment_tags) or not self.tokens:
            raise ValueError("tokens and segment_tags must be parallel and nonempty")


def tokenize(text: str) -> list[str]:
    """Lower-case and split on whitespace; punctuation stays inside tokens."""
    return text.strip().lower().split()


_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def fnv1a64_spans(blob: bytes, start: np.ndarray, span: np.ndarray) -> np.ndarray:
    """Deterministic, platform-independent 64-bit FNV-1a hash of each byte
    span ``blob[start[i] : start[i] + span[i]]``, as uint64. One pass per
    byte position of the longest span, each over every span at once."""
    data = np.frombuffer(blob, np.uint8)
    acc = np.full(len(start), _FNV_OFFSET, np.uint64)
    for k in range(int(np.max(span, initial=0))):
        live = span > k
        byte = data[np.where(live, start + k, 0)]
        acc = np.where(live, (acc ^ byte) * np.uint64(_FNV_PRIME), acc)
    return acc


def fnv1a64(text: str) -> int:
    """``fnv1a64_spans`` of one string's UTF-8 bytes."""
    blob = text.encode("utf-8")
    return int(fnv1a64_spans(blob, np.zeros(1, np.int64), np.array([len(blob)]))[0])


def runs(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For consecutive runs of ``counts[i]`` items: each item's run index
    and its position within its run."""
    run = np.repeat(np.arange(len(counts)), counts)
    return run, np.arange(len(run)) - (np.cumsum(counts) - counts)[run]


def ngram_hashes(
    texts: list[str], text: np.ndarray, offset: np.ndarray, width: np.ndarray
) -> np.ndarray:
    """``fnv1a64`` of each character n-gram
    ``texts[text[i]][offset[i] : offset[i] + width[i]]``, without building
    the n-gram strings: the texts are joined into one UTF-8 blob, and an
    n-gram is the byte span from its first character's lead byte (any byte
    but a ``10xxxxxx`` continuation byte) to the lead byte after its last.
    A lone surrogate raises ``UnicodeEncodeError``, as ``str.encode`` does."""
    blob = "".join(texts).encode("utf-8")
    lead = np.flatnonzero((np.frombuffer(blob, np.uint8) & 0xC0) != 0x80)
    lead = np.append(lead, len(blob))
    n_chars = np.fromiter(map(len, texts), np.int64, len(texts))
    first = (np.cumsum(n_chars) - n_chars)[text] + offset
    start = lead[first]
    return fnv1a64_spans(blob, start, lead[first + width] - start)


def feature_texts(cell: SuperCell, sorted_keys: tuple[str, ...]) -> Iterator[tuple[str, str]]:
    """The texts of a cell's feature sentence, each with its segment tag, in
    sentence order: the key components in canonical order (``sorted_keys``,
    the cell's ``sorted_keys()``), then each attribute name followed by its
    value. The one owner of that order."""
    for component in sorted_keys:
        yield component, KEY
    for attr, value in zip(cell.attributes, cell.values):
        yield attr, ATTR
        yield value, VAL


def render_feature(cell: SuperCell) -> FeatureSentence:
    """Render a super cell as the sentence the classifier consumes: the
    tokens of its ``feature_texts``, each tagged with its text's segment.

    The result does not depend on the order columns appeared in the source
    file, nor on pivoting.
    """
    tokens: list[str] = []
    tags: list[str] = []
    for text, tag in feature_texts(cell, cell.sorted_keys()):
        for tok in tokenize(text):
            tokens.append(tok)
            tags.append(tag)
    return FeatureSentence(tuple(tokens), tuple(tags))


class LabelSpace:
    """Classifier head vocabularies for a target schema.

    One head per target key attribute (domain values plus NULL, COPY(i) up
    to ``max_copy`` components, and WILDCARD), then one head per cell slot
    up to ``max_width`` (target attributes plus NULL). No head learns the
    aggregation mode: ``decode`` takes it from ``TargetSchema.agg_mode``.
    The head layout is known only here: ``render`` and ``decode`` convert
    between positions and flat per-head class ids, and ``live_heads`` names
    the heads a cell of a given width is scored on (``live_mask`` for many
    cells at once).
    """

    def __init__(self, schema: TargetSchema, max_copy: int, max_width: int):
        self.schema = schema
        self.max_copy = max_copy
        self.max_width = max_width
        self.key_vocabs: list[list[str | None]] = []
        for attr in schema.key_attributes:
            vocab: list[str | None] = [None]
            vocab.extend(copy_marker(i) for i in range(max_copy))
            vocab.append(WILDCARD)
            vocab.extend(sorted(schema.domain(attr).values))
            self.key_vocabs.append(vocab)
        self.attr_vocab: list[str | None] = [None] + list(schema.attributes)
        self._key_index = [
            {v: i for i, v in enumerate(vocab)} for vocab in self.key_vocabs
        ]
        self._attr_index = {v: i for i, v in enumerate(self.attr_vocab)}

    @property
    def head_sizes(self) -> list[int]:
        return [len(v) for v in self.key_vocabs] + [len(self.attr_vocab)] * self.max_width

    def live_heads(self, width: int) -> list[int]:
        """Heads scored for a cell of ``width`` values: every key head and
        the first ``width`` attribute slots (at most ``max_width``)."""
        return list(range(self.schema.q + min(width, self.max_width)))

    def live_mask(self, widths: Sequence[int]) -> np.ndarray:
        """``(len(widths), heads)`` bools, row ``i`` true on
        ``live_heads(widths[i])``; each distinct width is expanded once."""
        distinct, inverse = np.unique(np.asarray(widths, dtype=np.int64), return_inverse=True)
        rows = np.zeros((len(distinct), len(self.head_sizes)), dtype=bool)
        for row, width in zip(rows, distinct.tolist()):
            row[self.live_heads(width)] = True
        return rows[inverse]

    def render(self, pos: TargetPosition) -> tuple[int, ...]:
        """Encode a position as one class id per head: keys, then
        ``max_width`` attribute slots (NULL past the cell's width).

        Raises UnknownKeyValue for a literal key outside the slot's domain
        and InvalidPosition for arity mismatches.
        """
        if len(pos.keys) != self.schema.q:
            raise InvalidPosition(
                f"position has {len(pos.keys)} keys, schema expects {self.schema.q}"
            )
        if len(pos.attributes) > self.max_width:
            raise InvalidPosition(
                f"cell width {len(pos.attributes)} exceeds max {self.max_width}"
            )
        ids = []
        for slot, entry in enumerate(pos.keys):
            idx = self._key_index[slot].get(entry)
            if idx is None:
                raise UnknownKeyValue(
                    f"key {entry!r} not admissible for "
                    f"{self.schema.key_attributes[slot]!r}"
                )
            ids.append(idx)
        for entry in pos.attributes:
            if entry is not None and entry not in self._attr_index:
                raise InvalidPosition(f"unknown target attribute {entry!r}")
            ids.append(self._attr_index[entry])
        ids.extend([0] * (self.max_width - len(pos.attributes)))
        return tuple(ids)

    def decode(self, ids: Sequence[int], width: int, n_components: int) -> TargetPosition:
        """The position a flat head vector names for a cell of ``width``
        values and ``n_components`` key components, under the schema's
        ``agg_mode``; a cell wider than ``max_width`` gets ``max_width``
        attributes."""
        live = [int(ids[h]) for h in self.live_heads(width)]
        q = self.schema.q
        keys = tuple(vocab[idx] for vocab, idx in zip(self.key_vocabs, live[:q]))
        attrs = tuple(self.attr_vocab[idx] for idx in live[q:])
        if all(a is None for a in attrs):
            return discard_position(q, len(attrs))
        return TargetPosition(keys, attrs, self.schema.agg_mode(attrs, keys, n_components))
