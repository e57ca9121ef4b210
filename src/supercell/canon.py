"""Value canonicalization: dates, numbers, and dictionary-backed synonyms.

Every value that enters a key comparison goes through ``canonicalize`` so
that surface-form changes in a source (date format cycles, region
abbreviations, thousands separators) collapse to a single canonical string.
Canonicalization is idempotent for every kind: applying it twice never
changes the result again.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal
from pathlib import Path

from .core import DataError, read_json, write_json

# Decimal arithmetic that keeps every digit: addition, quantization and
# normalization under it are exact however long the number. Division may
# not terminate, so it never runs under this context.
EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)


class UnknownDictionary(DataError, KeyError):
    """A Dictionary(name) canonicalizer references a dictionary that is not loaded."""


@dataclass(frozen=True, slots=True)
class CanonKind:
    """How a column's values are normalized.

    ``kind`` is one of ``none``, ``date``, ``number``, ``dict``; the ``dict``
    kind carries the name of a loaded synonym dictionary.
    """

    kind: str = "none"
    dictionary: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("none", "date", "number", "dict"):
            raise ValueError(f"unknown canon kind: {self.kind!r}")
        if self.kind == "dict" and not self.dictionary:
            raise ValueError("dict canon kind requires a dictionary name")

    @staticmethod
    def parse(text: str) -> "CanonKind":
        """Parse the JSON encoding: "none", "date", "number", or "dict:<name>"."""
        if text.startswith("dict:"):
            return CanonKind("dict", text.split(":", 1)[1])
        return CanonKind(text)

    def render(self) -> str:
        if self.kind == "dict":
            return f"dict:{self.dictionary}"
        return self.kind


NONE = CanonKind("none")
DATE = CanonKind("date")
NUMBER = CanonKind("number")


class SynonymDictionary:
    """Groups of interchangeable surface forms; the first entry of each group
    is the canonical head term.

    The on-disk form, which ``load`` checks, is a JSON array of arrays of
    strings.
    """

    def __init__(self, name: str, groups: list[list[str]]):
        self.name = name
        self.groups = [[str(t) for t in g] for g in groups if g]
        self._head: dict[str, str] = {}
        self._group_of: dict[str, list[str]] = {}
        for group in self.groups:
            head = group[0].strip().lower()
            for term in group:
                key = term.strip().lower()
                self._head[key] = head
                self._group_of[key] = group

    def head(self, value: str) -> str | None:
        """Canonical head for ``value`` (case-insensitive), or None if absent."""
        return self._head.get(value.strip().lower())

    def group(self, value: str) -> list[str] | None:
        return self._group_of.get(value.strip().lower())

    def siblings(self, value: str) -> list[str]:
        """Other members of the value's group, excluding the value itself."""
        group = self.group(value)
        if group is None:
            return []
        low = value.strip().lower()
        return [t for t in group if t.strip().lower() != low]

    @staticmethod
    def load(name: str, path: str | Path) -> "SynonymDictionary":
        return SynonymDictionary(name, read_json(path, list[list[str]]))

    def dump(self, path: str | Path) -> None:
        write_json(self.groups, path)


DictionaryStore = dict[str, SynonymDictionary]


_MONTH_NAMES = ["January", "February", "March", "April", "May", "June", "July",
                "August", "September", "October", "November", "December"]
_MONTH_ABBR = [name[:3] for name in _MONTH_NAMES]
# The month words parse_date accepts: a month's 3-letter abbreviation,
# "sept", or its full name, in any case.
_MONTH_INDEX = {word.lower(): i + 1 for i, name in enumerate(_MONTH_NAMES)
                for word in (name, name[:3])} | {"sept": 9}

_RE_ISO = re.compile(r"^(\d{4})-(\d{2})-(\d{2})(?:[ T](\d{2}):(\d{2}):(\d{2}))?$")
_RE_MDY = re.compile(r"^(\d{1,2})/(\d{1,2})/(\d{4})(?:\s+(\d{1,2}):(\d{2}))?$")
_RE_COMPACT = re.compile(r"^(\d{2})(\d{2})(\d{4})$")
_RE_MONTH_NAME = re.compile(r"^([A-Za-z]{3,9})\.?\s+(\d{1,2}),?\s+(\d{4})$")
_RE_NUMBER = re.compile(r"^[+-]?(\d+(\.\d*)?|\.\d+)$")


def _valid_ymd(y: int, m: int, d: int) -> bool:
    if not (1 <= m <= 12 and 1 <= d <= 31):
        return False
    days = [31, 29 if (y % 4 == 0 and (y % 100 != 0 or y % 400 == 0)) else 28,
            31, 30, 31, 30, 31, 31, 30, 31, 30, 31]
    return d <= days[m - 1]


def parse_date(value: str) -> tuple[int, int, int, int | None, int | None, int | None] | None:
    """Parse a date in any accepted input format; None if unrecognized.

    Accepted: ISO YYYY-MM-DD[ HH:MM:SS], M/D/YYYY[ H:MM], MMDDYYYY,
    and month-name forms like "Oct 6, 2020", "Sept. 6 2020" or "October 6,
    2020"; a month word is a month's 3-letter abbreviation, "sept" or its
    full name. Each form is read into one (year, month, day, clock), which
    one calendar check and one clock check then validate.
    """
    text = value.strip()
    clock = (None, None, None)
    if m := _RE_ISO.match(text):
        y, mo, d = int(m[1]), int(m[2]), int(m[3])
        if m[4] is not None:
            clock = (int(m[4]), int(m[5]), int(m[6]))
    elif m := _RE_MDY.match(text):
        mo, d, y = int(m[1]), int(m[2]), int(m[3])
        if m[4] is not None:
            clock = (int(m[4]), int(m[5]), 0)
    elif m := _RE_COMPACT.match(text):
        mo, d, y = int(m[1]), int(m[2]), int(m[3])
    elif m := _RE_MONTH_NAME.match(text):
        # An unknown month word reads as month 0, which _valid_ymd rejects.
        mo, d, y = _MONTH_INDEX.get(m[1].lower(), 0), int(m[2]), int(m[3])
    else:
        return None
    hh, mi, ss = clock
    if not _valid_ymd(y, mo, d) or hh is not None and (hh > 23 or mi > 59 or ss > 59):
        return None
    return (y, mo, d, hh, mi, ss)


def iso_date(parts: tuple[int, int, int, int | None, int | None, int | None]) -> str:
    y, mo, d, hh, mi, ss = parts
    base = f"{y:04d}-{mo:02d}-{d:02d}"
    if hh is None:
        return base
    return f"{base} {hh:02d}:{mi:02d}:{ss:02d}"


def long_date(canonical: str) -> str:
    """Render a canonical ISO date as e.g. "Oct 6, 2020". Time parts dropped."""
    parts = parse_date(canonical)
    if parts is None:
        return canonical
    y, mo, d = parts[0], parts[1], parts[2]
    return f"{_MONTH_ABBR[mo - 1]} {d}, {y}"


def canonical_number(value: str) -> str | None:
    """Canonical decimal form, or None if the text is not numeric.

    Strips thousands separators and a trailing percent sign; trims trailing
    fractional zeros so "14.90" and "14.9" collapse to one form. Every zero,
    signed or not, is "0".
    """
    text = value.strip().replace(",", "")
    if text.endswith("%"):
        text = text[:-1].strip()
    if not _RE_NUMBER.match(text):
        return None
    dec = Decimal(text)  # the pattern admits only text Decimal parses
    if dec.is_zero():
        return "0"
    return format(dec.normalize(EXACT), "f")


@dataclass
class CanonCounters:
    """Warning tallies for values that failed to parse and passed through."""

    unparseable_date: int = 0
    unparseable_number: int = 0


def canonicalize(
    value: str,
    kind: CanonKind = NONE,
    dictionaries: DictionaryStore | None = None,
    counters: CanonCounters | None = None,
) -> str:
    """Normalize one value according to ``kind``.

    Unparseable dates and numbers pass through unchanged (a warning is
    counted when ``counters`` is given); this never raises on bad data.
    """
    if kind.kind == "date":
        parts = parse_date(value)
        if parts is None:
            if counters is not None:
                counters.unparseable_date += 1
            return value
        return iso_date(parts)
    if kind.kind == "number":
        out = canonical_number(value)
        if out is None:
            if counters is not None:
                counters.unparseable_number += 1
            return value
        return out
    if kind.kind == "dict":
        if dictionaries is None or kind.dictionary not in dictionaries:
            raise UnknownDictionary(kind.dictionary)
        head = dictionaries[kind.dictionary].head(value)
        if head is not None:
            return head
        return value.strip().lower()
    return value.strip().lower()
