"""Canonicalization: date/number/dictionary normalization and idempotence."""

import datetime
from decimal import Decimal

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from supercell.canon import (
    CanonCounters,
    CanonKind,
    DATE,
    NUMBER,
    SynonymDictionary,
    UnknownDictionary,
    canonical_number,
    canonicalize,
    iso_date,
    long_date,
    parse_date,
)


@pytest.fixture
def us_states():
    d = SynonymDictionary("us_states", [["arizona", "az"], ["new york", "ny"]])
    return {"us_states": d}


class TestDates:
    def test_mdy_with_time(self):
        assert canonicalize("1/22/2020 17:00", DATE) == "2020-01-22 17:00:00"

    def test_iso_datetime_unchanged(self):
        assert canonicalize("2020-09-25 04:23:21", DATE) == "2020-09-25 04:23:21"

    def test_mdy_date_only(self):
        assert canonicalize("1/23/2020", DATE) == "2020-01-23"

    def test_compact(self):
        assert canonicalize("10062020", DATE) == "2020-10-06"

    def test_month_name(self):
        assert canonicalize("Oct 6, 2020", DATE) == "2020-10-06"

    def test_unparseable_counts_warning(self):
        counters = CanonCounters()
        assert canonicalize("not a date", DATE, counters=counters) == "not a date"
        assert counters.unparseable_date == 1

    def test_invalid_day_passes_through(self):
        assert parse_date("2/30/2020") is None
        assert canonicalize("2/30/2020", DATE) == "2/30/2020"

    def test_long_date_rendering(self):
        assert long_date("2020-10-06") == "Oct 6, 2020"
        assert long_date("not a date") == "not a date"

    @pytest.mark.parametrize("text, expected", [
        ("Jun 3, 2020", "2020-06-03"), ("JUNE 3 2020", "2020-06-03"),
        ("sep 6, 2020", "2020-09-06"), ("Sept. 6, 2020", "2020-09-06"),
        ("September 6, 2020", "2020-09-06"), ("May. 1, 2020", "2020-05-01"),
    ])
    def test_month_words(self, text, expected):
        assert canonicalize(text, DATE) == expected

    @pytest.mark.parametrize("text", [
        "Junk 3, 2020", "Decade 5, 2020", "Octopus 6, 2020", "Septem 6, 2020", "Marc 1, 2020",
    ])
    def test_a_word_that_only_starts_like_a_month_is_no_month(self, text):
        assert parse_date(text) is None


MONTHS = ["January", "February", "March", "April", "May", "June", "July", "August",
          "September", "October", "November", "December"]


@given(st.dates(min_value=datetime.date(1000, 1, 1)), st.times())
@settings(max_examples=300, deadline=None)
def test_valid_dates_round_trip_through_every_form(day, clock):
    """A calendar date parses back to itself from its ISO, M/D/Y, MMDDYYYY,
    ``long_date`` and full month name forms, with a time where the form
    takes one."""
    iso = day.isoformat()
    y, m, d = day.year, day.month, day.day
    for form in (iso, f"{m}/{d}/{y}", f"{m:02d}{d:02d}{y}", long_date(iso),
                 f"{MONTHS[m - 1]} {d}, {y}"):
        assert iso_date(parse_date(form)) == iso
    stamp = f"{iso} {clock:%H:%M:%S}"
    assert iso_date(parse_date(stamp)) == stamp
    assert iso_date(parse_date(f"{m}/{d}/{y} {clock.hour}:{clock:%M}")) == f"{iso} {clock:%H:%M}:00"


@given(st.integers(1000, 9999), st.one_of(st.integers(1, 12), st.integers(0, 99)),
       st.one_of(st.integers(28, 32), st.integers(0, 99)))
@example(2021, 2, 29)
@example(2020, 13, 1)
@settings(max_examples=300, deadline=None)
def test_impossible_day_or_month_is_no_date(y, m, d):
    try:
        datetime.date(y, m, d)
    except ValueError:
        pass
    else:
        assume(False)
    forms = [f"{y}-{m:02d}-{d:02d}", f"{m}/{d}/{y}", f"{m:02d}{d:02d}{y}"]
    if 1 <= m <= 12:
        forms.append(f"{MONTHS[m - 1][:3]} {d}, {y}")
    for form in forms:
        assert parse_date(form) is None, form


@given(st.dates(min_value=datetime.date(1000, 1, 1)), st.integers(0, 99), st.integers(0, 99),
       st.integers(0, 99))
@example(datetime.date(2020, 1, 1), 24, 0, 0)
@example(datetime.date(2020, 1, 1), 0, 60, 0)
@example(datetime.date(2020, 1, 1), 0, 0, 60)
@settings(max_examples=300, deadline=None)
def test_impossible_time_is_no_date(day, hh, mi, ss):
    assume(hh > 23 or mi > 59 or ss > 59)
    assert parse_date(f"{day.isoformat()} {hh:02d}:{mi:02d}:{ss:02d}") is None
    if hh > 23 or mi > 59:
        assert parse_date(f"{day.month}/{day.day}/{day.year} {hh}:{mi:02d}") is None


class TestNumbers:
    def test_thousands_separator(self):
        assert canonicalize("3,103", NUMBER) == "3103"

    def test_trailing_percent(self):
        assert canonicalize("14.9%", NUMBER) == "14.9"

    def test_trailing_zeros_trimmed(self):
        assert canonicalize("14.90", NUMBER) == "14.9"

    def test_negative(self):
        assert canonicalize("-12", NUMBER) == "-12"

    def test_non_numeric_passes_through(self):
        counters = CanonCounters()
        assert canonicalize("n/a value", NUMBER, counters=counters) == "n/a value"
        assert counters.unparseable_number == 1

    def test_thirty_digit_number_is_exact(self):
        text = "123456789012345678901234567890"
        assert canonical_number(text) == text
        assert canonical_number(canonical_number(text)) == text
        assert canonical_number("1,234,567,890,123,456,789,012,345,678.90") == (
            "1234567890123456789012345678.9")

    def test_canonical_number_rejects_garbage(self):
        assert canonical_number("12x") is None
        assert canonical_number("") is None

    @pytest.mark.parametrize("text", ["-0", "-0.0", "-00.000", "0.00", "+0", "-0%"])
    def test_every_zero_is_one_form(self, text):
        assert canonical_number(text) == "0"

    @given(
        st.text("0123456789", min_size=1, max_size=8),
        st.text("0123456789", max_size=8),
        st.sampled_from(["", "+", "-"]),
        st.sampled_from(["", "+", "-"]),
        st.integers(0, 3),
        st.integers(0, 3),
    )
    @example("0", "", "-", "", 0, 0)
    @settings(max_examples=300, deadline=None)
    def test_one_number_one_form(self, whole, frac, sign, other_sign, lead, trail):
        """Two spellings of one number, the second with leading and
        trailing zeros and, for a zero, any sign, share one canonical form,
        which is a fixed point."""
        text = sign + whole + (f".{frac}" if frac else "")
        if Decimal(f"{whole}.{frac}0") and (sign == "-") != (other_sign == "-"):
            other_sign = sign
        respelled = f"{other_sign}{'0' * lead}{whole}.{frac}{'0' * trail}"
        once = canonical_number(text)
        assert Decimal(once) == Decimal(text)
        assert canonical_number(respelled) == once
        assert canonical_number(once) == once


class TestDictionary:
    def test_abbreviation_resolves_to_head(self, us_states):
        kind = CanonKind("dict", "us_states")
        assert canonicalize("AZ", kind, us_states) == "arizona"

    def test_head_resolves_to_itself(self, us_states):
        kind = CanonKind("dict", "us_states")
        assert canonicalize("Arizona", kind, us_states) == "arizona"

    def test_miss_lowercases(self, us_states):
        kind = CanonKind("dict", "us_states")
        assert canonicalize("Oregon", kind, us_states) == "oregon"

    def test_missing_dictionary_raises(self):
        with pytest.raises(UnknownDictionary):
            canonicalize("AZ", CanonKind("dict", "nope"), {})

    def test_siblings(self, us_states):
        assert us_states["us_states"].siblings("arizona") == ["az"]
        assert us_states["us_states"].siblings("oregon") == []


class TestNone:
    def test_lowercase_trim(self):
        assert canonicalize("  New York ") == "new york"


@given(
    st.sampled_from(["none", "date", "number"]),
    st.text(
        alphabet=st.characters(min_codepoint=32, max_codepoint=126),
        min_size=0, max_size=24,
    ),
)
@settings(max_examples=300, deadline=None)
def test_idempotence(kind_name, value):
    kind = CanonKind(kind_name)
    once = canonicalize(value, kind)
    assert canonicalize(once, kind) == once


@given(st.text(alphabet="abcdefghij xyz", min_size=0, max_size=16))
@settings(max_examples=100, deadline=None)
def test_dictionary_idempotence(value):
    dicts = {"d": SynonymDictionary("d", [["abc", "xyz"], ["hij", "de"]])}
    kind = CanonKind("dict", "d")
    once = canonicalize(value, kind, dicts)
    assert canonicalize(once, kind, dicts) == once


def test_kind_parse_render_round_trip():
    for text in ("none", "date", "number", "dict:us_states"):
        assert CanonKind.parse(text).render() == text


def test_dict_kind_needs_a_dictionary_name():
    with pytest.raises(ValueError, match="requires a dictionary name"):
        CanonKind.parse("dict:")
