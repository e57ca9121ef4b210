"""Seeded synthetic fixtures: a two-source COVID-style integration task, a
three-OS machine-log union task, and a wide-table corpus for storage
comparisons. Every builder is a pure function of its seed."""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .canon import CanonKind, DictionaryStore, SynonymDictionary
from .core import KeyDomain, SuperCell, TargetSchema
from .ingest import (
    LogRule,
    Pivot,
    RawTable,
    SourceDescriptor,
    decompose,
    decompose_log,
    pivot_table,
)
from .mapping import KeyHierarchy, KeyMapEntry, MappingSpec


def packaged_dictionary(name: str) -> SynonymDictionary:
    return SynonymDictionary.load(name, resources.files("supercell") / f"data/{name}.json")


def covid_dictionaries() -> DictionaryStore:
    return {
        "covid_synonyms": packaged_dictionary("covid_synonyms"),
        "us_states": packaged_dictionary("us_states"),
    }


def log_dictionaries() -> DictionaryStore:
    return {"log_synonyms": packaged_dictionary("log_synonyms")}


def state_names() -> list[str]:
    return [group[0] for group in packaged_dictionary("us_states").groups]


@dataclass
class Fixture:
    """A complete integration scenario: raw tables (or log text), their
    descriptors inside the mapping spec, decomposed corpora, and the
    dictionaries the spec's canonicalizers reference."""

    spec: MappingSpec
    tables: dict[str, RawTable] = field(default_factory=dict)
    logs: dict[str, str] = field(default_factory=dict)
    corpora: dict[str, list[SuperCell]] = field(default_factory=dict)
    dictionaries: DictionaryStore = field(default_factory=dict)

    @property
    def parent_component(self) -> dict[str, int]:
        return self.spec.parent_components()

    def all_cells(self) -> list[SuperCell]:
        return self.spec.cells(self.corpora)


def _iso_dates(start: datetime.date, n: int) -> list[str]:
    """n consecutive calendar days from ``start``, as ISO dates."""
    return [(start + datetime.timedelta(days=i)).isoformat() for i in range(n)]


def build_covid_fixture(
    seed: int = 7, n_dates: int = 20, n_states: int | None = None
) -> Fixture:
    """Two daily-updated sources over ~50 regions x ``n_dates`` dates.

    The case-count source keys rows by (Date, Province/State,
    Country/Region) with two super-cell groups; the mobility source spells
    its key columns differently. Surfaces are clean and canonical here;
    format heterogeneity enters through perturbation plans. A sparse
    unmapped column provides discard examples.
    """
    rng = np.random.default_rng(seed)
    dictionaries = covid_dictionaries()
    states = state_names()
    if n_states is not None:
        states = states[:n_states]
    dates = _iso_dates(datetime.date(2020, 10, 1), n_dates)

    covid_rows = []
    mobility_rows = []
    for date in dates:
        for state in states:
            confirmed = int(rng.integers(50, 10000))
            recovered = int(rng.integers(10, confirmed + 10))
            deaths = int(rng.integers(0, 500))
            fips = str(int(rng.integers(1000, 99999))) if rng.random() < 0.2 else ""
            covid_rows.append(
                (date, state.title(), "United States", str(confirmed),
                 str(recovered), str(deaths), fips)
            )
            workplace = int(rng.integers(-80, 40))
            recreation = int(rng.integers(-80, 40))
            grocery = int(rng.integers(-60, 60))
            mobility_rows.append(
                (date, state.title(), "United States", str(workplace),
                 str(recreation), str(grocery))
            )

    covid_table = RawTable(
        ("Date", "Province/State", "Country/Region", "Confirmed", "Recovered",
         "Deaths", "Fips"),
        tuple(covid_rows),
    )
    mobility_table = RawTable(
        ("Time", "Sub Region", "Region", "Workplace", "Recreation", "Grocery"),
        tuple(mobility_rows),
    )

    dict_kind = CanonKind("dict", "covid_synonyms")
    covid_desc = SourceDescriptor(
        source_id="covid",
        format="csv",
        key_columns=("Date", "Province/State", "Country/Region"),
        supercell_groups=(("Confirmed", "Recovered"), ("Deaths",)),
        canonicalizers={
            "Date": CanonKind("date"),
            "Province/State": dict_kind,
            "Country/Region": dict_kind,
            "Confirmed": CanonKind("number"),
            "Recovered": CanonKind("number"),
            "Deaths": CanonKind("number"),
        },
    )
    mobility_desc = SourceDescriptor(
        source_id="mobility",
        format="csv",
        key_columns=("Time", "Sub Region", "Region"),
        supercell_groups=(("Workplace", "Recreation", "Grocery"),),
        canonicalizers={
            "Time": CanonKind("date"),
            "Sub Region": dict_kind,
            "Region": dict_kind,
            "Workplace": CanonKind("number"),
            "Recreation": CanonKind("number"),
            "Grocery": CanonKind("number"),
        },
    )

    schema = TargetSchema(
        attributes=("date", "state", "country", "confirmed", "recovered", "deaths",
                    "workplace", "recreation", "grocery"),
        key_attributes=("date", "state", "country"),
        key_domains={
            "date": KeyDomain((), open=True),
            "state": KeyDomain(tuple(sorted(states)), open=False),
            "country": KeyDomain(("united states",), open=False),
        },
    )
    hierarchy = KeyHierarchy(
        key_attr="state",
        children={s: (f"{s} north", f"{s} south") for s in states},
    )
    spec = MappingSpec(
        target=schema,
        sources=[covid_desc, mobility_desc],
        key_map={
            "covid": [
                KeyMapEntry("date", 0, CanonKind("date")),
                KeyMapEntry("state", 1, dict_kind),
                KeyMapEntry("country", 2, dict_kind),
            ],
            "mobility": [
                KeyMapEntry("date", 0, CanonKind("date")),
                KeyMapEntry("state", 1, dict_kind),
                KeyMapEntry("country", 2, dict_kind),
            ],
        },
        attr_map={
            "covid": {
                "confirmed": "confirmed",
                "recovered": "recovered",
                "deaths": "deaths",
            },
            "mobility": {
                "workplace": "workplace",
                "recreation": "recreation",
                "grocery": "grocery",
            },
        },
        key_hierarchy=hierarchy,
    )

    corpora = {
        "covid": decompose(covid_table, covid_desc, dictionaries),
        "mobility": decompose(mobility_table, mobility_desc, dictionaries),
    }
    return Fixture(
        spec=spec,
        tables={"covid": covid_table, "mobility": mobility_table},
        corpora=corpora,
        dictionaries=dictionaries,
    )


def build_pivoted_deaths(fixture: Fixture) -> tuple[RawTable, SourceDescriptor]:
    """The deaths view of the covid source, pivoted so dates become headers.

    Decomposing it reproduces the original deaths super cells; its columns
    contain no date values, which is what defeats column matching."""
    covid = fixture.tables["covid"]
    idx = {name: i for i, name in enumerate(covid.header)}
    deaths_rows = tuple(
        (row[idx["Date"]], row[idx["Province/State"]], row[idx["Country/Region"]],
         row[idx["Deaths"]])
        for row in covid.rows
    )
    deaths_table = RawTable(
        ("Date", "Province/State", "Country/Region", "Deaths"), deaths_rows
    )
    pivoted = pivot_table(
        deaths_table, ["Date", "Province/State", "Country/Region"], "Date"
    )
    dict_kind = CanonKind("dict", "covid_synonyms")
    desc = SourceDescriptor(
        source_id="covid",
        format="pivoted_csv",
        key_columns=("Province/State", "Country/Region"),
        pivot=Pivot(pivot_axis_name="Date", value_attr_name="Deaths"),
        canonicalizers={
            "Date": CanonKind("date"),
            "Province/State": dict_kind,
            "Country/Region": dict_kind,
            "Deaths": CanonKind("number"),
        },
    )
    return pivoted, desc


def covid_unpivoted_view(fixture: Fixture) -> tuple[RawTable, SourceDescriptor]:
    """The covid source without its Deaths column (the companion view when
    deaths arrive pivoted)."""
    covid = fixture.tables["covid"]
    keep = [i for i, name in enumerate(covid.header) if name != "Deaths"]
    table = RawTable(
        tuple(covid.header[i] for i in keep),
        tuple(tuple(row[i] for i in keep) for row in covid.rows),
    )
    desc = fixture.spec.descriptor("covid")
    groups = tuple(g for g in desc.supercell_groups if "Deaths" not in g)
    view_desc = SourceDescriptor(
        source_id=desc.source_id,
        format="csv",
        key_columns=desc.key_columns,
        supercell_groups=groups,
        canonicalizers=dict(desc.canonicalizers),
    )
    return table, view_desc


_MACOS_RULES = (
    LogRule(r"^Time: (?P<ts>\d{4}-\d{2}-\d{2} \d{2}:\d{2}:\d{2})$", {"ts": "ts"}),
    LogRule(
        r"^CPU usage: (?P<user>[\d.]+)% user, (?P<sys>[\d.]+)% sys, (?P<idle>[\d.]+)% idle",
        {},
        {"cpu_user": "user", "cpu_sys": "sys", "cpu_idle": "idle"},
    ),
    LogRule(
        r"^PhysMem: (?P<used>\d+)M used, (?P<free>\d+)M unused",
        {},
        {"mem_used": "used", "mem_free": "free"},
    ),
)

_UBUNTU_RULES = (
    LogRule(r"^top - (?P<ts>\d{4}-\d{2}-\d{2} \d{2}:\d{2}:\d{2})", {"ts": "ts"}),
    LogRule(
        r"^%Cpu\(s\): (?P<us>[\d.]+) us, (?P<sy>[\d.]+) sy, (?P<id>[\d.]+) id",
        {},
        {"cpu_us": "us", "cpu_sy": "sy", "cpu_id": "id"},
    ),
    LogRule(
        r"^MiB Mem : (?P<total>[\d.]+) total, (?P<free>[\d.]+) free, (?P<used>[\d.]+) used",
        {},
        {"mem_used_mib": "used", "mem_free_mib": "free"},
    ),
)

_ANDROID_RULES = (
    LogRule(r"^-- (?P<ts>\d{4}-\d{2}-\d{2} \d{2}:\d{2}:\d{2}) --$", {"ts": "ts"}),
    LogRule(
        r"^(?P<total>\d+)%cpu (?P<user>\d+)%user (?P<sys>\d+)%sys (?P<idle>\d+)%idle",
        {},
        {"pct_cpu_user": "user", "pct_cpu_sys": "sys", "pct_cpu_idle": "idle"},
    ),
    LogRule(
        r"^RAM: (?P<total>\d+)K total, (?P<used>\d+)K used, (?P<free>\d+)K free",
        {},
        {"ram_used_k": "used", "ram_free_k": "free"},
    ),
)


def build_log_fixture(seed: int = 11, n_stamps: int = 60) -> Fixture:
    """Three operating systems logging the same metrics in different line
    formats, unioned into one (timestamp, host) keyed table."""
    rng = np.random.default_rng(seed)
    hours = [
        f"2025-07-{1 + i // 24:02d} {i % 24:02d}:00:00" for i in range(n_stamps)
    ]

    def cpu_split() -> tuple[float, float, float]:
        user = float(rng.uniform(1, 60))
        sys_ = float(rng.uniform(1, 30))
        idle = 100.0 - user - sys_
        return round(user, 1), round(sys_, 1), round(idle, 1)

    macos_lines = []
    for ts in hours:
        user, sys_, idle = cpu_split()
        used, free = int(rng.integers(2000, 12000)), int(rng.integers(500, 8000))
        macos_lines += [
            f"Time: {ts}",
            f"CPU usage: {user}% user, {sys_}% sys, {idle}% idle",
            f"PhysMem: {used}M used, {free}M unused.",
        ]
    ubuntu_lines = []
    for ts in hours:
        user, sys_, idle = cpu_split()
        used, free = int(rng.integers(1000, 16000)), int(rng.integers(200, 8000))
        ubuntu_lines += [
            f"top - {ts} up 10 days",
            f"%Cpu(s): {user} us, {sys_} sy, {idle} id",
            f"MiB Mem : 16000.0 total, {free}.0 free, {used}.0 used",
        ]
    android_lines = []
    for ts in hours:
        user, sys_, idle = (int(x) for x in cpu_split())
        used, free = int(rng.integers(100000, 4000000)), int(rng.integers(50000, 2000000))
        android_lines += [
            f"-- {ts} --",
            f"{user + sys_ + idle}%cpu {user}%user {sys_}%sys {idle}%idle",
            f"RAM: 5734400K total, {used}K used, {free}K free",
        ]

    number = CanonKind("number")
    descs = {
        "macos": SourceDescriptor(
            source_id="macos", format="log_lines", key_columns=("ts", "host"),
            log_rules=_MACOS_RULES, constant_keys={"host": "mac01"},
            canonicalizers={"ts": CanonKind("date"), "cpu_user": number,
                            "cpu_sys": number, "cpu_idle": number,
                            "mem_used": number, "mem_free": number},
        ),
        "ubuntu": SourceDescriptor(
            source_id="ubuntu", format="log_lines", key_columns=("ts", "host"),
            log_rules=_UBUNTU_RULES, constant_keys={"host": "ubu01"},
            canonicalizers={"ts": CanonKind("date"), "cpu_us": number,
                            "cpu_sy": number, "cpu_id": number,
                            "mem_used_mib": number, "mem_free_mib": number},
        ),
        "android": SourceDescriptor(
            source_id="android", format="log_lines", key_columns=("ts", "host"),
            log_rules=_ANDROID_RULES, constant_keys={"host": "droid01"},
            canonicalizers={"ts": CanonKind("date"), "pct_cpu_user": number,
                            "pct_cpu_sys": number, "pct_cpu_idle": number,
                            "ram_used_k": number, "ram_free_k": number},
        ),
    }

    schema = TargetSchema(
        attributes=("ts", "host", "cpu_user", "cpu_sys", "cpu_idle",
                    "mem_used", "mem_free"),
        key_attributes=("ts", "host"),
        key_domains={
            "ts": KeyDomain((), open=True),
            "host": KeyDomain(("mac01", "ubu01", "droid01"), open=True),
        },
    )
    key_map_entries = [
        KeyMapEntry("ts", 0, CanonKind("date")),
        KeyMapEntry("host", 1, CanonKind("none")),
    ]
    spec = MappingSpec(
        target=schema,
        sources=list(descs.values()),
        key_map={s: list(key_map_entries) for s in descs},
        attr_map={
            "macos": {"cpu_user": "cpu_user", "cpu_sys": "cpu_sys",
                      "cpu_idle": "cpu_idle", "mem_used": "mem_used",
                      "mem_free": "mem_free"},
            "ubuntu": {"cpu_us": "cpu_user", "cpu_sy": "cpu_sys",
                       "cpu_id": "cpu_idle", "mem_used_mib": "mem_used",
                       "mem_free_mib": "mem_free"},
            "android": {"pct_cpu_user": "cpu_user", "pct_cpu_sys": "cpu_sys",
                        "pct_cpu_idle": "cpu_idle", "ram_used_k": "mem_used",
                        "ram_free_k": "mem_free"},
        },
    )

    dictionaries = log_dictionaries()
    logs = {
        "macos": "\n".join(macos_lines) + "\n",
        "ubuntu": "\n".join(ubuntu_lines) + "\n",
        "android": "\n".join(android_lines) + "\n",
    }
    corpora = {
        name: decompose_log(logs[name].splitlines(), descs[name], dictionaries)
        for name in descs
    }
    return Fixture(
        spec=spec, logs=logs, corpora=corpora, dictionaries=dictionaries
    )


def build_wide_tables(
    seed: int = 3, wide_columns: int = 459, narrow_columns: int = 11, n_rows: int = 25
) -> dict[str, RawTable]:
    """A wide + narrow source pair totalling 470 columns, for signature
    storage accounting."""
    rng = np.random.default_rng(seed)

    def table(n_cols: int, prefix: str) -> RawTable:
        header = tuple(f"{prefix}_{i}" for i in range(n_cols))
        rows = tuple(
            tuple(str(int(rng.integers(0, 10**6))) for _ in range(n_cols))
            for _ in range(n_rows)
        )
        return RawTable(header, rows)

    return {"wide": table(wide_columns, "w"), "narrow": table(narrow_columns, "k")}


def write_fixture_files(fixture: Fixture, out_dir: str | Path) -> dict[str, Path]:
    """Materialize a fixture for CLI runs: CSVs/logs, spec, dictionaries."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}
    for name, table in fixture.tables.items():
        path = out_dir / f"{name}.csv"
        table.write(path)
        paths[name] = path
    for name, text in fixture.logs.items():
        path = out_dir / f"{name}.log"
        path.write_text(text, encoding="utf-8")
        paths[name] = path
    spec_path = out_dir / "mapping_spec.json"
    fixture.spec.dump(spec_path)
    paths["spec"] = spec_path
    for name, dictionary in fixture.dictionaries.items():
        path = out_dir / f"{name}.json"
        dictionary.dump(path)
        paths[f"dict:{name}"] = path
    return paths
