"""Seeded synthetic fixtures: a two-source COVID-style integration task, a
three-OS machine-log union task, and a wide-table corpus for storage
comparisons. Every builder is a pure function of its seed."""

from __future__ import annotations

import dataclasses
import datetime
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .canon import DATE, NONE, NUMBER, CanonKind, DictionaryStore, SynonymDictionary
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


def _spec(
    key_kinds: dict[str, CanonKind],
    key_domains: dict[str, KeyDomain],
    descs: list[SourceDescriptor],
    attr_map: dict[str, dict[str, str]],
    key_hierarchy: KeyHierarchy | None = None,
) -> MappingSpec:
    """A spec whose every source lists its key columns in target key order:
    one key map per source, and the target's attributes are its keys then
    each mapped attribute in source order."""
    values = dict.fromkeys(t for amap in attr_map.values() for t in amap.values())
    entries = [KeyMapEntry(attr, i, kind) for i, (attr, kind) in enumerate(key_kinds.items())]
    return MappingSpec(
        target=TargetSchema((*key_kinds, *values), tuple(key_kinds), key_domains),
        sources=descs,
        key_map={d.source_id: list(entries) for d in descs},
        attr_map=attr_map,
        key_hierarchy=key_hierarchy,
    )


# The canonicalization kind of each COVID target key attribute, in target
# key order.
_COVID_DICT = CanonKind("dict", "covid_synonyms")
_COVID_KEY_KINDS = {"date": DATE, "state": _COVID_DICT, "country": _COVID_DICT}

# Per COVID source: its key columns in target key order, its super-cell
# groups of numeric columns, each feeding the target attribute of its
# lowercased name, and its unmapped columns.
_COVID_LAYOUT = {
    "covid": (("Date", "Province/State", "Country/Region"),
              (("Confirmed", "Recovered"), ("Deaths",)), ("Fips",)),
    "mobility": (("Time", "Sub Region", "Region"),
                 (("Workplace", "Recreation", "Grocery"),), ()),
}


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

    rows: dict[str, list[tuple[str, ...]]] = {"covid": [], "mobility": []}
    for date in dates:
        for state in states:
            confirmed = int(rng.integers(50, 10000))
            recovered = int(rng.integers(10, confirmed + 10))
            deaths = int(rng.integers(0, 500))
            fips = str(int(rng.integers(1000, 99999))) if rng.random() < 0.2 else ""
            rows["covid"].append(
                (date, state.title(), "United States", str(confirmed),
                 str(recovered), str(deaths), fips)
            )
            workplace = int(rng.integers(-80, 40))
            recreation = int(rng.integers(-80, 40))
            grocery = int(rng.integers(-60, 60))
            rows["mobility"].append(
                (date, state.title(), "United States", str(workplace),
                 str(recreation), str(grocery))
            )

    descs, tables, attr_map = [], {}, {}
    for source_id, (keys, groups, unmapped) in _COVID_LAYOUT.items():
        values = [c for g in groups for c in g]
        descs.append(SourceDescriptor(
            source_id=source_id, format="csv", key_columns=keys, supercell_groups=groups,
            canonicalizers={**dict(zip(keys, _COVID_KEY_KINDS.values())),
                            **dict.fromkeys(values, NUMBER)},
        ))
        tables[source_id] = RawTable((*keys, *values, *unmapped), tuple(rows[source_id]))
        attr_map[source_id] = {c.lower(): c.lower() for c in values}

    key_domains = {
        "date": KeyDomain((), open=True),
        "state": KeyDomain(tuple(sorted(states)), open=False),
        "country": KeyDomain(("united states",), open=False),
    }
    hierarchy = KeyHierarchy(
        key_attr="state",
        children={s: (f"{s} north", f"{s} south") for s in states},
    )
    spec = _spec(_COVID_KEY_KINDS, key_domains, descs, attr_map, hierarchy)
    corpora = {d.source_id: decompose(tables[d.source_id], d, dictionaries) for d in descs}
    return Fixture(spec=spec, tables=tables, corpora=corpora, dictionaries=dictionaries)


def _project(table: RawTable, columns: tuple[str, ...]) -> RawTable:
    """``table`` cut down to ``columns``, in that order."""
    idx = [table.header.index(c) for c in columns]
    return RawTable(columns, tuple(tuple(row[i] for i in idx) for row in table.rows))


def build_pivoted_deaths(fixture: Fixture) -> tuple[RawTable, SourceDescriptor]:
    """The deaths view of the covid source, pivoted so dates become headers.

    Decomposing it reproduces the original deaths super cells; its columns
    contain no date values, which is what defeats column matching."""
    desc = fixture.spec.descriptor("covid")
    date, *rest = desc.key_columns  # the date comes first in target key order
    deaths = _project(fixture.tables["covid"], (*desc.key_columns, "Deaths"))
    pivoted = pivot_table(deaths, list(desc.key_columns), date)
    return pivoted, dataclasses.replace(
        desc, format="pivoted_csv", key_columns=tuple(rest), supercell_groups=(),
        pivot=Pivot(pivot_axis_name=date, value_attr_name="Deaths"),
    )


def covid_unpivoted_view(fixture: Fixture) -> tuple[RawTable, SourceDescriptor]:
    """The covid source without its Deaths column (the companion view when
    deaths arrive pivoted)."""
    covid = fixture.tables["covid"]
    desc = fixture.spec.descriptor("covid")
    table = _project(covid, tuple(c for c in covid.header if c != "Deaths"))
    groups = tuple(g for g in desc.supercell_groups if "Deaths" not in g)
    return table, dataclasses.replace(desc, supercell_groups=groups)


# The log sources' target keys; a host needs no canonicalization.
_LOG_KEY_KINDS = {"ts": DATE, "host": NONE}
_LOG_METRICS = ("cpu_user", "cpu_sys", "cpu_idle", "mem_used", "mem_free")

# Per OS: its host, and its rules, whose attribute captures name the target
# metrics in ``_LOG_METRICS`` order, each under that OS's own name.
_LOG_LAYOUT = {
    "macos": ("mac01", (
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
    )),
    "ubuntu": ("ubu01", (
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
    )),
    "android": ("droid01", (
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
    )),
}


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

    lines: dict[str, list[str]] = {"macos": [], "ubuntu": [], "android": []}
    for ts in hours:
        user, sys_, idle = cpu_split()
        used, free = int(rng.integers(2000, 12000)), int(rng.integers(500, 8000))
        lines["macos"] += [
            f"Time: {ts}",
            f"CPU usage: {user}% user, {sys_}% sys, {idle}% idle",
            f"PhysMem: {used}M used, {free}M unused.",
        ]
    for ts in hours:
        user, sys_, idle = cpu_split()
        used, free = int(rng.integers(1000, 16000)), int(rng.integers(200, 8000))
        lines["ubuntu"] += [
            f"top - {ts} up 10 days",
            f"%Cpu(s): {user} us, {sys_} sy, {idle} id",
            f"MiB Mem : 16000.0 total, {free}.0 free, {used}.0 used",
        ]
    for ts in hours:
        user, sys_, idle = (int(x) for x in cpu_split())
        used, free = int(rng.integers(100000, 4000000)), int(rng.integers(50000, 2000000))
        lines["android"] += [
            f"-- {ts} --",
            f"{user + sys_ + idle}%cpu {user}%user {sys_}%sys {idle}%idle",
            f"RAM: 5734400K total, {used}K used, {free}K free",
        ]

    key_canon = {k: kind for k, kind in _LOG_KEY_KINDS.items() if kind != NONE}
    descs, attr_map = [], {}
    for source_id, (host, rules) in _LOG_LAYOUT.items():
        names = [a for rule in rules for a in rule.attr_value_captures]
        descs.append(SourceDescriptor(
            source_id=source_id, format="log_lines", key_columns=tuple(_LOG_KEY_KINDS),
            log_rules=rules, constant_keys={"host": host},
            canonicalizers={**key_canon, **dict.fromkeys(names, NUMBER)},
        ))
        attr_map[source_id] = dict(zip(names, _LOG_METRICS, strict=True))
    key_domains = {
        "ts": KeyDomain((), open=True),
        "host": KeyDomain(tuple(host for host, _ in _LOG_LAYOUT.values()), open=True),
    }
    spec = _spec(_LOG_KEY_KINDS, key_domains, descs, attr_map)

    dictionaries = log_dictionaries()
    logs = {name: "\n".join(text) + "\n" for name, text in lines.items()}
    corpora = {
        d.source_id: decompose_log(logs[d.source_id].splitlines(), d, dictionaries)
        for d in descs
    }
    return Fixture(spec=spec, logs=logs, corpora=corpora, dictionaries=dictionaries)


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
