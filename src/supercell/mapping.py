"""Declarative integration specs, the deterministic oracle, and label generation.

A mapping spec captures exactly the information a hand-written integration
script encodes: how each source's key components line up with the target
key, how source attributes map to target attributes (or are discarded), and
how colliding values aggregate. The same spec drives two independent paths:
``oracle_integrate`` executes it directly (the ground truth for every
end-to-end test), and ``generate_training_data`` turns it into labeled
samples for the learner.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import NamedTuple

from .assemble import TargetTable, diff_tables
from .canon import CanonKind, DictionaryStore, NONE, canonicalize, long_date
from .core import (
    AggMode,
    DataError,
    FeatureSentence,
    Record,
    SuperCell,
    TargetPosition,
    TargetSchema,
    WILDCARD,
    copy_index,
    copy_marker,
    discard_position,
    read_json,
    render_feature,
    write_json,
)
from .ingest import SourceDescriptor

DISCARD = "DISCARD"


class SpecViolation(DataError):
    pass


class KeyResolutionFailure(DataError):
    pass


_RENDERERS = {"long_date": long_date}


@dataclass(frozen=True)
class KeyMapEntry(Record):
    """Aligns one target key attribute with a source key component.

    A wildcard entry means the source has no component for this attribute
    and its writes broadcast across all matching rows (the 1-N join case).
    ``render`` optionally reformats the canonical value on the target side
    (e.g. "2020-10-06" -> "Oct 6, 2020"); rendered values are labeled
    literally rather than as COPY markers.
    """

    target: str
    component: int | None = None
    kind: CanonKind = NONE
    render: str | None = None
    wildcard: bool = False

    def __post_init__(self) -> None:
        if self.wildcard and self.component is not None:
            raise SpecViolation(f"entry for {self.target!r} is wildcard and mapped")
        if not self.wildcard and self.component is None:
            raise SpecViolation(f"entry for {self.target!r} needs a component or wildcard")
        if self.render is not None and self.render not in _RENDERERS:
            raise SpecViolation(f"unknown render {self.render!r}")


@dataclass(frozen=True)
class KeyHierarchy(Record):
    """Parent/child key values used by key-expansion perturbations.

    ``children`` maps a parent key value (of target key attribute
    ``key_attr``) to its child names. Expansion splits each value into an
    integer sum, so values of expanded rows aggregate back to the parent
    cell with SUM: no other mode gives the parent value back.
    """

    key_attr: str
    children: dict[str, tuple[str, ...]]


@dataclass
class MappingSpec(Record):
    """One integration task: target schema, sources, and their alignments."""

    target: TargetSchema
    sources: list[SourceDescriptor]
    key_map: dict[str, list[KeyMapEntry]] = field(default_factory=dict)
    attr_map: dict[str, dict[str, str]] = field(default_factory=dict)
    agg_map: dict[str, dict[str, AggMode]] = field(default_factory=dict)
    key_hierarchy: KeyHierarchy | None = None

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        attrs = set(self.target.attributes)
        for source_id, amap in self.attr_map.items():
            for src_attr, tgt in amap.items():
                if tgt != DISCARD and tgt not in attrs:
                    raise SpecViolation(
                        f"{source_id}: {src_attr!r} maps to unknown attribute {tgt!r}"
                    )
        for source_id, amap in self.agg_map.items():
            unknown = set(amap) - set(self.attr_map.get(source_id, {}))
            if unknown:
                raise SpecViolation(
                    f"{source_id}: agg_map covers unmapped attributes {sorted(unknown)}"
                )
        for desc in self.sources:
            if not self._is_relevant(desc.source_id):
                continue
            entries = {e.target: e for e in self.key_map.get(desc.source_id, ())}
            missing = [k for k in self.target.key_attributes if k not in entries]
            if missing:
                raise SpecViolation(
                    f"{desc.source_id}: target key attributes {missing} uncovered"
                )
        # Per-slot canonicalization must agree across sources so that COPY
        # resolution is a single function of the target slot.
        for attr in self.target.key_attributes:
            kinds = {
                e.kind
                for entries in self.key_map.values()
                for e in entries
                if e.target == attr and not e.wildcard
            }
            if len(kinds) > 1:
                raise SpecViolation(f"conflicting canon kinds for key {attr!r}")
        # One mode per target attribute, or the table raises AggModeConflict
        # at the first collision. Expanded rows' SUM (key_hierarchy) is exempt.
        feeds: dict[str, dict[AggMode, list[str]]] = {}
        for source_id, amap in self.attr_map.items():
            modes = self.agg_map.get(source_id, {})
            for src_attr, tgt in amap.items():
                if tgt != DISCARD:
                    mode = modes.get(src_attr, AggMode.REPLACE)
                    feeds.setdefault(tgt, {}).setdefault(mode, []).append(
                        f"{source_id} {src_attr!r}")
        for tgt, by_mode in feeds.items():
            if len(by_mode) > 1:
                detail = "; ".join(f"{m.value} from {', '.join(f)}" for m, f in by_mode.items())
                raise SpecViolation(f"target attribute {tgt!r} is fed under several "
                                    f"aggregation modes: {detail}")

    def _is_relevant(self, source_id: str) -> bool:
        amap = self.attr_map.get(source_id, {})
        return any(t != DISCARD for t in amap.values())

    def descriptor(self, source_id: str) -> SourceDescriptor:
        for desc in self.sources:
            if desc.source_id == source_id:
                return desc
        raise SpecViolation(f"unknown source {source_id!r}")

    def cells(self, corpora: dict[str, list[SuperCell]]) -> list[SuperCell]:
        """The corpora's cells in spec-source order, then corpus order: the
        arrival order the REPLACE, DISCARD and CONCAT modes depend on, so
        the oracle and the learned pipeline assemble the same table."""
        return [cell for desc in self.sources for cell in corpora.get(desc.source_id, ())]

    def key_kinds(self) -> dict[str, CanonKind]:
        """Canonicalization kind per target key attribute (for COPY resolution)."""
        out: dict[str, CanonKind] = {}
        for attr in self.target.key_attributes:
            out[attr] = NONE
            for entries in self.key_map.values():
                for e in entries:
                    if e.target == attr and not e.wildcard:
                        out[attr] = e.kind
        return out

    def parent_components(self) -> dict[str, int]:
        """Per source, the key component the hierarchy's expandable attribute
        maps from (where key-expansion perturbations insert children)."""
        if self.key_hierarchy is None:
            return {}
        out: dict[str, int] = {}
        for source_id, entries in self.key_map.items():
            for e in entries:
                if e.target == self.key_hierarchy.key_attr and not e.wildcard:
                    out[source_id] = e.component
        return out

    @staticmethod
    def load(path: str | Path) -> "MappingSpec":
        """Read a spec file; raises SpecViolation naming the file for any
        content that does not describe a valid MappingSpec."""
        return read_json(path, MappingSpec, SpecViolation)

    def dump(self, path: str | Path) -> None:
        write_json(self.to_dict(), path)


class Origin(NamedTuple):
    """Where a sample's cell came from; equals the plain tuple."""

    source_id: str
    row_ordinal: int


@dataclass(frozen=True)
class LabeledSample(Record):
    """One training or evaluation example: feature, label, and provenance."""

    feature: FeatureSentence
    label: TargetPosition
    origin: Origin

    @staticmethod
    def of(cell: SuperCell, label: TargetPosition) -> "LabeledSample":
        """The sample for ``cell`` under ``label``, with the cell's provenance."""
        return LabeledSample(render_feature(cell), label, Origin(cell.source_id, cell.row_ordinal))


def _is_expanded(cell: SuperCell, desc: SourceDescriptor, spec: MappingSpec) -> bool:
    base = len(desc.key_columns)
    if desc.format == "pivoted_csv":
        base += 1
    return spec.key_hierarchy is not None and len(cell.keys) > base


def position_for_cell(
    spec: MappingSpec,
    cell: SuperCell,
    dictionaries: DictionaryStore | None = None,
    as_label: bool = False,
) -> TargetPosition:
    """The cell's target position under the spec.

    Each target key attribute takes WILDCARD for a wildcard key_map entry,
    otherwise the canonicalized source component, rendered when the entry
    names a ``render``. With ``as_label`` a value that rendering left
    unchanged becomes the COPY(i) marker naming its component among the
    cell's canonically ordered keys; without it the concrete values are
    returned, ready for assembly. Raises KeyResolutionFailure when an
    entry's component is out of range for the cell's keys.
    """
    desc = spec.descriptor(cell.source_id)
    amap = spec.attr_map.get(cell.source_id, {})
    attrs: list[str | None] = []
    for attr in cell.attributes:
        target = amap.get(attr, DISCARD)
        attrs.append(None if target == DISCARD else target)
    if all(a is None for a in attrs):
        return discard_position(spec.target.q, cell.width)

    if _is_expanded(cell, desc, spec):
        agg = AggMode.SUM
    else:
        agg_map = spec.agg_map.get(cell.source_id, {})
        modes = {
            agg_map.get(src_attr, AggMode.REPLACE)
            for src_attr, tgt in zip(cell.attributes, attrs)
            if tgt is not None
        }
        if len(modes) > 1:
            raise SpecViolation(
                f"{cell.source_id}: one super cell mixes aggregation modes {modes}"
            )
        agg = modes.pop()

    by_target = {e.target: e for e in spec.key_map.get(cell.source_id, ())}
    sorted_keys = cell.sorted_keys() if as_label else ()
    keys: list[str] = []
    for attr in spec.target.key_attributes:
        entry = by_target[attr]  # validate: every key attribute is covered
        if entry.wildcard:
            keys.append(WILDCARD)
            continue
        if entry.component >= len(cell.keys):
            raise KeyResolutionFailure(
                f"{cell.source_id}: component {entry.component} out of range "
                f"for {len(cell.keys)} key components"
            )
        component = cell.keys[entry.component]
        value = canonicalize(component, entry.kind, dictionaries)
        rendered = _RENDERERS[entry.render](value) if entry.render else value
        # A value that rendering left unchanged is the component canonicalized
        # by its slot's one kind (validate), so COPY(i) resolves back to it.
        keys.append(_marker_for(sorted_keys, component)
                    if as_label and rendered == value else rendered)
    return TargetPosition(tuple(keys), tuple(attrs), agg)


def _marker_for(sorted_keys: tuple[str, ...], component: str) -> str:
    """The COPY marker naming ``component`` among a cell's sorted keys."""
    return copy_marker(sorted_keys.index(component))


def _component_named(sorted_keys: tuple[str, ...], index: int) -> str | None:
    """The sorted key COPY(``index``) names, or None when out of range."""
    return sorted_keys[index] if index < len(sorted_keys) else None


def carry_label(label: TargetPosition, parent: SuperCell, child: SuperCell) -> TargetPosition:
    """``parent``'s label carried over to ``child``, a cell that keeps every
    key slot of its parent, perhaps with a reformatted value, and may append
    more (as key expansion does).

    Each COPY marker is re-pointed by key slot: at the child's component in
    the slot that held the named parent component, among the child's
    canonically ordered keys, where a reformat or an added component can
    move it. Other key entries carry over unchanged."""
    parent_keys, child_keys = parent.sorted_keys(), child.sorted_keys()
    keys: list[str | None] = []
    for entry in label.keys:
        idx = copy_index(entry)
        if idx is None:
            keys.append(entry)
            continue
        component = _component_named(parent_keys, idx)
        if component is None:
            raise KeyResolutionFailure(
                f"{entry} is out of range for {len(parent_keys)} key components"
            )
        keys.append(_marker_for(child_keys, child.keys[parent.keys.index(component)]))
    return replace(label, keys=tuple(keys))


def copy_slots(pos: TargetPosition) -> tuple[tuple[int, int], ...]:
    """(slot, index) of each COPY(index) marker among ``pos.keys``."""
    return tuple((slot, idx) for slot, entry in enumerate(pos.keys)
                 if (idx := copy_index(entry)) is not None)


def resolve_position(
    pos: TargetPosition,
    sorted_keys: tuple[str, ...],
    key_kinds: list[CanonKind],
    dictionaries: DictionaryStore | None = None,
    closed: list[frozenset[str] | None] | None = None,
    canonical: dict[tuple[str, int], str] | None = None,
    *,
    copies: tuple[tuple[int, int], ...] | None = None,
) -> tuple[TargetPosition, int, int]:
    """Resolve COPY markers against a cell's canonically ordered keys
    (``sorted_keys``, the cell's ``sorted_keys()``).

    Returns the concrete position, the number of COPY components that were
    out of range, and the number that resolved outside their slot's closed
    domain (``closed``, as ``TargetSchema.closed_values`` gives it; None
    treats every domain as open); both degrade to NULL. A position without
    a COPY marker is returned as it is. ``canonical``, when given, is the
    caller's table of canonical values by (component, slot) for these
    ``key_kinds`` and ``dictionaries``: a component found there is not
    canonicalized again, and one that is not is added. A caller resolving
    many cells may pass ``copies`` (``copy_slots(pos)``), taken once for
    every cell that shares the position.
    """
    copies = copy_slots(pos) if copies is None else copies
    if not copies:
        return pos, 0, 0
    canonical = {} if canonical is None else canonical
    out = list(pos.keys)
    out_of_range = outside = 0
    for slot, idx in copies:
        component = _component_named(sorted_keys, idx)
        if component is None:
            out[slot] = None
            out_of_range += 1
            continue
        value = canonical.get((component, slot))
        if value is None:
            value = canonical[component, slot] = canonicalize(
                component, key_kinds[slot], dictionaries)
        if closed and closed[slot] is not None and value not in closed[slot]:
            out[slot] = None
            outside += 1
            continue
        out[slot] = value
    return TargetPosition(tuple(out), pos.attributes, pos.agg_mode), out_of_range, outside


def oracle_integrate(
    spec: MappingSpec,
    corpora: dict[str, list[SuperCell]],
    dictionaries: DictionaryStore | None = None,
) -> TargetTable:
    """Integrate by executing the spec directly; the ground truth for all
    end-to-end tests. Cells arrive in ``spec.cells`` order, as in the
    learned pipeline."""
    table = TargetTable(spec.target)
    for cell in spec.cells(corpora):
        table.apply(cell, position_for_cell(spec, cell, dictionaries))
    return table


def generate_training_data(
    spec: MappingSpec,
    corpora: dict[str, list[SuperCell]],
    dictionaries: DictionaryStore | None = None,
) -> list[LabeledSample]:
    """One labeled sample per source super cell, in ``spec.cells`` order."""
    return [
        LabeledSample.of(cell, position_for_cell(spec, cell, dictionaries, as_label=True))
        for cell in spec.cells(corpora)
    ]


def assemble_labels(
    spec: MappingSpec,
    corpora: dict[str, list[SuperCell]],
    labels: list[TargetPosition],
    dictionaries: DictionaryStore | None = None,
) -> TargetTable:
    """Assemble cells with their labels (parallel to ``spec.cells(corpora)``)
    into a table, resolving COPY markers."""
    cells = spec.cells(corpora)
    if len(cells) != len(labels):
        raise SpecViolation(f"{len(cells)} cells vs {len(labels)} labels")
    kinds_by_attr = spec.key_kinds()
    kinds = [kinds_by_attr[a] for a in spec.target.key_attributes]
    closed = spec.target.closed_values()
    table = TargetTable(spec.target)
    for cell, label in zip(cells, labels):
        pos, _, _ = resolve_position(label, cell.sorted_keys(), kinds, dictionaries, closed)
        table.apply(cell, pos)
    return table


def consistency_check(
    spec: MappingSpec,
    corpora: dict[str, list[SuperCell]],
    dictionaries: DictionaryStore | None = None,
) -> dict:
    """Verify that assembling generated labels reproduces the oracle exactly.

    Returns a cell-level diff report; an empty diff means the label
    representation loses nothing the oracle knows.
    """
    labels = [s.label for s in generate_training_data(spec, corpora, dictionaries)]
    rebuilt = assemble_labels(spec, corpora, labels, dictionaries)
    oracle = oracle_integrate(spec, corpora, dictionaries)
    return diff_tables(oracle, rebuilt)
