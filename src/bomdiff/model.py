"""Normalized in-memory representation of a bill of materials.

Every parser produces these types and every comparison consumes them, so the
rest of the package never has to know which source format a document came
from. All types are immutable after construction and safe to share across
threads. A ``BomDocument`` keeps its components and relationships in
canonical order from construction on, so no later layer sorts them again.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from operator import attrgetter
from typing import Mapping

ComponentId = str


class BomFormat(Enum):
    CYCLONEDX_JSON = "cyclonedx-json"
    SPDX_JSON = "spdx-json"
    GENERIC_HBOM = "generic-hbom"


class RelationshipKind(Enum):
    DEPENDS_ON = "depends-on"
    CONTAINS = "contains"


def _pairs(items) -> tuple:
    """``items`` as a tuple of tuples; ``items`` itself when it is one."""
    if type(items) is tuple:
        for item in items:
            if type(item) is not tuple:
                break
        else:
            return items
    return tuple(tuple(item) for item in items)


@dataclass(frozen=True, slots=True)
class Component:
    """One normalized BOM entry: a software package or hardware part.

    ``hashes`` holds (algorithm, digest) pairs with the algorithm uppercased
    and dash-free (MD5, SHA1, SHA256, ...) and the digest lowercased, so
    digests recorded by different tools stay comparable. ``extra`` preserves
    unrecognized source attributes verbatim as sorted key/value pairs.

    Construction checks every field once and rewrites only the fields that
    are not yet normal: ``""`` becomes ``None``, any other iterable becomes a
    tuple (of tuples for ``hashes`` and ``extra``), and ``extra`` is sorted.
    The parsers hand over normal values, so they pay for the checks alone.
    """

    id: ComponentId
    name: str
    version: str | None = None
    purl: str | None = None
    cpe: str | None = None
    vendor: str | None = None
    licenses: tuple[str, ...] = ()
    hashes: tuple[tuple[str, str], ...] = ()
    quantity: int = 1
    extra: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        if not self.id:
            raise ValueError("component id must be non-empty")
        if not self.name:
            raise ValueError(f"component {self.id!r}: name must be non-empty")
        if self.quantity < 1:
            raise ValueError(
                f"component {self.id!r}: quantity must be >= 1, got {self.quantity}"
            )
        # Empty strings in a source never count as a recorded value; treating
        # "" as data would make it a spurious "common" value in set comparisons.
        if self.version == "":
            object.__setattr__(self, "version", None)
        if self.purl == "":
            object.__setattr__(self, "purl", None)
        if self.cpe == "":
            object.__setattr__(self, "cpe", None)
        if self.vendor == "":
            object.__setattr__(self, "vendor", None)
        if type(self.licenses) is not tuple:
            object.__setattr__(self, "licenses", tuple(self.licenses))
        hashes = _pairs(self.hashes)
        if hashes is not self.hashes:
            object.__setattr__(self, "hashes", hashes)
        extra = _pairs(self.extra)
        if len(extra) > 1:
            ordered = tuple(sorted(extra))
            if ordered != extra:  # keep a sorted extra, which a parser may share
                extra = ordered
        if extra is not self.extra:
            object.__setattr__(self, "extra", extra)
        if len(hashes) > 1 and len(set(hashes)) != len(hashes):
            raise ValueError(f"component {self.id!r}: duplicate hash entries")

    def sort_key(self) -> tuple[str, str, str, str]:
        return (self.name, self.version or "", self.purl or "", self.id)


@dataclass(frozen=True, slots=True)
class Relationship:
    """Directed typed edge between two components of one document."""

    source: ComponentId
    target: ComponentId
    kind: RelationshipKind

    def __post_init__(self):
        if self.source == self.target:
            raise ValueError(f"relationship {self.source!r}: source and target must differ")

    def sort_key(self) -> tuple[str, str, str]:
        # _value_ is .value without the descriptor call
        return (self.source, self.target, self.kind._value_)


_ID, _SOURCE, _TARGET = attrgetter("id"), attrgetter("source"), attrgetter("target")


@dataclass(frozen=True)
class BomDocument:
    """A parsed, normalized BOM: components, relationships, and provenance.

    BOMs are unordered, so two documents that differ only in the order their
    source files listed things must compare equal and must render
    identically. Construction sorts components by (name, version, purl, id)
    and relationships by (source, target, kind), which neutralizes source
    ordering.
    """

    format: BomFormat
    spec_version: str
    subject: ComponentId | None
    components: tuple[Component, ...]
    relationships: tuple[Relationship, ...]
    source_name: str

    def __post_init__(self):
        object.__setattr__(
            self, "components", tuple(sorted(self.components, key=Component.sort_key)))
        object.__setattr__(
            self, "relationships", tuple(sorted(self.relationships, key=Relationship.sort_key)))
        ids = list(map(_ID, self.components))
        known = set(ids)
        if len(known) != len(ids):
            seen, dupes = set(), set()
            for i in ids:
                (dupes if i in seen else seen).add(i)
            raise ValueError(f"duplicate component ids: {sorted(dupes)}")
        rels = self.relationships
        if not (known.issuperset(map(_SOURCE, rels)) and known.issuperset(map(_TARGET, rels))):
            for rel in rels:
                for endpoint in (rel.source, rel.target):
                    if endpoint not in known:
                        raise ValueError(
                            f"relationship endpoint {endpoint!r} does not resolve to a component"
                        )
        if self.subject is not None and self.subject not in known:
            raise ValueError(f"subject {self.subject!r} does not resolve to a component")

    @cached_property
    def by_id(self) -> Mapping[ComponentId, Component]:
        return {c.id: c for c in self.components}


def canonical_form(doc: BomDocument) -> BomDocument:
    """Return ``doc``: a ``BomDocument`` is in canonical order from
    construction on (see its docstring)."""
    return doc
