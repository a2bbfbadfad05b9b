"""Normalized in-memory representation of a bill of materials.

Every parser produces these types and every comparison consumes them, so the
rest of the package never has to know which source format a document came
from. All types are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from typing import Mapping

ComponentId = str


class BomFormat(Enum):
    CYCLONEDX_JSON = "cyclonedx-json"
    SPDX_JSON = "spdx-json"
    GENERIC_HBOM = "generic-hbom"


class RelationshipKind(Enum):
    DEPENDS_ON = "depends-on"
    CONTAINS = "contains"


def _absent_if_empty(value: str | None) -> str | None:
    # Empty strings in a source never count as a recorded value; treating ""
    # as data would make it a spurious "common" value in set comparisons.
    if value is None or value == "":
        return None
    return value


@dataclass(frozen=True)
class Component:
    """One normalized BOM entry: a software package or hardware part.

    ``hashes`` holds (algorithm, digest) pairs with the algorithm uppercased
    and dash-free (MD5, SHA1, SHA256, ...) and the digest lowercased, so
    digests recorded by different tools stay comparable. ``extra`` preserves
    unrecognized source attributes verbatim as sorted key/value pairs.
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
        object.__setattr__(self, "version", _absent_if_empty(self.version))
        object.__setattr__(self, "purl", _absent_if_empty(self.purl))
        object.__setattr__(self, "cpe", _absent_if_empty(self.cpe))
        object.__setattr__(self, "vendor", _absent_if_empty(self.vendor))
        object.__setattr__(self, "licenses", tuple(self.licenses))
        object.__setattr__(self, "hashes", tuple(tuple(h) for h in self.hashes))
        object.__setattr__(self, "extra", tuple(sorted(tuple(kv) for kv in self.extra)))
        if len(set(self.hashes)) != len(self.hashes):
            raise ValueError(f"component {self.id!r}: duplicate hash entries")

    def sort_key(self) -> tuple[str, str, str, str]:
        return (self.name, self.version or "", self.purl or "", self.id)


@dataclass(frozen=True)
class Relationship:
    """Directed typed edge between two components of one document."""

    source: ComponentId
    target: ComponentId
    kind: RelationshipKind

    def __post_init__(self):
        if self.source == self.target:
            raise ValueError(f"relationship {self.source!r}: source and target must differ")

    def sort_key(self) -> tuple[str, str, str]:
        return (self.source, self.target, self.kind.value)


@dataclass(frozen=True)
class BomDocument:
    """A parsed, normalized BOM: components, relationships, and provenance."""

    format: BomFormat
    spec_version: str
    subject: ComponentId | None
    components: tuple[Component, ...]
    relationships: tuple[Relationship, ...]
    source_name: str

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        object.__setattr__(self, "relationships", tuple(self.relationships))
        ids = [c.id for c in self.components]
        if len(set(ids)) != len(ids):
            seen, dupes = set(), set()
            for i in ids:
                (dupes if i in seen else seen).add(i)
            raise ValueError(f"duplicate component ids: {sorted(dupes)}")
        known = set(ids)
        for rel in self.relationships:
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
    """Return ``doc`` with components and relationships in canonical order.

    BOMs are unordered, so two documents that differ only in the order their
    source files listed things must compare equal and must render identically.
    Sorting components by (name, version, purl, id) and relationships by
    (source, target, kind) neutralizes source ordering; the result is
    idempotent under repeated application.
    """
    return replace(
        doc,
        components=tuple(sorted(doc.components, key=Component.sort_key)),
        relationships=tuple(sorted(doc.relationships, key=Relationship.sort_key)),
    )

