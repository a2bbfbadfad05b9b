"""Normalized in-memory representation of a bill of materials.

Every parser produces these types and every comparison consumes them, so the
rest of the package never has to know which source format a document came
from. All types are immutable after construction and safe to share across
threads. A ``BomDocument`` keeps its components and relationships in
canonical order from construction on, so no later layer sorts them again.

``BomDocument`` is the one document constructor: the parsers, the dedup
pass and every caller build through it, so one sort and one validation
apply to all. The parsers build components and relationships through the
private ``_component`` and ``_relationship``, which skip the public
constructors' checks and rewrites, on values a parser has already made
normal (the invariants are listed above the builders).
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


class FieldSelector(Enum):
    """A component field that the flat comparisons extract (see
    ``flatcompare``). Defined here so that the CLI and the renderers name
    fields without loading ``flatcompare``."""

    NAME = "name"
    PURL = "purl"
    CPE = "cpe"
    VENDOR = "vendor"
    LICENSE = "license"
    HASH_DIGEST = "hash"
    ORGANIZATION = "org"


class ConfigError(ValueError):
    """Raised for fuzzy-matching parameters outside their legal ranges.
    Defined here so that the CLI catches it without loading ``fuzzy``."""


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
    The parsers build through ``_component``, which does neither.
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
# Relationship.sort_key without a Python-level call per relationship
_RELATIONSHIP_KEY = attrgetter("source", "target", "kind._value_")


@dataclass(frozen=True)
class BomDocument:
    """A parsed, normalized BOM: components, relationships, and provenance.

    BOMs are unordered, so two documents that differ only in the order their
    source files listed things must compare equal and must render
    identically. Construction sorts components by (name, version, purl, id)
    and relationships by (source, target, kind), which neutralizes source
    ordering, and raises ValueError if two components share an id, or if a
    relationship endpoint (the first, in relationship order) or the subject
    is no component's id.
    """

    format: BomFormat
    spec_version: str
    subject: ComponentId | None
    components: tuple[Component, ...]
    relationships: tuple[Relationship, ...]
    source_name: str

    def __post_init__(self):
        rels = tuple(sorted(self.relationships, key=_RELATIONSHIP_KEY))
        components = tuple(self.components)
        ids = list(map(_ID, components))
        known = set(ids)
        if len(known) != len(ids):
            seen, dupes = set(), set()
            for i in ids:
                (dupes if i in seen else seen).add(i)
            raise ValueError(f"duplicate component ids: {sorted(dupes)}")
        if not (known.issuperset(map(_SOURCE, rels)) and known.issuperset(map(_TARGET, rels))):
            for rel in rels:
                for endpoint in (rel.source, rel.target):
                    if endpoint not in known:
                        raise ValueError(
                            f"relationship endpoint {endpoint!r} does not resolve to a component"
                        )
        if self.subject is not None and self.subject not in known:
            raise ValueError(f"subject {self.subject!r} does not resolve to a component")
        # The order of Component.sort_key without a call per component.
        # Distinct names give the order alone. Otherwise the ids are distinct,
        # so no two key tuples tie and no component is compared.
        by_name = {c.name: c for c in components}
        if len(by_name) == len(components):
            components = [by_name[name] for name in sorted(by_name)]
        else:
            ordered = sorted([(c.name, c.version or "", c.purl or "", c.id, c) for c in components])
            components = [key[4] for key in ordered]
        object.__setattr__(self, "components", tuple(components))
        object.__setattr__(self, "relationships", rels)

    @cached_property
    def by_id(self) -> Mapping[ComponentId, Component]:
        return {c.id: c for c in self.components}


# ---------------------------------------------------- the parsers' builders
#
# The builders rely on what the parsers guarantee:
# - _component: id and name non-empty; version, purl, cpe and vendor None or
#   a non-empty str; licenses a tuple; hashes a tuple of distinct pairs;
#   quantity >= 1; extra a sorted tuple of pairs;
# - _relationship: source and target differ, which it still checks.
#
# Each builder class has the slot layout of the class it builds, so its
# __init__ sets the fields as plain slot stores and then switches the
# instance to that class, which Python allows between equal layouts. That
# costs a third of setting each field through the frozen class's slot
# descriptor, and skips __post_init__.


class _component:
    """``Component(...)`` of normal values."""

    __slots__ = Component.__slots__

    def __init__(self, cid, name, version, purl, cpe, vendor, licenses, hashes, quantity,
                 extra):
        self.id = cid
        self.name = name
        self.version = version
        self.purl = purl
        self.cpe = cpe
        self.vendor = vendor
        self.licenses = licenses
        self.hashes = hashes
        self.quantity = quantity
        self.extra = extra
        self.__class__ = Component


class _relationship:
    """``Relationship(source, target, kind)``."""

    __slots__ = Relationship.__slots__

    def __init__(self, source, target, kind):
        if source == target:
            raise ValueError(f"relationship {source!r}: source and target must differ")
        self.source = source
        self.target = target
        self.kind = kind
        self.__class__ = Relationship


def canonical_form(doc: BomDocument) -> BomDocument:
    """Return ``doc``: a ``BomDocument`` is in canonical order from
    construction on (see its docstring)."""
    return doc
