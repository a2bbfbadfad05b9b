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

The record classes here and in the other modules are plain classes made
immutable by the ``_record`` decorator, not dataclasses: importing
``dataclasses``, and the ``inspect`` it loads, and then compiling each
dataclass's generated methods took a large share of every command's start,
with or without a bytecode cache (README "Library API"). ``_record``
generates no code. It is a decorator and not a base class so that
``Component`` and ``Relationship`` keep exactly the slot layout their
builders share (see below); a slotted base would change that layout and
refuse the builders' ``__class__`` switch.
"""

from __future__ import annotations

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


# How a record's __init__ sets a field past the record's own __setattr__.
_set = object.__setattr__


def _record(cls):
    """Give ``cls`` the methods of a frozen dataclass over the fields named
    in ``cls.__match_args__``, two or more, in constructor order.

    The methods read the fields with one ``attrgetter`` and are closures,
    not generated code: assignment and deletion raise ``AttributeError``;
    ``==`` compares the field tuples of two instances of the same class;
    ``hash`` hashes the field tuple, so a record holding a dict or list is
    unhashable; ``repr`` reads as the dataclass one did; ``__reduce__``
    rebuilds through the constructor, for ``copy`` and ``pickle``; and
    ``__replace__`` (``copy.replace`` from Python 3.13) rebuilds through the
    constructor with some fields changed, so its checks run again. The
    class writes its own ``__init__``, which sets each field with ``_set``.
    """
    names = cls.__match_args__
    values = attrgetter(*names)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(names, values(self)))
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, values(self)

    def __replace__(self, **changes):
        return self.__class__(**dict(zip(names, values(self)), **changes))

    for method in (__setattr__, __delattr__, __eq__, __hash__, __repr__, __reduce__,
                   __replace__):
        setattr(cls, method.__name__, method)
    return cls


@_record
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

    __slots__ = __match_args__ = ("id", "name", "version", "purl", "cpe", "vendor",
                                  "licenses", "hashes", "quantity", "extra")
    id: ComponentId
    name: str
    version: str | None
    purl: str | None
    cpe: str | None
    vendor: str | None
    licenses: tuple[str, ...]
    hashes: tuple[tuple[str, str], ...]
    quantity: int
    extra: tuple[tuple[str, str], ...]

    def __init__(self, id, name, version=None, purl=None, cpe=None, vendor=None,
                 licenses=(), hashes=(), quantity=1, extra=()):
        if not id:
            raise ValueError("component id must be non-empty")
        if not name:
            raise ValueError(f"component {id!r}: name must be non-empty")
        if quantity < 1:
            raise ValueError(f"component {id!r}: quantity must be >= 1, got {quantity}")
        if type(licenses) is not tuple:
            licenses = tuple(licenses)
        hashes = _pairs(hashes)
        extra = _pairs(extra)
        if len(extra) > 1:
            ordered = tuple(sorted(extra))
            if ordered != extra:  # a sorted extra stays the same tuple
                extra = ordered
        if len(hashes) > 1 and len(set(hashes)) != len(hashes):
            raise ValueError(f"component {id!r}: duplicate hash entries")
        _set(self, "id", id)
        _set(self, "name", name)
        # Empty strings in a source never count as a recorded value; treating
        # "" as data would make it a spurious "common" value in set comparisons.
        _set(self, "version", None if version == "" else version)
        _set(self, "purl", None if purl == "" else purl)
        _set(self, "cpe", None if cpe == "" else cpe)
        _set(self, "vendor", None if vendor == "" else vendor)
        _set(self, "licenses", licenses)
        _set(self, "hashes", hashes)
        _set(self, "quantity", quantity)
        _set(self, "extra", extra)

    def sort_key(self) -> tuple[str, str, str, str]:
        return (self.name, self.version or "", self.purl or "", self.id)


@_record
class Relationship:
    """Directed typed edge between two components of one document."""

    __slots__ = __match_args__ = ("source", "target", "kind")
    source: ComponentId
    target: ComponentId
    kind: RelationshipKind

    def __init__(self, source, target, kind):
        if source == target:
            raise ValueError(f"relationship {source!r}: source and target must differ")
        _set(self, "source", source)
        _set(self, "target", target)
        _set(self, "kind", kind)

    def sort_key(self) -> tuple[str, str, str]:
        # _value_ is .value without the descriptor call
        return (self.source, self.target, self.kind._value_)


_ID, _SOURCE, _TARGET = attrgetter("id"), attrgetter("source"), attrgetter("target")
# Relationship.sort_key without a Python-level call per relationship
_RELATIONSHIP_KEY = attrgetter("source", "target", "kind._value_")


@_record
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

    # no __slots__: the cached by_id lives in the instance __dict__
    __match_args__ = ("format", "spec_version", "subject", "components", "relationships",
                      "source_name")
    format: BomFormat
    spec_version: str
    subject: ComponentId | None
    components: tuple[Component, ...]
    relationships: tuple[Relationship, ...]
    source_name: str

    def __init__(self, format, spec_version, subject, components, relationships,
                 source_name):
        rels = tuple(sorted(relationships, key=_RELATIONSHIP_KEY))
        components = tuple(components)
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
        if subject is not None and subject not in known:
            raise ValueError(f"subject {subject!r} does not resolve to a component")
        # The order of Component.sort_key without a call per component.
        # Distinct names give the order alone. Otherwise the ids are distinct,
        # so no two key tuples tie and no component is compared.
        by_name = {c.name: c for c in components}
        if len(by_name) == len(components):
            components = [by_name[name] for name in sorted(by_name)]
        else:
            ordered = sorted([(c.name, c.version or "", c.purl or "", c.id, c) for c in components])
            components = [key[4] for key in ordered]
        _set(self, "format", format)
        _set(self, "spec_version", spec_version)
        _set(self, "subject", subject)
        _set(self, "components", tuple(components))
        _set(self, "relationships", rels)
        _set(self, "source_name", source_name)

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
# costs a third of setting each field past the frozen class's __setattr__,
# and skips the public __init__'s checks. The layouts stay equal because
# _record only adds methods: both classes derive from object directly and
# have the same __slots__, and neither has a __dict__ or a __weakref__.


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
