"""The package's record classes as they were, as frozen dataclasses.

Each class here keeps the name, field list, defaults and ``__post_init__``
of the dataclass that the hand-written record of the same name replaced,
so its generated ``__init__``, ``__repr__``, ``__eq__`` and ``__hash__``
are the reference for the record's. Methods that the change left alone
(``sort_key``, the cached views, ``has_differences`` and the like) are left
out. ``tests/test_records.py`` compares the two.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from bomdiff.model import (
    _ID,
    _RELATIONSHIP_KEY,
    _SOURCE,
    _TARGET,
    BomFormat,
    ComponentId,
    ConfigError,
    RelationshipKind,
    _pairs,
)

# ------------------------------------------------------------------ model


@dataclass(frozen=True, slots=True)
class Component:
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
            if ordered != extra:
                extra = ordered
        if extra is not self.extra:
            object.__setattr__(self, "extra", extra)
        if len(hashes) > 1 and len(set(hashes)) != len(hashes):
            raise ValueError(f"component {self.id!r}: duplicate hash entries")


@dataclass(frozen=True, slots=True)
class Relationship:
    source: ComponentId
    target: ComponentId
    kind: RelationshipKind

    def __post_init__(self):
        if self.source == self.target:
            raise ValueError(f"relationship {self.source!r}: source and target must differ")


@dataclass(frozen=True)
class BomDocument:
    format: BomFormat
    spec_version: str
    subject: ComponentId | None
    components: tuple
    relationships: tuple
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
        by_name = {c.name: c for c in components}
        if len(by_name) == len(components):
            components = [by_name[name] for name in sorted(by_name)]
        else:
            ordered = sorted([(c.name, c.version or "", c.purl or "", c.id, c) for c in components])
            components = [key[4] for key in ordered]
        object.__setattr__(self, "components", tuple(components))
        object.__setattr__(self, "relationships", rels)


# ----------------------------------------------------------------- ingest


@dataclass(frozen=True)
class IngestOptions:
    dedup: bool = True
    fold_quantities: bool = True
    drop_name_prefixes: tuple[str, ...] = ()

    def __post_init__(self):
        if isinstance(self.drop_name_prefixes, str):
            raise ValueError("drop_name_prefixes must be a sequence of str, not a str")
        object.__setattr__(
            self, "drop_name_prefixes", tuple(self.drop_name_prefixes)
        )
        for p in self.drop_name_prefixes:
            if not isinstance(p, str) or not p:
                raise ValueError("drop_name_prefixes entries must be non-empty strings")


@dataclass(frozen=True)
class _Text:
    text: str
    error: str = ""


# ----------------------------------------------------------------- report


@dataclass(frozen=True)
class DiffReport:
    source_names: tuple[str, str]
    field_diffs: dict = field(default_factory=dict)
    fuzzy: tuple = ()
    graph: object = None
    findings: tuple = ()
    hash_coverage: tuple | None = None


@dataclass(frozen=True)
class DotStyle:
    matched: str = "#6baed6"
    left_only: str = "#fa9fb5"
    right_only: str = "#ffd92f"
    fuzzy_edge: str = "#ffd92f"
    fuzzy_penwidth: float = 3.0


# ------------------------------------------------------------ flatcompare


@dataclass(frozen=True)
class MultisetDiff:
    left_total: int
    right_total: int
    left_unique: int
    right_unique: int
    common: dict[str, tuple[int, int]]
    left_only: dict[str, int]
    right_only: dict[str, int]


@dataclass(frozen=True)
class ConsistencyFinding:
    category: object
    left_ids: tuple[str, ...]
    right_ids: tuple[str, ...]
    detail: str


# ------------------------------------------------------------------ fuzzy


@dataclass(frozen=True)
class FuzzyConfig:
    threshold: float = 0.85
    boost_floor: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.threshold <= 1.0:
            raise ConfigError(f"threshold {self.threshold} outside [0, 1]")


@dataclass(frozen=True)
class FuzzyMatch:
    left: str
    right: str
    score: float


# ----------------------------------------------------------- graphcompare


@dataclass(frozen=True)
class BomGraph:
    nodes: tuple
    kids: tuple[dict, dict]
    root_index: int
    source_name: str = ""


@dataclass(frozen=True)
class MergedGraph:
    left: BomGraph
    right: BomGraph
    lmatch: list[int]
    rmatch: list[int]
    links: tuple
