"""Field extraction and list/set comparison between two documents.

List comparisons keep multiplicities (Counter-based); set comparisons
collapse counts to one first. Count asymmetry for values present on both
sides stays inside `common` so the only-buckets line up with presence, not
quantity.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable
from enum import Enum

from bomdiff.model import BomDocument, Component, FieldSelector, _record, _set

# Default scope filter for organization comparisons; the Java runtime's own
# namespaces say nothing about third-party suppliers.
JAVA_STDLIB_ORG_PREFIXES = ("java.", "javax.", "jdk.", "sun.", "com.sun.")


def _org_values(c: Component) -> tuple[str, ...]:
    org = None if c.purl is None else extract_organization(c.purl)
    return () if org is None else (org,)


# The values each component contributes to a field; empty when it lacks it.
_EXTRACTORS: dict[FieldSelector, Callable[[Component], Iterable[str]]] = {
    FieldSelector.NAME: lambda c: (c.name,),
    FieldSelector.PURL: lambda c: () if c.purl is None else (c.purl,),
    FieldSelector.CPE: lambda c: () if c.cpe is None else (c.cpe,),
    FieldSelector.VENDOR: lambda c: () if c.vendor is None else (c.vendor,),
    FieldSelector.LICENSE: lambda c: c.licenses,
    FieldSelector.HASH_DIGEST: lambda c: [f"{alg}:{digest}" for alg, digest in c.hashes],
    FieldSelector.ORGANIZATION: _org_values,
}


def extract_field(doc: BomDocument, sel: FieldSelector) -> Counter:
    """Multiset of the selected field over all components, quantity-weighted.

    Components lacking the field contribute nothing; licenses and hashes
    flatten their per-component lists.
    """
    values_of = _EXTRACTORS[sel]
    out: Counter = Counter()
    for c in doc.components:
        q = c.quantity
        for value in values_of(c):
            out[value] += q
    return out


def field_coverage(doc: BomDocument, sel: FieldSelector) -> tuple[int, int]:
    """(components with at least one value for the field, components with none)."""
    values_of = _EXTRACTORS[sel]
    covered = sum(1 for c in doc.components if values_of(c))
    return covered, len(doc.components) - covered


def extract_organization(purl: str) -> str | None:
    """First two dot-separated segments of the purl's namespace head.

    Works on the path between the type and the version, so
    "pkg:maven/com.example.foo@1.2.3" gives "com.example" and
    "pkg:maven/org.slf4j/slf4j-api@2.0.9" gives "org.slf4j". A head with a
    single segment is returned whole; malformed purls give None.
    """
    if not purl.lower().startswith("pkg:"):
        return None
    rest = purl[4:].lstrip("/")
    rest = rest.partition("#")[0]
    rest = rest.partition("?")[0]
    if "@" in rest:
        rest = rest.rsplit("@", 1)[0]
    segments = [s for s in rest.split("/") if s]
    if len(segments) < 2:
        return None  # type alone, no namespace/name path
    head = segments[1]
    dotted = [s for s in head.split(".") if s]
    if not dotted:
        return None
    if len(dotted) == 1:
        return dotted[0]
    return f"{dotted[0]}.{dotted[1]}"


@_record
class MultisetDiff:
    """One field's values on two sides: totals, and each value's counts by bucket."""

    __slots__ = __match_args__ = ("left_total", "right_total", "left_unique", "right_unique",
                                  "common", "left_only", "right_only")
    left_total: int
    right_total: int
    left_unique: int
    right_unique: int
    common: dict[str, tuple[int, int]]
    left_only: dict[str, int]
    right_only: dict[str, int]

    def __init__(self, left_total, right_total, left_unique, right_unique, common, left_only,
                 right_only):
        _set(self, "left_total", left_total)
        _set(self, "right_total", right_total)
        _set(self, "left_unique", left_unique)
        _set(self, "right_unique", right_unique)
        _set(self, "common", common)
        _set(self, "left_only", left_only)
        _set(self, "right_only", right_only)

    @property
    def left_only_total(self) -> int:
        """Occurrences on the left with no counterpart occurrence on the
        right: whole left-only values plus per-value count surplus."""
        surplus = sum(max(0, l - r) for l, r in self.common.values())
        return surplus + sum(self.left_only.values())

    @property
    def right_only_total(self) -> int:
        surplus = sum(max(0, r - l) for l, r in self.common.values())
        return surplus + sum(self.right_only.values())


def _positive(counts) -> Counter:
    c = Counter(counts)
    return Counter({k: v for k, v in c.items() if v > 0})


def multiset_diff(left, right) -> MultisetDiff:
    """Exact-value comparison preserving counts.

    Values on both sides land in `common` with both counts, even when the
    counts differ; the only-buckets hold values entirely absent from the
    other side.
    """
    lc, rc = _positive(left), _positive(right)
    return MultisetDiff(
        left_total=sum(lc.values()),
        right_total=sum(rc.values()),
        left_unique=len(lc),
        right_unique=len(rc),
        common={v: (lc[v], rc[v]) for v in sorted(lc.keys() & rc.keys())},
        left_only={v: lc[v] for v in sorted(lc.keys() - rc.keys())},
        right_only={v: rc[v] for v in sorted(rc.keys() - lc.keys())},
    )


def set_diff(left, right) -> MultisetDiff:
    """multiset_diff after collapsing every count to one."""
    lc = Counter(dict.fromkeys(_positive(left), 1))
    rc = Counter(dict.fromkeys(_positive(right), 1))
    return multiset_diff(lc, rc)


def organization_delta(
    left: BomDocument,
    right: BomDocument,
    exclude_prefixes=JAVA_STDLIB_ORG_PREFIXES,
) -> MultisetDiff:
    """Set comparison of purl organizations, with excluded prefixes removed
    from both sides before diffing."""

    def excluded(org: str) -> bool:
        # a dotted prefix also covers the bare namespace root, since
        # extraction truncates "com.sun.mail" to "com.sun"
        return any(
            org.startswith(p) or (p.endswith(".") and org == p[:-1])
            for p in exclude_prefixes
        )

    def orgs(doc):
        extracted = extract_field(doc, FieldSelector.ORGANIZATION)
        return {org: n for org, n in extracted.items() if not excluded(org)}

    return set_diff(orgs(left), orgs(right))


class ConsistencyCategory(Enum):
    SAME_NAME_DIFFERENT_HASH = "same-name-different-hash"
    DIFFERENT_NAME_SAME_HASH = "different-name-same-hash"
    CONSENSUS = "consensus"


@_record
class ConsistencyFinding:
    """One name or digest on which the two sides' name x hash pairs agree or conflict."""

    __slots__ = __match_args__ = ("category", "left_ids", "right_ids", "detail")
    category: ConsistencyCategory
    left_ids: tuple[str, ...]
    right_ids: tuple[str, ...]
    detail: str

    def __init__(self, category, left_ids, right_ids, detail):
        _set(self, "category", category)
        _set(self, "left_ids", left_ids)
        _set(self, "right_ids", right_ids)
        _set(self, "detail", detail)


# (category, detail format) of each finding; the index is the category's rank
# in the output.
_FINDINGS = (
    (ConsistencyCategory.CONSENSUS,
     "name '{}' agrees on at least one digest ({} pair(s))"),
    (ConsistencyCategory.DIFFERENT_NAME_SAME_HASH,
     "digest {} appears under different names ({} pair(s))"),
    (ConsistencyCategory.SAME_NAME_DIFFERENT_HASH,
     "name '{}' has no digest in common ({} pair(s))"),
)


def cross_field_consistency(
    left: BomDocument, right: BomDocument
) -> list[ConsistencyFinding]:
    """Name x hash agreement between the two sides.

    Each cross-document component pair is judged independently: shared name
    and shared (algorithm, digest) agree (consensus); shared name with
    disjoint digests on both-hashed components conflicts one way; shared
    digest under different names conflicts the other. Hashless components
    never produce findings (field_coverage reports how many were skipped).
    Pair verdicts are grouped per name (or per digest) into findings.

    The right side is indexed by name and by (algorithm, digest), so only
    pairs that share a name or a digest are visited: the cost is
    O(n + m + pairs reported), not O(n * m).
    """
    by_name: dict[str, list] = {}
    by_digest: dict[tuple[str, str], list] = {}
    for rc in right.components:
        if rc.hashes:
            by_name.setdefault(rc.name, []).append(rc)
            for h in rc.hashes:
                by_digest.setdefault(h, []).append(rc)

    # one tally per (rank in _FINDINGS, name or digest); sorted, the keys
    # give the findings in category order, then by name or digest
    tallies: dict[tuple[int, str], tuple[set, set, int]] = {}

    def tally(key, lid, rid):
        ls, rs, n = tallies.get(key, (set(), set(), 0))
        ls.add(lid)
        rs.add(rid)
        tallies[key] = (ls, rs, n + 1)

    for lc in left.components:
        if not lc.hashes:
            continue
        lset = set(lc.hashes)
        for rc in by_name.get(lc.name, ()):
            rank = 2 if lset.isdisjoint(rc.hashes) else 0
            tally((rank, lc.name), lc.id, rc.id)
        # hashes are unique per component, so each (pair, digest) is
        # tallied once, as a full pairwise scan would
        for alg, digest in lc.hashes:
            for rc in by_digest.get((alg, digest), ()):
                if rc.name != lc.name:
                    tally((1, f"{alg}:{digest}"), lc.id, rc.id)

    findings = []
    for (rank, key), (ls, rs, n) in sorted(tallies.items()):
        category, detail = _FINDINGS[rank]
        findings.append(ConsistencyFinding(
            category, tuple(sorted(ls)), tuple(sorted(rs)), detail.format(key, n)
        ))
    return findings
