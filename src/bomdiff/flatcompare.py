"""Field extraction and list/set comparison between two documents.

List comparisons keep multiplicities (Counter-based); set comparisons
collapse counts to one first. Count asymmetry for values present on both
sides stays inside `common` so the only-buckets line up with presence, not
quantity.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum

from bomdiff.model import BomDocument

# Default scope filter for organization comparisons; the Java runtime's own
# namespaces say nothing about third-party suppliers.
JAVA_STDLIB_ORG_PREFIXES = ("java.", "javax.", "jdk.", "sun.", "com.sun.")


class FieldSelector(Enum):
    NAME = "name"
    PURL = "purl"
    CPE = "cpe"
    VENDOR = "vendor"
    LICENSE = "license"
    HASH_DIGEST = "hash"
    ORGANIZATION = "org"


def extract_field(doc: BomDocument, sel: FieldSelector) -> Counter:
    """Multiset of the selected field over all components, quantity-weighted.

    Components lacking the field contribute nothing; licenses and hashes
    flatten their per-component lists.
    """
    out: Counter = Counter()
    for c in doc.components:
        q = c.quantity
        if sel is FieldSelector.NAME:
            out[c.name] += q
        elif sel is FieldSelector.PURL:
            if c.purl is not None:
                out[c.purl] += q
        elif sel is FieldSelector.CPE:
            if c.cpe is not None:
                out[c.cpe] += q
        elif sel is FieldSelector.VENDOR:
            if c.vendor is not None:
                out[c.vendor] += q
        elif sel is FieldSelector.LICENSE:
            for lic in c.licenses:
                out[lic] += q
        elif sel is FieldSelector.HASH_DIGEST:
            for alg, digest in c.hashes:
                out[f"{alg}:{digest}"] += q
        elif sel is FieldSelector.ORGANIZATION:
            if c.purl is not None:
                org = extract_organization(c.purl)
                if org is not None:
                    out[org] += q
    return out


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


@dataclass(frozen=True)
class MultisetDiff:
    left_total: int
    right_total: int
    left_unique: int
    right_unique: int
    common: dict[str, tuple[int, int]]
    left_only: dict[str, int]
    right_only: dict[str, int]

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


@dataclass(frozen=True)
class ConsistencyFinding:
    category: ConsistencyCategory
    left_ids: tuple[str, ...]
    right_ids: tuple[str, ...]
    detail: str


def hash_coverage(doc: BomDocument) -> tuple[int, int]:
    """(components carrying at least one hash, components carrying none)."""
    hashed = sum(1 for c in doc.components if c.hashes)
    return hashed, len(doc.components) - hashed


def cross_field_consistency(
    left: BomDocument, right: BomDocument
) -> list[ConsistencyFinding]:
    """Name x hash agreement between the two sides.

    Each cross-document component pair is judged independently: shared name
    and shared (algorithm, digest) agree (consensus); shared name with
    disjoint digests on both-hashed components conflicts one way; shared
    digest under different names conflicts the other. Hashless components
    never produce findings (hash_coverage reports how many were skipped).
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

    consensus: dict[str, tuple[set, set, int]] = {}
    sndh: dict[str, tuple[set, set, int]] = {}
    dnsh: dict[str, tuple[set, set, int]] = {}

    def tally(bucket, key, lid, rid):
        ls, rs, n = bucket.get(key, (set(), set(), 0))
        ls.add(lid)
        rs.add(rid)
        bucket[key] = (ls, rs, n + 1)

    for lc in left.components:
        if not lc.hashes:
            continue
        lset = set(lc.hashes)
        for rc in by_name.get(lc.name, ()):
            if lset.isdisjoint(rc.hashes):
                tally(sndh, lc.name, lc.id, rc.id)
            else:
                tally(consensus, lc.name, lc.id, rc.id)
        # hashes are unique per component, so each (pair, digest) is
        # tallied once, as a full pairwise scan would
        for alg, digest in lc.hashes:
            for rc in by_digest.get((alg, digest), ()):
                if rc.name != lc.name:
                    tally(dnsh, f"{alg}:{digest}", lc.id, rc.id)

    findings = []
    for name in sorted(consensus):
        ls, rs, n = consensus[name]
        findings.append(
            ConsistencyFinding(
                ConsistencyCategory.CONSENSUS,
                tuple(sorted(ls)),
                tuple(sorted(rs)),
                f"name '{name}' agrees on at least one digest ({n} pair(s))",
            )
        )
    for key in sorted(dnsh):
        ls, rs, n = dnsh[key]
        findings.append(
            ConsistencyFinding(
                ConsistencyCategory.DIFFERENT_NAME_SAME_HASH,
                tuple(sorted(ls)),
                tuple(sorted(rs)),
                f"digest {key} appears under different names ({n} pair(s))",
            )
        )
    for name in sorted(sndh):
        ls, rs, n = sndh[name]
        findings.append(
            ConsistencyFinding(
                ConsistencyCategory.SAME_NAME_DIFFERENT_HASH,
                tuple(sorted(ls)),
                tuple(sorted(rs)),
                f"name '{name}' has no digest in common ({n} pair(s))",
            )
        )
    return findings
