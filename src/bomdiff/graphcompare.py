"""Graph construction from documents and two-phase structural merging.

Matching is name-driven and structure-constrained: phase 1 pairs equal
names depth-first from the matched roots, phase 2 offers fuzzy candidates
only between unmatched children of already-matched parents. Everything is
deterministic under permutation of the source document because graphs are
built from canonical form and children are always enumerated in canonical
order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from bomdiff.fuzzy import FuzzyConfig, all_pairs_matches, jaro_winkler
from bomdiff.model import BomDocument, BomFormat, RelationshipKind, canonical_form

_KINDS = (RelationshipKind.CONTAINS, RelationshipKind.DEPENDS_ON)


@dataclass(frozen=True)
class GraphNode:
    id: str
    name: str
    version: str | None
    purl: str | None
    component_id: str | None  # None only for a synthetic root
    instance: int = 1

    def sort_key(self):
        return (
            self.name,
            self.version or "",
            self.purl or "",
            self.component_id or "",
            self.instance,
        )


@dataclass(frozen=True)
class BomGraph:
    nodes: tuple[GraphNode, ...]
    edges: tuple[tuple[str, str, RelationshipKind], ...]
    root: str
    source_name: str = ""

    @cached_property
    def by_id(self) -> dict[str, GraphNode]:
        return {n.id: n for n in self.nodes}

    @cached_property
    def _children(self) -> dict[tuple[str, RelationshipKind], tuple[str, ...]]:
        buckets: dict[tuple[str, RelationshipKind], list[str]] = {}
        for s, t, k in self.edges:
            buckets.setdefault((s, k), []).append(t)
        by = self.by_id
        return {
            key: tuple(sorted(set(kids), key=lambda i: by[i].sort_key()))
            for key, kids in buckets.items()
        }

    def children(self, node_id: str, kind: RelationshipKind) -> tuple[str, ...]:
        return self._children.get((node_id, kind), ())


def _reachable(root: str, edges) -> set[str]:
    out: dict[str, list[str]] = {}
    for s, t, _ in edges:
        out.setdefault(s, []).append(t)
    seen = {root}
    stack = [root]
    while stack:
        for t in out.get(stack.pop(), ()):
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return seen


def build_graph(doc: BomDocument) -> BomGraph:
    """One node per component instance; quantity q spawns q sibling nodes.

    A synthetic root named after the source is added when the document has
    no subject or the subject does not reach every node; unreachable
    in-degree-zero nodes are adopted first, then cycle representatives in
    canonical order, until everything hangs off the root.
    """
    doc = canonical_form(doc)

    nodes: list[GraphNode] = []
    instances: dict[str, list[str]] = {}
    taken = {c.id for c in doc.components}
    for c in doc.components:
        if c.quantity == 1:
            ids = [c.id]
        else:
            ids = []
            for i in range(1, c.quantity + 1):
                nid = f"{c.id}#{i}"
                while nid in taken:
                    nid += "~"
                taken.add(nid)
                ids.append(nid)
        instances[c.id] = ids
        for i, nid in enumerate(ids, start=1):
            nodes.append(GraphNode(nid, c.name, c.version, c.purl, c.id, i))

    edges = set()
    for r in doc.relationships:
        for s in instances[r.source]:
            for t in instances[r.target]:
                edges.add((s, t, r.kind))

    subject_instances = instances.get(doc.subject, []) if doc.subject else []
    root = None
    if len(subject_instances) == 1:
        candidate = subject_instances[0]
        if len(_reachable(candidate, edges)) == len(nodes):
            root = candidate

    if root is None:
        root = "(root)"
        while root in taken:
            root += "~"
        adopt_kind = (
            RelationshipKind.CONTAINS
            if doc.format is BomFormat.GENERIC_HBOM
            else RelationshipKind.DEPENDS_ON
        )
        root_node = GraphNode(root, doc.source_name or "root", None, None, None)
        ordered = sorted(nodes, key=GraphNode.sort_key)
        reach = {root}
        while len(reach) < len(nodes) + 1:
            targets = {t for _, t, _ in edges}
            missing = [n.id for n in ordered if n.id not in reach]
            batch = [nid for nid in missing if nid not in targets] or missing[:1]
            for nid in batch:
                edges.add((root, nid, adopt_kind))
            reach = _reachable(root, edges)
        nodes.append(root_node)

    nodes.sort(key=GraphNode.sort_key)
    return BomGraph(
        nodes=tuple(nodes),
        edges=tuple(sorted(edges, key=lambda e: (e[0], e[1], e[2].value))),
        root=root,
        source_name=doc.source_name,
    )


class MatchStats(NamedTuple):
    matched: int
    left_only: int
    right_only: int
    fuzzy: int


@dataclass(frozen=True)
class MergedGraph:
    """Partition of both node sets plus fuzzy links between leftovers.

    Merged node references are ("both", left id) for matched pairs and
    ("left"|"right", id) for one-sided nodes; edges from both inputs are
    re-expressed over those references.
    """

    pairs: tuple[tuple[str, str], ...]
    left_only: tuple[str, ...]
    right_only: tuple[str, ...]
    fuzzy_links: tuple[tuple[str, str, float], ...]
    edges: tuple[tuple[tuple[str, str], tuple[str, str], RelationshipKind], ...]
    left: BomGraph
    right: BomGraph


def merge_graphs(
    left: BomGraph, right: BomGraph, cfg: FuzzyConfig = FuzzyConfig()
) -> MergedGraph:
    lmatch: dict[str, str] = {left.root: right.root}
    rmatch: dict[str, str] = {right.root: left.root}
    lname = {n.id: n.name for n in left.nodes}
    rname = {n.id: n.name for n in right.nodes}

    # Phase 1: depth-first exact-name pairing from the root pair. Children
    # are grouped per edge kind; same-name groups zip in canonical order.
    visited: set[tuple[str, str]] = set()
    stack: list[tuple[str, str]] = [(left.root, right.root)]
    while stack:
        u, v = stack.pop()
        if (u, v) in visited:
            continue
        visited.add((u, v))
        descend: list[tuple[str, str]] = []
        for kind in _KINDS:
            lkids = left.children(u, kind)
            rkids = right.children(v, kind)
            rgroups: dict[str, deque[str]] = {}
            for r in rkids:
                if r not in rmatch:
                    rgroups.setdefault(rname[r], deque()).append(r)
            for l in lkids:
                if l in lmatch:
                    if (l, lmatch[l]) not in visited:
                        descend.append((l, lmatch[l]))
                    continue
                bucket = rgroups.get(lname[l])
                if bucket:
                    r = bucket.popleft()
                    lmatch[l] = r
                    rmatch[r] = l
                    descend.append((l, r))
        stack.extend(reversed(descend))

    pairs = sorted(
        ((l, r) for l, r in lmatch.items()),
        key=lambda p: left.by_id[p[0]].sort_key(),
    )
    left_only = tuple(
        n.id for n in left.nodes if n.id not in lmatch
    )
    right_only = tuple(
        n.id for n in right.nodes if n.id not in rmatch
    )

    # Phase 2: fuzzy candidates only between unmatched children of matched
    # parents, same edge kind, then one global greedy pass by score.
    score_cache: dict[tuple[str, str], float] = {}

    def score(a: str, b: str) -> float:
        key = (a, b)
        if key not in score_cache:
            score_cache[key] = jaro_winkler(a, b, cfg)
        return score_cache[key]

    candidates: dict[tuple[str, str], float] = {}
    for u, v in pairs:
        for kind in _KINDS:
            lfree = [c for c in left.children(u, kind) if c not in lmatch]
            rfree = [c for c in right.children(v, kind) if c not in rmatch]
            for l in lfree:
                for r in rfree:
                    if lname[l] == rname[r]:
                        continue
                    s = score(lname[l], rname[r])
                    if s > cfg.threshold:
                        candidates[(l, r)] = s

    ranked = sorted(
        candidates.items(),
        key=lambda item: (
            -item[1],
            left.by_id[item[0][0]].sort_key(),
            right.by_id[item[0][1]].sort_key(),
        ),
    )
    used_l: set[str] = set()
    used_r: set[str] = set()
    fuzzy_links = []
    for (l, r), s in ranked:
        if l in used_l or r in used_r:
            continue
        used_l.add(l)
        used_r.add(r)
        fuzzy_links.append((l, r, s))

    def lref(n: str) -> tuple[str, str]:
        return ("both", n) if n in lmatch else ("left", n)

    def rref(n: str) -> tuple[str, str]:
        return ("both", rmatch[n]) if n in rmatch else ("right", n)

    medges = {(lref(s), lref(t), k) for s, t, k in left.edges}
    medges |= {(rref(s), rref(t), k) for s, t, k in right.edges}

    return MergedGraph(
        pairs=tuple(pairs),
        left_only=left_only,
        right_only=right_only,
        fuzzy_links=tuple(fuzzy_links),
        edges=tuple(
            sorted(medges, key=lambda e: (e[0], e[1], e[2].value))
        ),
        left=left,
        right=right,
    )


def match_stats(m: MergedGraph) -> MatchStats:
    return MatchStats(
        matched=len(m.pairs),
        left_only=len(m.left_only),
        right_only=len(m.right_only),
        fuzzy=len(m.fuzzy_links),
    )


def structure_constrained_reduction(
    left: BomGraph, right: BomGraph, cfg: FuzzyConfig = FuzzyConfig()
) -> tuple[int, int]:
    """(unconstrained all-pairs name matches, structure-constrained links).

    The first count ignores structure entirely: every similar (non-equal)
    name pair across the two node-name sets. The second is what the merge
    actually links once candidates must sit under matched parents.
    """
    names_l = {n.name for n in left.nodes}
    names_r = {n.name for n in right.nodes}
    unconstrained = len(
        all_pairs_matches(names_l, names_r, cfg, exclude_exact=True)
    )
    merged = merge_graphs(left, right, cfg)
    return unconstrained, len(merged.fuzzy_links)
