"""Graph construction from documents and two-phase structural merging.

Matching is name-driven and structure-constrained: phase 1 pairs equal
names depth-first from the matched roots, phase 2 offers fuzzy candidates
only between unmatched children of already-matched parents. Everything is
deterministic under permutation of the source document because nodes,
edges and children are always enumerated in canonical order.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from bomdiff.fuzzy import FuzzyConfig, all_pairs_matches, jaro_winkler
# canonical_form is not called here (see build_graph); perfbench/traced.py
# wraps graphcompare.canonical_form by name, so the name stays importable.
from bomdiff.model import BomDocument, BomFormat, RelationshipKind, canonical_form  # noqa: F401

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
        # nodes are in canonical order, so the index is the sort key
        index = {n.id: i for i, n in enumerate(self.nodes)}
        return {
            key: tuple(sorted(set(kids), key=index.__getitem__))
            for key, kids in buckets.items()
        }

    def children(self, node_id: str, kind: RelationshipKind) -> tuple[str, ...]:
        return self._children.get((node_id, kind), ())


def _extend_reach(start: str, out: dict[str, list[str]], reach: set[str]) -> None:
    """Add every node reachable from ``start`` to ``reach``, skipping nodes
    already in it, so repeated calls over one graph cost O(V + E) in all."""
    reach.add(start)
    stack = [start]
    while stack:
        for t in out.get(stack.pop(), ()):
            if t not in reach:
                reach.add(t)
                stack.append(t)


def build_graph(doc: BomDocument) -> BomGraph:
    """One node per component instance; quantity q spawns q sibling nodes.

    A synthetic root named after the source is added when the document has
    no subject or the subject does not reach every node. It adopts every
    in-degree-zero node, then walks the nodes in canonical order and adopts
    each one still unreached (a representative of a cycle no adopted node
    reaches), so everything hangs off the root in one linear sweep.

    The result does not depend on the order in which ``doc`` lists its
    components or relationships, so the document is not re-sorted: the
    instance ids made for one component (``id#i``, then ``~`` on a clash)
    can clash only with component ids, never with another component's
    instances, and nodes, edges and adoption order are all sorted here.
    """
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
    out: dict[str, list[str]] = {}
    for s, t, _ in edges:
        out.setdefault(s, []).append(t)

    nodes.sort(key=GraphNode.sort_key)
    subject_instances = instances.get(doc.subject, []) if doc.subject else []
    root = None
    if len(subject_instances) == 1:
        candidate = subject_instances[0]
        reach: set[str] = set()
        _extend_reach(candidate, out, reach)
        if len(reach) == len(nodes):
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
        targets = {t for _, t, _ in edges}
        reach = {root}
        adopted = [n.id for n in nodes if n.id not in targets]
        for nid in adopted:
            _extend_reach(nid, out, reach)
        for n in nodes:
            if n.id not in reach:
                adopted.append(n.id)
                _extend_reach(n.id, out, reach)
        edges.update((root, nid, adopt_kind) for nid in adopted)
        insort(
            nodes,
            GraphNode(root, doc.source_name or "root", None, None, None),
            key=GraphNode.sort_key,
        )

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
    ("left"|"right", id) for one-sided nodes; ``edges`` re-expresses the
    edges of both inputs over those references, built on first read.
    """

    pairs: tuple[tuple[str, str], ...]
    left_only: tuple[str, ...]
    right_only: tuple[str, ...]
    fuzzy_links: tuple[tuple[str, str, float], ...]
    left: BomGraph
    right: BomGraph

    @cached_property
    def edges(
        self,
    ) -> tuple[tuple[tuple[str, str], tuple[str, str], RelationshipKind], ...]:
        lmatch = dict(self.pairs)
        rmatch = {r: l for l, r in self.pairs}

        def lref(n: str) -> tuple[str, str]:
            return ("both", n) if n in lmatch else ("left", n)

        def rref(n: str) -> tuple[str, str]:
            return ("both", rmatch[n]) if n in rmatch else ("right", n)

        medges = {(lref(s), lref(t), k) for s, t, k in self.left.edges}
        medges |= {(rref(s), rref(t), k) for s, t, k in self.right.edges}
        return tuple(sorted(medges, key=lambda e: (e[0], e[1], e[2].value)))


def _free_by_name(
    kids: tuple[str, ...],
    matched: dict[str, str],
    name: dict[str, str],
    index: dict[str, int],
) -> dict[str, list[int]]:
    """Indices of the unmatched ``kids`` grouped by name, each group in
    canonical order because ``kids`` is."""
    groups: dict[str, list[int]] = {}
    for c in kids:
        if c not in matched:
            groups.setdefault(name[c], []).append(index[c])
    return groups


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

    # Keys are unique within a graph and ``nodes`` is sorted by them, so a
    # node's index is its canonical rank. Built per call: a map cached on
    # the graph would outlive the merge.
    lindex = {n.id: i for i, n in enumerate(left.nodes)}
    rindex = {n.id: i for i, n in enumerate(right.nodes)}
    pairs = sorted(lmatch.items(), key=lambda p: lindex[p[0]])
    left_only = tuple(
        n.id for n in left.nodes if n.id not in lmatch
    )
    right_only = tuple(
        n.id for n in right.nodes if n.id not in rmatch
    )

    # Phase 2: fuzzy candidates only between unmatched children of matched
    # parents, same edge kind, then one global greedy pass by score. The
    # candidates are kept as blocks: the free children of one (parent pair,
    # kind) with one left name x those with one right name, all sharing
    # that name pair's score, so each distinct name pair is scored once.
    scores: dict[tuple[str, str], float] = {}
    levels: dict[float, list[tuple[list[int], list[int]]]] = {}
    for u, v in pairs:
        for kind in _KINDS:
            lgroups = _free_by_name(left.children(u, kind), lmatch, lname, lindex)
            if not lgroups:
                continue
            rgroups = _free_by_name(right.children(v, kind), rmatch, rname, rindex)
            for a, lg in lgroups.items():
                for b, rg in rgroups.items():
                    if a == b:
                        continue
                    s = scores.get((a, b))
                    if s is None:
                        s = scores[(a, b)] = jaro_winkler(a, b, cfg)
                    if s > cfg.threshold:
                        levels.setdefault(s, []).append((lg, rg))

    # The greedy over (-score, left key, right key), one score level at a
    # time: each free left node, in key order, takes the smallest unused
    # right node among its blocks. Right nodes only ever become used, so a
    # pointer per block that skips them moves forward only: a level costs
    # O(its block sides + its matches), plus sorting its left nodes.
    used_l: set[int] = set()
    used_r: set[int] = set()
    fuzzy_links = []
    for s in sorted(levels, reverse=True):
        blocks = levels[s]
        by_left: dict[int, list[int]] = {}
        for b, (lg, _) in enumerate(blocks):
            for i in lg:
                if i not in used_l:
                    by_left.setdefault(i, []).append(b)
        ptr = [0] * len(blocks)
        for i in sorted(by_left):
            best = None
            for b in by_left[i]:
                rg = blocks[b][1]
                p = ptr[b]
                while p < len(rg) and rg[p] in used_r:
                    p += 1
                ptr[b] = p
                if p < len(rg) and (best is None or rg[p] < best):
                    best = rg[p]
            if best is not None:
                used_l.add(i)
                used_r.add(best)
                fuzzy_links.append((left.nodes[i].id, right.nodes[best].id, s))

    return MergedGraph(
        pairs=tuple(pairs),
        left_only=left_only,
        right_only=right_only,
        fuzzy_links=tuple(fuzzy_links),
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
