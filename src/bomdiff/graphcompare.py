"""Graph construction from documents and two-phase structural merging.

Matching is name-driven and structure-constrained: phase 1 pairs equal
names depth-first from the matched roots, phase 2 offers fuzzy candidates
only between unmatched children of already-matched parents. Everything is
deterministic under permutation of the source document because nodes,
edges and children are always enumerated in canonical order.

Both work on node indices: node i is ``nodes[i]``, in the document's
canonical order, and ``kids[k][s]`` lists the targets of node s's kind-k
edges (0 contains, 1 depends-on, as ``.value`` sorts) in index order. Each
edge and each match is stored once; the views over string ids
(``BomGraph.edges``, ``MergedGraph.pairs`` and the like) are built on first
read.

Two invariants keep the work per component and per parent rather than per
node:

- Twins. The q instances of a component of quantity q are twins: one name,
  and the same parents and children, because a relationship joins every
  instance of its source to every instance of its target. ``build_graph``
  works out in-degree, reachability and adoption on the components, builds
  each component's kid list once, and expands both to instance indices.
- Childless pairs. A merge pair whose left node has no children can match
  nothing, descend nowhere and offer no phase-2 candidates, so phase 1
  never pushes one and phase 2 never visits one. Skipping them changes
  neither the order of the pairs that do act nor any result.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property
from typing import NamedTuple

from bomdiff.fuzzy import FuzzyConfig, _may_pass, all_pairs_matches, jaro_winkler
# unused here, but perfbench/traced.py wraps graphcompare.canonical_form
from bomdiff.model import BomDocument, BomFormat, Component, RelationshipKind, canonical_form  # noqa: F401
from bomdiff.model import _record, _set

_KINDS = (RelationshipKind.CONTAINS, RelationshipKind.DEPENDS_ON)


class GraphNode(NamedTuple):
    id: str
    name: str
    component_id: str | None  # None only for a synthetic root
    instance: int = 1


@_record
class BomGraph:
    """Nodes in canonical order, and ``kids[k]``: node index -> its kind-k
    targets in index order, the graph's only copy of its edges."""

    # no __slots__: the cached views live in the instance __dict__
    __match_args__ = ("nodes", "kids", "root_index", "source_name")
    nodes: tuple[GraphNode, ...]
    kids: tuple[dict, dict]
    root_index: int
    source_name: str

    def __init__(self, nodes, kids, root_index, source_name=""):
        _set(self, "nodes", nodes)
        _set(self, "kids", kids)
        _set(self, "root_index", root_index)
        _set(self, "source_name", source_name)

    @property
    def root(self) -> str:
        return self.nodes[self.root_index].id

    @cached_property
    def by_id(self) -> dict[str, GraphNode]:
        return {n.id: n for n in self.nodes}

    @cached_property
    def edges(self) -> tuple:
        ids = [n.id for n in self.nodes]
        es = sorted((ids[s], ids[t], k) for k, out in enumerate(self.kids)
                    for s, ts in out.items() for t in ts)
        return tuple((s, t, _KINDS[k]) for s, t, k in es)


def _extend_reach(starts, outs, reach: list):
    """Mark in ``reach`` the nodes ``starts`` and what they reach over the
    dicts ``outs``, skipping marked nodes: O(V + E) over repeated calls."""
    stack = [s for s in starts if not reach[s]]
    for s in stack:
        reach[s] = True
    while stack:
        s = stack.pop()
        for out in outs:
            for t in out.get(s, ()):
                if not reach[t]:
                    reach[t] = True
                    stack.append(t)


def build_graph(doc: BomDocument) -> BomGraph:
    """One node per component instance; quantity q spawns q sibling nodes.

    A synthetic root named after the source is added when the document has
    no subject or the subject does not reach every node. It adopts every
    in-degree-zero node, then walks the nodes in canonical order and adopts
    each one still unreached (a representative of a cycle no adopted node
    reaches), so everything hangs off the root in one linear sweep.

    The document's components are in canonical order, so its nodes are
    too. Instance ids (``id#i``, then ``~`` on a clash) can clash only with
    component ids. A relationship listed twice adds its edges once.

    The instances of one component are twins: a relationship joins every
    instance of its source to every instance of its target, so twins share
    their name, parents and children. In-degree, reachability and adoption
    are therefore worked out on the components and expanded to instances.
    """
    comps = doc.components
    cidx = {c.id: i for i, c in enumerate(comps)}
    # succ[k][a]: the components a's kind-k relationships reach, each once
    succ = ({}, {})
    for r in doc.relationships:
        succ[r.kind is RelationshipKind.DEPENDS_ON].setdefault(cidx[r.source], set()).add(
            cidx[r.target])

    # A subject of quantity 1 reaches every instance iff it reaches every
    # component.
    subject = cidx.get(doc.subject)
    reach = [False] * len(comps)
    if subject is not None and comps[subject].quantity == 1:
        _extend_reach((subject,), succ, reach)
    root, slot = None, -1
    if subject is None or False in reach:
        rid = "(root)"
        while rid in cidx:
            rid += "~"
        root = GraphNode(rid, doc.source_name or "root", None)
        # the root sorts as a component with its name and no version, purl or id
        slot = bisect_left(comps, (root.name, "", "", ""), key=Component.sort_key)

    # An instance id c#j can clash only with a component id that has the
    # prefix c before its last "#"; one lookup per component rules it out.
    clashing = {i.rpartition("#")[0] for i in cidx if "#" in i}
    # tuple.__new__ skips NamedTuple's Python-level __new__ (0.47 -> 0.19 us a node)
    nodes, spans, node = [], [], tuple.__new__
    for i, c in enumerate((*comps, None)):  # the root may go last
        if i == slot:
            p = len(nodes)
            nodes.append(root)
        if c is None:
            break
        q, cid, name = c.quantity, c.id, c.name
        spans.append(range(len(nodes), len(nodes) + q))
        if q == 1:
            nodes.append(node(GraphNode, (cid, name, cid, 1)))
        elif cid not in clashing:
            nodes += [node(GraphNode, (f"{cid}#{j}", name, cid, j)) for j in range(1, q + 1)]
        else:
            for j in range(1, q + 1):
                nid = f"{cid}#{j}"
                while nid in cidx:
                    nid += "~"
                nodes.append(node(GraphNode, (nid, name, cid, j)))
    if root is None:
        p = spans[subject].start

    # Twins get equal kid lists: each component's is built once, in index
    # order (spans ascend with the component index), and each instance
    # gets its own copy.
    kids = ({}, {})
    for out, by_comp in zip(kids, succ):
        for a, bs in by_comp.items():
            ts = [t for b in sorted(bs) for t in spans[b]]
            first, *twins = spans[a]
            out[first] = ts
            for s in twins:
                out[s] = ts.copy()

    if root is not None:
        # An in-degree-zero component has all its instances adopted. An
        # instance reached over an edge has all its twins reached too, so
        # the sweep adopts one instance of an unreached component, and its
        # twins as well unless that instance reaches its own component.
        adopt = [2] * len(comps)  # 0 none, 1 the first instance, 2 all
        for by_comp in succ:
            for bs in by_comp.values():
                for b in bs:
                    adopt[b] = 0
        reach = [False] * len(comps)
        _extend_reach([c for c, a in enumerate(adopt) if a], succ, reach)
        for c in range(len(comps)):
            if not reach[c]:
                _extend_reach([t for by_comp in succ for t in by_comp.get(c, ())], succ, reach)
                adopt[c] = 1 if reach[c] else 2
                reach[c] = True
        adopted = []
        for c, a in enumerate(adopt):
            if a == 2:
                adopted.extend(spans[c])
            elif a:
                adopted.append(spans[c].start)
        kids[doc.format is not BomFormat.GENERIC_HBOM][p] = adopted

    return BomGraph(tuple(nodes), kids, p, doc.source_name)


class MatchStats(NamedTuple):
    matched: int
    left_only: int
    right_only: int
    fuzzy: int


@_record
class MergedGraph:
    """Partition of both node sets plus fuzzy links between leftovers.

    ``lmatch[i]`` is the right node matched to left node i, or -1;
    ``rmatch`` the converse; ``links`` holds the (left index, right index,
    score) fuzzy links in the order the greedy made them. ``pairs``,
    ``left_only``, ``right_only`` and ``fuzzy_links`` are views of these
    over node ids, in index order, built on first read.
    """

    # no __slots__: the cached views live in the instance __dict__
    __match_args__ = ("left", "right", "lmatch", "rmatch", "links")
    left: BomGraph
    right: BomGraph
    lmatch: list[int]
    rmatch: list[int]
    links: tuple

    def __init__(self, left, right, lmatch, rmatch, links):
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "lmatch", lmatch)
        _set(self, "rmatch", rmatch)
        _set(self, "links", links)

    @cached_property
    def pairs(self) -> tuple[tuple[str, str], ...]:
        left, right = self.left.nodes, self.right.nodes
        return tuple((left[i].id, right[j].id) for i, j in enumerate(self.lmatch) if j >= 0)

    @cached_property
    def left_only(self) -> tuple[str, ...]:
        return tuple(n.id for n, j in zip(self.left.nodes, self.lmatch) if j < 0)

    @cached_property
    def right_only(self) -> tuple[str, ...]:
        return tuple(n.id for n, i in zip(self.right.nodes, self.rmatch) if i < 0)

    @cached_property
    def fuzzy_links(self) -> tuple[tuple[str, str, float], ...]:
        left, right = self.left.nodes, self.right.nodes
        return tuple((left[i].id, right[j].id, s) for i, j, s in self.links)

    @cached_property
    def ranked(self) -> tuple[list, list, list]:
        """Each left and right node's reference rank, where a reference is
        ("both", left id) for a matched pair and ("left"|"right", id) for a
        one-sided node, in (tag, id) order; then the merged edges of both
        inputs as sorted codes ``(s * n + t) * 2 + k`` over those ranks."""
        lm, rm, lrank = self.lmatch, self.rmatch, [0] * len(self.lmatch)
        ids = [n.id for n in self.left.nodes]
        order = sorted(range(len(lm)), key=ids.__getitem__)
        both = [i for i in order if lm[i] >= 0]
        for r, i in enumerate(both + [i for i in order if lm[i] < 0]):
            lrank[i] = r
        ids = [n.id for n in self.right.nodes]
        rrank = [lrank[i] for i in rm]  # one-sided: set below
        order = sorted((j for j, i in enumerate(rm) if i < 0), key=ids.__getitem__)
        for r, j in enumerate(order, len(lm)):
            rrank[j] = r
        n = len(lm) + rm.count(-1)
        codes = sorted({
            (base + rank[t]) * 2 + k
            for g, rank in ((self.left, lrank), (self.right, rrank))
            for k, out in enumerate(g.kids)
            for s, ts in out.items() for base in [rank[s] * n] for t in ts
        })
        return lrank, rrank, codes


def _free(kids, match: list, name: list) -> dict:
    """The unmatched ``kids`` grouped by name, in ``kids`` order."""
    groups = {}
    for c in kids:
        if match[c] < 0:
            groups.setdefault(name[c], []).append(c)
    return groups


def merge_graphs(
    left: BomGraph, right: BomGraph, cfg: FuzzyConfig = FuzzyConfig()
) -> MergedGraph:
    nr = len(right.nodes)
    lmatch, rmatch = [-1] * len(left.nodes), [-1] * nr
    lmatch[left.root_index] = right.root_index
    rmatch[right.root_index] = left.root_index
    lname = [n.name for n in left.nodes]
    rname = [n.name for n in right.nodes]
    kinds = tuple(zip(left.kids, right.kids))
    # Only a pair whose left node has children can match or descend; any
    # other pair would just be marked visited, so it is never pushed.
    parents = left.kids[0].keys() | left.kids[1].keys()

    # Phase 1: depth-first exact-name pairing from the root pair. Children
    # are grouped per edge kind; same-name groups zip in canonical order
    # (right groups reversed, for pop()); pair (u, v) is u * nr + v.
    visited = set()
    stack = [(left.root_index, right.root_index)]
    while stack:
        u, v = stack.pop()
        if u * nr + v in visited:
            continue
        visited.add(u * nr + v)
        descend = []
        for lk, rk in kinds:
            if u not in lk:
                continue
            rgroups = _free(reversed(rk.get(v, ())), rmatch, rname)
            for l in lk[u]:
                r = lmatch[l]
                if r >= 0:
                    if l in parents and l * nr + r not in visited:
                        descend.append((l, r))
                    continue
                bucket = rgroups.get(lname[l])
                if bucket:
                    r = bucket.pop()
                    lmatch[l] = r
                    rmatch[r] = l
                    if l in parents:
                        descend.append((l, r))
        stack.extend(reversed(descend))
    matched = [(u, lmatch[u]) for u in sorted(parents) if lmatch[u] >= 0]

    # Phase 2: fuzzy candidates only between unmatched children of matched
    # parents, same edge kind, then one global greedy pass by score. The
    # candidates are kept as blocks: the free children of one (parent pair,
    # kind) with one left name x those with one right name, all sharing
    # that name pair's score, so each distinct name pair is scored once, and
    # only when the score bound of compare --fuzzy lets it pass (a pair the
    # bound rules out counts as 0.0, which exceeds no threshold).
    scores: dict[tuple[str, str], float] = {}
    levels: dict[float, list[tuple[list, list]]] = {}
    for u, v in matched:
        for lk, rk in kinds:
            if u not in lk or not (lgroups := _free(lk[u], lmatch, lname)):
                continue
            rgroups = _free(rk.get(v, ()), rmatch, rname)
            for a, lg in lgroups.items():
                for b, rg in rgroups.items():
                    if a == b:
                        continue
                    s = scores.get((a, b))
                    if s is None:
                        s = scores[(a, b)] = (jaro_winkler(a, b, cfg)
                                              if _may_pass(a, b, cfg.threshold) else 0.0)
                    if s > cfg.threshold:
                        levels.setdefault(s, []).append((lg, rg))

    # The greedy over (-score, left index, right index), one score level at
    # a time: each free left node, in index order, takes the smallest unused
    # right node among its blocks. Right nodes only ever become used, so a
    # pointer per block that skips them moves forward only: a level costs
    # O(its block sides + its matches), plus sorting its left nodes.
    used_l, used_r = set(), set()
    links = []
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
                links.append((i, best, s))

    return MergedGraph(left, right, lmatch, rmatch, tuple(links))


def match_stats(m: MergedGraph) -> MatchStats:
    left_only, right_only = m.lmatch.count(-1), m.rmatch.count(-1)
    return MatchStats(len(m.lmatch) - left_only, left_only, right_only, len(m.links))


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
    unconstrained = len(all_pairs_matches(names_l, names_r, cfg, exclude_exact=True))
    return unconstrained, len(merge_graphs(left, right, cfg).links)
