import json
import time
from collections import deque
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CON, DEP, comp, doc_from
from bomdiff.fuzzy import FuzzyConfig, all_pairs_matches, jaro_winkler
from bomdiff.graphcompare import (
    GraphNode,
    build_graph,
    match_stats,
    merge_graphs,
    structure_constrained_reduction,
)
from bomdiff.ingest import parse_cyclonedx, parse_hbom
from bomdiff.model import BomFormat, Component, Relationship, RelationshipKind
from bomdiff.report import (
    DiffReport,
    DotStyle,
    _dot_escape,
    graph_stats_line,
    render_json,
    render_table,
    to_dot,
)


def test_build_graph_expands_quantity():
    g = build_graph(doc_from([comp("board", "board"), comp("chip", "chip", quantity=3)],
                             [("board", "chip", CON)], subject="board"))
    chip_ids = sorted(n.id for n in g.nodes if n.name == "chip")
    assert chip_ids == ["chip#1", "chip#2", "chip#3"]
    assert [n.instance for n in g.nodes if n.name == "chip"] == [1, 2, 3]
    # every instance hangs off the board
    assert {(s, t) for s, t, _ in g.edges} == {("board", c) for c in chip_ids}


def test_build_graph_edge_cross_product():
    g = build_graph(doc_from([comp("a", "a", quantity=2), comp("b", "b", quantity=3)],
                             [("a", "b", DEP)]))
    ab = {(s, t) for s, t, _ in g.edges if s.startswith("a") and t.startswith("b")}
    assert len(ab) == 6  # 2 parents x 3 children


def test_build_graph_subject_is_root():
    g = build_graph(doc_from([comp("app", "app"), comp("lib", "lib")],
                             [("app", "lib", DEP)], subject="app"))
    assert g.root == "app"
    assert len(g.nodes) == 2


def test_build_graph_synthetic_root_for_forest():
    g = build_graph(doc_from([comp("a", "a"), comp("b", "b")], source="mybom"))
    assert g.by_id[g.root].name == "mybom"
    assert g.by_id[g.root].component_id is None
    assert {(s, t) for s, t, _ in g.edges} == {(g.root, "a"), (g.root, "b")}


def test_build_graph_adoption_kind_tracks_format():
    comps = [comp("a", "a"), comp("b", "b")]
    cdx = build_graph(doc_from(comps))
    hbom = build_graph(doc_from(comps, fmt=BomFormat.GENERIC_HBOM))
    assert {k for *_, k in cdx.edges} == {RelationshipKind.DEPENDS_ON}
    assert {k for *_, k in hbom.edges} == {RelationshipKind.CONTAINS}


def test_build_graph_adopts_pure_cycle():
    g = build_graph(doc_from([comp("a", "a"), comp("b", "b")],
                             [("a", "b", DEP), ("b", "a", DEP)]))
    # no in-degree-zero node exists; one cycle member gets adopted
    reachable = {g.root}
    frontier = [g.root]
    while frontier:
        n = frontier.pop()
        for s, t, _ in g.edges:
            if s == n and t not in reachable:
                reachable.add(t)
                frontier.append(t)
    assert reachable == {n.id for n in g.nodes}


def test_build_graph_root_name_falls_back():
    g = build_graph(doc_from([comp("a", "a"), comp("b", "b")], source=""))
    assert g.by_id[g.root].name == "root"


def _tree(side):
    # two boards under an app; one rename and one unique leaf per side
    rename = "pressure-regulator-mk1" if side == "l" else "pressure-regulator-mk2"
    unique = comp(f"{side}x", "widget" if side == "l" else "gadget")
    return doc_from(
        [
            comp("app", "app"),
            comp("ba", "board-alpha"),
            comp("bb", "board-beta"),
            comp("reg", rename),
            unique,
        ],
        [("app", "ba", DEP), ("app", "bb", DEP), ("ba", "reg", DEP), ("bb", f"{side}x", DEP)],
        subject="app",
    )


def test_merge_exact_then_parent_local_fuzzy():
    left, right = build_graph(_tree("l")), build_graph(_tree("r"))
    m = merge_graphs(left, right)
    matched_names = {left.by_id[l].name for l, _ in m.pairs}
    assert {"app", "board-alpha", "board-beta"} <= matched_names
    assert [(left.by_id[l].name, right.by_id[r].name) for l, r, _ in m.fuzzy_links] == [
        ("pressure-regulator-mk1", "pressure-regulator-mk2")
    ]
    # fuzzy-linked nodes stay in the one-sided buckets; the link is an overlay
    assert sorted(left.by_id[i].name for i in m.left_only) == [
        "pressure-regulator-mk1",
        "widget",
    ]
    assert sorted(right.by_id[i].name for i in m.right_only) == [
        "gadget",
        "pressure-regulator-mk2",
    ]


def test_fuzzy_requires_matched_parents():
    # similar names under *different* boards never link
    def side(s, board):
        nm = f"io-controller-x9{'a' if s == 'l' else 'b'}"
        return doc_from(
            [comp("app", "app"), comp("b1", "board-one"), comp("b2", "board-two"), comp("io", nm)],
            [("app", "b1", DEP), ("app", "b2", DEP), (board, "io", DEP)],
            subject="app",
        )

    m = merge_graphs(build_graph(side("l", "b1")), build_graph(side("r", "b2")))
    assert m.fuzzy_links == ()
    assert len(m.left_only) == 1 and len(m.right_only) == 1


def test_merge_stats_partition():
    left, right = build_graph(_tree("l")), build_graph(_tree("r"))
    s = match_stats(merge_graphs(left, right))
    assert s.matched + s.left_only == len(left.nodes)
    assert s.matched + s.right_only == len(right.nodes)
    assert s.fuzzy == 1


def test_self_merge_is_clean():
    g = build_graph(_tree("l"))
    m = merge_graphs(g, g)
    assert m.left_only == () and m.right_only == () and m.fuzzy_links == ()
    assert len(m.pairs) == len(g.nodes)


def test_merged_edges_use_side_tagged_refs():
    left, right = build_graph(_tree("l")), build_graph(_tree("r"))
    m = merge_graphs(left, right)
    edges = merged_edges(m)
    sides = {a[0] for a, b, _ in edges} | {b[0] for a, b, _ in edges}
    assert sides <= {"both", "left", "right"}
    both_ids = {l for l, _ in m.pairs}
    for (sa, ia), (sb, ib), _ in edges:
        if sa == "both":
            assert ia in both_ids


names_pool = ["alpha", "beta", "gamma", "delta", "omega", "sigma", "kappa"]


def _instance_like_ids(draw, ids):
    """``ids`` with some of them, after the first, replaced by an instance
    id (``c0#2``) of an earlier one, so instance ids clash with real ids."""
    ids = list(ids)
    for i in range(1, len(ids)):
        if draw(st.integers(min_value=0, max_value=3)) == 0:
            nid = f"{ids[draw(st.integers(min_value=0, max_value=i - 1))]}#" \
                  f"{draw(st.integers(min_value=1, max_value=3))}"
            if nid not in ids:
                ids[i] = nid
    return ids


@st.composite
def random_documents(draw):
    """Forests of depends-on edges over names_pool, or over two of its
    names so that siblings share names, with quantities up to 6, an
    optional cycle back to the first component, and some ids of the form
    ``c0#2`` that clash with instance ids."""
    n = draw(st.integers(min_value=1, max_value=10))
    ids = _instance_like_ids(draw, [f"c{i}" for i in range(n)])
    pool = names_pool[:draw(st.sampled_from([2, len(names_pool)]))]
    comps = [
        comp(
            ids[i],
            draw(st.sampled_from(pool)),
            quantity=draw(st.integers(min_value=1, max_value=6)),
        )
        for i in range(n)
    ]
    rels = []
    for i in range(1, n):
        if draw(st.booleans()):
            rels.append((ids[draw(st.integers(min_value=0, max_value=i - 1))], ids[i], DEP))
    if n >= 3 and draw(st.booleans()):
        rels.append((ids[n - 1], ids[0], DEP))  # close a cycle
    return doc_from(comps, set(rels))


@given(random_documents(), random_documents())
@settings(max_examples=150, deadline=None)
def test_partition_invariant_random(dl, dr):
    left, right = build_graph(dl), build_graph(dr)
    m = merge_graphs(left, right)
    s = match_stats(m)
    assert s.matched + s.left_only == len(left.nodes)
    assert s.matched + s.right_only == len(right.nodes)
    assert s.fuzzy <= min(s.left_only, s.right_only)
    # no node appears on two sides of the partition
    matched_l = {l for l, _ in m.pairs}
    assert matched_l.isdisjoint(m.left_only)
    assert {r for _, r in m.pairs}.isdisjoint(m.right_only)
    # fuzzy endpoints live in the one-sided buckets, each used at most once
    fl = [l for l, _, _ in m.fuzzy_links]
    fr = [r for _, r, _ in m.fuzzy_links]
    assert set(fl) <= set(m.left_only) and set(fr) <= set(m.right_only)
    assert len(fl) == len(set(fl)) and len(fr) == len(set(fr))
    # fuzzy links never join equal names
    for l, r, score in m.fuzzy_links:
        assert left.by_id[l].name != right.by_id[r].name
        assert score >= 0.85


@given(random_documents())
@settings(max_examples=100, deadline=None)
def test_self_merge_random(doc):
    g = build_graph(doc)
    m = merge_graphs(g, g)
    assert m.left_only == () and m.right_only == ()
    assert all(l == r for l, r in m.pairs)


def test_threshold_monotonicity():
    left, right = build_graph(_tree("l")), build_graph(_tree("r"))
    loose = merge_graphs(left, right, FuzzyConfig(threshold=0.80))
    tight = merge_graphs(left, right, FuzzyConfig(threshold=0.95))
    loose_pairs = {(l, r) for l, r, _ in loose.fuzzy_links}
    assert {(l, r) for l, r, _ in tight.fuzzy_links} <= loose_pairs


def test_constrained_reduction_counts():
    left, right = build_graph(_tree("l")), build_graph(_tree("r"))
    unconstrained, constrained = structure_constrained_reduction(left, right)
    assert constrained == 1  # the regulator rename
    # board-alpha/board-beta cross-talk inflates the unconstrained count
    assert unconstrained == 3


@given(random_documents(), random_documents())
@settings(max_examples=60, deadline=None)
def test_fuzzy_name_pairs_subset_of_all_pairs(dl, dr):
    # at 0.6 some names_pool pairs match (beta/delta, alpha/kappa, ...); no
    # pair of them scores above 0.8
    left, right = build_graph(dl), build_graph(dr)
    cfg = FuzzyConfig(threshold=0.6)
    m = merge_graphs(left, right, cfg)
    ln = {n.name for n in left.nodes}
    rn = {n.name for n in right.nodes}
    allowed = {
        (fm.left, fm.right): fm.score
        for fm in all_pairs_matches(ln, rn, cfg, exclude_exact=True)
    }
    for l, r, score in m.fuzzy_links:
        assert allowed[(left.by_id[l].name, right.by_id[r].name)] == score


def test_phase2_and_all_pairs_share_a_non_default_config():
    # merge phase 2 and compare --fuzzy score through the same
    # jaro_winkler(a, b, cfg): under this config spacer/spindle (Jaro 0.64,
    # under the 0.7 floor) gets no prefix bonus, and the regulator pair
    # scores as by default
    cfg = FuzzyConfig(threshold=0.6, boost_floor=0.7)

    def side(reg, spacer):
        return doc_from(
            [comp("app", "app"), comp("ba", "board-alpha"), comp("bb", "board-beta"),
             comp("reg", reg), comp("sp", spacer)],
            [("app", "ba", DEP), ("app", "bb", DEP), ("ba", "reg", DEP), ("bb", "sp", DEP)],
            subject="app",
        )

    left = build_graph(side("pressure-regulator-mk1", "spacer"))
    right = build_graph(side("pressure-regulator-mk2", "spindle"))
    m = merge_graphs(left, right, cfg)
    links = {(left.by_id[l].name, right.by_id[r].name): s for l, r, s in m.fuzzy_links}
    assert sorted(links) == [
        ("pressure-regulator-mk1", "pressure-regulator-mk2"),
        ("spacer", "spindle"),
    ]
    all_pairs = {
        (fm.left, fm.right): fm.score
        for fm in all_pairs_matches(["pressure-regulator-mk1", "spacer"],
                                    ["pressure-regulator-mk2", "spindle"], cfg)
    }
    for (a, b), score in links.items():
        assert score == jaro_winkler(a, b, cfg) == all_pairs[(a, b)]
    assert links[("spacer", "spindle")] != jaro_winkler("spacer", "spindle")
    regulators = ("pressure-regulator-mk1", "pressure-regulator-mk2")
    assert links[regulators] == jaro_winkler(*regulators)


def test_merge_invariant_under_input_permutation(make_cdx):
    entries = [{"bom-ref": f"c{i}", "name": n} for i, n in enumerate(names_pool)]
    deps = [{"ref": "c0", "dependsOn": [f"c{i}" for i in range(1, len(names_pool))]}]
    base = {"bomFormat": "CycloneDX", "specVersion": "1.5",
            "components": entries, "dependencies": deps}
    shuffled = dict(base)
    shuffled["components"] = entries[::-1]

    other = build_graph(parse_cyclonedx(make_cdx([{"bom-ref": "x", "name": "alphq"}])))
    m1 = merge_graphs(build_graph(parse_cyclonedx(json.dumps(base).encode())), other)
    m2 = merge_graphs(build_graph(parse_cyclonedx(json.dumps(shuffled).encode())), other)
    assert m1 == m2


# ---------------------------------------------------------------- oracles
#
# build_graph adopts roots in one linear sweep over node indices, and
# MergedGraph encodes its edges as ints that report.to_dot reads directly.
# The versions they replaced stay here as references: the adoption loop
# over string ids that recomputed reachability after every round, the eager
# merged-edge construction over the merge's match maps, and (further down)
# the DOT export that numbered (tag, id) references through a dict.


def _reachable_oracle(root, edges):
    out = {}
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


def build_graph_oracle(doc):
    nodes = []
    key = {}  # node id -> (name, version, purl, component id, instance)
    instances = {}
    taken = {c.id for c in doc.components}
    for c in sorted(doc.components, key=Component.sort_key):
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
            nodes.append(GraphNode(nid, c.name, c.id, i))
            key[nid] = (c.name, c.version or "", c.purl or "", c.id, i)

    edges = set()
    for r in doc.relationships:
        for s in instances[r.source]:
            for t in instances[r.target]:
                edges.add((s, t, r.kind))

    subject_instances = instances.get(doc.subject, []) if doc.subject else []
    root = None
    if len(subject_instances) == 1:
        candidate = subject_instances[0]
        if len(_reachable_oracle(candidate, edges)) == len(nodes):
            root = candidate

    if root is None:
        root = "(root)"
        while root in taken:
            root += "~"
        adopt_kind = CON if doc.format is BomFormat.GENERIC_HBOM else DEP
        root_node = GraphNode(root, doc.source_name or "root", None)
        key[root] = (root_node.name, "", "", "", 1)
        ordered = sorted(nodes, key=lambda n: key[n.id])
        reach = {root}
        while len(reach) < len(nodes) + 1:
            targets = {t for _, t, _ in edges}
            missing = [n.id for n in ordered if n.id not in reach]
            batch = [nid for nid in missing if nid not in targets] or missing[:1]
            for nid in batch:
                edges.add((root, nid, adopt_kind))
            reach = _reachable_oracle(root, edges)
        nodes.append(root_node)

    nodes.sort(key=lambda n: key[n.id])
    return (
        tuple(nodes),
        tuple(sorted(edges, key=lambda e: (e[0], e[1], e[2].value))),
        root,
        doc.source_name,
    )


def _graph_view(g):
    return g.nodes, g.edges, g.root, g.source_name


def merged_edges(m):
    """``m.ranked``'s edge codes decoded into (reference, reference, kind)."""
    refs = sorted(
        [("left" if j < 0 else "both", n.id) for n, j in zip(m.left.nodes, m.lmatch)]
        + [("right", n.id) for n, i in zip(m.right.nodes, m.rmatch) if i < 0]
    )  # a reference's index here is its rank
    n = len(refs)
    return tuple((refs[c // (2 * n)], refs[(c >> 1) % n], (CON, DEP)[c & 1])
                 for c in m.ranked[2])


def merged_edges_oracle(m):
    lmatch = {l: r for l, r in m.pairs}
    rmatch = {r: l for l, r in m.pairs}

    def lref(n):
        return ("both", n) if n in lmatch else ("left", n)

    def rref(n):
        return ("both", rmatch[n]) if n in rmatch else ("right", n)

    medges = {(lref(s), lref(t), k) for s, t, k in m.left.edges}
    medges |= {(rref(s), rref(t), k) for s, t, k in m.right.edges}
    return tuple(sorted(medges, key=lambda e: (e[0], e[1], e[2].value)))


@st.composite
def digraph_documents(draw):
    """Unsorted documents over a few names: random edges of both kinds
    (so cycles of any length and shared children), quantities up to 3 on
    both ends of an edge, and no subject or one that may not reach every
    node."""
    n = draw(st.integers(min_value=1, max_value=10))
    ids = draw(st.permutations([f"c{i}" for i in range(n)]))
    comps = [
        comp(ids[i], draw(st.sampled_from(names_pool[:4])),
             quantity=draw(st.integers(min_value=1, max_value=3)))
        for i in range(n)
    ]
    rels = set()
    for i in range(n):
        for j in draw(st.lists(st.integers(min_value=0, max_value=n - 1), max_size=2)):
            if j != i:
                rels.add((ids[i], ids[j], draw(st.sampled_from([DEP, CON]))))
    return doc_from(
        draw(st.permutations(comps)),
        draw(st.permutations(sorted(rels, key=str))),
        subject=draw(st.none() | st.sampled_from(ids)),
        fmt=draw(st.sampled_from([BomFormat.CYCLONEDX_JSON, BomFormat.GENERIC_HBOM])),
    )


@st.composite
def hbom_forests(draw):
    """Parsed HBOM tables: repeated rows that fold, duplicate names under
    one parent and under different parents, quantities up to 6, `parent`
    cycles of length 2 and longer (a random parent per row), and refs of
    the form ``r0#2`` that clash with instance ids."""
    n = draw(st.integers(min_value=1, max_value=12))
    refs = draw(st.permutations(_instance_like_ids(draw, [f"r{i}" for i in range(n)])))
    rows = []
    for i, ref in enumerate(refs):
        parent = draw(st.none() | st.sampled_from(refs))
        rows.append({
            "ref": ref,
            "name": draw(st.sampled_from(["board", "chip", "cap"])),
            "parent": "" if parent in (None, ref) else parent,
            "vendor": draw(st.sampled_from(["", "acme"])),
            "quantity": draw(st.integers(min_value=1, max_value=6)),
        })
    if n >= 2 and draw(st.booleans()):  # one guaranteed 2-cycle, the first row a twin
        rows[0]["parent"], rows[1]["parent"] = refs[1], refs[0]
        rows[0]["quantity"] = draw(st.integers(min_value=2, max_value=6))
    lines = ["ref,name,parent,vendor,quantity"]
    lines += [",".join(str(r[k]) for k in ("ref", "name", "parent", "vendor", "quantity"))
              for r in rows]
    return parse_hbom("\n".join(lines).encode(), source_name="forest")


_any_documents = digraph_documents() | hbom_forests() | random_documents()


@given(_any_documents)
@settings(max_examples=300, deadline=None)
def test_build_graph_matches_round_based_adoption(doc):
    assert _graph_view(build_graph(doc)) == build_graph_oracle(doc)


@given(_any_documents, _any_documents)
@settings(max_examples=150, deadline=None)
def test_merged_edges_match_eager_construction(dl, dr):
    m = merge_graphs(build_graph(dl), build_graph(dr), FuzzyConfig(threshold=0.5))
    assert "ranked" not in vars(m)  # built on first read only
    assert merged_edges(m) == merged_edges_oracle(m)
    assert m.ranked is m.ranked


def merged_views_oracle(m):
    """The id views as merge_graphs once built them eagerly."""
    lids = [n.id for n in m.left.nodes]
    rids = [n.id for n in m.right.nodes]
    return (
        tuple((lids[i], rids[j]) for i, j in enumerate(m.lmatch) if j >= 0),
        tuple(lids[i] for i, j in enumerate(m.lmatch) if j < 0),
        tuple(rids[j] for j, i in enumerate(m.rmatch) if i < 0),
        tuple((lids[i], rids[j], s) for i, j, s in m.links),
    )


@given(_any_documents, _any_documents)
@settings(max_examples=150, deadline=None)
def test_match_stats_and_views_match_eager_construction(dl, dr):
    m = merge_graphs(build_graph(dl), build_graph(dr), FuzzyConfig(threshold=0.5))
    s = match_stats(m)
    views = (m.pairs, m.left_only, m.right_only, m.fuzzy_links)
    assert tuple(s) == tuple(map(len, views))
    assert views == merged_views_oracle(m)
    # has_differences once read the views
    assert DiffReport(("l", "r"), graph=m).has_differences() == bool(
        m.left_only or m.right_only or m.fuzzy_links)


def test_build_graph_accepts_unsorted_input():
    comps = [comp("z", "zeta", quantity=2), comp("a", "alpha"), comp("m", "mu")]
    rels = [("z", "a", DEP), ("a", "m", DEP), ("m", "a", DEP)]
    shuffled = doc_from(comps, rels[::-1])
    ordered = doc_from(comps[1:] + comps[:1], sorted(rels, key=lambda r: r[:2]))
    # the document sorts its lists on construction
    assert shuffled.components == ordered.components == tuple(comps[1:] + comps[:1])
    assert shuffled == ordered
    assert build_graph(shuffled) == build_graph(ordered)
    assert _graph_view(build_graph(shuffled)) == build_graph_oracle(shuffled)


def test_build_graph_id_clashes_match_oracle():
    # instance ids that clash with component ids get "~" appended, and the
    # synthetic root id does too; the taken-set oracle agrees
    comps = [comp("a", "x", quantity=2), comp("a#1", "x"), comp("a#2", "x", quantity=2),
             comp("a#2~", "y"), comp("(root)", "test"), comp("a#2#1", "z", quantity=3)]
    rels = [("a", "a#2", CON), ("a#2#1", "a#1", DEP)]
    for order in (comps, comps[::-1]):
        g = build_graph(doc_from(order, rels))
        assert _graph_view(g) == build_graph_oracle(doc_from(order, rels))
    ids = {n.id for n in g.nodes}
    assert {"a#1~", "a#2~~", "a#2#1~", "a#2#2", "(root)~"} <= ids
    assert len(ids) == len(g.nodes)


def test_build_graph_adoption_is_linear():
    # 2000 two-row parent cycles and no subject: one cycle member adopted
    # per cycle; the round-based loop took 6 s here
    comps, rels = [], []
    for i in range(2000):
        comps += [comp(f"a{i:04d}", f"x{i}"), comp(f"b{i:04d}", f"y{i}")]
        rels += [(f"a{i:04d}", f"b{i:04d}", CON), (f"b{i:04d}", f"a{i:04d}", CON)]
    doc = doc_from(comps, rels, fmt=BomFormat.GENERIC_HBOM)
    t0 = time.perf_counter()
    g = build_graph(doc)
    assert time.perf_counter() - t0 < 1.0
    assert sum(1 for s, _, _ in g.edges if s == g.root) == 2000


# ------------------------------------------------------ phase-2 oracle
#
# merge_graphs keeps its phase-2 candidates as name blocks and replays the
# greedy one score level at a time. The version it replaced stays here as
# the reference: one candidate per free-left x free-right sibling pair,
# children and pairs ordered by node index (build_graph_oracle checks that
# this is the canonical order), and one global sort by
# (-score, left index, right index).


def merge_graphs_oracle(left, right, cfg=FuzzyConfig()):
    lindex = {n.id: i for i, n in enumerate(left.nodes)}
    rindex = {n.id: i for i, n in enumerate(right.nodes)}

    def children_map(g, index):
        buckets = {}
        for s, t, k in g.edges:
            buckets.setdefault((s, k), []).append(t)
        return {
            key: tuple(sorted(set(kids), key=index.__getitem__))
            for key, kids in buckets.items()
        }

    lkids, rkids = children_map(left, lindex), children_map(right, rindex)
    lmatch = {left.root: right.root}
    rmatch = {right.root: left.root}
    lname = {n.id: n.name for n in left.nodes}
    rname = {n.id: n.name for n in right.nodes}

    visited = set()
    stack = [(left.root, right.root)]
    while stack:
        u, v = stack.pop()
        if (u, v) in visited:
            continue
        visited.add((u, v))
        descend = []
        for kind in (CON, DEP):
            rgroups = {}
            for r in rkids.get((v, kind), ()):
                if r not in rmatch:
                    rgroups.setdefault(rname[r], deque()).append(r)
            for l in lkids.get((u, kind), ()):
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

    pairs = sorted(lmatch.items(), key=lambda p: lindex[p[0]])
    left_only = tuple(n.id for n in left.nodes if n.id not in lmatch)
    right_only = tuple(n.id for n in right.nodes if n.id not in rmatch)

    score_cache = {}

    def score(a, b):
        if (a, b) not in score_cache:
            score_cache[(a, b)] = jaro_winkler(a, b, cfg)
        return score_cache[(a, b)]

    candidates = {}
    for u, v in pairs:
        for kind in (CON, DEP):
            lfree = [c for c in lkids.get((u, kind), ()) if c not in lmatch]
            rfree = [c for c in rkids.get((v, kind), ()) if c not in rmatch]
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
            lindex[item[0][0]],
            rindex[item[0][1]],
        ),
    )
    used_l, used_r = set(), set()
    fuzzy_links = []
    for (l, r), s in ranked:
        if l in used_l or r in used_r:
            continue
        used_l.add(l)
        used_r.add(r)
        fuzzy_links.append((l, r, s))
    return pairs, left_only, right_only, fuzzy_links


# Names that differ in one trailing character score alike against each
# other, so distinct name pairs share score levels; board/boards and the
# resistor values add other levels.
_renamable = ["part-a", "part-b", "part-c", "part-d", "board", "boards",
              "resistor-10k", "resistor-10K"]


@st.composite
def renamed_document_pairs(draw):
    """A DAG document (children may sit under several parents, edges of
    both kinds, quantities up to 6) and a copy with some names and
    quantities changed and some edges dropped or added, so matched parents
    keep free children on both sides, in different orders."""
    n = draw(st.integers(min_value=1, max_value=8))
    names = [draw(st.sampled_from(_renamable)) for _ in range(n)]
    qty = [draw(st.integers(min_value=1, max_value=6)) for _ in range(n)]
    def dag(max_parents):
        rels = set()
        for j in range(1, n):
            for i in draw(st.sets(st.integers(min_value=0, max_value=j - 1),
                                  max_size=max_parents)):
                rels.add((f"c{i}", f"c{j}", draw(st.sampled_from([DEP, CON]))))
        return rels

    rels = dag(3)
    def side(names, qty, rels):
        return doc_from([comp(f"c{i}", names[i], quantity=qty[i]) for i in range(n)],
                        sorted(rels, key=str))

    rnames = [draw(st.sampled_from(_renamable)) if draw(st.booleans()) else nm
              for nm in names]
    rqty = [draw(st.integers(min_value=1, max_value=6)) if draw(st.booleans()) else q
            for q in qty]
    rrels = {r for r in rels if draw(st.integers(min_value=0, max_value=4))} | dag(1)
    return side(names, qty, rels), side(rnames, rqty, rrels)


@given(renamed_document_pairs() | st.tuples(_any_documents, _any_documents),
       st.sampled_from([0.5, 0.85]), st.booleans())
@settings(max_examples=400, deadline=None)
def test_phase2_blocks_match_candidate_loop(docs, threshold, swap):
    dl, dr = docs[::-1] if swap else docs
    left, right = build_graph(dl), build_graph(dr)
    cfg = FuzzyConfig(threshold=threshold)
    m = merge_graphs(left, right, cfg)
    pairs, left_only, right_only, fuzzy_links = merge_graphs_oracle(left, right, cfg)
    assert m.pairs == tuple(pairs)
    assert m.left_only == left_only
    assert m.right_only == right_only
    assert m.fuzzy_links == tuple(fuzzy_links)


def test_phase2_equal_scores_across_name_pairs():
    # part-a and part-b both score alike against part-c and part-d: one
    # score level holding four blocks; left nodes take right nodes in key
    # order, each the smallest one still free
    def side(names):
        comps = [comp("board", "board")] + [
            comp(f"p{i}", nm, quantity=2) for i, nm in enumerate(names)]
        return doc_from(comps, [("board", f"p{i}", CON) for i in range(len(names))],
                        subject="board")

    left, right = build_graph(side(["part-a", "part-b"])), build_graph(side(["part-c", "part-d"]))
    assert jaro_winkler("part-a", "part-c") == jaro_winkler("part-b", "part-d")
    m = merge_graphs(left, right, FuzzyConfig(threshold=0.5))
    assert [(l, r) for l, r, _ in m.fuzzy_links] == [
        ("p0#1", "p0#1"), ("p0#2", "p0#2"), ("p1#1", "p1#1"), ("p1#2", "p1#2")]
    assert m.fuzzy_links == tuple(merge_graphs_oracle(left, right, FuzzyConfig(threshold=0.5))[3])


def test_phase2_shared_child_takes_smallest_right_node_across_parents():
    # L sits under two matched boards; the first board's block offers R2,
    # the second's offers R1, and R1 comes first in key order
    left = build_graph(doc_from(
        [comp("top"), comp("p1", "board-1"), comp("p2", "board-2"), comp("L", "part-a")],
        [("top", "p1", CON), ("top", "p2", CON), ("p1", "L", CON), ("p2", "L", CON)],
        subject="top"))
    right = build_graph(doc_from(
        [comp("top"), comp("p1", "board-1"), comp("p2", "board-2"),
         comp("R1", "part-b"), comp("R2", "part-b")],
        [("top", "p1", CON), ("top", "p2", CON), ("p1", "R2", CON), ("p2", "R1", CON)],
        subject="top"))
    m = merge_graphs(left, right, FuzzyConfig(threshold=0.5))
    assert [(l, r) for l, r, _ in m.fuzzy_links] == [("L", "R1")]
    assert m.fuzzy_links == tuple(merge_graphs_oracle(left, right, FuzzyConfig(threshold=0.5))[3])


def test_phase2_renamed_part_of_quantity_1000_is_linear():
    # one parent holding resistor-10k x 1000 on the left and resistor-10K
    # x 1000 on the right: 10**6 candidates of one score for the candidate
    # loop, which took about 3 s here; two blocks of 1000 a side now
    def side(name):
        return doc_from([comp("board", "board"), comp("r", name, quantity=1000)],
                        [("board", "r", CON)], subject="board")

    left, right = build_graph(side("resistor-10k")), build_graph(side("resistor-10K"))
    t0 = time.perf_counter()
    m = merge_graphs(left, right)
    assert time.perf_counter() - t0 < 1.0
    assert len(m.fuzzy_links) == 1000
    assert all(l == r for l, r, _ in m.fuzzy_links)
    assert [l for l, _, _ in m.fuzzy_links] == [n.id for n in left.nodes if n.name != "board"]


# ------------------------------------------------------ DOT export oracle
#
# report.to_dot numbers nodes from MergedGraph.ranks and reads the merged
# edge codes. The version it replaced stays here as the reference: one
# dict from (tag, id) references to DOT ids, filled by an ``add`` closure,
# then the string merged edges.


def to_dot_oracle(merged):
    name_l = {n.id: n.name for n in merged.left.nodes}
    name_r = {n.id: n.name for n in merged.right.nodes}
    style = DotStyle()
    ids = {}
    lines = ["digraph merged {", "  node [shape=box, style=filled];"]

    def add(ref, label, color):
        nid = f"n{len(ids)}"
        ids[ref] = nid
        lines.append(f'  {nid} [label="{_dot_escape(label)}", fillcolor="{color}"];')

    for l, r in merged.pairs:
        add(("both", l), name_l[l], style.matched)
    for l in merged.left_only:
        add(("left", l), name_l[l], style.left_only)
    for r in merged.right_only:
        add(("right", r), name_r[r], style.right_only)
    for src, dst, _kind in merged_edges_oracle(merged):
        lines.append(f"  {ids[src]} -> {ids[dst]};")
    for l, r, score in merged.fuzzy_links:
        lines.append(
            f"  {ids[('left', l)]} -> {ids[('right', r)]} "
            f'[dir=none, color="{style.fuzzy_edge}", '
            f"penwidth={style.fuzzy_penwidth}, "
            f'tooltip="{score:.6f}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


@st.composite
def quoted_document_pairs(draw):
    """Document pairs from the generators above with some names given a
    ``"`` or a ``\\`` (the same names on both sides, so they still match)."""
    docs = draw(renamed_document_pairs() | st.tuples(_any_documents, _any_documents))
    names = sorted({c.name for d in docs for c in d.components})
    marks = draw(st.dictionaries(st.sampled_from(names),
                                 st.sampled_from(['"', "\\", '\\"', 'x"\\'])))

    def mark(doc):
        return replace(doc, components=tuple(
            replace(c, name=c.name + marks.get(c.name, "")) for c in doc.components))

    return mark(docs[0]), mark(docs[1])


@given(quoted_document_pairs(), st.sampled_from([0.5, 0.85]))
@settings(max_examples=300, deadline=None)
def test_to_dot_matches_ref_dict_export(docs, threshold):
    m = merge_graphs(build_graph(docs[0]), build_graph(docs[1]),
                     FuzzyConfig(threshold=threshold))
    assert to_dot(m) == to_dot_oracle(m)


def test_renderers_never_build_string_edges():
    # nor the id views of the partition: every command reads the indices
    left, right = build_graph(_tree("l")), build_graph(_tree("r"))
    views = ("edges", "pairs", "left_only", "right_only", "fuzzy_links")
    for render in (graph_stats_line, to_dot,
                   lambda m: render_json(DiffReport(("l", "r"), graph=m)),
                   lambda m: render_table(DiffReport(("l", "r"), graph=m)),
                   lambda m: DiffReport(("l", "r"), graph=m).has_differences()):
        m = merge_graphs(left, right)
        assert render(m)
        for x in (left, right, m):
            assert not set(views) & set(vars(x))


def test_duplicate_relationship_changes_nothing():
    # BomDocument accepts a relationship listed twice; the edges are
    # deduplicated, with and without a synthetic root
    comps = [comp("top", "top"), comp("a", "a", quantity=2), comp("b", "b", quantity=3)]
    rels = [Relationship("top", "a", CON), Relationship("a", "b", DEP)]
    other = build_graph(doc_from([comp("top", "top"), comp("b", "c", quantity=2)],
                                 [("top", "b", CON)], subject="top"))
    for subject in ("top", None):
        once = doc_from(comps, [(r.source, r.target, r.kind) for r in rels], subject=subject)
        twice = replace(once, relationships=tuple(rels + rels[1:]))
        assert len(twice.relationships) == 3
        g1, g2 = build_graph(once), build_graph(twice)
        assert g1 == g2
        assert sum(map(len, (*g2.kids[0].values(), *g2.kids[1].values()))) == (
            2 + 6 + (subject is None))
        assert _graph_view(g2) == build_graph_oracle(twice)
        for m1, m2 in ((merge_graphs(g1, other), merge_graphs(g2, other)),
                       (merge_graphs(other, g1), merge_graphs(other, g2))):
            assert to_dot(m1) == to_dot(m2) == to_dot_oracle(m2)
