import json
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CON, DEP, comp, doc_from
from bomdiff.fuzzy import FuzzyConfig, all_pairs_matches
from bomdiff.graphcompare import (
    BomGraph,
    GraphNode,
    build_graph,
    match_stats,
    merge_graphs,
    structure_constrained_reduction,
)
from bomdiff.ingest import parse_cyclonedx, parse_hbom
from bomdiff.model import BomFormat, RelationshipKind, canonical_form


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
    sides = {a[0] for a, b, _ in m.edges} | {b[0] for a, b, _ in m.edges}
    assert sides <= {"both", "left", "right"}
    both_ids = {l for l, _ in m.pairs}
    for (sa, ia), (sb, ib), _ in m.edges:
        if sa == "both":
            assert ia in both_ids


names_pool = ["alpha", "beta", "gamma", "delta", "omega", "sigma", "kappa"]


@st.composite
def random_documents(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    comps = [
        comp(
            f"c{i}",
            draw(st.sampled_from(names_pool)),
            quantity=draw(st.integers(min_value=1, max_value=2)),
        )
        for i in range(n)
    ]
    rels = []
    for i in range(1, n):
        if draw(st.booleans()):
            rels.append((f"c{draw(st.integers(min_value=0, max_value=i - 1))}", f"c{i}", DEP))
    if n >= 3 and draw(st.booleans()):
        rels.append((f"c{n - 1}", "c0", DEP))  # close a cycle
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
    left, right = build_graph(dl), build_graph(dr)
    cfg = FuzzyConfig(threshold=0.80)
    m = merge_graphs(left, right, cfg)
    ln = sorted({n.name for n in left.nodes})
    rn = sorted({n.name for n in right.nodes})
    allowed = {(ln[i], rn[j]) for i, j, _ in all_pairs_matches(ln, rn, cfg, exclude_exact=True)}
    for l, r, _ in m.fuzzy_links:
        assert (left.by_id[l].name, right.by_id[r].name) in allowed


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
# build_graph adopts roots in one linear sweep and MergedGraph builds its
# edges on first read. The versions they replaced stay here as references:
# the adoption loop that recomputed reachability after every round, and the
# eager merged-edge construction over the merge's match maps.


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
    doc = canonical_form(doc)

    nodes = []
    instances = {}
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
        if len(_reachable_oracle(candidate, edges)) == len(nodes):
            root = candidate

    if root is None:
        root = "(root)"
        while root in taken:
            root += "~"
        adopt_kind = CON if doc.format is BomFormat.GENERIC_HBOM else DEP
        root_node = GraphNode(root, doc.source_name or "root", None, None, None)
        ordered = sorted(nodes, key=GraphNode.sort_key)
        reach = {root}
        while len(reach) < len(nodes) + 1:
            targets = {t for _, t, _ in edges}
            missing = [n.id for n in ordered if n.id not in reach]
            batch = [nid for nid in missing if nid not in targets] or missing[:1]
            for nid in batch:
                edges.add((root, nid, adopt_kind))
            reach = _reachable_oracle(root, edges)
        nodes.append(root_node)

    nodes.sort(key=GraphNode.sort_key)
    return BomGraph(
        nodes=tuple(nodes),
        edges=tuple(sorted(edges, key=lambda e: (e[0], e[1], e[2].value))),
        root=root,
        source_name=doc.source_name,
    )


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
    different parents, quantities above 1, and `parent` cycles of length 2
    and longer (a random parent per row)."""
    n = draw(st.integers(min_value=1, max_value=12))
    refs = draw(st.permutations([f"r{i}" for i in range(n)]))
    rows = []
    for i, ref in enumerate(refs):
        parent = draw(st.none() | st.sampled_from(refs))
        rows.append({
            "ref": ref,
            "name": draw(st.sampled_from(["board", "chip", "cap"])),
            "parent": "" if parent in (None, ref) else parent,
            "vendor": draw(st.sampled_from(["", "acme"])),
            "quantity": draw(st.integers(min_value=1, max_value=3)),
        })
    if n >= 2 and draw(st.booleans()):  # one guaranteed 2-cycle
        rows[0]["parent"], rows[1]["parent"] = refs[1], refs[0]
    lines = ["ref,name,parent,vendor,quantity"]
    lines += [",".join(str(r[k]) for k in ("ref", "name", "parent", "vendor", "quantity"))
              for r in rows]
    return parse_hbom("\n".join(lines).encode(), source_name="forest")


@given(digraph_documents() | hbom_forests())
@settings(max_examples=300, deadline=None)
def test_build_graph_matches_round_based_adoption(doc):
    assert build_graph(doc) == build_graph_oracle(doc)


@given(digraph_documents() | hbom_forests(), digraph_documents() | hbom_forests())
@settings(max_examples=150, deadline=None)
def test_merged_edges_match_eager_construction(dl, dr):
    m = merge_graphs(build_graph(dl), build_graph(dr), FuzzyConfig(threshold=0.5))
    assert "edges" not in vars(m)  # built on first read only
    assert m.edges == merged_edges_oracle(m)
    assert m.edges is m.edges


def test_build_graph_accepts_unsorted_input():
    comps = [comp("z", "zeta", quantity=2), comp("a", "alpha"), comp("m", "mu")]
    rels = [("z", "a", DEP), ("a", "m", DEP), ("m", "a", DEP)]
    shuffled = doc_from(comps, rels[::-1])
    ordered = canonical_form(shuffled)
    assert shuffled != ordered
    assert build_graph(shuffled) == build_graph(ordered) == build_graph_oracle(shuffled)


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
