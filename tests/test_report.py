import json
import re
from collections import Counter

from conftest import DEP, comp, doc_from
from bomdiff.flatcompare import (
    ConsistencyCategory,
    ConsistencyFinding,
    FieldSelector,
    cross_field_consistency,
    field_coverage,
    multiset_diff,
)
from bomdiff.fuzzy import FuzzyMatch
from bomdiff.graphcompare import build_graph, match_stats, merge_graphs
from bomdiff.report import (
    SCHEMA_VERSION,
    DifferenceHint,
    DiffReport,
    DotStyle,
    classify_differences,
    render_json,
    render_table,
    to_dot,
)


def _report(left=None, right=None, with_graph=False):
    left = left or doc_from(
        [comp("a", "zlib", version="1.2"), comp("b", "curl", hashes=(("SHA256", "aa"),))],
        source="old.json",
    )
    right = right or doc_from(
        [comp("c", "zlib", version="1.3"), comp("d", "wget", hashes=(("SHA256", "bb"),))],
        source="new.json",
    )
    fd = {
        sel: multiset_diff(
            Counter(c.name for c in left.components), Counter(c.name for c in right.components)
        )
        for sel in [FieldSelector.NAME]
    }
    graph = merge_graphs(build_graph(left), build_graph(right)) if with_graph else None
    return DiffReport(
        source_names=(left.source_name, right.source_name),
        field_diffs=fd,
        graph=graph,
        findings=tuple(cross_field_consistency(left, right)),
        hash_coverage=tuple(
            field_coverage(d, FieldSelector.HASH_DIGEST) for d in (left, right)
        ),
    )


def test_table_layout():
    text = render_table(_report())
    lines = text.splitlines()
    assert [c.strip() for c in lines[0].split("|")] == [
        "Field",
        "old.json",
        "new.json",
        "old.json (Only)",
        "new.json (Only)",
    ]
    assert set(lines[1]) <= {"-", "+"}
    name_rows = [l for l in lines if l.startswith("Name ")]
    assert len(name_rows) == 1
    # one value only on each side
    assert [c.strip() for c in name_rows[0].split("|")][1:] == ["2", "2", "1", "1"]
    assert any(l.startswith("Unique Names") for l in lines)
    assert not any(l.endswith(" ") for l in lines)  # padding trimmed


def test_table_has_differences_flag():
    r = _report()
    assert r.has_differences()
    same = doc_from([comp("a", "zlib")], source="s")
    rpt = DiffReport(
        source_names=("s", "s"),
        field_diffs={
            FieldSelector.NAME: multiset_diff(Counter({"zlib": 1}), Counter({"zlib": 1}))
        },
    )
    assert not rpt.has_differences()


def test_count_skew_alone_is_not_a_difference():
    rpt = DiffReport(
        source_names=("l", "r"),
        field_diffs={
            FieldSelector.NAME: multiset_diff(Counter({"chip": 4}), Counter({"chip": 2}))
        },
    )
    assert not rpt.has_differences()


def test_non_consensus_finding_is_a_difference():
    left = doc_from([comp("a", "x", hashes=(("SHA256", "aa"),))])
    right = doc_from([comp("b", "x", hashes=(("SHA256", "bb"),))])
    rpt = DiffReport(
        source_names=("l", "r"),
        findings=tuple(cross_field_consistency(left, right)),
    )
    assert rpt.has_differences()


def test_json_schema_and_determinism():
    r = _report(with_graph=True)
    s1, s2 = render_json(r), render_json(r)
    assert s1 == s2
    data = json.loads(s1)
    assert data["schema_version"] == SCHEMA_VERSION
    assert data["source_names"] == ["old.json", "new.json"]
    assert "name" in data["field_diffs"]
    nm = data["field_diffs"]["name"]
    assert set(nm) >= {"left_total", "right_total", "common", "left_only", "right_only"}
    assert data["graph"]["stats"]["matched"] >= 1
    assert isinstance(data["findings"], list)


def test_json_rounds_scores():
    left = doc_from([comp("a", "libfoo-core")], source="l")
    right = doc_from([comp("b", "libfoo-corp")], source="r")
    m = merge_graphs(build_graph(left), build_graph(right))
    assert m.fuzzy_links
    r = DiffReport(source_names=("l", "r"), graph=m)
    for link in json.loads(render_json(r))["graph"]["fuzzy_links"]:
        assert len(str(link["score"]).partition(".")[2]) <= 9


def _merged():
    left = doc_from(
        [comp("app", "app"), comp("k", "keep"), comp("ren", "sensor-mk1"), comp("lo", "leftish")],
        [("app", "k", DEP), ("app", "ren", DEP), ("app", "lo", DEP)],
        subject="app",
    )
    right = doc_from(
        [comp("app", "app"), comp("k", "keep"), comp("ren", "sensor-mk2"), comp("ro", "rightish")],
        [("app", "k", DEP), ("app", "ren", DEP), ("app", "ro", DEP)],
        subject="app",
    )
    return merge_graphs(build_graph(left), build_graph(right))


def test_table_renders_graph_after_field_table():
    m = _merged()
    graph_text = (
        "matched=2 left_only=2 right_only=2 fuzzy=1\n"
        "left only:\n  leftish\n  sensor-mk1\n"
        "right only:\n  rightish\n  sensor-mk2\n"
        "fuzzy links:\n  0.960000  sensor-mk1  ~  sensor-mk2  [likely-transcription]\n"
    )
    assert render_table(DiffReport(source_names=("l", "r"), graph=m)) == graph_text
    full = _report()
    fields = DiffReport(source_names=full.source_names, field_diffs=full.field_diffs)
    both = DiffReport(source_names=fields.source_names, field_diffs=fields.field_diffs, graph=m)
    assert render_table(both) == render_table(fields) + "\n" + graph_text


def test_table_renders_compare_sections_after_field_table():
    fields = _report()
    rpt = DiffReport(
        source_names=fields.source_names,
        field_diffs=fields.field_diffs,
        fuzzy=(FuzzyMatch("curl", "wget", 0.5),),
        findings=(
            ConsistencyFinding(
                ConsistencyCategory.SAME_NAME_DIFFERENT_HASH, ("a",), ("c", "d"), "name 'zlib'"
            ),
        ),
        hash_coverage=((1, 1), (2, 0)),
    )
    table = render_table(DiffReport(source_names=fields.source_names, field_diffs=fields.field_diffs))
    assert render_table(rpt) == table + (
        "\nfuzzy matches:\n  0.500000  curl  ~  wget\n"
        "\nconsistency findings:\n"
        "  [same-name-different-hash] name 'zlib' (left: a; right: c, d)\n"
        "\nhash coverage: left 1/2 components, right 2/2 components\n"
    )


def test_dot_node_counts_match_partition():
    m = _merged()
    s = match_stats(m)
    dot = to_dot(m)
    style = DotStyle()
    assert dot.startswith("digraph")
    assert dot.rstrip().endswith("}")
    assert dot.count(style.matched) == s.matched
    assert dot.count(f'fillcolor="{style.left_only}"') == s.left_only
    assert dot.count(f'fillcolor="{style.right_only}"') == s.right_only
    fuzzy_edges = [l for l in dot.splitlines() if "dir=none" in l]
    assert len(fuzzy_edges) == s.fuzzy == 1
    assert f"penwidth={style.fuzzy_penwidth}" in fuzzy_edges[0]
    assert "tooltip=" in fuzzy_edges[0]


def test_dot_is_valid_enough_to_parse():
    # every edge endpoint must be a declared node id
    dot = to_dot(_merged())
    declared = set(re.findall(r"^\s*(n\d+)\s*\[", dot, re.M))
    for a, b in re.findall(r"^\s*(n\d+)\s*->\s*(n\d+)", dot, re.M):
        assert {a, b} <= declared


def test_classify_prefix_specificity():
    hints = dict((pair, h) for h, pair in _hints([("V17N", "V17N-ZB11")]))
    assert hints[("V17N", "V17N-ZB11")] is DifferenceHint.PREFIX_SPECIFICITY


def test_classify_transcription():
    hints = dict((pair, h) for h, pair in _hints([("IN3S00A", "IN3500A")]))
    assert hints[("IN3S00A", "IN3500A")] is DifferenceHint.LIKELY_TRANSCRIPTION


def test_classify_substitution_fallback():
    # edit distance 3 rules out transcription; neither name prefixes the other
    hints = dict((pair, h) for h, pair in _hints([("controller-abc", "controller-xyz")]))
    assert hints[("controller-abc", "controller-xyz")] is DifferenceHint.SUBSTITUTION


def test_classify_prefix_wins_over_transcription():
    # one trailing char is both a short edit and a proper prefix: prefix rule first
    hints = dict((pair, h) for h, pair in _hints([("sensor", "sensor2")]))
    assert hints[("sensor", "sensor2")] is DifferenceHint.PREFIX_SPECIFICITY


def _hints(pairs):
    lcomps = [comp("app", "app")]
    rcomps = [comp("app", "app")]
    ledges, redges = [], []
    for i, (l, r) in enumerate(pairs):
        lcomps.append(comp(f"c{i}", l))
        rcomps.append(comp(f"c{i}", r))
        ledges.append(("app", f"c{i}", DEP))
        redges.append(("app", f"c{i}", DEP))
    m = merge_graphs(
        build_graph(doc_from(lcomps, ledges, subject="app")),
        build_graph(doc_from(rcomps, redges, subject="app")),
    )
    out = []
    for hint, (lid, rid) in classify_differences(m):
        out.append((hint, (m.left.by_id[lid].name, m.right.by_id[rid].name)))
    return out
