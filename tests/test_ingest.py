import io
import json
import os
import random
import re
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bomdiff
from bomdiff import ingest
from bomdiff.cli import run as cli_run
from bomdiff.ingest import (
    MAX_HBOM_EDGES,
    MAX_HBOM_NODES,
    MAX_HBOM_QUANTITY,
    DanglingParentError,
    IngestOptions,
    ParseError,
    UnknownFormatError,
    dedup_components,
    detect_format,
    parse_cyclonedx,
    parse_document,
    parse_hbom,
    parse_spdx,
)
from bomdiff.model import BomFormat, Component, RelationshipKind


def test_detect_format_discriminators(make_cdx, make_spdx, make_hbom):
    assert detect_format(make_cdx([])) is BomFormat.CYCLONEDX_JSON
    assert detect_format(make_spdx([])) is BomFormat.SPDX_JSON
    assert detect_format(make_hbom([])) is BomFormat.GENERIC_HBOM
    assert detect_format(b'{"hbom": []}') is BomFormat.GENERIC_HBOM
    with pytest.raises(UnknownFormatError):
        detect_format(b'{"something": "else"}')
    with pytest.raises(UnknownFormatError):
        detect_format(b"just some text\nwithout,a,ref,header\n")
    with pytest.raises(UnknownFormatError):
        detect_format(b"   ")


@pytest.mark.parametrize(
    "raw",
    [
        json.dumps({"bomFormat": "CycloneDX", "components": [{"name": "a"}]}).encode(),
        json.dumps({"spdxVersion": "SPDX-2.3", "packages": [{"SPDXID": "SPDXRef-a", "name": "a"}]}).encode(),
        json.dumps({"hbom": [{"ref": "a", "name": "a"}]}).encode(),
    ],
    ids=["cyclonedx", "spdx", "hbom"],
)
def test_parse_document_decodes_json_once(monkeypatch, raw):
    calls = []
    loads = json.loads
    monkeypatch.setattr(json, "loads", lambda *a, **kw: calls.append(a) or loads(*a, **kw))
    assert len(parse_document(raw).components) == 1
    assert len(calls) == 1


def test_cyclonedx_minimal(make_cdx):
    doc = parse_document(
        make_cdx([{"name": "a", "purl": "pkg:maven/g/a@1"}], dependencies=[])
    )
    assert len(doc.components) == 1
    assert doc.components[0].purl == "pkg:maven/g/a@1"
    assert doc.relationships == ()


def test_cyclonedx_field_mapping(make_cdx):
    raw = make_cdx(
        [
            {
                "bom-ref": "r1",
                "name": "lib",
                "version": "2.0",
                "purl": "pkg:pypi/lib@2.0",
                "cpe": "cpe:2.3:a:lib:lib:2.0:*:*:*:*:*:*:*",
                "supplier": {"name": "Lib Authors"},
                "licenses": [{"license": {"id": "Apache-2.0"}}, {"license": {"name": "Custom"}}],
                "hashes": [{"alg": "SHA-256", "content": "ABCDEF012345"}],
                "group": "org.lib",
            }
        ]
    )
    c = parse_cyclonedx(raw).components[0]
    assert c.vendor == "Lib Authors"
    assert c.licenses == ("Apache-2.0", "Custom")
    assert c.hashes == (("SHA256", "abcdef012345"),)  # alg uppercased, digest lowered
    assert c.cpe.startswith("cpe:2.3")
    assert ("cdx:group", "org.lib") in c.extra


def test_cyclonedx_nested_assembly_contains(make_cdx):
    raw = make_cdx(
        [
            {
                "bom-ref": "outer",
                "name": "outer",
                "components": [{"bom-ref": "inner", "name": "inner"}],
            }
        ]
    )
    doc = parse_cyclonedx(raw)
    assert (
        ("outer", "inner", RelationshipKind.CONTAINS)
        in {(r.source, r.target, r.kind) for r in doc.relationships}
    )


def test_cyclonedx_subject_linked_to_roots(make_cdx):
    raw = make_cdx(
        [{"bom-ref": "a", "name": "a"}, {"bom-ref": "b", "name": "b"}],
        dependencies=[{"ref": "a", "dependsOn": ["b"]}],
        subject={"bom-ref": "app", "name": "app"},
    )
    doc = parse_cyclonedx(raw)
    assert doc.subject == "app"
    edges = {(r.source, r.target) for r in doc.relationships}
    assert ("app", "a") in edges  # a is a dependency root
    assert ("app", "b") not in edges  # b already has an inbound edge


def test_cyclonedx_dangling_dependency_refs_dropped(make_cdx):
    raw = make_cdx(
        [{"bom-ref": "a", "name": "a"}],
        dependencies=[
            {"ref": "a", "dependsOn": ["ghost"]},
            {"ref": "phantom", "dependsOn": ["a"]},
        ],
    )
    assert parse_cyclonedx(raw).relationships == ()


@pytest.mark.parametrize("targets", ["b", {"b": 1}, ""])
def test_cyclonedx_depends_on_must_be_an_array(make_cdx, targets):
    # A string used to be iterated per character, so "b" gave the edge a -> b.
    raw = make_cdx(
        [{"bom-ref": "a", "name": "a"}, {"bom-ref": "b", "name": "b"}],
        dependencies=[{"ref": "b"}, {"ref": "a", "dependsOn": targets}],
    )
    with pytest.raises(ParseError, match=r"^\$\.dependencies\[1\]\.dependsOn: expected an array$"):
        parse_cyclonedx(raw)


def test_cyclonedx_missing_name_reports_path(make_cdx):
    with pytest.raises(ParseError, match=r"\$\.components\[1\]\.name"):
        parse_cyclonedx(make_cdx([{"name": "ok"}, {"purl": "pkg:pypi/x@1"}]))


def test_cyclonedx_duplicate_bom_ref_rejected(make_cdx):
    with pytest.raises(ParseError, match="duplicate"):
        parse_cyclonedx(make_cdx([{"bom-ref": "r", "name": "a"}, {"bom-ref": "r", "name": "b"}]))


def test_dedup_collapses_purl_identical_and_rewires(make_cdx):
    raw = make_cdx(
        [
            {"bom-ref": "d1", "name": "dup", "version": "1", "purl": "pkg:maven/g/dup@1"},
            {"bom-ref": "d2", "name": "dup", "version": "1", "purl": "pkg:maven/g/dup@1"},
            {"bom-ref": "u1", "name": "user1"},
            {"bom-ref": "u2", "name": "user2"},
        ],
        dependencies=[
            {"ref": "u1", "dependsOn": ["d1"]},
            {"ref": "u2", "dependsOn": ["d2"]},
        ],
    )
    doc = parse_cyclonedx(raw)
    assert [c.id for c in doc.components if c.name == "dup"] == ["d1"]
    edges = {(r.source, r.target) for r in doc.relationships}
    assert ("u1", "d1") in edges and ("u2", "d1") in edges


def test_dedup_spares_same_name_different_purl(make_cdx):
    raw = make_cdx(
        [
            {"bom-ref": "a", "name": "same", "purl": "pkg:maven/g/same@1"},
            {"bom-ref": "b", "name": "same", "purl": "pkg:maven/g/same@2"},
        ]
    )
    assert len(parse_cyclonedx(raw).components) == 2


def test_dedup_never_merges_purlless(make_cdx):
    raw = make_cdx([{"bom-ref": "a", "name": "x"}, {"bom-ref": "b", "name": "x"}])
    assert len(parse_cyclonedx(raw).components) == 2


def test_dedup_idempotent_and_preserves_purl_set(make_cdx):
    raw = make_cdx(
        [
            {"bom-ref": f"c{i}", "name": f"n{i % 4}", "purl": f"pkg:pypi/n{i % 4}@1"}
            for i in range(12)
        ]
    )
    doc = parse_cyclonedx(raw, IngestOptions(dedup=False))
    once = dedup_components(doc)
    assert dedup_components(once) == once
    assert {c.purl for c in once.components} == {c.purl for c in doc.components}


def test_spdx_mapping(make_spdx):
    raw = make_spdx(
        [
            {"SPDXID": "SPDXRef-app", "name": "app"},
            {
                "SPDXID": "SPDXRef-p",
                "name": "p",
                "versionInfo": "3.1",
                "supplier": "Organization: Acme Inc",
                "licenseConcluded": "MIT",
                "licenseDeclared": "NOASSERTION",
                "checksums": [{"algorithm": "SHA1", "checksumValue": "FFEE"}],
                "externalRefs": [
                    {"referenceType": "purl", "referenceLocator": "pkg:pypi/p@3.1"}
                ],
            },
        ],
        relationships=[
            {
                "spdxElementId": "SPDXRef-DOCUMENT",
                "relationshipType": "DESCRIBES",
                "relatedSpdxElement": "SPDXRef-app",
            },
            {
                "spdxElementId": "SPDXRef-app",
                "relationshipType": "DEPENDS_ON",
                "relatedSpdxElement": "SPDXRef-p",
            },
        ],
    )
    doc = parse_spdx(raw)
    assert doc.subject == "SPDXRef-app"
    p = doc.by_id["SPDXRef-p"]
    assert p.vendor == "Acme Inc"
    assert p.licenses == ("MIT",)
    assert p.hashes == (("SHA1", "ffee"),)
    assert p.purl == "pkg:pypi/p@3.1"
    assert {(r.source, r.target, r.kind) for r in doc.relationships} == {
        ("SPDXRef-app", "SPDXRef-p", RelationshipKind.DEPENDS_ON)
    }


def test_spdx_unknown_relationship_to_extra_no_edge(make_spdx):
    raw = make_spdx(
        [{"SPDXID": "SPDXRef-a", "name": "a"}, {"SPDXID": "SPDXRef-b", "name": "b"}],
        relationships=[
            {
                "spdxElementId": "SPDXRef-a",
                "relationshipType": "BUILD_TOOL_OF",
                "relatedSpdxElement": "SPDXRef-b",
            }
        ],
    )
    doc = parse_spdx(raw)
    assert doc.relationships == ()
    assert ("relationship:BUILD_TOOL_OF", "SPDXRef-b") in doc.by_id["SPDXRef-a"].extra


def test_spdx_contains_edge(make_spdx):
    raw = make_spdx(
        [{"SPDXID": "SPDXRef-a", "name": "a"}, {"SPDXID": "SPDXRef-b", "name": "b"}],
        relationships=[
            {
                "spdxElementId": "SPDXRef-a",
                "relationshipType": "CONTAINS",
                "relatedSpdxElement": "SPDXRef-b",
            }
        ],
    )
    doc = parse_spdx(raw)
    assert doc.relationships[0].kind is RelationshipKind.CONTAINS


def test_spdx_document_describes_fallback(make_spdx):
    raw = make_spdx([{"SPDXID": "SPDXRef-x", "name": "x"}], describes=["SPDXRef-x"])
    assert parse_spdx(raw).subject == "SPDXRef-x"


def test_spdx_missing_spdxid_reports_path(make_spdx):
    with pytest.raises(ParseError, match=r"\$\.packages\[0\]\.SPDXID"):
        parse_spdx(make_spdx([{"name": "x"}]))


def test_hbom_basic_fold(make_hbom):
    raw = make_hbom(
        [
            {"ref": "b1", "name": "board1"},
            {"ref": "c1", "name": "chipA", "parent": "b1"},
            {"ref": "c2", "name": "chipA", "parent": "b1"},
        ]
    )
    doc = parse_hbom(raw)
    chip = [c for c in doc.components if c.name == "chipA"]
    assert len(chip) == 1 and chip[0].quantity == 2
    assert len(doc.relationships) == 1
    assert doc.subject is None


def test_hbom_fold_reaches_fixpoint(make_hbom):
    # two same-name parents merge first, then their same-name children must
    # merge under the surviving parent
    raw = make_hbom(
        [
            {"ref": "p1", "name": "board"},
            {"ref": "p2", "name": "board"},
            {"ref": "c1", "name": "chip", "parent": "p1", "quantity": 2},
            {"ref": "c2", "name": "chip", "parent": "p2", "quantity": 2},
        ]
    )
    doc = parse_hbom(raw)
    assert {(c.name, c.quantity) for c in doc.components} == {("board", 2), ("chip", 4)}


def test_hbom_fold_off_keeps_rows(make_hbom):
    raw = make_hbom(
        [
            {"ref": "c1", "name": "chipA"},
            {"ref": "c2", "name": "chipA"},
        ]
    )
    doc = parse_hbom(raw, IngestOptions(fold_quantities=False))
    assert len(doc.components) == 2


def test_hbom_quantity_zero_rejected(make_hbom):
    with pytest.raises(ParseError, match="row 2.*quantity"):
        parse_hbom(make_hbom([{"ref": "a", "name": "a", "quantity": 0}]))


@pytest.mark.parametrize("raw", ["1_000", "١٢", "+5", "0x10", "1.0", "1e3"])
def test_hbom_quantity_is_ascii_digits_only(tmp_path, make_hbom, raw):
    # int() accepts the first three; a quantity is read as [0-9]+ only
    table = make_hbom([{"ref": "a", "name": "a"}, {"ref": "b", "name": "b", "quantity": raw}])
    message = f"row 3: quantity '{raw}' is not an integer"
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        parse_hbom(table)
    path = tmp_path / "q.csv"
    path.write_bytes(table)
    err = io.StringIO()
    assert cli_run(["inspect", str(path)], stdout=io.StringIO(), stderr=err) == 3
    assert err.getvalue() == f"error: {message}\n"


@pytest.mark.parametrize("raw, value", [("0", 0), ("-1", -1), ("-0", 0)])
def test_hbom_quantity_below_one_keeps_its_message(make_hbom, raw, value):
    table = make_hbom([{"ref": "a", "name": "a"}, {"ref": "b", "name": "b", "quantity": raw}])
    with pytest.raises(ParseError, match=f"^row 3: quantity must be >= 1, got {value}$"):
        parse_hbom(table)


def test_hbom_quantity_digits_strip_and_leading_zeros():
    raw = json.dumps({"hbom": [{"ref": "a", "name": "a", "quantity": " 007 "},
                               {"ref": "b", "name": "b", "quantity": 12}]}).encode()
    assert [c.quantity for c in parse_hbom(raw).components] == [7, 12]


def test_hbom_quantity_over_row_cap_rejected(make_hbom):
    raw = make_hbom([{"ref": "a", "name": "a", "quantity": MAX_HBOM_QUANTITY + 1}])
    with pytest.raises(ParseError, match=f"row 2: quantity {MAX_HBOM_QUANTITY + 1} exceeds"):
        parse_hbom(raw)
    ok = make_hbom([{"ref": "a", "name": "a", "quantity": MAX_HBOM_QUANTITY}])
    assert parse_hbom(ok).components[0].quantity == MAX_HBOM_QUANTITY


def test_hbom_folded_nodes_over_total_cap_rejected(make_hbom):
    # repeated rows each within the row cap fold into one component whose
    # quantity passes the node cap; the row that crosses it is named
    rows = MAX_HBOM_NODES // MAX_HBOM_QUANTITY + 1
    raw = make_hbom(
        [{"ref": f"r{i}", "name": "cap", "quantity": MAX_HBOM_QUANTITY} for i in range(rows)]
    )
    with pytest.raises(ParseError, match=f"row 2: .* more than {MAX_HBOM_NODES} graph nodes"):
        parse_hbom(raw)
    # unfolded, the same rows cross the cap at the last one
    with pytest.raises(ParseError, match=f"row {rows + 1}: .* graph nodes"):
        parse_hbom(raw, IngestOptions(fold_quantities=False))


def test_hbom_expanded_edges_over_cap_rejected(make_hbom):
    q = 1001  # q * q parent-child instance edges, just over the edge cap
    assert q * q > MAX_HBOM_EDGES and 2 * q <= MAX_HBOM_NODES
    raw = make_hbom(
        [
            {"ref": "board", "name": "board", "quantity": q},
            {"ref": "chip", "name": "chip", "parent": "board", "quantity": q},
        ]
    )
    with pytest.raises(ParseError, match=f"row 3: .* more than {MAX_HBOM_EDGES} parent-child edges"):
        parse_hbom(raw)


def test_hbom_quantity_cap_is_exit_3(tmp_path, make_hbom):
    path = tmp_path / "big.csv"
    path.write_bytes(make_hbom([{"ref": "a", "name": "a", "quantity": 10**20}]))
    err = io.StringIO()
    assert cli_run(["graph", str(path), str(path)], stdout=io.StringIO(), stderr=err) == 3
    assert err.getvalue().startswith("error:") and "row 2" in err.getvalue()


def test_hbom_dangling_parent(make_hbom):
    with pytest.raises(DanglingParentError, match="row 2"):
        parse_hbom(make_hbom([{"ref": "a", "name": "a", "parent": "nowhere"}]))


def test_hbom_duplicate_ref_rejected(make_hbom):
    with pytest.raises(ParseError, match="duplicate ref"):
        parse_hbom(make_hbom([{"ref": "a", "name": "x"}, {"ref": "a", "name": "y"}]))


def test_hbom_row_count_matches_name_multiset(make_hbom):
    rows = [{"ref": f"r{i}", "name": f"part-{i}"} for i in range(156)]
    doc = parse_hbom(make_hbom(rows))
    assert sum(c.quantity for c in doc.components) == 156


def test_hbom_json_variant():
    raw = json.dumps(
        {"hbom": [{"ref": "a", "name": "x", "quantity": 3}, {"ref": "b", "name": "y", "parent": "a"}]}
    ).encode()
    doc = parse_hbom(raw)
    assert doc.by_id["a"].quantity == 3
    assert doc.relationships[0].kind is RelationshipKind.CONTAINS


# Detection reads the CSV header with the parser's reader, so a table is an
# HBOM table to both or to neither. Detection used to split the first 4096
# characters on "," and lowercase the cells.
_LONG = ",".join(f"col{i}" for i in range(800))


@pytest.mark.parametrize(
    "text, is_table",
    [
        ('"ref","name","quantity"\na,b,2\n', True),  # was undetected
        ("Ref,Name\na,b\n", False),  # was detected, then refused
        (f"{_LONG},ref,name\n{',' * 800}a,b\n", True),  # header past 4096 characters
        ("\nref,name\na,b\n", False),  # the header is the first record
        ("  ref , name\na,b\n", True),
    ],
    ids=["quoted", "capitalized", "long-header", "blank-first-line", "spaced"],
)
def test_csv_detection_agrees_with_parser(tmp_path, text, is_table):
    raw = text.encode()
    path = tmp_path / "t.csv"
    path.write_bytes(raw)
    runs = [["inspect", str(path)], ["inspect", "--format-in", "generic-hbom", str(path)]]
    codes = [cli_run(argv, stdout=io.StringIO(), stderr=io.StringIO()) for argv in runs]
    if is_table:
        assert detect_format(raw) is BomFormat.GENERIC_HBOM
        assert len(parse_document(raw).components) == 1
        assert codes == [0, 0]
    else:
        with pytest.raises(UnknownFormatError, match="neither JSON nor a ref/name CSV table"):
            detect_format(raw)
        with pytest.raises(ParseError, match="row 1: CSV header must include 'ref' and 'name'"):
            parse_hbom(raw)
        assert codes == [3, 3]


def test_csv_reader_errors_are_parse_errors():
    # the csv module refuses a field over its size limit; that was a traceback
    raw = ('ref,name\na,"' + "x" * 200_000 + '"\n').encode()
    with pytest.raises(ParseError, match=r"^row 2: field larger than field limit"):
        parse_document(raw)
    with pytest.raises(UnknownFormatError):
        detect_format(('"' + "x" * 200_000 + '"\n').encode())


def test_drop_prefix_by_purl_type(make_cdx):
    raw = make_cdx(
        [
            {"bom-ref": "n", "name": "left-pad", "purl": "pkg:npm/left-pad@1.3.0"},
            {"bom-ref": "m", "name": "guava", "purl": "pkg:maven/com.google.guava/guava@31"},
        ]
    )
    doc = parse_cyclonedx(raw, IngestOptions(drop_name_prefixes=("npm",)))
    assert [c.name for c in doc.components] == ["guava"]


def test_drop_prefix_by_name(make_cdx):
    raw = make_cdx([{"bom-ref": "a", "name": "@angular/core"}, {"bom-ref": "b", "name": "guava"}])
    doc = parse_cyclonedx(raw, IngestOptions(drop_name_prefixes=("@angular/",)))
    assert [c.name for c in doc.components] == ["guava"]


def test_ingest_options_rejects_empty_prefix():
    with pytest.raises(ValueError):
        IngestOptions(drop_name_prefixes=("",))


def test_ingest_options_rejects_a_bare_string(make_cdx):
    # a str is a sequence of one-letter prefixes: "npm" would drop "pandas"
    with pytest.raises(ValueError, match="not a str"):
        IngestOptions(drop_name_prefixes="npm")
    raw = make_cdx([{"bom-ref": "p", "name": "pandas"}])
    doc = parse_cyclonedx(raw, IngestOptions(drop_name_prefixes=["npm"]))
    assert [c.name for c in doc.components] == ["pandas"]


@given(st.randoms(use_true_random=False))
@settings(max_examples=50)
def test_cyclonedx_parse_is_order_independent(rng):
    components = [
        {"bom-ref": f"c{i}", "name": f"lib{i % 7}", "version": str(i % 3), "purl": f"pkg:pypi/lib{i}@1"}
        for i in range(12)
    ] + [{"name": "refless", "version": "9"}, {"name": "refless", "version": "9"}]
    deps = [{"ref": f"c{i}", "dependsOn": [f"c{(i + 1) % 12}"]} for i in range(12)]
    base = {"bomFormat": "CycloneDX", "specVersion": "1.5", "components": components, "dependencies": deps}
    reference = parse_cyclonedx(json.dumps(base).encode())

    shuffled = dict(base)
    shuffled["components"] = rng.sample(components, len(components))
    shuffled["dependencies"] = rng.sample(deps, len(deps))
    assert parse_cyclonedx(json.dumps(shuffled).encode()) == reference


def recursive_subtree_keys(entries, parent_of, wanted):
    """Reference: the original memoized recursion over children_of."""
    children_of = {}
    for i, p in enumerate(parent_of):
        if p is not None:
            children_of.setdefault(p, []).append(i)
    memo = {}

    def subtree_key(i):
        if i not in memo:
            own = json.dumps(
                {k: v for k, v in entries[i].items() if k != "components"},
                sort_keys=True,
            )
            kids = sorted(subtree_key(c) for c in children_of.get(i, ()))
            memo[i] = own + "|" + ",".join(kids)
        return memo[i]

    for i in wanted:
        subtree_key(i)
    return memo


# Refless components from small pools, so equal (name, version, purl) ties
# between different subtrees are common.
_refless = st.fixed_dictionaries(
    {"name": st.sampled_from(("board", "cap"))},
    optional={"version": st.sampled_from(("1", "2")), "purl": st.just("pkg:npm/cap@1")},
)
_forests = st.recursive(
    st.lists(_refless, max_size=3),
    lambda kids: st.lists(
        st.one_of(_refless, st.builds(lambda e, c: {**e, "components": c}, _refless, kids)),
        min_size=1,
        max_size=3,
    ),
    max_leaves=14,
)


def _preorder(forest):
    entries, parent_of = [], []

    def visit(items, parent):
        for entry in items:
            entries.append(entry)
            parent_of.append(parent)
            visit(entry.get("components", ()), len(entries) - 1)

    visit(forest, None)
    return entries, parent_of


@given(_forests, st.sets(st.integers(0, 30)))
@settings(max_examples=300)
def test_subtree_keys_equal_recursive_oracle(forest, wanted):
    entries, parent_of = _preorder(forest)
    wanted = [i for i in sorted(wanted) if i < len(entries)]
    assert ingest._subtree_keys(entries, parent_of, wanted) == recursive_subtree_keys(
        entries, parent_of, wanted
    )


@given(_forests)
@settings(max_examples=100)
def test_refless_ids_unchanged_by_iterative_keys(forest):
    raw = json.dumps({"bomFormat": "CycloneDX", "specVersion": "1.5", "components": forest})
    doc = parse_cyclonedx(raw.encode())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ingest, "_subtree_keys", recursive_subtree_keys)
        assert parse_cyclonedx(raw.encode()) == doc


def test_deep_refless_nesting_never_tracebacks(tmp_path):
    # Around the JSON decoder's nesting limit the command either succeeds or
    # reports a parse error; flattening and id assignment must not overflow.
    src = str(Path(bomdiff.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    deepest = None
    for depth in range(480, 496):
        f = tmp_path / f"deep{depth}.json"
        f.write_text(
            '{"bomFormat": "CycloneDX", "specVersion": "1.5", "components": ['
            + '{"name": "c", "components": [' * (depth - 1)
            + '{"name": "leaf"}'
            + "]}" * (depth - 1)
            + "]}"
        )
        r = subprocess.run(
            [sys.executable, "-m", "bomdiff.cli", "inspect", str(f)],
            capture_output=True, text=True, env=env,
        )
        assert r.returncode in (0, 3), (depth, r.stderr)
        assert "Traceback" not in r.stderr
        if r.returncode == 0:
            deepest = (depth, r.stdout)
    assert deepest is not None
    depth, out = deepest
    assert f"\ncomponents: {depth}\n" in out


# ------------------------------------------------ quantity folding oracle
#
# _fold_quantities folds in one top-down pass. The fixpoint it replaced,
# one full regrouping pass per tree level that merges, stays here as the
# reference.


def fold_quantities_oracle(components, edges):
    comps = {c.id: c for c in components}
    edges = set(edges)
    while True:
        parent_of = {}
        for s, t, k in edges:
            if k is RelationshipKind.CONTAINS:
                parent_of[t] = s
        groups = {}
        for cid, c in comps.items():
            groups.setdefault((c.name, c.vendor, parent_of.get(cid)), []).append(cid)

        remap = {}
        for members in groups.values():
            if len(members) < 2:
                continue
            members.sort()
            survivor = members[0]
            total = sum(comps[m].quantity for m in members)
            comps[survivor] = replace(comps[survivor], quantity=total)
            for m in members[1:]:
                remap[m] = survivor
                del comps[m]
        if not remap:
            return list(comps.values()), edges

        edges = {
            (remap.get(s, s), remap.get(t, t), k)
            for s, t, k in edges
            if remap.get(s, s) != remap.get(t, t)
        }


@st.composite
def hbom_tables(draw):
    """HBOM rows as parse_hbom hands them to folding: ids not in name order,
    repeated (name, vendor, parent) rows, quantities above 1, and a random
    parent per row, which makes `parent` cycles of length 2 and longer and
    trees hanging off them."""
    n = draw(st.integers(min_value=1, max_value=14))
    ids = draw(st.permutations([f"r{i:02d}" for i in range(n)]))
    comps = [
        Component(
            id=cid,
            name=draw(st.sampled_from(["board", "chip", "cap"])),
            vendor=draw(st.sampled_from([None, "acme"])),
            quantity=draw(st.integers(min_value=1, max_value=3)),
            extra=(("row", cid),),
        )
        for cid in ids
    ]
    parent = {}
    for cid in ids:
        p = draw(st.none() | st.sampled_from(ids))
        if p is not None and p != cid:
            parent[cid] = p
    if n >= 3 and draw(st.booleans()):  # one guaranteed 3-cycle
        parent[ids[0]], parent[ids[1]], parent[ids[2]] = ids[2], ids[0], ids[1]
    edges = {(p, cid, RelationshipKind.CONTAINS) for cid, p in parent.items()}
    return comps, edges


@given(hbom_tables())
@settings(max_examples=500, deadline=None)
def test_fold_matches_fixpoint(table):
    comps, edges = table
    assert ingest._fold_quantities(comps, edges) == fold_quantities_oracle(comps, edges)


def test_fold_cycle_rows_join_their_siblings():
    # a and b form a parent 2-cycle; c hangs off a with b's name, so it folds
    # into b, and then d (under c) folds with e (under b)
    def row(cid, name, q=1):
        return Component(id=cid, name=name, quantity=q)

    comps = [row("a", "x"), row("b", "y", 2), row("c", "y", 3), row("d", "z"), row("e", "z")]
    edges = {(p, c, RelationshipKind.CONTAINS)
             for p, c in [("b", "a"), ("a", "b"), ("a", "c"), ("c", "d"), ("b", "e")]}
    folded, fedges = ingest._fold_quantities(comps, edges)
    assert [(c.id, c.quantity) for c in folded] == [("a", 1), ("b", 5), ("d", 2)]
    assert fedges == {(p, c, RelationshipKind.CONTAINS) for p, c in [("b", "a"), ("a", "b"), ("b", "d")]}
    assert (folded, fedges) == fold_quantities_oracle(comps, edges)


def test_fold_is_linear_in_depth(make_hbom):
    # two identical chains of depth 1000 fold into one; the fixpoint took a
    # full pass per level (2.3 s here)
    rows = [
        {"ref": f"{side}{i:04d}", "name": f"n{i}",
         "parent": f"{side}{i - 1:04d}" if i else ""}
        for side in "ab" for i in range(1000)
    ]
    raw = make_hbom(rows)
    t0 = time.perf_counter()
    doc = parse_hbom(raw)
    assert time.perf_counter() - t0 < 1.0
    assert {c.quantity for c in doc.components} == {2}
    assert len(doc.components) == 1000
