import io
import json
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
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
    MAX_NESTING_DEPTH,
    DanglingParentError,
    IngestOptions,
    ParseError,
    UnknownFormatError,
    dedup_components,
    detect_format,
    load_document,
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


# Exact messages of the errors whose JSON paths are built only when needed:
# nested entries name every array index on the way down.
def _cdx(components, **top):
    return {"bomFormat": "CycloneDX", "specVersion": "1.5", "components": components, **top}


_LEAF = {"name": "leaf"}


@pytest.mark.parametrize(
    "data, message",
    [
        (_cdx([_LEAF, {"name": "p", "components": [{"name": "c", "hashes": {}}]}]),
         "$.components[1].components[0].hashes: expected an array"),
        (_cdx([{"name": "p", "components": [_LEAF, {"name": "q", "components": [
            {"name": "c", "version": 3}]}]}]),
         "$.components[0].components[1].components[0].version: expected a string"),
        (_cdx([{"name": "p", "components": [_LEAF, {"name": "q", "components": [
            _LEAF, {"name": "c", "licenses": [5]}]}]}]),
         "$.components[0].components[1].components[1].licenses[0]: expected an object"),
        (_cdx([_LEAF, {"name": "p", "components": [_LEAF, {"components": []}]}]),
         "$.components[1].components[1].name: required field missing or empty"),
        (_cdx([{"name": "p", "components": [_LEAF, "c"]}]),
         "$.components[0].components[1]: expected an object"),
        (_cdx([_LEAF, {"name": "p", "components": [{"name": "q", "components": [None]}]}]),
         "$.components[1].components[0].components[0]: expected an object"),
        (_cdx([_LEAF, {"name": "p", "components": {"name": "c"}}]),
         "$.components[1].components: expected an array"),
        (_cdx([{"name": "p", "components": [_LEAF, {"name": "q", "components": "c"}]}]),
         "$.components[0].components[1].components: expected an array"),
        (_cdx([{"bom-ref": "a", "name": "a"},
               {"name": "p", "components": [{"bom-ref": "a", "name": "b"}]}]),
         "$.components[1].components[0].bom-ref: duplicate 'a'"),
        (_cdx([{"bom-ref": "a", "name": "a"}], metadata={"component": {"bom-ref": "a"}}),
         "$.metadata.component.bom-ref: duplicate 'a'"),
        (_cdx([_LEAF], metadata={"component": {"bom-ref": "app"}}),
         "$.metadata.component.name: required field missing or empty"),
        (_cdx([_LEAF], metadata={"component": {"name": "app", "cpe": ["x"]}}),
         "$.metadata.component.cpe: expected a string"),
        (_cdx([_LEAF, {"name": "p", "components": [{"name": "c", "purl": 7}]}]),
         "$.components[1].components[0].purl: expected a string"),
        (_cdx([{"name": "p", "supplier": {"name": 1}}]),
         "$.components[0].supplier.name: expected a string"),
        (_cdx([_LEAF], dependencies=[{"ref": "x"}, 4]),
         "$.dependencies[1]: expected an object"),
        (_cdx([_LEAF, {"name": "p", "hashes": [{"alg": "MD5", "content": 5}]}]),
         "$.components[1].hashes[0].content: expected a string"),
        (_cdx([{"name": "p", "hashes": [{"alg": "MD5", "content": "a"}, {"alg": 5, "content": "b"}]}]),
         "$.components[0].hashes[1].alg: expected a string"),
    ],
)
def test_cyclonedx_error_paths(data, message):
    with pytest.raises(ParseError) as e:
        parse_cyclonedx(data)
    assert str(e.value) == message


_PKG = {"SPDXID": "SPDXRef-a", "name": "a"}


def _spdx(packages, relationships=None):
    data = {"spdxVersion": "SPDX-2.3", "packages": packages}
    if relationships is not None:
        data["relationships"] = relationships
    return data


def _rel(a="SPDXRef-a", b="SPDXRef-a", kind="DEPENDS_ON"):
    return {"spdxElementId": a, "relatedSpdxElement": b, "relationshipType": kind}


@pytest.mark.parametrize(
    "data, message",
    [
        (_spdx([_PKG], [_rel(), {"spdxElementId": "SPDXRef-a"}]),
         "$.relationships[1].relationshipType: required field missing or empty"),
        (_spdx([_PKG], [_rel(kind="")]),
         "$.relationships[0].relationshipType: required field missing or empty"),
        (_spdx([_PKG], [_rel(a=5)]), "$.relationships[0].spdxElementId: expected a string"),
        (_spdx([_PKG], [_rel(), _rel(), _rel(b=["SPDXRef-a"])]),
         "$.relationships[2].relatedSpdxElement: expected a string"),
        # the type is checked first, then the two ends in order
        (_spdx([_PKG], [{"spdxElementId": 1, "relatedSpdxElement": 2}]),
         "$.relationships[0].relationshipType: required field missing or empty"),
        (_spdx([_PKG], [_rel(a=1, b=2)]), "$.relationships[0].spdxElementId: expected a string"),
        (_spdx([_PKG], [_rel(), "x"]), "$.relationships[1]: expected an object"),
        (_spdx([_PKG], {}), "$.relationships: expected an array"),
        (_spdx([_PKG, 3]), "$.packages[1]: expected an object"),
        (_spdx([_PKG, {"name": "b"}]), "$.packages[1].SPDXID: required field missing or empty"),
        (_spdx([_PKG, {"SPDXID": 9, "name": "b"}]), "$.packages[1].SPDXID: expected a string"),
        (_spdx([_PKG, {"SPDXID": "SPDXRef-a", "name": "b"}]),
         "$.packages[1].SPDXID: duplicate 'SPDXRef-a'"),
        (_spdx([_PKG, {"SPDXID": "SPDXRef-b"}]),
         "$.packages[1].name: required field missing or empty"),
        (_spdx([_PKG, {"SPDXID": "SPDXRef-b", "name": "b", "checksums": [{"algorithm": "MD5"}]}]),
         "$.packages[1].checksums[0].checksumValue: required field missing or empty"),
        (_spdx([_PKG], [_rel(), _rel(kind=["DEPENDS_ON"])]),
         "$.relationships[1].relationshipType: expected a string"),
        (_spdx([{**_PKG, "checksums": [{"algorithm": "MD5", "checksumValue": 5}]}]),
         "$.packages[0].checksums[0].checksumValue: expected a string"),
    ],
)
def test_spdx_error_paths(data, message):
    with pytest.raises(ParseError) as e:
        parse_spdx(data)
    assert str(e.value) == message


@pytest.mark.parametrize(
    "data, key",
    [
        (_cdx([_LEAF], metadata={"component": {"bom-ref": "app", "name": "app"}}), "components"),
        (_cdx([{"bom-ref": "a", "name": "a"}, {"bom-ref": "b", "name": "b"}],
              dependencies=[{"ref": "a", "dependsOn": ["b"]}]), "dependencies"),
        (_spdx([_PKG], [_rel(b="SPDXRef-a", kind="DESCRIBES")]), "packages"),
        (_spdx([_PKG], [_rel(b="SPDXRef-a", kind="DESCRIBES")]), "relationships"),
    ],
)
def test_null_top_level_array_reads_as_empty(data, key):
    # the rule of every optional array: missing or null reads as empty
    missing = {k: v for k, v in data.items() if k != key}
    assert parse_document(json.dumps({**data, key: None}).encode()) == \
        parse_document(json.dumps(missing).encode())
    assert parse_document(json.dumps(missing).encode()) != parse_document(json.dumps(data).encode())


def test_spdx_relationship_type_must_be_a_string():
    # it was once read through str(), and type 5 became the extra pair
    # relationship:5; the hash fields were read the same way (see the
    # error-path tables above)
    pkgs = [_PKG, {"SPDXID": "SPDXRef-b", "name": "b"}]
    with pytest.raises(ParseError) as e:
        parse_spdx(_spdx(pkgs, [_rel(b="SPDXRef-b", kind=5)]))
    assert str(e.value) == "$.relationships[0].relationshipType: expected a string"


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


def test_csv_reader_errors_are_parse_errors(tmp_path):
    # the csv module refuses a field over its size limit; that was a traceback
    raw = ('ref,name\na,"' + "x" * 200_000 + '"\n').encode()
    with pytest.raises(ParseError, match=r"^row 2: field larger than field limit"):
        parse_document(raw)
    with pytest.raises(UnknownFormatError):
        detect_format(('"' + "x" * 200_000 + '"\n').encode())
    # Python 3.10's csv refuses a NUL, later versions read it as data; the
    # refusal holds on every version, in a data row and in the header
    for raw in (b"ref,name\na\0,b\n", b'ref,name\na,"x\n\0"\n'):
        with pytest.raises(ParseError, match=r"^row 2: line contains NUL$"):
            parse_document(raw)
    raw = b"ref,name,x\0\na,b,c\n"
    with pytest.raises(ParseError, match=r"^row 1: line contains NUL$"):
        parse_hbom(raw)
    with pytest.raises(UnknownFormatError):
        detect_format(raw)
    # a column named twice (after stripping) would lose all but its last
    # cell; empty header cells, as from trailing commas, may repeat
    for header, column in ((b"ref,name,vendor,vendor", "vendor"), (b"ref,name,ref", "ref"),
                           (b"ref, name ,vendor,name", "name")):
        raw = header + b"\na,chip,acme,other\n"
        assert detect_format(raw) is BomFormat.GENERIC_HBOM
        with pytest.raises(ParseError, match=rf"^row 1: duplicate column '{column}'$"):
            parse_document(raw)
    doc = parse_document(b"ref,name,vendor,,\na,chip,acme,,\n")
    assert [(c.id, c.vendor) for c in doc.components] == [("a", "acme")]
    # a value under an unnamed column has no label (it used to be lost
    # silently), so it is an error; a blank or missing cell there is not
    raw = b"ref,name,,\na,chip,x,y\n"
    assert detect_format(raw) is BomFormat.GENERIC_HBOM
    with pytest.raises(ParseError, match=r"^row 2: value in unnamed column 3$"):
        parse_document(raw)
    with pytest.raises(ParseError, match=r"^row 3: value in unnamed column 2$"):
        parse_document(b"ref, ,name\na,,chip\nb, y ,cap\n")
    doc = parse_document(b"ref,name, ,vendor\na,chip, ,acme\nb,cap\n")
    assert [(c.id, c.vendor, c.extra) for c in doc.components] == [
        ("b", None, ()), ("a", "acme", ())]
    path = tmp_path / "unnamed.csv"
    path.write_bytes(raw)
    err = io.StringIO()
    assert cli_run(["inspect", str(path)], stdout=io.StringIO(), stderr=err) == 3
    assert err.getvalue() == "error: row 2: value in unnamed column 3\n"


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


@pytest.mark.parametrize("entry", [b"pan", 7, None, ("pan",)])
def test_ingest_options_rejects_a_non_str_prefix(entry):
    # accepted, such an entry made every later parse die in str.startswith
    with pytest.raises(ValueError, match="non-empty strings"):
        IngestOptions(drop_name_prefixes=["npm", entry])


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


def test_nesting_deeper_than_the_limit_is_the_decoders_error():
    # The JSON decoder's own limit depends on the Python version and on the
    # caller's stack; this one does not. The value is built without a
    # decode, so the test's own stack depth cannot matter.
    def nested(depth, innermost):
        entry = {"name": "leaf", "components": innermost}
        for _ in range(depth - 1):
            entry = {"name": "c", "components": [entry]}
        return {"bomFormat": "CycloneDX", "specVersion": "1.5", "components": [entry]}

    assert MAX_NESTING_DEPTH == 480
    assert len(parse_cyclonedx(nested(480, None)).components) == 480
    # an empty array at the deepest level holds no component, so it is read
    assert len(parse_cyclonedx(nested(480, [])).components) == 480
    for data in (nested(481, None), nested(480, [{"name": "x"}])):
        with pytest.raises(ParseError, match=r"^\$: JSON nested too deeply to decode$"):
            parse_cyclonedx(data)


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
    # MAX_NESTING_DEPTH, on every Python version
    depth, out = deepest
    assert depth == 480
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


# ------------------------------------------------- one read path, one copy


def _outcome(call, *args):
    """A document, or the type and text of the input error raised."""
    try:
        return call(*args)
    except (ParseError, UnknownFormatError) as e:
        return type(e), str(e)


@pytest.mark.parametrize("fmt", list(BomFormat), ids=lambda f: f.value)
def test_load_document_matches_parse_document(tmp_path, fmt, make_cdx, make_spdx, make_hbom):
    raw = {
        BomFormat.CYCLONEDX_JSON: make_cdx(
            [{"bom-ref": "a", "name": "a"}, {"bom-ref": "b", "name": "b"}],
            [{"ref": "a", "dependsOn": ["b"]}]),
        BomFormat.SPDX_JSON: make_spdx(
            [{"SPDXID": "S-a", "name": "a"}, {"SPDXID": "S-b", "name": "b"}],
            [{"spdxElementId": "S-a", "relatedSpdxElement": "S-b",
              "relationshipType": "DEPENDS_ON"}]),
        BomFormat.GENERIC_HBOM: make_hbom([{"ref": "a", "name": "a"},
                                           {"ref": "b", "name": "b", "parent": "a"}]),
    }[fmt]
    opts = IngestOptions()
    path = tmp_path / "bom"

    def both_ways(data: bytes):
        """Every entry point's outcome: loaded and parsed, detected and hinted."""
        path.write_bytes(data)
        name = str(path)
        return [
            (_outcome(load_document, path), _outcome(parse_document, data, opts, name)),
            (_outcome(load_document, path, opts, fmt),
             _outcome(parse_document, data, opts, name, fmt)),
        ]

    (detected, _), (hinted, _) = ways = both_ways(raw)
    assert all(loaded == parsed for loaded, parsed in ways)
    assert detected == hinted and len(detected.relationships) == 1
    # one leading byte-order mark is dropped
    assert both_ways(b"\xef\xbb\xbf" + raw) == ways
    # a second one is data, and each way refuses it alike
    for loaded, parsed in both_ways(b"\xef\xbb\xbf" * 2 + raw):
        assert loaded == parsed and loaded[0] in (ParseError, UnknownFormatError)
    errors = {
        raw[:5] + b"\xff" + raw[5:]: "byte 5: invalid UTF-8",
        b'{"x": ' + b"[" * 100_000 + b"]" * 100_000 + b"}": "$: JSON nested too deeply to decode",
    }
    for data, message in errors.items():
        for loaded, parsed in both_ways(data):
            assert loaded == parsed == (ParseError, message)


def _assert_one_object_per_value(doc):
    """Each edge endpoint and the subject are their component's id object,
    and equal vendors, licenses and hash algorithms are one object."""
    own = {c.id: c.id for c in doc.components}
    assert doc.relationships
    for r in doc.relationships:
        assert r.source is own[r.source] and r.target is own[r.target]
    assert doc.subject is None or doc.subject is own[doc.subject]
    values: dict = {}
    for c in doc.components:
        for value in (c.vendor, *c.licenses, *(alg for alg, _ in c.hashes)):
            if value is not None:
                assert values.setdefault(value, value) is value
    return values


def _cdx_product(n: int) -> bytes:
    """CycloneDX bytes shaped like a product SBOM: ``n`` components in a
    4-ary dependency tree under the subject, each with a purl equal to its
    bom-ref, one of two suppliers, one license, a SHA-256 and two extra
    fields, and every tenth with two nested parts."""
    comps = []
    for i in range(n):
        ref = f"pkg:npm/lib-{i}@1.{i % 7}.0"
        comp = {
            "bom-ref": ref, "type": "library", "name": f"lib-{i}",
            "version": f"1.{i % 7}.0", "purl": ref, "scope": "required",
            "supplier": {"name": ("Acme Corp", "Globex Ltd")[i % 2]},
            "licenses": [{"license": {"id": "Apache-2.0"}}],
            "hashes": [{"alg": "SHA-256", "content": f"{i:064x}"}],
        }
        if i % 10 == 0:
            comp["components"] = [{"bom-ref": f"{ref}/part-{j}", "name": f"part-{j}",
                                   "supplier": {"name": "Acme Corp"}} for j in range(2)]
        comps.append(comp)
    deps = [{"ref": comps[i]["bom-ref"],
             "dependsOn": [comps[j]["bom-ref"] for j in range(4 * i + 1, min(4 * i + 5, n))]}
            for i in range(n)]
    return json.dumps({
        "bomFormat": "CycloneDX", "specVersion": "1.5",
        "metadata": {"component": {"bom-ref": "app", "name": "app"}},
        "components": comps, "dependencies": deps,
    }).encode()


def test_cyclonedx_holds_each_value_once():
    data = json.loads(_cdx_product(40))
    data["components"].append({"name": "refless", "purl": "pkg:npm/refless@1"})
    doc = parse_cyclonedx(data)
    kinds = {r.kind for r in doc.relationships}
    assert kinds == {RelationshipKind.CONTAINS, RelationshipKind.DEPENDS_ON}
    values = _assert_one_object_per_value(doc)
    assert {"Acme Corp", "Globex Ltd", "Apache-2.0", "SHA256"} <= set(values)
    purls = [c for c in doc.components if c.purl is not None]
    assert len(purls) == 41 and all(c.purl is c.id for c in purls)
    # every library has the same scope and type: one extra tuple of two pairs
    extras = {id(c.extra): c.extra for c in doc.components if c.extra}
    assert list(extras.values()) == [(("cdx:scope", "required"), ("cdx:type", "library"))]
    # a digest that is already lowercase is the decoded string itself
    c = next(c for c in doc.components if c.name == "lib-1")
    assert c.hashes[0][1] is data["components"][1]["hashes"][0]["content"]
    # the memo lives for one parse: a second parse shares nothing with it
    twin = parse_cyclonedx(json.loads(_cdx_product(40))).by_id[c.id]
    assert twin.vendor == c.vendor and twin.vendor is not c.vendor


def test_spdx_holds_each_value_once(make_spdx):
    packages = [
        {"SPDXID": f"SPDXRef-{i}", "name": f"p{i}", "supplier": "Organization: Acme Corp",
         "licenseConcluded": "Apache-2.0", "licenseDeclared": "MIT",
         "checksums": [{"algorithm": "SHA-1", "checksumValue": f"{i:040x}"}]}
        for i in range(6)
    ]
    rels = [{"spdxElementId": "SPDXRef-DOCUMENT", "relatedSpdxElement": "SPDXRef-0",
             "relationshipType": "DESCRIBES"}]
    rels += [{"spdxElementId": f"SPDXRef-{i}", "relatedSpdxElement": f"SPDXRef-{i + 1}",
              "relationshipType": kind}
             for i, kind in enumerate(["DEPENDS_ON", "CONTAINS", "DEPENDS_ON", "CONTAINS", "OTHER"])]
    doc = parse_spdx(make_spdx(packages, rels))
    assert doc.subject == "SPDXRef-0" and len(doc.relationships) == 4
    values = _assert_one_object_per_value(doc)
    assert {"Acme Corp", "Apache-2.0", "MIT", "SHA1"} <= set(values)


@pytest.mark.parametrize("fold", [True, False])
def test_hbom_holds_each_value_once(make_hbom, fold):
    rows = [{"ref": "top", "name": "box", "vendor": "Acme Corp"}]
    rows += [{"ref": f"r{i}", "name": f"board{i % 2}", "parent": "top", "vendor": "Acme Corp"}
             for i in range(4)]
    rows += [{"ref": f"c{i}", "name": "cap", "parent": f"r{i % 4}", "vendor": "Globex Ltd",
              "quantity": 2} for i in range(8)]
    opts = IngestOptions(fold_quantities=fold)
    for raw in (make_hbom(rows), json.dumps({"hbom": rows}).encode()):
        doc = parse_hbom(raw, opts)
        assert len(doc.components) == (5 if fold else 13)
        assert set(_assert_one_object_per_value(doc)) == {"Acme Corp", "Globex Ltd"}


def test_hbom_shares_equal_multi_pair_extras():
    # extra columns in unsorted header order still give one sorted tuple
    csv_raw = b"ref,name,zone,color\na,chip,z1,red\nb,cap,z1,red\nc,res,z2,red\n"
    rows = [{"ref": r, "name": n, "zone": z, "color": "red"}
            for r, n, z in (("a", "chip", "z1"), ("b", "cap", "z1"), ("c", "res", "z2"))]
    for raw in (csv_raw, json.dumps({"hbom": rows}).encode()):
        by_id = parse_hbom(raw).by_id
        assert by_id["a"].extra == (("color", "red"), ("zone", "z1"))
        assert by_id["a"].extra is by_id["b"].extra
        assert by_id["c"].extra == (("color", "red"), ("zone", "z2"))
        assert by_id["a"].extra[0] is by_id["c"].extra[0]


def _traced_now() -> int:
    return tracemalloc.get_traced_memory()[0]


def test_load_frees_the_bytes_before_the_json_decode(tmp_path, monkeypatch):
    path = tmp_path / "bom.json"
    path.write_bytes(_cdx_product(2000))
    at_decode = []
    loads = json.loads
    monkeypatch.setattr(json, "loads", lambda *a, **kw: at_decode.append(_traced_now()) or loads(*a, **kw))
    tracemalloc.start()
    try:
        base = _traced_now()
        load_document(path)
    finally:
        tracemalloc.stop()
    # the decoded text alone is about 1.0x; with the bytes still held, 2.0x
    assert len(at_decode) == 1
    assert at_decode[0] - base <= 1.5 * path.stat().st_size


def test_parsed_document_is_small_beside_its_json_tree(tmp_path):
    path = tmp_path / "bom.json"
    path.write_bytes(_cdx_product(2000))
    load_document(path)  # first-use caches out of the measurement
    tracemalloc.start()
    try:
        base = _traced_now()
        tree = json.loads(path.read_bytes())
        tree_size = _traced_now() - base
        del tree
        base = _traced_now()
        doc = load_document(path)
        resident = _traced_now() - base
    finally:
        tracemalloc.stop()
    assert len(doc.components) == 2401
    # one copy per value: about 0.34x; a copy per occurrence was 0.62x
    assert resident <= 0.5 * tree_size, (resident, tree_size)
