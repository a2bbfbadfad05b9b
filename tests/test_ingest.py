import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bomdiff.ingest import (
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
from bomdiff.model import BomFormat, RelationshipKind


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
