
import dataclasses

import pytest

from bomdiff.model import (
    BomDocument,
    BomFormat,
    Component,
    Relationship,
    RelationshipKind,
    canonical_form,
)
from conftest import CON, DEP, comp, doc_from


def test_component_coerces_empty_optionals_to_none():
    c = Component(id="x", name="n", version="", purl="", cpe="", vendor="")
    assert c.version is None
    assert c.purl is None
    assert c.cpe is None
    assert c.vendor is None


def test_component_rejects_bad_quantity():
    with pytest.raises(ValueError):
        Component(id="x", name="n", quantity=0)
    with pytest.raises(ValueError):
        Component(id="x", name="n", quantity=-3)


def test_component_requires_id_and_name():
    with pytest.raises(ValueError):
        Component(id="", name="n")
    with pytest.raises(ValueError):
        Component(id="x", name="")


def test_component_rejects_duplicate_hashes():
    with pytest.raises(ValueError):
        Component(id="x", name="n", hashes=[("SHA256", "aa"), ("SHA256", "aa")])


def test_component_constructor_normalizes_with_slots():
    c = Component(
        id="x",
        name="n",
        licenses=["MIT", "Zlib"],
        hashes=[["SHA256", "aa"], ("MD5", "bb")],
        extra=[["z", "1"], ("a", "2"), ["m", "3"]],
    )
    assert c.licenses == ("MIT", "Zlib") and type(c.licenses) is tuple
    assert c.hashes == (("SHA256", "aa"), ("MD5", "bb"))
    assert all(type(h) is tuple for h in c.hashes) and type(c.hashes) is tuple
    assert c.extra == (("a", "2"), ("m", "3"), ("z", "1"))
    assert all(type(kv) is tuple for kv in c.extra)
    # an extra that is already a sorted tuple of pairs is kept, not copied
    assert Component(id="y", name="n", extra=c.extra).extra is c.extra
    assert not hasattr(c, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        c.name = "other"


def test_component_replace_revalidates():
    c = Component(id="x", name="n", version="1")
    assert dataclasses.replace(c, version="").version is None
    assert dataclasses.replace(c, extra=[("b", "1"), ("a", "2")]).extra == (("a", "2"), ("b", "1"))
    with pytest.raises(ValueError, match="quantity must be >= 1"):
        dataclasses.replace(c, quantity=0)
    with pytest.raises(ValueError, match="duplicate hash"):
        dataclasses.replace(c, hashes=(("MD5", "aa"), ["MD5", "aa"]))


def test_relationship_is_frozen_with_slots():
    r = Relationship("a", "b", RelationshipKind.DEPENDS_ON)
    assert not hasattr(r, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        r.target = "c"


def test_relationship_rejects_self_loop():
    with pytest.raises(ValueError):
        Relationship("a", "a", RelationshipKind.DEPENDS_ON)


def test_document_rejects_duplicate_ids():
    with pytest.raises(ValueError):
        doc_from([comp("a"), comp("a", "other")])


def test_document_rejects_dangling_edge_endpoints():
    with pytest.raises(ValueError):
        doc_from([comp("a")], [("a", "ghost", DEP)])


def test_document_rejects_unresolved_subject():
    with pytest.raises(ValueError):
        doc_from([comp("a")], subject="ghost")


def test_canonical_form_sorts_components_and_edges():
    doc = doc_from(
        [comp("c", "zz"), comp("b", "aa", version="2"), comp("a", "aa", version="1")],
        [("c", "a", DEP), ("b", "a", DEP)],
    )
    canon = canonical_form(doc)
    assert canon is doc  # the document sorted its lists on construction
    assert [c.id for c in canon.components] == ["a", "b", "c"]
    assert [(r.source, r.target) for r in canon.relationships] == [
        ("b", "a"),
        ("c", "a"),
    ]
    # idempotent
    assert canonical_form(canon) == canon


def test_canonical_form_ignores_input_order():
    a = doc_from([comp("a"), comp("b")], [("a", "b", DEP)])
    b = doc_from([comp("b"), comp("a")], [("a", "b", DEP)])
    assert canonical_form(a) == canonical_form(b)


def test_documents_differing_only_in_list_order_compare_equal():
    comps = [comp("c", "zz"), comp("b", "aa", version="2"), comp("a", "aa", version="1")]
    rels = [("c", "a", DEP), ("b", "a", DEP), ("c", "b", CON)]
    a = doc_from(comps, rels, subject="c")
    b = doc_from(comps[::-1], rels[::-1], subject="c")
    assert a == b
    assert list(a.by_id) == list(b.by_id) == ["a", "b", "c"]


def test_by_id_lookup():
    doc = doc_from([comp("a"), comp("b")])
    assert doc.by_id["b"].name == "b"
