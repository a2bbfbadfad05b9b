
import dataclasses
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


def _oracle(components, relationships) -> tuple:
    """The canonical order as the constructor once computed it: a sort by
    each element's Python-level ``sort_key``."""
    return (tuple(sorted(components, key=Component.sort_key)),
            tuple(sorted(relationships, key=Relationship.sort_key)))


@st.composite
def _parts(draw):
    """Components with distinct ids from small name, version and purl pools,
    so that names repeat and some share (name, version, purl), and
    relationships among them drawn with repetition."""
    keys = draw(st.lists(st.tuples(st.sampled_from(["a", "b", "c"]),
                                   st.sampled_from([None, "1", "2"]),
                                   st.sampled_from([None, "pkg:npm/a@1"])), max_size=12))
    ids = draw(st.permutations([f"id{i}" for i in range(len(keys))]))
    components = [Component(i, name, version=v, purl=p) for i, (name, v, p) in zip(ids, keys)]
    relationships = []
    if len(ids) > 1:
        pairs = st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids),
                                   st.sampled_from(RelationshipKind))
                         .filter(lambda e: e[0] != e[1]), max_size=12)
        relationships = [Relationship(*e) for e in draw(pairs)]
    return components, relationships


_TWINS = [Component("b", "n", "1", "p"), Component("a", "n", "1", "p"), Component("c", "m")]
_TWIN_EDGES = [Relationship("a", "b", DEP)] * 2 + [Relationship("c", "a", CON)]


@given(_parts(), st.randoms(use_true_random=False))
@example((_TWINS, _TWIN_EDGES), random.Random(0))
@settings(max_examples=300, deadline=None)
def test_document_order_matches_sort_key_oracle(parts, rnd):
    components, relationships = parts
    shuffled = [list(components), list(relationships)]
    for items in shuffled:
        rnd.shuffle(items)
    doc = BomDocument(BomFormat.SPDX_JSON, "", None, *shuffled, "t")
    assert (doc.components, doc.relationships) == _oracle(components, relationships)
    assert type(doc.components) is tuple and type(doc.relationships) is tuple
    assert doc == BomDocument(BomFormat.SPDX_JSON, "", None, tuple(components),
                              tuple(relationships), "t")


@given(_parts(), st.sampled_from(["x", "id0", None]), st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_document_reports_the_first_dangling_endpoint_in_canonical_order(parts, subject,
                                                                        rnd):
    # a few components are taken away, so their relationships dangle
    components, relationships = parts
    kept = [c for c in components if not c.id.endswith(("1", "3"))]
    known = {c.id for c in kept}
    rnd.shuffle(relationships)
    dangling = [e for r in _oracle((), relationships)[1] for e in (r.source, r.target)
                if e not in known]
    if dangling:
        message = f"relationship endpoint {dangling[0]!r} does not resolve to a component"
    elif subject is not None and subject not in known:
        message = f"subject {subject!r} does not resolve to a component"
    else:
        message = None
    try:
        BomDocument(BomFormat.SPDX_JSON, "", subject, kept, relationships, "t")
    except ValueError as e:
        assert str(e) == message
    else:
        assert message is None


def test_document_error_messages():
    def message(components, relationships=(), subject=None):
        with pytest.raises(ValueError) as e:
            doc_from(components, relationships, subject)
        return str(e.value)

    # duplicate ids are reported first, sorted, each once
    assert message([comp("b"), comp("a"), comp("b", "x"), comp("a", "y"), comp("a", "z")],
                   [("a", "ghost", DEP)], subject="ghost") == \
        "duplicate component ids: ['a', 'b']"
    # the first unresolved endpoint in canonical order, not in input order;
    # a source counts as well as a target
    assert message([comp("a"), comp("z")], [("z", "y", DEP), ("a", "x", DEP)], "ghost") == \
        "relationship endpoint 'x' does not resolve to a component"
    assert message([comp("z")], [("z", "y", DEP), ("b", "z", CON)]) == \
        "relationship endpoint 'b' does not resolve to a component"
    assert message([comp("a")], subject="ghost") == \
        "subject 'ghost' does not resolve to a component"


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
