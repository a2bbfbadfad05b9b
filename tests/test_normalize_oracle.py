"""Normalization on the parser's parts against the document-level version.

``ingest._finish`` applies prefix drops and then dedup to a parser's
components and (source, target, kind) edges and builds the parse's one
``BomDocument``. The version it replaced stays here as the reference:
``_drop_prefixes`` and ``_finish`` each rebuilt a finished document through
``replace``, and ``dedup_components`` rewired ``Relationship`` objects into
one pair set per kind. Applied to the document parsed with dedup off and no
prefixes, the reference gives a document equal to the one the parser builds
with the same options. The parser builds its components and relationships
through the private builders of ``model``; the public constructors, given
the same parts in any order, build an equal document.
"""

import io
import json
from collections import Counter
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from bomdiff import ingest
from bomdiff.cli import run as cli_run
from bomdiff.ingest import IngestOptions, _purl_type, parse_document
from bomdiff.model import BomDocument, Component, Relationship, RelationshipKind

# ------------------------------------------------------------ the reference


def _relationships(contains, depends) -> tuple[Relationship, ...]:
    """Relationships from (source, target) pairs, one collection per kind."""
    CON, DEP = RelationshipKind.CONTAINS, RelationshipKind.DEPENDS_ON
    return (*(Relationship(s, t, CON) for s, t in contains),
            *(Relationship(s, t, DEP) for s, t in depends))


def dedup_components(doc: BomDocument) -> BomDocument:
    """Collapse components sharing purl and recorded metadata.

    Survivor is the smallest id in each group; edges to removed copies are
    rewired to the survivor, and edge duplicates or self-loops produced by
    the rewiring are dropped. Components without a purl never merge.
    """
    # Only components sharing a purl can merge: the full key is built for
    # those alone.
    counts = Counter(c.purl for c in doc.components)
    shared = {purl for purl, n in counts.items() if n > 1 and purl is not None}
    groups: dict[tuple, list[Component]] = {}
    for c in doc.components:
        if c.purl not in shared:
            continue
        licenses, hashes = c.licenses, c.hashes
        if len(licenses) > 1:
            licenses = tuple(sorted(licenses))
        if len(hashes) > 1:
            hashes = tuple(sorted(hashes))
        key = (c.purl, c.name, c.version, c.vendor, licenses, hashes)
        groups.setdefault(key, []).append(c)

    remap: dict[str, str] = {}
    for members in groups.values():
        if len(members) < 2:
            continue
        ids = sorted(c.id for c in members)
        for dup in ids[1:]:
            remap[dup] = ids[0]
    if not remap:
        return doc

    components = tuple(c for c in doc.components if c.id not in remap)
    rewired = (set(), set())  # contains, depends-on
    for r in doc.relationships:
        s, t = remap.get(r.source, r.source), remap.get(r.target, r.target)
        if s != t:
            rewired[r.kind is RelationshipKind.DEPENDS_ON].add((s, t))
    subject = remap.get(doc.subject, doc.subject) if doc.subject else None
    return replace(
        doc, components=components, relationships=_relationships(*rewired), subject=subject
    )


def _drop_prefixes(doc: BomDocument, prefixes) -> BomDocument:
    """Remove components whose purl ecosystem equals, or name starts with,
    one of the given entries. The subject is never dropped."""
    if not prefixes:
        return doc

    def drops(c: Component) -> bool:
        if c.id == doc.subject:
            return False
        ptype = _purl_type(c.purl) if c.purl else None
        return any(p == ptype or c.name.startswith(p) for p in prefixes)

    dropped = {c.id for c in doc.components if drops(c)}
    if not dropped:
        return doc
    return replace(
        doc,
        components=tuple(c for c in doc.components if c.id not in dropped),
        relationships=tuple(
            r
            for r in doc.relationships
            if r.source not in dropped and r.target not in dropped
        ),
    )


def _finish(doc: BomDocument, opts: IngestOptions) -> BomDocument:
    doc = _drop_prefixes(doc, opts.drop_name_prefixes)
    return dedup_components(doc) if opts.dedup else doc


# ----------------------------------------------------------- the strategies
#
# A few names and purls, so components often share a purl with equal
# metadata (and dedup fires), and prefixes that hit names ("lib", "tool-")
# and purl types ("npm", "pypi").

_NAMES = ["lib-a", "lib-b", "tool-x", "core"]
_PURLS = [None, "pkg:npm/lib-a@1", "pkg:pypi/core@2", "pkg:npm/tool-x@1"]
_PREFIXES = st.lists(st.sampled_from(["lib", "tool-", "npm", "pypi", "zzz"]),
                     max_size=2, unique=True)


@st.composite
def _packages(draw):
    """(id, name, purl, version) per package, ids in a drawn order."""
    n = draw(st.integers(min_value=1, max_value=8))
    ids = draw(st.permutations([f"c{i}" for i in range(n)]))
    return [(cid, draw(st.sampled_from(_NAMES)), draw(st.sampled_from(_PURLS)),
             draw(st.sampled_from(["1", None]))) for cid in ids]


def _edges(draw, ids):
    return [(a, b) for a in ids
            for b in draw(st.lists(st.sampled_from(ids), max_size=2)) if a != b]


@st.composite
def cyclonedx_inputs(draw):
    """Nested components (so a dropped parent takes its nesting edges with
    it), dependencies, and a subject that may share purl and metadata with a
    component and so have a duplicate."""
    pkgs = draw(_packages())
    entries = []
    for cid, name, purl, version in pkgs:
        e = {"bom-ref": cid, "name": name}
        if purl:
            e["purl"] = purl
        if version:
            e["version"] = version
        entries.append(e)
    top = []
    for i, e in enumerate(entries):  # nest under an earlier entry, or not
        j = draw(st.none() | st.integers(0, i - 1)) if i else None
        (top if j is None else entries[j].setdefault("components", [])).append(e)
    ids = [p[0] for p in pkgs]
    doc = {"bomFormat": "CycloneDX", "specVersion": "1.5", "components": top,
           "dependencies": [{"ref": a, "dependsOn": [b]} for a, b in _edges(draw, ids)]}
    if draw(st.booleans()):
        twin = draw(st.sampled_from(entries))  # the subject's duplicate, when drawn
        subject = {k: v for k, v in twin.items() if k != "components"}
        subject["bom-ref"] = draw(st.sampled_from(["a-subject", "z-subject"]))
        if draw(st.booleans()):
            subject["name"] = "product"
        doc["metadata"] = {"component": subject}
    return json.dumps(doc).encode()


@st.composite
def spdx_inputs(draw):
    pkgs = draw(_packages())
    packages = []
    for cid, name, purl, version in pkgs:
        p = {"SPDXID": cid, "name": name}
        if purl:
            p["externalRefs"] = [{"referenceType": "purl", "referenceLocator": purl}]
        if version:
            p["versionInfo"] = version
        packages.append(p)
    ids = [p[0] for p in pkgs]
    rels = [{"spdxElementId": a, "relatedSpdxElement": b,
             "relationshipType": draw(st.sampled_from(["CONTAINS", "DEPENDS_ON"]))}
            for a, b in _edges(draw, ids)]
    subject = draw(st.none() | st.sampled_from(ids))
    if subject is not None:
        rels.append({"spdxElementId": "SPDXRef-DOCUMENT", "relatedSpdxElement": subject,
                     "relationshipType": "DESCRIBES"})
    return json.dumps({"spdxVersion": "SPDX-2.3", "packages": packages,
                       "relationships": rels}).encode()


@st.composite
def hbom_inputs(draw):
    """Tables whose rows fold and whose parents may be dropped (HBOM rows
    carry no purl, so dedup never fires here)."""
    pkgs = draw(_packages())
    ids = [p[0] for p in pkgs]
    lines = ["ref,name,parent,quantity"]
    for i, (cid, name, _, _) in enumerate(pkgs):
        parent = draw(st.none() | st.sampled_from(ids[:i])) if i else None
        lines.append(f"{cid},{name},{parent or ''},{draw(st.integers(1, 3))}")
    return ("\n".join(lines) + "\n").encode()


# -------------------------------------------------------------------- tests


@given(cyclonedx_inputs() | spdx_inputs() | hbom_inputs(), _PREFIXES, st.booleans(),
       st.booleans())
@settings(max_examples=600, deadline=None)
def test_finish_matches_document_level_reference(raw, prefixes, dedup, fold):
    opts = IngestOptions(dedup=dedup, fold_quantities=fold, drop_name_prefixes=prefixes)
    parsed = parse_document(raw, IngestOptions(dedup=False, fold_quantities=fold))
    assert parse_document(raw, opts) == _finish(parsed, opts)
    assert ingest.dedup_components(parsed) == dedup_components(parsed)


def _exact(doc: BomDocument) -> list:
    """Each component's fields with their types, in document order."""
    return [tuple((type(v), v) for v in map(c.__getattribute__, Component.__slots__))
            for c in doc.components]


@given(cyclonedx_inputs() | spdx_inputs() | hbom_inputs(), _PREFIXES, st.booleans(),
       st.booleans(), st.randoms(use_true_random=False))
@settings(max_examples=400, deadline=None)
def test_finish_document_matches_public_constructors(raw, prefixes, dedup, fold, rnd):
    # The parser builds components, relationships and the document without
    # their public constructors; the public ones, given the same parts in
    # any order, build the same document.
    opts = IngestOptions(dedup=dedup, fold_quantities=fold, drop_name_prefixes=prefixes)
    doc = parse_document(raw, opts)
    components = [Component(*map(c.__getattribute__, Component.__slots__))
                  for c in doc.components]
    edges = [(r.source, r.target, r.kind) for r in doc.relationships]
    rnd.shuffle(components)
    rnd.shuffle(edges)
    public = BomDocument(doc.format, doc.spec_version, doc.subject, tuple(components),
                         tuple(Relationship(*e) for e in edges), doc.source_name)
    assert doc == public and _exact(doc) == _exact(public)
    # _finish on the shuffled parts, whose drops and dedup are already done
    again = ingest._finish(doc.format, doc.spec_version, doc.subject, components, edges,
                           doc.source_name, opts)
    assert again == public and _exact(again) == _exact(public)
    assert all(type(r) is Relationship for r in again.relationships)


def _both_fire(make_cdx) -> bytes:
    # "tool-x" is dropped by name, c3 with its nesting edge; c1 and c2 share
    # purl and metadata, so c2 collapses into c1 and its edge is rewired
    return make_cdx(
        [{"bom-ref": "c1", "name": "lib-a", "purl": "pkg:npm/lib-a@1"},
         {"bom-ref": "c2", "name": "lib-a", "purl": "pkg:npm/lib-a@1",
          "components": [{"bom-ref": "c3", "name": "tool-x"}]},
         {"bom-ref": "c4", "name": "core"}],
        dependencies=[{"ref": "c4", "dependsOn": ["c2", "c3"]}],
    )


def test_drop_and_dedup_build_one_document(monkeypatch, make_cdx):
    raw, opts = _both_fire(make_cdx), IngestOptions(drop_name_prefixes=("tool-",))
    # every document, built by the parser or through replace, goes once
    # through the one document constructor
    built = []
    post_init = BomDocument.__post_init__

    def counted(doc):
        built.append(doc)
        post_init(doc)

    monkeypatch.setattr(BomDocument, "__post_init__", counted)
    expected = _finish(parse_document(raw, IngestOptions(dedup=False)), opts)
    assert [c.id for c in expected.components] == ["c4", "c1"]
    assert [(r.source, r.target) for r in expected.relationships] == [("c4", "c1")]
    assert len(built) == 3  # the parse, then one rebuild each for drop and dedup
    built.clear()
    assert parse_document(raw, opts) == expected
    assert len(built) == 1


def test_compare_finishes_each_input_once(monkeypatch, tmp_path, make_cdx, make_hbom):
    left, right = tmp_path / "l.json", tmp_path / "r.csv"
    left.write_bytes(_both_fire(make_cdx))
    right.write_bytes(make_hbom([{"ref": "a", "name": "board"},
                                 {"ref": "b", "name": "chip", "parent": "a"}]))
    calls = []
    finish = ingest._finish

    def counted(*args):
        calls.append(args[-2])  # the source name
        return finish(*args)

    monkeypatch.setattr(ingest, "_finish", counted)
    out = io.StringIO()
    assert cli_run(["compare", str(left), str(right)], stdout=out) == 1
    assert calls == [str(left), str(right)]
