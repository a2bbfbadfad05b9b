"""One-pass field readers against the readers they replaced.

``_cdx_component``, ``_spdx_component`` and the HBOM row loop read each
field once and build components of values that are already normal through
``model._component``, and ``Component.__post_init__`` rewrites only the
fields that are not. The versions they replaced stay here as the reference:
every field through a checked helper, and a ``Component`` that rebuilt every
field. On entries whose fields come from the fuzz gate's value pool, old and
new give an equal component or a ParseError with the same message. The
public ``Component`` and ``Relationship`` constructors are the reference for
the private builders, and no parse calls them; a parse calls the one
``BomDocument`` constructor once.
"""

import json
from dataclasses import dataclass, fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bomdiff import ingest, model
from bomdiff.ingest import MAX_HBOM_QUANTITY, IngestOptions, ParseError, _QUANTITY
from bomdiff.model import BomDocument, Component, Relationship, RelationshipKind
from test_cli_fuzz import _VALUES

# ------------------------------------------------------------ the reference


def _absent_if_empty(value):
    if value is None or value == "":
        return None
    return value


@dataclass(frozen=True)
class OldComponent:
    id: str
    name: str
    version: str | None = None
    purl: str | None = None
    cpe: str | None = None
    vendor: str | None = None
    licenses: tuple = ()
    hashes: tuple = ()
    quantity: int = 1
    extra: tuple = ()

    def __post_init__(self):
        if not self.id:
            raise ValueError("component id must be non-empty")
        if not self.name:
            raise ValueError(f"component {self.id!r}: name must be non-empty")
        if self.quantity < 1:
            raise ValueError(
                f"component {self.id!r}: quantity must be >= 1, got {self.quantity}"
            )
        object.__setattr__(self, "version", _absent_if_empty(self.version))
        object.__setattr__(self, "purl", _absent_if_empty(self.purl))
        object.__setattr__(self, "cpe", _absent_if_empty(self.cpe))
        object.__setattr__(self, "vendor", _absent_if_empty(self.vendor))
        object.__setattr__(self, "licenses", tuple(self.licenses))
        object.__setattr__(self, "hashes", tuple(tuple(h) for h in self.hashes))
        object.__setattr__(self, "extra", tuple(sorted(tuple(kv) for kv in self.extra)))
        if len(set(self.hashes)) != len(self.hashes):
            raise ValueError(f"component {self.id!r}: duplicate hash entries")


def _require(entry, key, path):
    value = entry.get(key)
    if value is None or value == "":
        raise ParseError(f"{path}.{key}: required field missing or empty")
    return value


def _opt_str(entry, key, path):
    value = entry.get(key)
    if value is None or value == "":
        return None
    if not isinstance(value, str):
        raise ParseError(f"{path}.{key}: expected a string")
    return value


def _opt_list(entry, key, path):
    value = entry.get(key)
    if value is None:
        return []
    if not isinstance(value, list):
        raise ParseError(f"{path}.{key}: expected an array")
    return value


def _norm_hash(path, alg_key, alg, digest_key, digest):
    # both fields were once read through str(); a non-string is now an error
    for key, value in ((alg_key, alg), (digest_key, digest)):
        if not isinstance(value, str):
            raise ParseError(f"{path}.{key}: expected a string")
    return alg.upper().replace("-", ""), digest.lower()


def old_cdx_component(entry, cid, path):
    name = _require(entry, "name", path)
    if not isinstance(name, str):
        raise ParseError(f"{path}.name: expected a string")

    vendor = None
    supplier = entry.get("supplier")
    if isinstance(supplier, dict):
        vendor = _opt_str(supplier, "name", f"{path}.supplier")

    licenses = []
    for j, lic in enumerate(_opt_list(entry, "licenses", path)):
        lpath = f"{path}.licenses[{j}]"
        if not isinstance(lic, dict):
            raise ParseError(f"{lpath}: expected an object")
        if isinstance(lic.get("license"), dict):
            value = lic["license"].get("id") or lic["license"].get("name")
        else:
            value = lic.get("expression")
        if isinstance(value, str) and value and value not in licenses:
            licenses.append(value)

    hashes = []
    for j, h in enumerate(_opt_list(entry, "hashes", path)):
        hpath = f"{path}.hashes[{j}]"
        if not isinstance(h, dict):
            raise ParseError(f"{hpath}: expected an object")
        alg = _require(h, "alg", hpath)
        digest = _require(h, "content", hpath)
        pair = _norm_hash(hpath, "alg", alg, "content", digest)
        if pair not in hashes:
            hashes.append(pair)

    extra = [
        (f"cdx:{key}", entry[key])
        for key in ("group", "type", "scope")
        if isinstance(entry.get(key), str) and entry[key]
    ]

    return OldComponent(
        id=cid,
        name=name,
        version=_opt_str(entry, "version", path),
        purl=_opt_str(entry, "purl", path),
        cpe=_opt_str(entry, "cpe", path),
        vendor=vendor,
        licenses=tuple(licenses),
        hashes=tuple(hashes),
        extra=tuple(extra),
    )


_NO_VALUE = ("NOASSERTION", "NONE")


def old_spdx_fields(pkg, path):
    name = _require(pkg, "name", path)
    if not isinstance(name, str):
        raise ParseError(f"{path}.name: expected a string")

    purl = cpe = None
    for j, ref in enumerate(_opt_list(pkg, "externalRefs", path)):
        rpath = f"{path}.externalRefs[{j}]"
        if not isinstance(ref, dict):
            raise ParseError(f"{rpath}: expected an object")
        rtype = ref.get("referenceType")
        locator = ref.get("referenceLocator")
        if not isinstance(locator, str) or not locator:
            continue
        if rtype == "purl" and purl is None:
            purl = locator
        elif rtype in ("cpe23Type", "cpe22Type") and cpe is None:
            cpe = locator

    vendor = _opt_str(pkg, "supplier", path)
    if vendor:
        if vendor in _NO_VALUE:
            vendor = None
        else:
            head, sep, tail = vendor.partition(":")
            if sep and head.strip() in ("Organization", "Person"):
                vendor = tail.strip() or None

    licenses = []
    for key in ("licenseConcluded", "licenseDeclared"):
        value = pkg.get(key)
        if isinstance(value, str) and value and value not in _NO_VALUE:
            if value not in licenses:
                licenses.append(value)

    hashes = []
    for j, ck in enumerate(_opt_list(pkg, "checksums", path)):
        cpath = f"{path}.checksums[{j}]"
        if not isinstance(ck, dict):
            raise ParseError(f"{cpath}: expected an object")
        alg = _require(ck, "algorithm", cpath)
        digest = _require(ck, "checksumValue", cpath)
        pair = _norm_hash(cpath, "algorithm", alg, "checksumValue", digest)
        if pair not in hashes:
            hashes.append(pair)

    return {
        "name": name,
        "version": _opt_str(pkg, "versionInfo", path),
        "purl": purl,
        "cpe": cpe,
        "vendor": vendor,
        "licenses": tuple(licenses),
        "hashes": tuple(hashes),
        "extra": (),
    }


_HBOM_COLUMNS = ("ref", "name", "parent", "vendor", "quantity")


def _cell(row, key, n):
    value = row.get(key)
    if value is None:
        return ""
    if not isinstance(value, str):
        raise ParseError(f"row {n}: {key} must be a string")
    return value.strip()


def old_hbom_components(rows):
    """The row loop of parse_hbom as it was, returning what it built."""
    by_ref, parent_ref, row_no = {}, {}, {}
    for n, row in rows:
        ref = _cell(row, "ref", n)
        name = _cell(row, "name", n)
        if not ref:
            raise ParseError(f"row {n}: ref must be non-empty")
        if ref in by_ref:
            raise ParseError(f"row {n}: duplicate ref '{ref}'")
        if not name:
            raise ParseError(f"row {n}: name must be non-empty")

        qraw = (str(row.get("quantity")) if row.get("quantity") is not None else "").strip()
        if qraw:
            try:
                if not _QUANTITY.fullmatch(qraw):
                    raise ValueError(qraw)
                quantity = int(qraw)
            except ValueError:
                raise ParseError(f"row {n}: quantity '{qraw}' is not an integer") from None
            if quantity < 1:
                raise ParseError(f"row {n}: quantity must be >= 1, got {quantity}")
            if quantity > MAX_HBOM_QUANTITY:
                raise ParseError(
                    f"row {n}: quantity {quantity} exceeds the limit of {MAX_HBOM_QUANTITY}"
                )
        else:
            quantity = 1

        parent = _cell(row, "parent", n)
        if parent == ref:
            raise ParseError(f"row {n}: component cannot be its own parent")
        if parent:
            parent_ref[ref] = parent

        extra = tuple(
            (k, str(v).strip())
            for k, v in sorted(row.items())
            if k not in _HBOM_COLUMNS and v is not None and str(v).strip()
        )
        by_ref[ref] = OldComponent(
            id=ref,
            name=name,
            vendor=_cell(row, "vendor", n) or None,
            quantity=quantity,
            extra=extra,
        )
        row_no[ref] = n
    return by_ref, parent_ref, row_no


# ----------------------------------------------------------------- helpers

_FIELDS = [f.name for f in fields(Component)]


def _outcome(build, *args, **kwargs):
    """What a call gives: its value, or the type and text of what it raised."""
    try:
        return "ok", build(*args, **kwargs)
    except Exception as e:  # compared, never swallowed: any mismatch fails
        return "raised", type(e).__name__, str(e)


def _values(c):
    """A component's fields as a tuple, with their exact types kept."""
    return tuple((type(getattr(c, f)), getattr(c, f)) for f in _FIELDS)


def _same(old, new):
    if old[0] == "ok" and new[0] == "ok":
        return _values(old[1]) == _values(new[1])
    return old == new


# ----------------------------------------------------------- the strategies

_V = _VALUES | st.sampled_from(["  x ", "SHA-256", "sha1", "AB", "NOASSERTION",
                                "Organization: Acme", "cpe23Type", "purl"])


def _maybe(strategy):
    return _V | strategy


def _obj(required=(), **members):
    """A dict with the ``required`` members and any subset of the others,
    each a value or a pool value."""
    return st.fixed_dictionaries(
        {k: _maybe(v) for k, v in members.items() if k in required},
        optional={k: _maybe(v) for k, v in members.items() if k not in required},
    )


_CDX_LICENSE = _obj(license=_obj(id=_V, name=_V), expression=_V)
_CDX_HASH = _obj(alg=st.sampled_from(["SHA-256", "sha256", "MD5"]),
                 content=st.sampled_from(["AB", "ab", "cd"]))
_CDX_ENTRY = _obj(
    ("name",),
    name=st.sampled_from(["zlib", "a"]),
    version=_V, purl=_V, cpe=_V, group=_V, type=_V, scope=_V,
    supplier=_obj(name=_V),
    licenses=st.lists(_maybe(_CDX_LICENSE), max_size=3),
    hashes=st.lists(_maybe(_CDX_HASH), max_size=3),
)

_SPDX_REF = _obj(referenceType=st.sampled_from(["purl", "cpe23Type", "cpe22Type", "other"]),
                 referenceLocator=_V)
_SPDX_CHECKSUM = _obj(algorithm=st.sampled_from(["SHA256", "SHA-1", "md5"]),
                      checksumValue=st.sampled_from(["AB", "ab", "cd"]))
_SPDX_PACKAGE = _obj(
    ("name",),
    name=st.sampled_from(["zlib", "a"]),
    versionInfo=_V, supplier=_V, licenseConcluded=_V, licenseDeclared=_V,
    externalRefs=st.lists(_maybe(_SPDX_REF), max_size=3),
    checksums=st.lists(_maybe(_SPDX_CHECKSUM), max_size=3),
)

_HBOM_ROW = _obj(
    ("ref", "name"),
    ref=st.sampled_from(["r1", " r2 ", "r3"]),
    name=st.sampled_from(["board", " cap "]),
    parent=st.sampled_from(["r1", "r2", ""]),
    vendor=st.sampled_from(["acme", " ", ""]),
    quantity=st.sampled_from(["1", " 3 ", "0", "-1", "+5", "١٢", 2, str(MAX_HBOM_QUANTITY + 1)]),
    color=st.sampled_from(["red", " "]),
    note=st.sampled_from(["x", ""]),
)


# -------------------------------------------------------------------- tests


@given(_CDX_ENTRY, st.integers(0, 3))
@settings(max_examples=500, deadline=None)
def test_cdx_component_matches_old_reader(entry, k):
    path = f"$.components[{k}]"
    old = _outcome(old_cdx_component, entry, "id", path)
    new = _outcome(ingest._cdx_component, entry, "id", path, {}, {})
    assert _same(old, new), (old, new)


@given(_SPDX_PACKAGE, st.integers(0, 3))
@settings(max_examples=500, deadline=None)
def test_spdx_fields_match_old_reader(pkg, k):
    path = f"$.packages[{k}]"
    old = _outcome(lambda *a: OldComponent(id="id", **old_spdx_fields(*a)), pkg, path)
    new = _outcome(ingest._spdx_component, pkg, "id", path, {})
    assert _same(old, new), (old, new)


@given(st.lists(_HBOM_ROW, max_size=4))
@settings(max_examples=500, deadline=None)
def test_hbom_row_loop_matches_old_loop(rows):
    numbered = list(enumerate(rows, start=2))
    old = _outcome(old_hbom_components, numbered)
    new = _outcome(ingest._hbom_components, numbered)
    if old[0] == "ok" and new[0] == "ok":
        (ob, op, on), (nb, np, nn) = old[1], new[1]
        assert (op, on) == (np, nn)
        assert {r: _values(c) for r, c in ob.items()} == {r: _values(c) for r, c in nb.items()}
    else:
        assert old == new


_PAIR = st.sampled_from([("SHA256", "aa"), ["SHA256", "aa"], ("MD5", "bb"), ["MD5", "bb"]])
_PAIRS = _V | st.lists(_PAIR, max_size=3) | st.lists(_PAIR, max_size=3).map(tuple)
_EXTRA = st.sampled_from([("k", "v"), ["b", "2"], ("a", "1"), ("cdx:type", "library")])
_EXTRAS = _V | st.lists(_EXTRA, max_size=3) | st.lists(_EXTRA, max_size=3).map(tuple)


@given(
    st.sampled_from(["x", "", "pkg:pypi/x@1"]),
    st.sampled_from(["n", ""]),
    _V, _V, _V, _V,
    _V | st.lists(st.sampled_from(["MIT", "Zlib"]), max_size=2),
    _PAIRS,
    st.sampled_from([1, 2, 0, -1]),
    _EXTRAS,
)
@settings(max_examples=1000, deadline=None)
def test_component_matches_old_post_init(cid, name, version, purl, cpe, vendor,
                                         licenses, hashes, quantity, extra):
    args = (cid, name, version, purl, cpe, vendor, licenses, hashes, quantity, extra)
    old = _outcome(OldComponent, *args)
    new = _outcome(Component, *args)
    assert _same(old, new), (old, new)


@pytest.mark.parametrize(
    "entry, message",
    [
        ({"name": "a", "hashes": [{"alg": "MD5", "content": "aa"}, 5]},
         "$.components[3].hashes[1]: expected an object"),
        ({"name": "a", "hashes": [{"alg": "MD5"}]},
         "$.components[3].hashes[0].content: required field missing or empty"),
        ({"name": "a", "hashes": ""}, "$.components[3].hashes: expected an array"),
        ({"name": "a", "licenses": [{}, "MIT"]},
         "$.components[3].licenses[1]: expected an object"),
        ({"name": "a", "supplier": {"name": 1}}, "$.components[3].supplier.name: expected a string"),
        ({"name": "a", "version": ["1"], "cpe": 2}, "$.components[3].version: expected a string"),
        ({"name": 7}, "$.components[3].name: expected a string"),
        ({"name": ""}, "$.components[3].name: required field missing or empty"),
        ({"name": "a", "hashes": [{"alg": "MD5", "content": 5}]},
         "$.components[3].hashes[0].content: expected a string"),
        # both fields are checked present before either is checked a string
        ({"name": "a", "hashes": [{"alg": 5}]},
         "$.components[3].hashes[0].content: required field missing or empty"),
    ],
)
def test_cdx_component_messages(entry, message):
    for read in (old_cdx_component, lambda *a: ingest._cdx_component(*a, {}, {})):
        with pytest.raises(ParseError) as e:
            read(entry, "id", "$.components[3]")
        assert str(e.value) == message


@pytest.mark.parametrize(
    "pkg, message",
    [
        ({"name": "a", "checksums": ""}, "$.packages[3].checksums: expected an array"),
        ({"name": "a", "checksums": [{"algorithm": "MD5", "checksumValue": "aa"}, []]},
         "$.packages[3].checksums[1]: expected an object"),
        ({"name": "a", "checksums": [{"checksumValue": "aa"}]},
         "$.packages[3].checksums[0].algorithm: required field missing or empty"),
        ({"name": "a", "externalRefs": ""}, "$.packages[3].externalRefs: expected an array"),
        ({"name": "a", "externalRefs": [{}, None]},
         "$.packages[3].externalRefs[1]: expected an object"),
        ({"name": "a", "supplier": ["x"]}, "$.packages[3].supplier: expected a string"),
        ({"name": "a", "versionInfo": 1.5}, "$.packages[3].versionInfo: expected a string"),
        ({"name": "a", "checksums": [{"algorithm": ["MD5"], "checksumValue": "aa"}]},
         "$.packages[3].checksums[0].algorithm: expected a string"),
    ],
)
def test_spdx_fields_messages(pkg, message):
    for read in (old_spdx_fields, lambda pkg, path: ingest._spdx_component(pkg, "id", path, {})):
        with pytest.raises(ParseError) as e:
            read(pkg, "$.packages[3]")
        assert str(e.value) == message


# ------------------------------------------------------ the private builders
#
# The parsers build through model._component and _relationship, which skip
# the public constructors' checks. On values a parser makes normal, the
# public constructors stay the reference.

_NORMAL_STR = st.none() | st.sampled_from(["x", "1.0", "pkg:npm/a@1", " "])


@given(st.tuples(
    st.sampled_from(["a", "pkg:npm/a@1"]),
    st.sampled_from(["n", "zlib"]),
    _NORMAL_STR, _NORMAL_STR, _NORMAL_STR, _NORMAL_STR,
    st.lists(st.sampled_from(["MIT", "Zlib"]), unique=True).map(tuple),
    st.lists(st.sampled_from([("SHA256", "aa"), ("MD5", "bb"), ("MD5", "aa")]),
             unique=True).map(tuple),
    st.integers(1, 5),
    st.lists(st.tuples(st.sampled_from(["k", "cdx:type"]), st.sampled_from(["v", "1"])))
    .map(sorted).map(tuple),
))
@settings(max_examples=300, deadline=None)
def test_component_builder_matches_public_constructor(args):
    built, public = model._component(*args), Component(*args)
    assert type(built) is Component
    assert _values(built) == _values(public)
    assert built == public and hash(built) == hash(public) and repr(built) == repr(public)
    assert replace(built, quantity=7) == replace(public, quantity=7)


@given(st.sampled_from(["a", "b"]), st.sampled_from(["a", "b"]), st.sampled_from(RelationshipKind))
def test_relationship_builder_matches_public_constructor(source, target, kind):
    built = _outcome(model._relationship, source, target, kind)
    public = _outcome(Relationship, source, target, kind)
    assert built == public
    if built[0] == "ok":
        assert type(built[1]) is Relationship and hash(built[1]) == hash(public[1])


# ------------------------------------------- the parsers stay off the public
# component and relationship path, and build each document once through the
# one document constructor: a change that falls back to the public path or
# builds a document twice fails here, not only in the benchmark.


def _generated_inputs(n=240):
    """A CycloneDX, an SPDX and an HBOM document of n components each, with
    nesting, refless entries, a subject, duplicates, unknown relationship
    types and rows that fold."""
    comps = []
    for i in range(n):
        c = {"bom-ref": f"c{i}", "name": f"lib-{i % 50}", "version": str(i % 3),
             "purl": f"pkg:npm/lib-{i % 50}@{i % 3}", "type": "library",
             "hashes": [{"alg": "SHA-256", "content": f"{i % 50:064x}"}],
             "licenses": [{"license": {"id": "MIT"}}]}
        if i % 10 == 0:
            c["components"] = [{"name": f"part-{i}", "supplier": {"name": "Acme"}}]
        comps.append(c)
    cdx = {"bomFormat": "CycloneDX", "specVersion": "1.5", "components": comps,
           "metadata": {"component": {"bom-ref": "app", "name": "app"}},
           "dependencies": [{"ref": f"c{i}", "dependsOn": [f"c{i + 1}", f"c{i + 2}"]}
                            for i in range(n - 2)]}
    packages = [{"SPDXID": f"SPDXRef-{i}", "name": f"p{i % 60}", "versionInfo": "1",
                 "supplier": "Organization: Acme",
                 "externalRefs": [{"referenceType": "purl",
                                   "referenceLocator": f"pkg:pypi/p{i % 60}@1"}],
                 "checksums": [{"algorithm": "SHA1", "checksumValue": f"{i % 60:040x}"}]}
                for i in range(n)]
    kinds = ["DEPENDS_ON", "CONTAINS", "OTHER", "DEV_DEPENDENCY_OF"]
    rels = [{"spdxElementId": f"SPDXRef-{i}", "relatedSpdxElement": f"SPDXRef-{i + 1}",
             "relationshipType": kinds[i % 4]} for i in range(n - 1)]
    rels.append({"spdxElementId": "SPDXRef-DOCUMENT", "relatedSpdxElement": "SPDXRef-0",
                 "relationshipType": "DESCRIBES"})
    spdx = {"spdxVersion": "SPDX-2.3", "packages": packages, "relationships": rels}
    rows = ["ref,name,parent,vendor,quantity,color"]
    rows += [f"r{i},part-{i % 2},{f'r{i // 4}' if i else ''},acme,{1 + i % 3},red"
             for i in range(n)]
    hbom = ("\n".join(rows) + "\n").encode()
    return [json.dumps(cdx).encode(), json.dumps(spdx).encode(), hbom]


def test_parsers_never_take_the_public_path(monkeypatch):
    calls = []

    def counted(owner, attr):
        fn = getattr(owner, attr)

        def wrapper(self):
            calls.append(f"{owner.__name__}.{attr}")
            return fn(self)

        monkeypatch.setattr(owner, attr, wrapper)

    for owner, attr in ((Component, "__post_init__"), (Component, "sort_key"),
                        (Relationship, "__post_init__"), (Relationship, "sort_key"),
                        (BomDocument, "__post_init__")):
        counted(owner, attr)
    docs = []
    for raw in _generated_inputs():
        for opts in (IngestOptions(), IngestOptions(dedup=False, fold_quantities=False),
                     IngestOptions(drop_name_prefixes=("lib-1", "p1", "part-1"))):
            docs.append(ingest.parse_document(raw, opts))
    assert calls == ["BomDocument.__post_init__"] * len(docs)
    # per input: normalized, as read, and normalized less the drops
    sizes = [len(d.components) for d in docs]
    for normalized, plain, dropped in zip(*[iter(sizes)] * 3):
        assert plain >= 200 and dropped < normalized < plain
    assert all(d.relationships for d in docs)
    # the wrappers count: the public constructors still go through them
    calls.clear()
    Component("x", "x")
    assert calls == ["Component.__post_init__"]
