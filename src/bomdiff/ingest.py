"""Readers for CycloneDX JSON, SPDX JSON, and generic HBOM tables.

Input bytes take one read path. ``_decode`` turns them into text, the
module's only UTF-8 decode: a leading byte-order mark is dropped and
undecodable bytes are a ``ParseError`` naming the byte offset. ``_loads``
turns that text into a JSON value, the module's only JSON decode: text too
deeply nested for the decoder is a ``ParseError``, and text that is not JSON
comes back as ``_Text`` for the CSV table reader; under an HBOM format hint
only text that opens with "{" is decoded as JSON. ``parse_document`` and
``load_document`` differ only in how they get the decoded value, and both
hand it to ``_parse``: ``detect_format`` looks at it unless a format is
hinted, and the parser for the format reads the same value.
``load_document`` frees the file's bytes before the JSON decode and the
JSON text before the parse.

Readers take each field once: a value of the expected type is used as it
is, any other goes to a checked helper (``_require_str``, ``_opt_str``,
``_opt_list``, ``_cell``, ``_hash_pair``) that raises a ParseError at the
field's JSON path or row. A path is built only for a message: a component
reader names the field after an empty path, and the parser prefixes the
entry's path, which ``parse_cyclonedx`` rebuilds from each entry's index in
its parent's array. An array that is missing or null reads as empty.

A parsed document holds each input value once. Every relationship endpoint
and the subject are their component's id object, and a CycloneDX purl
equal to its id is the id. Vendors, licenses, hash algorithms, ``extra``
pairs and whole ``licenses``/``extra`` tuples come from a memo dict that
maps each value to its first copy. The memo is local to one parse, so no
value outlives the documents that hold it (``sys.intern`` would keep it).
A digest that is already lowercase is the decoded string itself.

Every reader ends in one ``_finish`` call with its components and one set of
(source, target, kind) edges. By then the CycloneDX reader has linked its
subject to the components nothing else points at, and the HBOM reader has
folded quantities and checked its expansion bounds. ``_finish`` applies the
optional name/ecosystem drops, then duplicate collapsing, to those parts and
builds the parse's only ``BomDocument``, whose constructor, the one that
every document goes through, puts it in canonical order, so downstream
comparison code never sees source-order artifacts. Values the readers have
checked are not checked again: components and relationships are built
through ``model``'s private builders.
"""

from __future__ import annotations

import io
import json
import re
from collections import Counter
from pathlib import Path
from typing import TYPE_CHECKING

from bomdiff.model import (
    BomDocument,
    BomFormat,
    Component,
    Relationship,
    RelationshipKind,
    _component,
    _record,
    _relationship,
    _set,
    # unused here, but perfbench/traced.py wraps ingest.canonical_form
    canonical_form,  # noqa: F401
)

if TYPE_CHECKING:  # loaded on first use, for CSV input only
    import csv


class ParseError(ValueError):
    """Input claims a supported format but violates it; message carries the
    JSON path or row number of the offending field."""


class UnknownFormatError(ValueError):
    """No format discriminator matched the input."""


class DanglingParentError(ParseError):
    """HBOM row names a parent ref that no row defines."""


@_record
class IngestOptions:
    """How a parse normalizes: dedup, HBOM quantity folding, name-prefix drops."""

    __slots__ = __match_args__ = ("dedup", "fold_quantities", "drop_name_prefixes")
    dedup: bool
    fold_quantities: bool
    drop_name_prefixes: tuple[str, ...]

    def __init__(self, dedup=True, fold_quantities=True, drop_name_prefixes=()):
        if isinstance(drop_name_prefixes, str):  # would drop by letter
            raise ValueError("drop_name_prefixes must be a sequence of str, not a str")
        drop_name_prefixes = tuple(drop_name_prefixes)
        for p in drop_name_prefixes:
            if not isinstance(p, str) or not p:
                raise ValueError("drop_name_prefixes entries must be non-empty strings")
        _set(self, "dedup", dedup)
        _set(self, "fold_quantities", fold_quantities)
        _set(self, "drop_name_prefixes", drop_name_prefixes)


# ------------------------------------------------------------ read path


@_record
class _Text:
    """Decoded input that is not JSON, with the decoder's complaint."""

    __slots__ = __match_args__ = ("text", "error")
    text: str
    error: str

    def __init__(self, text, error=""):
        _set(self, "text", text)
        _set(self, "error", error)


def _decode(raw: bytes) -> str:
    """Bytes to text, dropping one leading UTF-8 byte-order mark."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"byte {e.start}: invalid UTF-8") from None
    return text[1:] if text.startswith("\ufeff") else text


def _loads(text: str) -> object:
    """Text to its JSON value, or to ``_Text`` when it is not JSON."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ParseError("$: JSON nested too deeply to decode") from None
    except ValueError as e:
        return _Text(text, f"invalid JSON: {e}")


def _value(text: str, format_hint: BomFormat | None) -> object:
    """The decoded value of text: its JSON value, or ``_Text``. Under an HBOM
    hint only text that opens with "{" is JSON, and it must be an object."""
    if format_hint is BomFormat.GENERIC_HBOM:
        return _json_object(_loads(text)) if text.lstrip().startswith("{") else _Text(text)
    return _loads(text)


def _read(raw, format_hint: BomFormat | None = None) -> object:
    """The decoded value of raw bytes; a decoded value passes through."""
    if isinstance(raw, (bytes, bytearray)):
        return _value(_decode(raw), format_hint)
    return raw


def _json_object(value) -> dict:
    """The top-level JSON object of raw bytes or of a decoded value."""
    value = _read(value)
    if isinstance(value, _Text):
        raise ParseError(f"$: {value.error}")
    if not isinstance(value, dict):
        raise ParseError("$: expected a JSON object")
    return value


def detect_format(raw) -> BomFormat:
    """Sniff the input format from its discriminator fields.

    CycloneDX by bomFormat, SPDX by spdxVersion, HBOM for JSON carrying a
    top-level "hbom" array or for a CSV whose header has ref and name
    columns. Takes raw bytes or the value ``_read`` made of them.
    """
    value = _read(raw)
    if isinstance(value, _Text):
        if not value.text.strip():
            raise UnknownFormatError("empty input")
        try:
            header = _csv_table(value.text)[1]
        except ParseError:
            header = None
        if header is not None and "ref" in header and "name" in header:
            return BomFormat.GENERIC_HBOM
        raise UnknownFormatError("input is neither JSON nor a ref/name CSV table")
    if isinstance(value, dict):
        if value.get("bomFormat") == "CycloneDX":
            return BomFormat.CYCLONEDX_JSON
        if "spdxVersion" in value:
            return BomFormat.SPDX_JSON
        if "hbom" in value:
            return BomFormat.GENERIC_HBOM
    raise UnknownFormatError("no known BOM discriminator found")


def _require(entry: dict, key: str, path: str) -> object:
    value = entry.get(key)
    if value is None or value == "":
        raise ParseError(f"{path}.{key}: required field missing or empty")
    return value


def _require_str(entry: dict, key: str, path: str) -> str:
    value = _require(entry, key, path)
    if not isinstance(value, str):
        raise ParseError(f"{path}.{key}: expected a string")
    return value


def _opt_str(entry: dict, key: str, path: str):
    value = entry.get(key)
    if value is None or value == "":
        return None
    if not isinstance(value, str):
        raise ParseError(f"{path}.{key}: expected a string")
    return value


def _opt_list(entry: dict, key: str, path: str) -> list:
    """An optional array: missing or null reads as empty."""
    value = entry.get(key)
    if value is None:
        return []
    if not isinstance(value, list):
        raise ParseError(f"{path}.{key}: expected an array")
    return value


def _hash_pair(h, alg_key: str, digest_key: str, path: str) -> tuple[str, str]:
    """The checked (algorithm, digest) strings of a hash object: both
    present, then both strings."""
    if not isinstance(h, dict):
        raise ParseError(f"{path}: expected an object")
    pair = _require(h, alg_key, path), _require(h, digest_key, path)
    for key, value in zip((alg_key, digest_key), pair):
        if not isinstance(value, str):
            raise ParseError(f"{path}.{key}: expected a string")
    return pair


def _hash_list(items: list, alg_key: str, digest_key: str, path: str, key: str,
               memo: dict) -> tuple:
    """The distinct (algorithm, digest) pairs of the hash objects at
    ``path.key``, in order: the algorithm uppercased and dash-free, from
    ``memo``, the digest lowercased."""
    pairs = []
    for j, h in enumerate(items):
        alg = digest = None
        if type(h) is dict:
            alg, digest = h.get(alg_key), h.get(digest_key)
        if type(alg) is not str or not alg or type(digest) is not str or not digest:
            alg, digest = _hash_pair(h, alg_key, digest_key, f"{path}.{key}[{j}]")
        alg = alg.upper().replace("-", "")
        low = digest.lower()
        pair = (memo.setdefault(alg, alg), digest if low == digest else low)
        if pair not in pairs:
            pairs.append(pair)
    return tuple(pairs)


def _purl_type(purl: str | None):
    if not purl or not purl.lower().startswith("pkg:"):
        return None
    rest = purl[4:].lstrip("/")
    head, sep, _ = rest.partition("/")
    return head.lower() if sep else None


# ---------------------------------------------------------------- CycloneDX


# The deepest CycloneDX component nesting read. The JSON decoder's own limit
# varies with the Python version (497 levels on 3.10 and 3.11, 748 on 3.12,
# 4998 on 3.13); below all of them, this one gives the same result on each.
MAX_NESTING_DEPTH = 480


def parse_cyclonedx(
    raw, opts: IngestOptions = IngestOptions(), source_name: str = ""
) -> BomDocument:
    data = _json_object(raw)
    if data.get("bomFormat") != "CycloneDX":
        raise ParseError("$.bomFormat: expected 'CycloneDX'")
    spec_version = str(data.get("specVersion", ""))

    # Flatten nested assemblies first; parents tracked by position because
    # ids are only assigned afterwards. Pre-order, with a stack of array
    # iterators so nesting depth costs no recursion; every child is numbered
    # after its parent. Top-level entries are at depth 1. Each entry keeps
    # its index in its parent's array, from which where() builds its path.
    entries: list[dict] = []
    parent_of: list[int | None] = []
    pos: list[int | None] = []

    def where(i: int | None) -> str:
        """The JSON path of entry i, or of the top-level array's owner."""
        if i is not None and pos[i] is None:
            return "$.metadata.component"
        path = ""
        while i is not None:
            path = f".components[{pos[i]}]{path}"
            i = parent_of[i]
        return "$" + path

    stack = [(enumerate(_opt_list(data, "components", "$")), None, 1)]
    while stack:
        items, parent, depth = stack[-1]
        for i, entry in items:
            if not isinstance(entry, dict):
                raise ParseError(f"{where(parent)}.components[{i}]: expected an object")
            entries.append(entry)
            parent_of.append(parent)
            pos.append(i)
            nested = entry.get("components")
            if nested is not None:
                if not isinstance(nested, list):
                    raise ParseError(f"{where(len(entries) - 1)}.components: expected an array")
                if nested:
                    if depth >= MAX_NESTING_DEPTH:
                        raise ParseError("$: JSON nested too deeply to decode")
                    stack.append((enumerate(nested), len(entries) - 1, depth + 1))
                    break
        else:
            stack.pop()

    subject_entry = None
    meta = data.get("metadata")
    if isinstance(meta, dict) and isinstance(meta.get("component"), dict):
        subject_entry = meta["component"]
        entries.append(subject_entry)
        parent_of.append(None)
        pos.append(None)

    # each id maps to itself, so an edge endpoint becomes the id object
    ids: list[str | None] = [None] * len(entries)
    taken: dict[str, str] = {}
    for i, entry in enumerate(entries):
        ref = entry.get("bom-ref")
        if isinstance(ref, str) and ref:
            if ref in taken:
                raise ParseError(f"{where(i)}.bom-ref: duplicate '{ref}'")
            ids[i] = taken[ref] = ref

    # Refless components get content-derived ids, assigned in content order
    # so permuting the input array cannot change the result.
    refless = [i for i in range(len(entries)) if ids[i] is None]
    subtree = _subtree_keys(entries, parent_of, refless) if refless else None

    def content_key(i):
        e = entries[i]
        return (
            str(e.get("name", "")),
            str(e.get("version", "")),
            str(e.get("purl", "")),
            subtree[i],
        )

    for i in sorted(refless, key=content_key):
        e = entries[i]
        base = e.get("purl")
        if base is not None and not isinstance(base, str):
            _opt_str(e, "purl", where(i))  # raises
        base = base or (
            f"{e.get('name', '')}@{e.get('version')}"
            if e.get("version")
            else str(e.get("name", ""))
        )
        candidate, n = base, 1
        while candidate in taken:
            n += 1
            candidate = f"{base}#{n}"
        ids[i] = taken[candidate] = candidate

    memo: dict = {}
    extras: dict = {}
    components = []
    try:
        for entry, cid in zip(entries, ids):
            components.append(_cdx_component(entry, cid, "", memo, extras))
    except ParseError as e:  # at the entry after the last one built
        raise ParseError(f"{where(len(components))}{e}") from None

    CON, DEP = RelationshipKind.CONTAINS, RelationshipKind.DEPENDS_ON
    edges = {(ids[p], ids[i], CON) for i, p in enumerate(parent_of) if p is not None}
    for i, dep in enumerate(_opt_list(data, "dependencies", "$")):
        if not isinstance(dep, dict):
            raise ParseError(f"$.dependencies[{i}]: expected an object")
        targets = dep.get("dependsOn")
        if targets is not None and type(targets) is not list:
            targets = _opt_list(dep, "dependsOn", f"$.dependencies[{i}]")
        src = dep.get("ref")
        src = taken.get(src) if isinstance(src, str) else None
        if src is None or not targets:
            continue  # a dangling source is unusable; no targets add nothing
        for tgt in targets:
            tgt = taken.get(tgt) if isinstance(tgt, str) else None
            if tgt is not None and tgt != src:
                edges.add((src, tgt, DEP))

    subject_id = ids[-1] if subject_entry is not None else None
    if subject_id is not None:
        indeg = {t for _, t, _ in edges}
        indeg.add(subject_id)
        edges.update((subject_id, cid, DEP) for cid in ids if cid not in indeg)

    return _finish(BomFormat.CYCLONEDX_JSON, spec_version, subject_id, components, edges,
                   source_name, opts)


def _subtree_keys(
    entries: list[dict], parent_of: list[int | None], wanted
) -> dict[int, str]:
    """Content signature of each wanted entry and its descendants: the
    SHA-256 hex digest of its own fields as sorted JSON, "|", then the
    children's keys sorted and joined by ",".

    The key covers the (order-insensitive) assembly subtree, so id generation
    cannot depend on input array order, and its fixed size keeps all keys
    linear in the entry count at any nesting depth. Children are numbered
    after their parent, so walking from the last entry to the first is a
    post-order.
    """
    import hashlib  # only refless input pays for the import

    marked = [False] * len(entries)
    for i in wanted:
        marked[i] = True
    for i, p in enumerate(parent_of):
        if p is not None and marked[p]:
            marked[i] = True
    children_of: dict[int, list[str]] = {}
    keys: dict[int, str] = {}
    for i in range(len(entries) - 1, -1, -1):
        if not marked[i]:
            continue
        own = json.dumps(
            {k: v for k, v in entries[i].items() if k != "components"},
            sort_keys=True,
        )
        text = own + "|" + ",".join(sorted(children_of.pop(i, ())))
        keys[i] = hashlib.sha256(text.encode()).hexdigest()
        if parent_of[i] is not None:
            children_of.setdefault(parent_of[i], []).append(keys[i])
    return keys


# The extra keys of the CycloneDX group, scope and type fields, in order
_CDX_EXTRA = ("cdx:group", "cdx:scope", "cdx:type")


def _cdx_extra(raw: tuple, share) -> tuple:
    """The extra pairs of the raw (group, scope, type) values."""
    extra = tuple([share(pair, pair) for pair in zip(_CDX_EXTRA, raw)
                   if isinstance(pair[1], str) and pair[1]])
    return share(extra, extra)


def _cdx_component(entry: dict, cid: str, path: str, memo: dict, extras: dict) -> Component:
    """The component of one entry. A message names its field after ``path``,
    and ``extras`` keeps the extra of each distinct raw (group, scope, type)
    seen in this parse."""
    get, share = entry.get, memo.setdefault
    name = get("name")
    if type(name) is not str or not name:
        name = _require_str(entry, "name", path)

    vendor = None
    supplier = get("supplier")
    if isinstance(supplier, dict):
        vendor = supplier.get("name")
        if vendor is not None and (type(vendor) is not str or not vendor):
            vendor = _opt_str(supplier, "name", f"{path}.supplier")
        if vendor is not None:
            vendor = share(vendor, vendor)

    licenses = ()
    items = get("licenses")
    if items is not None:
        if type(items) is not list:
            items = _opt_list(entry, "licenses", path)
        found = []
        for j, lic in enumerate(items):
            if not isinstance(lic, dict):
                raise ParseError(f"{path}.licenses[{j}]: expected an object")
            value = lic.get("license")
            if isinstance(value, dict):
                value = value.get("id") or value.get("name")
            else:
                value = lic.get("expression")
            if isinstance(value, str) and value and value not in found:
                found.append(share(value, value))
        licenses = tuple(found)
        licenses = share(licenses, licenses)

    hashes = ()
    items = get("hashes")
    if items is not None:
        if type(items) is not list:
            items = _opt_list(entry, "hashes", path)
        hashes = _hash_list(items, "alg", "content", path, "hashes", memo)

    raw = (get("group"), get("scope"), get("type"))
    try:
        extra = extras[raw]
    except KeyError:
        extra = extras[raw] = _cdx_extra(raw, share)
    except TypeError:  # an array or object value, which is never kept
        extra = _cdx_extra(raw, share)

    version, purl, cpe = get("version"), get("purl"), get("cpe")
    if version is not None and (type(version) is not str or not version):
        version = _opt_str(entry, "version", path)
    if purl is not None and (type(purl) is not str or not purl):
        purl = _opt_str(entry, "purl", path)
    if purl == cid:
        purl = cid
    if cpe is not None and (type(cpe) is not str or not cpe):
        cpe = _opt_str(entry, "cpe", path)
    return _component(cid, name, version, purl, cpe, vendor, licenses, hashes, 1, extra)


# --------------------------------------------------------------------- SPDX


def parse_spdx(
    raw, opts: IngestOptions = IngestOptions(), source_name: str = ""
) -> BomDocument:
    data = _json_object(raw)
    if "spdxVersion" not in data:
        raise ParseError("$.spdxVersion: required field missing")
    spec_version = str(data["spdxVersion"])

    # each SPDXID maps to its component, whose id is that SPDXID object
    parsed: dict[str, Component] = {}
    memo: dict = {}
    for i, pkg in enumerate(_opt_list(data, "packages", "$")):
        if not isinstance(pkg, dict):
            raise ParseError(f"$.packages[{i}]: expected an object")
        sid = pkg.get("SPDXID")
        if type(sid) is not str or not sid:
            sid = _require_str(pkg, "SPDXID", f"$.packages[{i}]")
        if sid in parsed:
            raise ParseError(f"$.packages[{i}].SPDXID: duplicate '{sid}'")
        try:
            parsed[sid] = _spdx_component(pkg, sid, "", memo)
        except ParseError as e:
            raise ParseError(f"$.packages[{i}]{e}") from None

    edges = set()
    subject_id = None
    rel_extra: dict[str, dict[str, list[str]]] = {}
    kinds = RelationshipKind.__members__  # DEPENDS_ON and CONTAINS
    for i, rel in enumerate(_opt_list(data, "relationships", "$")):
        if not isinstance(rel, dict):
            raise ParseError(f"$.relationships[{i}]: expected an object")
        rtype = rel.get("relationshipType")
        a, b = rel.get("spdxElementId"), rel.get("relatedSpdxElement")
        if (type(rtype) is not str or not rtype or not (a is None or type(a) is str)
                or not (b is None or type(b) is str)):
            path = f"$.relationships[{i}]"
            rtype = _require_str(rel, "relationshipType", path)
            a, b = _opt_str(rel, "spdxElementId", path), _opt_str(rel, "relatedSpdxElement", path)
        a, b = parsed.get(a), parsed.get(b)
        if rtype == "DESCRIBES":
            if subject_id is None and b is not None:
                subject_id = b.id
            continue
        if a is None or b is None or a is b:
            continue
        kind = kinds.get(rtype)
        if kind is not None:
            edges.add((a.id, b.id, kind))
        else:
            rel_extra.setdefault(a.id, {}).setdefault(rtype, []).append(b.id)

    if subject_id is None:
        described = data.get("documentDescribes")
        if isinstance(described, list):
            for j, sid in enumerate(described):
                if not isinstance(sid, str):
                    raise ParseError(f"$.documentDescribes[{j}]: expected a string")
                if sid in parsed:
                    subject_id = parsed[sid].id
                    break

    # unknown relationship types become the source's only extra pairs
    for sid, targets in rel_extra.items():
        c = parsed[sid]
        extra = tuple((f"relationship:{rtype}", ",".join(sorted(ends)))
                      for rtype, ends in sorted(targets.items()))
        parsed[sid] = _component(sid, c.name, c.version, c.purl, c.cpe, c.vendor, c.licenses,
                                 c.hashes, 1, extra)

    return _finish(BomFormat.SPDX_JSON, spec_version, subject_id, list(parsed.values()), edges,
                   source_name, opts)


_NO_VALUE = ("NOASSERTION", "NONE")


def _spdx_component(pkg: dict, sid: str, path: str, memo: dict) -> Component:
    """The component of one package, with messages as ``_cdx_component``'s."""
    get, share = pkg.get, memo.setdefault
    name = get("name")
    if type(name) is not str or not name:
        name = _require_str(pkg, "name", path)

    purl = cpe = None
    items = get("externalRefs")
    if items is not None:
        if type(items) is not list:
            items = _opt_list(pkg, "externalRefs", path)
        for j, ref in enumerate(items):
            if not isinstance(ref, dict):
                raise ParseError(f"{path}.externalRefs[{j}]: expected an object")
            rtype = ref.get("referenceType")
            locator = ref.get("referenceLocator")
            if not isinstance(locator, str) or not locator:
                continue
            if rtype == "purl" and purl is None:
                purl = locator
            elif rtype in ("cpe23Type", "cpe22Type") and cpe is None:
                cpe = locator

    vendor = get("supplier")
    if vendor is not None and (type(vendor) is not str or not vendor):
        vendor = _opt_str(pkg, "supplier", path)
    if vendor:
        if vendor in _NO_VALUE:
            vendor = None
        else:
            # "Organization: Acme" / "Person: Jane" tags carry no signal
            # for vendor comparison.
            head, sep, tail = vendor.partition(":")
            if sep and head.strip() in ("Organization", "Person"):
                vendor = tail.strip() or None
        if vendor is not None:
            vendor = share(vendor, vendor)

    licenses = []
    for key in ("licenseConcluded", "licenseDeclared"):
        value = get(key)
        if isinstance(value, str) and value and value not in _NO_VALUE:
            if value not in licenses:
                licenses.append(share(value, value))
    licenses = tuple(licenses)

    hashes = ()
    items = get("checksums")
    if items is not None:
        if type(items) is not list:
            items = _opt_list(pkg, "checksums", path)
        hashes = _hash_list(items, "algorithm", "checksumValue", path, "checksums", memo)

    version = get("versionInfo")
    if version is not None and (type(version) is not str or not version):
        version = _opt_str(pkg, "versionInfo", path)
    return _component(sid, name, version, purl, cpe, vendor, share(licenses, licenses), hashes,
                      1, ())


# --------------------------------------------------------------------- HBOM


_HBOM_COLUMNS = frozenset(("ref", "name", "parent", "vendor", "quantity"))
# a minus sign is read so that "-1" gets the ">= 1" message
_QUANTITY = re.compile(r"-?[0-9]+")

# Graph construction makes one node per unit of quantity and links every
# parent instance to every child instance, so HBOM quantities bound the size
# of the graph. A row over MAX_HBOM_QUANTITY, or a table whose folded
# components expand to more than MAX_HBOM_NODES nodes or MAX_HBOM_EDGES
# parent-child instance edges, is a ParseError naming the row that crosses
# the bound, raised before anything is expanded.
MAX_HBOM_QUANTITY = 100_000
MAX_HBOM_NODES = 500_000
MAX_HBOM_EDGES = 1_000_000


def parse_hbom(
    raw, opts: IngestOptions = IngestOptions(), source_name: str = ""
) -> BomDocument:
    by_ref, parent_ref, row_no = _hbom_components(_hbom_rows(raw))
    for ref, parent in parent_ref.items():
        if parent not in by_ref:
            raise DanglingParentError(
                f"row {row_no[ref]}: parent '{parent}' does not match any ref"
            )

    components = list(by_ref.values())
    # the parent's own ref object, so an edge endpoint is the component id
    edges = [(by_ref[parent].id, ref, RelationshipKind.CONTAINS)
             for ref, parent in parent_ref.items()]

    if opts.fold_quantities:
        components, edges = _fold_quantities(components, edges)
    _check_expansion(components, edges, row_no)

    # Rows without a parent hang off the per-source root that graph
    # construction adds; the table itself records no subject component.
    return _finish(BomFormat.GENERIC_HBOM, "", None, components, edges, source_name, opts)


def _hbom_components(rows) -> tuple[dict[str, Component], dict[str, str], dict[str, int]]:
    """One Component per table row, keyed by ref, with each row's parent ref
    (rows that have one) and row number."""
    by_ref: dict[str, Component] = {}
    parent_ref: dict[str, str] = {}
    row_no: dict[str, int] = {}
    share = {}.setdefault  # one object per repeated value of this table
    for n, row in rows:
        get = row.get
        ref, name = get("ref"), get("name")
        ref = ref.strip() if type(ref) is str else _cell(row, "ref", n)
        name = name.strip() if type(name) is str else _cell(row, "name", n)
        if not ref:
            raise ParseError(f"row {n}: ref must be non-empty")
        if ref in by_ref:
            raise ParseError(f"row {n}: duplicate ref '{ref}'")
        if not name:
            raise ParseError(f"row {n}: name must be non-empty")

        qraw = get("quantity")
        qraw = "" if qraw is None else str(qraw).strip()
        if qraw:
            # ASCII digits only: int() would also take "1_000", "+5" and the
            # digits of other scripts. It still refuses a digit string over
            # its length limit.
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

        parent = get("parent")
        parent = parent.strip() if type(parent) is str else _cell(row, "parent", n)
        if parent == ref:
            raise ParseError(f"row {n}: component cannot be its own parent")
        if parent:
            parent_ref[ref] = parent

        # Sorted here (by key, as keys are unique), as _component needs, so
        # equal extras share one tuple.
        extra = []
        for k, v in row.items():
            if k not in _HBOM_COLUMNS and v is not None:
                v = str(v).strip()
                if v:
                    pair = (k, v)
                    extra.append(share(pair, pair))
        extra = tuple(sorted(extra)) if extra else ()
        vendor = get("vendor")
        vendor = vendor.strip() if type(vendor) is str else _cell(row, "vendor", n)
        by_ref[ref] = _component(ref, name, None, None, None, share(vendor, vendor) or None,
                                 (), (), quantity, share(extra, extra))
        row_no[ref] = n
    return by_ref, parent_ref, row_no


def _check_expansion(components, edges, row_no: dict[str, int]) -> None:
    """Raise ParseError at the first row, in table order, past which the
    expanded graph would exceed MAX_HBOM_NODES or MAX_HBOM_EDGES."""
    parent_of = {t: s for s, t, _ in edges}
    quantity = {c.id: c.quantity for c in components}
    nodes = links = 0
    for c in components:
        nodes += c.quantity
        if nodes > MAX_HBOM_NODES:
            raise ParseError(
                f"row {row_no[c.id]}: quantities expand to more than "
                f"{MAX_HBOM_NODES} graph nodes"
            )
        if c.id in parent_of:
            links += quantity[parent_of[c.id]] * c.quantity
            if links > MAX_HBOM_EDGES:
                raise ParseError(
                    f"row {row_no[c.id]}: quantities expand to more than "
                    f"{MAX_HBOM_EDGES} parent-child edges"
                )


def _cell(row: dict, key: str, n: int) -> str:
    """An HBOM cell as stripped text; missing or null reads as empty."""
    value = row.get(key)
    if value is None:
        return ""
    if not isinstance(value, str):
        raise ParseError(f"row {n}: {key} must be a string")
    return value.strip()


def _hbom_rows(raw) -> list[tuple[int, dict]]:
    raw = _read(raw, BomFormat.GENERIC_HBOM)
    if not isinstance(raw, _Text):
        items = _json_object(raw).get("hbom")
        if not isinstance(items, list):
            raise ParseError("$.hbom: expected an array")
        out = []
        for n, item in enumerate(items, 1):
            if not isinstance(item, dict):
                raise ParseError(f"$.hbom[{n - 1}]: expected an object")
            # Keys follow the CSV header rule: stripped, and unique unless
            # blank; a blank key may hold only a blank value, which has no
            # label.
            row = {}
            for k, v in item.items():
                k = str(k).strip()
                if not k:
                    if v is not None and str(v).strip():
                        raise ParseError(f"row {n}: value under a blank key")
                elif k in row:
                    raise ParseError(f"row {n}: duplicate key '{k}'")
                else:
                    row[k] = v
            out.append((n, row))
        return out

    import csv

    reader, header = _csv_table(raw.text)
    if header is None:
        raise ParseError("row 1: missing CSV header")
    if "ref" not in header or "name" not in header:
        raise ParseError("row 1: CSV header must include 'ref' and 'name'")
    # a repeated name would drop all but its last cell; empty names may repeat
    for column, n in Counter(h for h in header if h).items():
        if n > 1:
            raise ParseError(f"row 1: duplicate column '{column}'")
    # Rows are keyed by the stripped names and an unnamed column by its
    # number from 1, which may hold only blank cells: a value has no label.
    reader.fieldnames = [h or i for i, h in enumerate(header, 1)]
    unnamed = [i for i in reader.fieldnames if type(i) is int]
    out = []
    try:
        for row in reader:
            n = len(out) + 2
            if None in row:
                raise ParseError(f"row {n}: more cells than header columns")
            for i in unnamed:
                if (row.pop(i) or "").strip():
                    raise ParseError(f"row {n}: value in unnamed column {i}")
            out.append((n, row))
    except csv.Error as e:
        raise ParseError(f"row {len(out) + 2}: {e}") from None
    return out


def _csv_table(text: str) -> tuple[csv.DictReader, list[str] | None]:
    """A row reader over CSV text and its header: the first record, cells
    stripped, or None. Detection and the HBOM parser both read it here, so
    they agree on what a ref/name table is."""
    import csv

    lines = io.StringIO(text)
    if "\0" in text:
        lines = _refuse_nul(lines)
    reader = csv.DictReader(lines)
    try:
        names = reader.fieldnames
    except csv.Error as e:
        raise ParseError(f"row 1: {e}") from None
    return reader, None if names is None else [h.strip() for h in names]


def _refuse_nul(lines):
    """The lines, refusing one that holds a NUL as the ``csv`` module did
    before Python 3.11, which reads NUL as data."""
    import csv

    for line in lines:
        if "\0" in line:
            raise csv.Error("line contains NUL")
        yield line


def _fold_quantities(components, edges):
    """Merge components identical in (name, vendor, parent), summing quantity.

    Rows fold when they agree in name and vendor and their parents have
    folded together (or both have none), so a parent merge lets its
    children's keys collide. One top-down pass resolves each parent's group
    before its children's: from the parentless rows, and from the rows on
    ``parent`` cycles, which no parentless row reaches and which never fold
    with each other. The smallest id in each group survives, keeping its own
    fields and the group's summed quantity.
    """
    parent_of = {t: s for s, t, _ in edges}
    children: dict[str, list[str]] = {}
    for t, s in parent_of.items():
        children.setdefault(s, []).append(t)
    comps = {c.id: c for c in components}

    # group label of each row: the first row seen with its key
    label: dict[str, str] = {}
    groups: dict[tuple, str] = {}
    walked: dict[str, str] = {}
    for start in comps:
        cid = start
        while cid is not None and cid not in walked:
            walked[cid] = start
            cid = parent_of.get(cid)
        if cid is not None and walked[cid] == start:  # this walk closed a cycle
            while cid not in label:
                label[cid] = cid
                groups[(comps[cid].name, comps[cid].vendor, parent_of[cid])] = cid
                cid = parent_of[cid]

    stack = list(label)
    for cid, c in comps.items():
        if cid not in parent_of:
            label[cid] = groups.setdefault((c.name, c.vendor, None), cid)
            stack.append(cid)
    while stack:
        parent = stack.pop()
        for cid in children.get(parent, ()):
            if cid not in label:
                c = comps[cid]
                label[cid] = groups.setdefault((c.name, c.vendor, label[parent]), cid)
                stack.append(cid)

    members: dict[str, list[Component]] = {}
    for c in components:
        members.setdefault(label[c.id], []).append(c)
    remap: dict[str, str] = {}
    folded: dict[str, Component] = {}
    for group in members.values():
        keep = group[0]
        if len(group) > 1:
            keep = min(group, key=lambda c: c.id)
            remap.update((c.id, keep.id) for c in group if c is not keep)
            keep = _component(keep.id, keep.name, keep.version, keep.purl, keep.cpe, keep.vendor,
                              keep.licenses, keep.hashes, sum(c.quantity for c in group),
                              keep.extra)
        folded[keep.id] = keep
    return [folded[c.id] for c in components if c.id in folded], _rewire(edges, remap)


# ------------------------------------------------------- shared pipeline


def _duplicates(components) -> dict[str, str]:
    """{removed id: survivor id} collapsing components that share purl and
    recorded metadata: the smallest id of each group survives. Components
    without a purl never merge."""
    # Only components sharing a purl can merge: the full key is built for
    # those alone.
    counts = Counter(c.purl for c in components)
    shared = {purl for purl, n in counts.items() if n > 1 and purl is not None}
    if not shared:
        return {}
    groups: dict[tuple, list[str]] = {}
    for c in components:
        if c.purl not in shared:
            continue
        licenses, hashes = c.licenses, c.hashes
        if len(licenses) > 1:
            licenses = tuple(sorted(licenses))
        if len(hashes) > 1:
            hashes = tuple(sorted(hashes))
        key = (c.purl, c.name, c.version, c.vendor, licenses, hashes)
        groups.setdefault(key, []).append(c.id)

    remap: dict[str, str] = {}
    for ids in groups.values():
        keep = min(ids)
        remap.update((dup, keep) for dup in ids if dup != keep)
    return remap


def _rewire(edges, remap: dict[str, str]) -> set:
    """The (source, target, kind) edges with each endpoint mapped through
    ``remap``, less the self-loops that makes."""
    mapped = ((remap.get(s, s), remap.get(t, t), k) for s, t, k in edges)
    return {e for e in mapped if e[0] != e[1]}


def dedup_components(doc: BomDocument) -> BomDocument:
    """``doc`` with its duplicate components collapsed (see ``_duplicates``)
    and their edges rewired onto the survivor."""
    remap = _duplicates(doc.components)
    if not remap:
        return doc
    edges = _rewire(((r.source, r.target, r.kind) for r in doc.relationships), remap)
    return BomDocument(doc.format, doc.spec_version, remap.get(doc.subject, doc.subject),
                       tuple(c for c in doc.components if c.id not in remap),
                       tuple(Relationship(s, t, k) for s, t, k in edges), doc.source_name)


def _finish(fmt: BomFormat, spec_version: str, subject, components, edges,
            source_name: str, opts: IngestOptions) -> BomDocument:
    """The parse's one document, from the parser's components and
    (source, target, kind) edges: prefix drops first, then dedup. A
    component is dropped when its purl type equals, or its name starts
    with, a prefix; the subject is never dropped."""
    prefixes = opts.drop_name_prefixes
    if prefixes:
        dropped = {c.id for c in components if c.id != subject and (
            c.name.startswith(prefixes) or _purl_type(c.purl) in prefixes)}
        if dropped:
            components = [c for c in components if c.id not in dropped]
            edges = [e for e in edges if e[0] not in dropped and e[1] not in dropped]
    remap = _duplicates(components) if opts.dedup else None
    if remap:
        components = [c for c in components if c.id not in remap]
        edges = _rewire(edges, remap)
        subject = remap.get(subject, subject)
    return BomDocument(fmt, spec_version, subject, components,
                       [_relationship(s, t, k) for s, t, k in edges], source_name)


# ----------------------------------------------------------------- loading


_PARSERS = {
    BomFormat.CYCLONEDX_JSON: parse_cyclonedx,
    BomFormat.SPDX_JSON: parse_spdx,
    BomFormat.GENERIC_HBOM: parse_hbom,
}


def _parse(value, opts: IngestOptions, source_name: str,
           format_hint: BomFormat | None) -> BomDocument:
    """The document of a decoded value, by the hinted or the detected format."""
    fmt = detect_format(value) if format_hint is None else format_hint
    return _PARSERS[fmt](value, opts, source_name)


def parse_document(
    raw: bytes,
    opts: IngestOptions = IngestOptions(),
    source_name: str = "",
    format_hint: BomFormat | None = None,
) -> BomDocument:
    return _parse(_read(raw, format_hint), opts, source_name, format_hint)


def load_document(
    path,
    opts: IngestOptions = IngestOptions(),
    format_hint: BomFormat | None = None,
) -> BomDocument:
    # Each form of the input is only the argument of the call that consumes
    # it, so the bytes are freed before the JSON decode and the JSON text
    # before the parse. A name bound to either, or one more call passing it
    # down (Python 3.10 holds a call's arguments until it returns), would
    # keep it to the end.
    value = _value(_decode(Path(path).read_bytes()), format_hint)
    return _parse(value, opts, str(path), format_hint)
