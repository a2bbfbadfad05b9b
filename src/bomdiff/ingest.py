"""Readers for CycloneDX JSON, SPDX JSON, and generic HBOM tables.

Input bytes take one read path. ``_decode`` turns them into text, the
module's only UTF-8 decode: a leading byte-order mark is dropped and
undecodable bytes are a ``ParseError`` naming the byte offset. ``_loads``
turns that text into a JSON value, the module's only JSON decode: text too
deeply nested for the decoder is a ``ParseError``, and text that is not JSON
comes back as ``_Text`` for the CSV table reader. ``parse_document`` decodes
once, lets ``detect_format`` look at the decoded value, and hands the same
value to the parser it picks; with a format hint the parser decodes the
bytes itself.

Readers take each field once: a value of the expected type is used as it
is, any other goes to a checked helper (``_require``, ``_opt_str``,
``_opt_list``, ``_cell``, ``_hash_pair``) that raises a ParseError at the
field's JSON path or row. So a path is built only for an error.

Every reader ends in the same normalization pipeline: optional name/ecosystem
filtering, then duplicate collapsing. ``BomDocument`` puts what is left in
canonical order, so downstream comparison code never sees source-order
artifacts.
"""

from __future__ import annotations

import csv
import io
import json
import re
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

from bomdiff.model import (
    BomDocument,
    BomFormat,
    Component,
    Relationship,
    RelationshipKind,
    # unused here, but perfbench/traced.py wraps ingest.canonical_form
    canonical_form,  # noqa: F401
)


class ParseError(ValueError):
    """Input claims a supported format but violates it; message carries the
    JSON path or row number of the offending field."""


class UnknownFormatError(ValueError):
    """No format discriminator matched the input."""


class DanglingParentError(ParseError):
    """HBOM row names a parent ref that no row defines."""


@dataclass(frozen=True)
class IngestOptions:
    dedup: bool = True
    fold_quantities: bool = True
    drop_name_prefixes: tuple[str, ...] = ()

    def __post_init__(self):
        if isinstance(self.drop_name_prefixes, str):  # would drop by letter
            raise ValueError("drop_name_prefixes must be a sequence of str, not a str")
        object.__setattr__(
            self, "drop_name_prefixes", tuple(self.drop_name_prefixes)
        )
        for p in self.drop_name_prefixes:
            if not p:
                raise ValueError("drop_name_prefixes entries must be non-empty")


# ------------------------------------------------------------ read path


@dataclass(frozen=True)
class _Text:
    """Decoded input that is not JSON, with the decoder's complaint."""

    text: str
    error: str = ""


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


def _read(raw) -> object:
    """The decoded value of raw bytes; a decoded value passes through."""
    if isinstance(raw, (bytes, bytearray)):
        return _loads(_decode(raw))
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
    """The checked (algorithm, digest) of a hash object, through ``str()``."""
    if not isinstance(h, dict):
        raise ParseError(f"{path}: expected an object")
    alg = _require(h, alg_key, path)
    digest = _require(h, digest_key, path)
    return str(alg), str(digest)


def _hash_list(items: list, alg_key: str, digest_key: str, path: str, key: str) -> tuple:
    """The distinct (algorithm, digest) pairs of the hash objects at
    ``path.key``, in order: the algorithm uppercased and dash-free, the digest
    lowercased."""
    pairs = []
    for j, h in enumerate(items):
        alg = digest = None
        if type(h) is dict:
            alg, digest = h.get(alg_key), h.get(digest_key)
        if type(alg) is not str or not alg or type(digest) is not str or not digest:
            alg, digest = _hash_pair(h, alg_key, digest_key, f"{path}.{key}[{j}]")
        pair = (alg.upper().replace("-", ""), digest.lower())
        if pair not in pairs:
            pairs.append(pair)
    return tuple(pairs)


def _purl_type(purl: str):
    if not purl.lower().startswith("pkg:"):
        return None
    rest = purl[4:].lstrip("/")
    head, sep, _ = rest.partition("/")
    return head.lower() if sep else None


# ---------------------------------------------------------------- CycloneDX


def parse_cyclonedx(
    raw, opts: IngestOptions = IngestOptions(), source_name: str = ""
) -> BomDocument:
    data = _json_object(raw)
    if data.get("bomFormat") != "CycloneDX":
        raise ParseError("$.bomFormat: expected 'CycloneDX'")
    spec_version = str(data.get("specVersion", ""))

    # Flatten nested assemblies first; parents tracked by position because
    # ids are only assigned afterwards.
    entries: list[dict] = []
    parent_of: list[int | None] = []
    paths: list[str] = []

    # Pre-order, with an explicit stack so nesting depth costs no recursion;
    # every child is numbered after its parent.
    def children(items, parent_idx, path):
        if not isinstance(items, list):
            raise ParseError(f"{path}: expected an array")
        return [(e, parent_idx, f"{path}[{i}]") for i, e in reversed(list(enumerate(items)))]

    stack = children(data.get("components", []), None, "$.components")
    while stack:
        entry, parent_idx, here = stack.pop()
        if not isinstance(entry, dict):
            raise ParseError(f"{here}: expected an object")
        entries.append(entry)
        parent_of.append(parent_idx)
        paths.append(here)
        nested = entry.get("components")
        if nested is not None:
            stack += children(nested, len(entries) - 1, f"{here}.components")

    subject_entry = None
    meta = data.get("metadata")
    if isinstance(meta, dict) and isinstance(meta.get("component"), dict):
        subject_entry = meta["component"]
        entries.append(subject_entry)
        parent_of.append(None)
        paths.append("$.metadata.component")

    ids: list[str | None] = [None] * len(entries)
    taken = set()
    for i, entry in enumerate(entries):
        ref = entry.get("bom-ref")
        if isinstance(ref, str) and ref:
            if ref in taken:
                raise ParseError(f"{paths[i]}.bom-ref: duplicate '{ref}'")
            ids[i] = ref
            taken.add(ref)

    # Refless components get content-derived ids, assigned in content order
    # so permuting the input array cannot change the result.
    refless = [i for i in range(len(entries)) if ids[i] is None]
    subtree = _subtree_keys(entries, parent_of, refless)

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
        base = _opt_str(e, "purl", paths[i]) or (
            f"{e.get('name', '')}@{e.get('version')}"
            if e.get("version")
            else str(e.get("name", ""))
        )
        candidate, n = base, 1
        while candidate in taken:
            n += 1
            candidate = f"{base}#{n}"
        ids[i] = candidate
        taken.add(candidate)

    components = []
    for i, entry in enumerate(entries):
        components.append(_cdx_component(entry, ids[i], paths[i]))

    contains = {(ids[p], ids[i]) for i, p in enumerate(parent_of) if p is not None}
    depends = set()
    deps = data.get("dependencies", [])
    if not isinstance(deps, list):
        raise ParseError("$.dependencies: expected an array")
    for i, dep in enumerate(deps):
        if not isinstance(dep, dict):
            raise ParseError(f"$.dependencies[{i}]: expected an object")
        targets = dep.get("dependsOn")
        if targets is not None and type(targets) is not list:
            targets = _opt_list(dep, "dependsOn", f"$.dependencies[{i}]")
        src = dep.get("ref")
        if not isinstance(src, str) or src not in taken or not targets:
            continue  # a dangling source is unusable; no targets add nothing
        for tgt in targets:
            if isinstance(tgt, str) and tgt in taken and tgt != src:
                depends.add((src, tgt))

    subject_id = ids[-1] if subject_entry is not None else None
    if subject_id is not None:
        indeg = {t for _, t in contains}
        indeg.update(t for _, t in depends)
        indeg.add(subject_id)
        depends.update((subject_id, cid) for cid in ids if cid not in indeg)

    doc = BomDocument(
        format=BomFormat.CYCLONEDX_JSON,
        spec_version=spec_version,
        subject=subject_id,
        components=tuple(components),
        relationships=_relationships(contains, depends),
        source_name=source_name,
    )
    return _finish(doc, opts)


def _relationships(contains, depends) -> tuple[Relationship, ...]:
    """Relationships from (source, target) pairs, one collection per kind."""
    CON, DEP = RelationshipKind.CONTAINS, RelationshipKind.DEPENDS_ON
    return (*(Relationship(s, t, CON) for s, t in contains),
            *(Relationship(s, t, DEP) for s, t in depends))


def _subtree_keys(
    entries: list[dict], parent_of: list[int | None], wanted
) -> dict[int, str]:
    """Content signature of each wanted entry and its descendants: own fields
    as sorted JSON, "|", then the children's keys sorted and joined by ",".

    The key covers the (order-insensitive) assembly subtree, so id generation
    cannot depend on input array order. Children are numbered after their
    parent, so walking from the last entry to the first is a post-order.
    """
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
        keys[i] = own + "|" + ",".join(sorted(children_of.pop(i, ())))
        if parent_of[i] is not None:
            children_of.setdefault(parent_of[i], []).append(keys[i])
    return keys


# CycloneDX fields kept in Component.extra, in the order of their extra keys
_CDX_EXTRA = (("group", "cdx:group"), ("scope", "cdx:scope"), ("type", "cdx:type"))


def _cdx_component(entry: dict, cid: str, path: str) -> Component:
    get = entry.get
    name = get("name")
    if type(name) is not str or not name:
        name = _require(entry, "name", path)
        if not isinstance(name, str):
            raise ParseError(f"{path}.name: expected a string")

    vendor = None
    supplier = get("supplier")
    if isinstance(supplier, dict):
        vendor = supplier.get("name")
        if vendor is not None and (type(vendor) is not str or not vendor):
            vendor = _opt_str(supplier, "name", f"{path}.supplier")

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
                found.append(value)
        licenses = tuple(found)

    hashes = ()
    items = get("hashes")
    if items is not None:
        if type(items) is not list:
            items = _opt_list(entry, "hashes", path)
        hashes = _hash_list(items, "alg", "content", path, "hashes")

    extra = []
    for key, label in _CDX_EXTRA:
        value = get(key)
        if isinstance(value, str) and value:
            extra.append((label, value))

    version, purl, cpe = get("version"), get("purl"), get("cpe")
    if version is not None and (type(version) is not str or not version):
        version = _opt_str(entry, "version", path)
    if purl is not None and (type(purl) is not str or not purl):
        purl = _opt_str(entry, "purl", path)
    if cpe is not None and (type(cpe) is not str or not cpe):
        cpe = _opt_str(entry, "cpe", path)
    return Component(cid, name, version, purl, cpe, vendor, licenses, hashes, 1, tuple(extra))


# --------------------------------------------------------------------- SPDX


def parse_spdx(
    raw, opts: IngestOptions = IngestOptions(), source_name: str = ""
) -> BomDocument:
    data = _json_object(raw)
    if "spdxVersion" not in data:
        raise ParseError("$.spdxVersion: required field missing")
    spec_version = str(data["spdxVersion"])

    packages = data.get("packages", [])
    if not isinstance(packages, list):
        raise ParseError("$.packages: expected an array")

    parsed: dict[str, dict] = {}
    order: list[str] = []
    for i, pkg in enumerate(packages):
        path = f"$.packages[{i}]"
        if not isinstance(pkg, dict):
            raise ParseError(f"{path}: expected an object")
        sid = _require(pkg, "SPDXID", path)
        if not isinstance(sid, str):
            raise ParseError(f"{path}.SPDXID: expected a string")
        if sid in parsed:
            raise ParseError(f"{path}.SPDXID: duplicate '{sid}'")
        parsed[sid] = _spdx_fields(pkg, path)
        order.append(sid)

    contains, depends = set(), set()
    subject_id = None
    rel_extra: dict[str, dict[str, list[str]]] = {}
    for i, rel in enumerate(_opt_list(data, "relationships", "$")):
        path = f"$.relationships[{i}]"
        if not isinstance(rel, dict):
            raise ParseError(f"{path}: expected an object")
        rtype = str(_require(rel, "relationshipType", path))
        a = _opt_str(rel, "spdxElementId", path)
        b = _opt_str(rel, "relatedSpdxElement", path)
        if rtype == "DESCRIBES":
            if subject_id is None and b in parsed:
                subject_id = b
            continue
        if a not in parsed or b not in parsed or a == b:
            continue
        if rtype == "DEPENDS_ON":
            depends.add((a, b))
        elif rtype == "CONTAINS":
            contains.add((a, b))
        else:
            rel_extra.setdefault(a, {}).setdefault(rtype, []).append(b)

    if subject_id is None:
        described = data.get("documentDescribes")
        if isinstance(described, list):
            for j, sid in enumerate(described):
                if not isinstance(sid, str):
                    raise ParseError(f"$.documentDescribes[{j}]: expected a string")
                if sid in parsed:
                    subject_id = sid
                    break

    components = []
    for sid in order:
        fields = parsed[sid]
        extra = fields.pop("extra")
        if sid in rel_extra:
            extra = (*extra, *((f"relationship:{rtype}", ",".join(sorted(targets)))
                               for rtype, targets in sorted(rel_extra[sid].items())))
        components.append(Component(id=sid, extra=extra, **fields))

    doc = BomDocument(
        format=BomFormat.SPDX_JSON,
        spec_version=spec_version,
        subject=subject_id,
        components=tuple(components),
        relationships=_relationships(contains, depends),
        source_name=source_name,
    )
    return _finish(doc, opts)


_NO_VALUE = ("NOASSERTION", "NONE")


def _spdx_fields(pkg: dict, path: str) -> dict:
    get = pkg.get
    name = get("name")
    if type(name) is not str or not name:
        name = _require(pkg, "name", path)
        if not isinstance(name, str):
            raise ParseError(f"{path}.name: expected a string")

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

    licenses = []
    for key in ("licenseConcluded", "licenseDeclared"):
        value = get(key)
        if isinstance(value, str) and value and value not in _NO_VALUE:
            if value not in licenses:
                licenses.append(value)

    hashes = ()
    items = get("checksums")
    if items is not None:
        if type(items) is not list:
            items = _opt_list(pkg, "checksums", path)
        hashes = _hash_list(items, "algorithm", "checksumValue", path, "checksums")

    version = get("versionInfo")
    if version is not None and (type(version) is not str or not version):
        version = _opt_str(pkg, "versionInfo", path)
    return {
        "name": name,
        "version": version,
        "purl": purl,
        "cpe": cpe,
        "vendor": vendor,
        "licenses": tuple(licenses),
        "hashes": hashes,
        "extra": (),
    }


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
    edges = [(parent, ref, RelationshipKind.CONTAINS) for ref, parent in parent_ref.items()]

    if opts.fold_quantities:
        components, edges = _fold_quantities(components, edges)
    _check_expansion(components, edges, row_no)

    # Rows without a parent hang off the per-source root that graph
    # construction adds; the table itself records no subject component.
    doc = BomDocument(
        format=BomFormat.GENERIC_HBOM,
        spec_version="",
        subject=None,
        components=tuple(components),
        relationships=tuple(Relationship(s, t, k) for s, t, k in edges),
        source_name=source_name,
    )
    return _finish(doc, opts)


def _hbom_components(rows) -> tuple[dict[str, Component], dict[str, str], dict[str, int]]:
    """One Component per table row, keyed by ref, with each row's parent ref
    (rows that have one) and row number."""
    by_ref: dict[str, Component] = {}
    parent_ref: dict[str, str] = {}
    row_no: dict[str, int] = {}
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

        # Component sorts extra; keys are unique, so this is by key.
        extra = []
        for k, v in row.items():
            if k not in _HBOM_COLUMNS and v is not None:
                v = str(v).strip()
                if v:
                    extra.append((k, v))
        vendor = get("vendor")
        vendor = vendor.strip() if type(vendor) is str else _cell(row, "vendor", n)
        by_ref[ref] = Component(ref, name, None, None, None, vendor or None,
                                (), (), quantity, tuple(extra))
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
    if isinstance(raw, (bytes, bytearray)):
        # Undetected bytes: a leading "{" marks the JSON layout.
        text = _decode(raw)
        raw = _json_object(_loads(text)) if text.lstrip().startswith("{") else _Text(text)
    if not isinstance(raw, _Text):
        items = _json_object(raw).get("hbom")
        if not isinstance(items, list):
            raise ParseError("$.hbom: expected an array")
        out = []
        for i, item in enumerate(items):
            if not isinstance(item, dict):
                raise ParseError(f"$.hbom[{i}]: expected an object")
            out.append((i + 1, {str(k): item[k] for k in item}))
        return out

    reader, header = _csv_table(raw.text)
    if header is None:
        raise ParseError("row 1: missing CSV header")
    if "ref" not in header or "name" not in header:
        raise ParseError("row 1: CSV header must include 'ref' and 'name'")
    out = []
    try:
        for row in reader:
            n = len(out) + 2
            if None in row:
                raise ParseError(f"row {n}: more cells than header columns")
            out.append((n, {(k or "").strip(): v for k, v in row.items()}))
    except csv.Error as e:
        raise ParseError(f"row {len(out) + 2}: {e}") from None
    return out


def _csv_table(text: str) -> tuple[csv.DictReader, list[str] | None]:
    """A row reader over CSV text and its header: the first record, cells
    stripped, or None. Detection and the HBOM parser both read it here, so
    they agree on what a ref/name table is."""
    reader = csv.DictReader(io.StringIO(text))
    try:
        names = reader.fieldnames
    except csv.Error as e:
        raise ParseError(f"row 1: {e}") from None
    return reader, None if names is None else [h.strip() for h in names]


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
    survivor: dict[str, str] = {}
    folded: dict[str, Component] = {}
    for group in members.values():
        keep = min(group, key=lambda c: c.id)
        for c in group:
            survivor[c.id] = keep.id
        if len(group) > 1:
            keep = replace(keep, quantity=sum(c.quantity for c in group))
        folded[keep.id] = keep
    return (
        [folded[c.id] for c in components if c.id in folded],
        {(survivor[s], survivor[t], k) for s, t, k in edges},
    )


# ------------------------------------------------------- shared pipeline


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


# ----------------------------------------------------------------- loading


_PARSERS = {
    BomFormat.CYCLONEDX_JSON: parse_cyclonedx,
    BomFormat.SPDX_JSON: parse_spdx,
    BomFormat.GENERIC_HBOM: parse_hbom,
}


def parse_document(
    raw: bytes,
    opts: IngestOptions = IngestOptions(),
    source_name: str = "",
    format_hint: BomFormat | None = None,
) -> BomDocument:
    if format_hint is not None:
        return _PARSERS[format_hint](raw, opts, source_name)
    value = _read(raw)
    return _PARSERS[detect_format(value)](value, opts, source_name)


def load_document(
    path,
    opts: IngestOptions = IngestOptions(),
    format_hint: BomFormat | None = None,
) -> BomDocument:
    p = Path(path)
    return parse_document(p.read_bytes(), opts, str(path), format_hint)
