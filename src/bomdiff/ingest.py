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

Every reader ends in the same normalization pipeline: optional name/ecosystem
filtering, duplicate collapsing, then canonical ordering, so downstream
comparison code never sees source-order artifacts.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, replace
from pathlib import Path

from bomdiff.model import (
    BomDocument,
    BomFormat,
    Component,
    Relationship,
    RelationshipKind,
    canonical_form,
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
        first = value.text.lstrip()[:4096].splitlines()
        header = [c.strip().lower() for c in first[0].split(",")]
        if "ref" in header and "name" in header:
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


def _norm_hash(alg: str, digest: str) -> tuple[str, str]:
    return alg.upper().replace("-", ""), digest.lower()


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

    edges = set()
    for i, p in enumerate(parent_of):
        if p is not None:
            edges.add((ids[p], ids[i], RelationshipKind.CONTAINS))

    deps = data.get("dependencies", [])
    if not isinstance(deps, list):
        raise ParseError("$.dependencies: expected an array")
    for i, dep in enumerate(deps):
        if not isinstance(dep, dict):
            raise ParseError(f"$.dependencies[{i}]: expected an object")
        targets = _opt_list(dep, "dependsOn", f"$.dependencies[{i}]")
        src = dep.get("ref")
        if not isinstance(src, str) or src not in taken:
            continue  # dangling source: unusable, skip
        for tgt in targets:
            if isinstance(tgt, str) and tgt in taken and tgt != src:
                edges.add((src, tgt, RelationshipKind.DEPENDS_ON))

    subject_id = ids[-1] if subject_entry is not None else None
    if subject_id is not None:
        indeg = {t for _, t, _ in edges}
        for i, cid in enumerate(ids):
            if cid != subject_id and cid not in indeg:
                edges.add((subject_id, cid, RelationshipKind.DEPENDS_ON))

    doc = BomDocument(
        format=BomFormat.CYCLONEDX_JSON,
        spec_version=spec_version,
        subject=subject_id,
        components=tuple(components),
        relationships=tuple(Relationship(s, t, k) for s, t, k in edges),
        source_name=source_name,
    )
    return _finish(doc, opts)


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


def _cdx_component(entry: dict, cid: str, path: str) -> Component:
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
        pair = _norm_hash(str(alg), str(digest))
        if pair not in hashes:
            hashes.append(pair)

    extra = [
        (f"cdx:{key}", entry[key])
        for key in ("group", "type", "scope")
        if isinstance(entry.get(key), str) and entry[key]
    ]

    return Component(
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

    edges = set()
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
            edges.add((a, b, RelationshipKind.DEPENDS_ON))
        elif rtype == "CONTAINS":
            edges.add((a, b, RelationshipKind.CONTAINS))
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
        extra = list(fields.pop("extra"))
        for rtype, targets in sorted(rel_extra.get(sid, {}).items()):
            extra.append((f"relationship:{rtype}", ",".join(sorted(targets))))
        components.append(Component(id=sid, extra=tuple(extra), **fields))

    doc = BomDocument(
        format=BomFormat.SPDX_JSON,
        spec_version=spec_version,
        subject=subject_id,
        components=tuple(components),
        relationships=tuple(Relationship(s, t, k) for s, t, k in edges),
        source_name=source_name,
    )
    return _finish(doc, opts)


_NO_VALUE = ("NOASSERTION", "NONE")


def _spdx_fields(pkg: dict, path: str) -> dict:
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
            # "Organization: Acme" / "Person: Jane" tags carry no signal
            # for vendor comparison.
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
        pair = _norm_hash(str(alg), str(digest))
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


# --------------------------------------------------------------------- HBOM


_HBOM_COLUMNS = ("ref", "name", "parent", "vendor", "quantity")

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
    rows = _hbom_rows(raw)

    by_ref: dict[str, Component] = {}
    parent_ref: dict[str, str] = {}
    row_no: dict[str, int] = {}
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
        by_ref[ref] = Component(
            id=ref,
            name=name,
            vendor=_cell(row, "vendor", n) or None,
            quantity=quantity,
            extra=extra,
        )
        row_no[ref] = n

    for ref, parent in parent_ref.items():
        if parent not in by_ref:
            raise DanglingParentError(
                f"row {row_no[ref]}: parent '{parent}' does not match any ref"
            )

    components = list(by_ref.values())
    edges = {
        (parent, ref, RelationshipKind.CONTAINS) for ref, parent in parent_ref.items()
    }

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

    reader = csv.DictReader(io.StringIO(raw.text))
    if reader.fieldnames is None:
        raise ParseError("row 1: missing CSV header")
    header = [h.strip() for h in reader.fieldnames]
    if "ref" not in header or "name" not in header:
        raise ParseError("row 1: CSV header must include 'ref' and 'name'")
    out = []
    for i, row in enumerate(reader):
        if None in row:
            raise ParseError(f"row {i + 2}: more cells than header columns")
        out.append((i + 2, {(k or "").strip(): v for k, v in row.items()}))
    return out


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
    groups: dict[tuple, list[Component]] = {}
    for c in doc.components:
        if c.purl is None:
            continue
        key = (
            c.purl,
            c.name,
            c.version,
            c.vendor,
            tuple(sorted(c.licenses)),
            tuple(sorted(c.hashes)),
        )
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
    rewired = {
        (remap.get(r.source, r.source), remap.get(r.target, r.target), r.kind)
        for r in doc.relationships
    }
    relationships = tuple(
        Relationship(s, t, k) for s, t, k in rewired if s != t
    )
    subject = remap.get(doc.subject, doc.subject) if doc.subject else None
    return replace(
        doc, components=components, relationships=relationships, subject=subject
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
    if opts.dedup:
        doc = dedup_components(doc)
    return canonical_form(doc)


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
