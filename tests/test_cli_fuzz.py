"""Structural fuzzing of every input format through cli.run.

Small valid CycloneDX, SPDX and HBOM (CSV and JSON) documents are mutated
(type swaps, deleted keys, deeper nesting, truncation, invalid UTF-8) and
fed to the commands that parse and build graphs. Whatever the bytes, a run
ends with exit 0-3, writes no traceback, and hands the caller's collector
setting back.
"""

import copy
import csv
import gc
import io
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bomdiff.cli import run

_CDX = {
    "bomFormat": "CycloneDX",
    "specVersion": "1.5",
    "metadata": {"component": {"bom-ref": "app", "name": "app", "version": "1"}},
    "components": [
        {
            "bom-ref": "a",
            "type": "library",
            "name": "zlib",
            "version": "1.2",
            "purl": "pkg:generic/zlib@1.2",
            "licenses": [{"license": {"id": "Zlib"}}, {"expression": "MIT OR Zlib"}],
            "hashes": [{"alg": "SHA-256", "content": "ab" * 32}],
            "components": [{"bom-ref": "a1", "name": "zlib-core", "version": "1.2"}],
        },
        {"bom-ref": "b", "name": "libcurl", "purl": "pkg:maven/org.curl/libcurl@8"},
        {"name": "refless", "version": "0.1"},
    ],
    "dependencies": [
        {"ref": "app", "dependsOn": ["a", "b"]},
        {"ref": "a", "dependsOn": ["a1"]},
    ],
}

_SPDX = {
    "spdxVersion": "SPDX-2.3",
    "SPDXID": "SPDXRef-DOCUMENT",
    "documentDescribes": ["SPDXRef-app"],
    "packages": [
        {"SPDXID": "SPDXRef-app", "name": "app", "versionInfo": "1"},
        {
            "SPDXID": "SPDXRef-a",
            "name": "zlib",
            "versionInfo": "1.2",
            "licenseConcluded": "Zlib",
            "checksums": [{"algorithm": "SHA256", "checksumValue": "ab" * 32}],
            "externalRefs": [{"referenceType": "purl",
                              "referenceLocator": "pkg:generic/zlib@1.2"}],
        },
        {"SPDXID": "SPDXRef-b", "name": "libcurl", "licenseDeclared": "MIT"},
    ],
    "relationships": [
        {"spdxElementId": "SPDXRef-app", "relationshipType": "DEPENDS_ON",
         "relatedSpdxElement": "SPDXRef-a"},
        {"spdxElementId": "SPDXRef-a", "relationshipType": "CONTAINS",
         "relatedSpdxElement": "SPDXRef-b"},
    ],
}

_HBOM_ROWS = [
    {"ref": "p", "name": "product", "parent": "", "vendor": "acme", "quantity": 1},
    {"ref": "b", "name": "board", "parent": "p", "vendor": "acme", "quantity": 2},
    {"ref": "c", "name": "capacitor", "parent": "b", "vendor": "", "quantity": 3},
    {"ref": "c2", "name": "capacitor", "parent": "b", "vendor": "", "quantity": 1},
]

_HBOM_JSON = {"hbom": _HBOM_ROWS}

_HBOM_CSV = [list(_HBOM_ROWS[0])] + [[str(v) for v in r.values()] for r in _HBOM_ROWS]

# Replacement values stay small: a quantity swapped in here must not
# allocate a large graph.
_VALUES = st.sampled_from(
    [None, True, False, 0, -1, 2, 1.5, "", "x", "a", "app", "SPDXRef-a",
     "pkg:pypi/x@1", "1_000", "١٢", [], {}, ["a"], {"name": "x"}, [{"ref": "a"}]]
)


_DEEP = "<3000 nested arrays>"


@st.composite
def _mutated(draw, node, depth=0):
    """``node`` with one mutation at a random path below it."""
    if isinstance(node, (dict, list)) and node and depth < 8 and draw(st.integers(0, 3)):
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        key = draw(st.sampled_from(keys))
        node = copy.copy(node)
        if draw(st.integers(0, 4)):
            node[key] = draw(_mutated(node[key], depth + 1))
        else:
            del node[key]  # a deleted key or array element
        return node
    op = draw(st.sampled_from(["swap", "nest", "repeat"]))
    if op == "swap":
        return draw(_VALUES)
    if op == "nest":
        levels = draw(st.sampled_from([1, 2, 50, None]))
        if levels is None:
            return _DEEP  # spliced in after encoding, past the decoder's limit
        for _ in range(levels):
            node = draw(st.sampled_from([[node], {"components": [node]}]))
        return node
    return [node, node] if not isinstance(node, list) else node + node


def _csv_bytes(rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows if isinstance(rows, list) else [rows]:
        writer.writerow(row if isinstance(row, list) else [row])
    return buf.getvalue().encode()


@st.composite
def _documents(draw):
    kind = draw(st.sampled_from(["cyclonedx", "spdx", "hbom-json", "hbom-csv"]))
    if kind == "hbom-csv":
        raw = _csv_bytes(draw(_mutated(_HBOM_CSV)))
    else:
        base = {"cyclonedx": _CDX, "spdx": _SPDX, "hbom-json": _HBOM_JSON}[kind]
        raw = json.dumps(draw(_mutated(base))).encode()
        raw = raw.replace(json.dumps(_DEEP).encode(), b"[" * 3000 + b"1" + b"]" * 3000)
    cut = draw(st.none() | st.integers(0, len(raw)))
    if cut is not None:
        if draw(st.booleans()):
            raw = raw[:cut]  # truncation
        else:
            bad = draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80", b"\x80\x80"]))
            raw = raw[:cut] + bad + raw[cut:]
    return kind, raw


_BASES = {
    "cyclonedx": json.dumps(_CDX).encode(),
    "spdx": json.dumps(_SPDX).encode(),
    "hbom-json": json.dumps(_HBOM_JSON).encode(),
    "hbom-csv": _csv_bytes(_HBOM_CSV),
}

_HINTS = {"cyclonedx": "cyclonedx-json", "spdx": "spdx-json",
          "hbom-json": "generic-hbom", "hbom-csv": "generic-hbom"}


@given(
    _documents(),
    st.sampled_from([
        ["inspect", "{doc}"],
        ["graph", "{doc}", "{base}"],
        ["graph", "--format", "dot", "{base}", "{doc}"],
        ["compare", "--fuzzy", "{doc}", "{base}"],
        ["licenses", "--format", "json", "{base}", "{doc}"],
    ]),
    st.booleans(),
    st.booleans(),
)
@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_mutated_inputs_never_traceback(tmp_path, document, argv, hinted, collecting):
    kind, raw = document
    doc, base = tmp_path / "doc", tmp_path / "base"
    doc.write_bytes(raw)
    base.write_bytes(_BASES[kind])
    argv = [a.format(doc=doc, base=base) for a in argv]
    if hinted:
        argv.insert(1, "--format-in=" + _HINTS[kind])
    out, err = io.StringIO(), io.StringIO()
    try:
        if not collecting:
            gc.disable()
        code = run(argv, stdout=out, stderr=err)
        assert gc.isenabled() is collecting
    finally:
        gc.enable()
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code == 3:
        assert err.getvalue().startswith("error: ")
