"""Exact stdout and exit code of the text-producing commands.

Inputs are written under relative names into a temporary working directory,
so the source names in the output do not depend on where the tests run.
"""

import io
import json

import pytest

from bomdiff.cli import run

_CDX = {
    "bomFormat": "CycloneDX",
    "specVersion": "1.5",
    "metadata": {"component": {"bom-ref": "app", "name": "app", "version": "2.0"}},
    "components": [
        {"bom-ref": "zlib", "name": "zlib", "version": "1.3", "purl": "pkg:generic/zlib@1.3",
         "cpe": "cpe:2.3:a:zlib:zlib:1.3", "supplier": {"name": "Zlib Team"},
         "licenses": [{"license": {"id": "Zlib"}}],
         "hashes": [{"alg": "SHA-256", "content": "AA11"}]},
        {"bom-ref": "log", "name": "slf4j-api", "purl": "pkg:maven/org.slf4j/slf4j-api@2.0.9",
         "licenses": [{"license": {"id": "MIT"}}, {"expression": "Apache-2.0"}],
         "components": [
             {"name": "slf4j-simple", "purl": "pkg:maven/org.slf4j/slf4j-simple@2.0.9"}
         ]},
    ],
    "dependencies": [{"ref": "log", "dependsOn": ["zlib"]}],
}

_SPDX = {
    "spdxVersion": "SPDX-2.3",
    "packages": [
        {"SPDXID": "SPDXRef-app", "name": "app", "versionInfo": "2.0"},
        {"SPDXID": "SPDXRef-zlib", "name": "zlib", "versionInfo": "1.3",
         "supplier": "Organization: Zlib Team", "licenseConcluded": "Zlib",
         "licenseDeclared": "NOASSERTION",
         "externalRefs": [{"referenceType": "purl", "referenceLocator": "pkg:generic/zlib@1.3"}],
         "checksums": [{"algorithm": "SHA256", "checksumValue": "aa11"}]},
        {"SPDXID": "SPDXRef-log", "name": "slf4j-api",
         "externalRefs": [
             {"referenceType": "purl", "referenceLocator": "pkg:maven/org.slf4j/slf4j-api@2.0.9"},
             {"referenceType": "cpe23Type", "referenceLocator": "cpe:2.3:a:slf4j:api:2"},
         ]},
    ],
    "relationships": [
        {"spdxElementId": "SPDXRef-DOCUMENT", "relatedSpdxElement": "SPDXRef-app",
         "relationshipType": "DESCRIBES"},
        {"spdxElementId": "SPDXRef-app", "relatedSpdxElement": "SPDXRef-zlib",
         "relationshipType": "DEPENDS_ON"},
        {"spdxElementId": "SPDXRef-app", "relatedSpdxElement": "SPDXRef-log",
         "relationshipType": "CONTAINS"},
    ],
}

_HBOM = (
    "ref,name,parent,vendor,quantity\n"
    "b,board,,Acme,1\n"
    "c1,cap,b,Murata,2\n"
    "c2,cap,b,Murata,1\n"
    "r1,resistor-10k,b,,4\n"
)


def _cdx(*components):
    return json.dumps({"bomFormat": "CycloneDX", "specVersion": "1.5",
                       "components": list(components)})


@pytest.fixture
def files(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    contents = {
        "app.cdx.json": json.dumps(_CDX),
        "app.spdx.json": json.dumps(_SPDX),
        "parts.csv": _HBOM,
        "orgs-l.json": _cdx(
            {"bom-ref": "a", "name": "m", "purl": "pkg:maven/com.corpa.util/m@1"},
            {"bom-ref": "b", "name": "jx", "purl": "pkg:maven/javax.xml/jx@1"},
            {"bom-ref": "c", "name": "s", "purl": "pkg:maven/org.slf4j/s@1"},
        ),
        "orgs-r.json": _cdx(
            {"bom-ref": "a", "name": "m", "purl": "pkg:maven/io.vendor.api/m@1"},
            {"bom-ref": "c", "name": "s", "purl": "pkg:maven/org.slf4j/s@2"},
        ),
        "bare.json": _cdx({"bom-ref": "a", "name": "zlib"}, {"bom-ref": "b", "name": "curl"}),
        "licensed.json": _cdx(
            {"bom-ref": "a", "name": "zlib", "licenses": [{"license": {"id": "Zlib"}}]},
            {"bom-ref": "b", "name": "curl", "licenses": [{"license": {"id": "curl"}},
                                                          {"license": {"id": "MIT"}}]},
        ),
        "graph-l.json": json.dumps({**json.loads(_cdx(
            {"bom-ref": "a", "name": "app"},
            {"bom-ref": "b", "name": "libcurl"},
            {"bom-ref": "c", "name": 'say "hi"'},
        )), "dependencies": [{"ref": "a", "dependsOn": ["b", "c"]}]}),
        "graph-r.json": json.dumps({**json.loads(_cdx(
            {"bom-ref": "a", "name": "app"},
            {"bom-ref": "b", "name": "libcurl4"},
            {"bom-ref": "d", "name": "zstd"},
        )), "dependencies": [{"ref": "a", "dependsOn": ["b", "d"]}]}),
    }
    for name, text in contents.items():
        (tmp_path / name).write_text(text)


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), stdout=out, stderr=err)
    assert err.getvalue() == ""
    return code, out.getvalue()


GOLDEN = [
    (
        ("inspect", "app.cdx.json"),
        0,
        "source: app.cdx.json\n"
        "format: cyclonedx-json 1.5\n"
        "components: 4\n"
        "relationships: 3\n"
        "subject: app\n"
        "unique names: 4\n"
        "unique purls: 3\n"
        "unique cpes: 1\n"
        "unique vendors: 1\n"
        "unique licenses: 3\n"
        "unique hashes: 1\n"
        "unique organizations: 2\n",
    ),
    (
        ("inspect", "app.spdx.json"),
        0,
        "source: app.spdx.json\n"
        "format: spdx-json SPDX-2.3\n"
        "components: 3\n"
        "relationships: 2\n"
        "subject: SPDXRef-app\n"
        "unique names: 3\n"
        "unique purls: 2\n"
        "unique cpes: 1\n"
        "unique vendors: 1\n"
        "unique licenses: 1\n"
        "unique hashes: 1\n"
        "unique organizations: 2\n",
    ),
    (
        ("inspect", "parts.csv"),
        0,
        "source: parts.csv\n"
        "format: generic-hbom\n"
        "components: 3\n"
        "relationships: 2\n"
        "subject: (none)\n"
        "unique names: 3\n"
        "unique purls: 0\n"
        "unique cpes: 0\n"
        "unique vendors: 2\n"
        "unique licenses: 0\n"
        "unique hashes: 0\n"
        "unique organizations: 0\n",
    ),
    (
        ("orgs", "orgs-l.json", "orgs-r.json"),
        1,
        "Field                | orgs-l.json | orgs-r.json | orgs-l.json (Only) | orgs-r.json (Only)\n"
        "---------------------+-------------+-------------+--------------------+-------------------\n"
        "Organizations        | 2           | 2           | 1                  | 1\n"
        "Unique Organizations | 2           | 2           | 1                  | 1\n"
        "\n"
        "gained:\n"
        "  io.vendor\n"
        "\n"
        "lost:\n"
        "  com.corpa\n",
    ),
    (
        ("orgs", "orgs-l.json", "orgs-l.json"),
        0,
        "Field                | orgs-l.json | orgs-l.json | orgs-l.json (Only) | orgs-l.json (Only)\n"
        "---------------------+-------------+-------------+--------------------+-------------------\n"
        "Organizations        | 2           | 2           | 0                  | 0\n"
        "Unique Organizations | 2           | 2           | 0                  | 0\n",
    ),
    (
        ("licenses", "bare.json", "licensed.json"),
        1,
        "Field           | bare.json | licensed.json | bare.json (Only) | licensed.json (Only)\n"
        "----------------+-----------+---------------+------------------+---------------------\n"
        "Licenses        | 0         | 3             | 0                | 3\n"
        "Unique Licenses | 0         | 3             | 0                | 3\n"
        "\n"
        "license coverage: left 0/2 components, right 2/2 components\n"
        "left licenses: (none)\n"
        "right licenses: MIT, Zlib, curl\n",
    ),
    (
        ("licenses", "licensed.json", "bare.json", "--format", "json"),
        1,
        json.dumps(
            {
                "field_diffs": {
                    "license": {
                        "common": {},
                        "left_only": {"MIT": 1, "Zlib": 1, "curl": 1},
                        "left_only_total": 3,
                        "left_total": 3,
                        "left_unique": 3,
                        "right_only": {},
                        "right_only_total": 0,
                        "right_total": 0,
                        "right_unique": 0,
                    }
                },
                "findings": [],
                "fuzzy": [],
                "graph": None,
                "hash_coverage": None,
                "schema_version": "1",
                "source_names": ["licensed.json", "bare.json"],
            },
            indent=2,
        )
        + "\n",
    ),
    (
        ("graph", "graph-l.json", "graph-r.json", "--format", "dot"),
        1,
        "digraph merged {\n"
        "  node [shape=box, style=filled];\n"
        '  n0 [label="app", fillcolor="#6baed6"];\n'
        '  n1 [label="graph-l.json", fillcolor="#6baed6"];\n'
        '  n2 [label="libcurl", fillcolor="#fa9fb5"];\n'
        '  n3 [label="say \\"hi\\"", fillcolor="#fa9fb5"];\n'
        '  n4 [label="libcurl4", fillcolor="#ffd92f"];\n'
        '  n5 [label="zstd", fillcolor="#ffd92f"];\n'
        "  n1 -> n0;\n"
        "  n0 -> n2;\n"
        "  n0 -> n3;\n"
        "  n0 -> n4;\n"
        "  n0 -> n5;\n"
        '  n2 -> n4 [dir=none, color="#ffd92f", penwidth=3.0, tooltip="0.975000"];\n'
        "}\n",
    ),
]


@pytest.mark.parametrize("argv, code, stdout", GOLDEN, ids=[" ".join(g[0]) for g in GOLDEN])
def test_golden_stdout(files, argv, code, stdout):
    assert invoke(*argv) == (code, stdout)
