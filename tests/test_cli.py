import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import bomdiff
from bomdiff import fuzzy
from bomdiff.cli import run


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def cdx_file(tmp_path, make_cdx):
    def write(name, components, **kw):
        p = tmp_path / name
        p.write_bytes(make_cdx(components, **kw))
        return str(p)

    return write


@pytest.fixture
def pair(cdx_file):
    left = cdx_file(
        "left.json",
        [
            {"bom-ref": "a", "name": "zlib", "version": "1.2", "purl": "pkg:generic/zlib@1.2",
             "licenses": [{"license": {"id": "Zlib"}}]},
            {"bom-ref": "b", "name": "libcurl", "purl": "pkg:generic/libcurl@8"},
        ],
    )
    right = cdx_file(
        "right.json",
        [
            {"bom-ref": "a", "name": "zlib", "version": "1.2", "purl": "pkg:generic/zlib@1.2",
             "licenses": [{"license": {"id": "Zlib"}}]},
            {"bom-ref": "b", "name": "libcurl4", "purl": "pkg:generic/libcurl4@8"},
        ],
    )
    return left, right


def test_inspect_summary(cdx_file):
    f = cdx_file("one.json", [{"bom-ref": "a", "name": "x", "purl": "pkg:pypi/x@1"}])
    code, out, err = invoke("inspect", f)
    assert code == 0 and err == ""
    assert "components: 1" in out
    assert "unique hashes: 0" in out
    assert "format: cyclonedx-json" in out


def test_compare_identical_exits_zero(pair):
    left, _ = pair
    code, out, _ = invoke("compare", left, left)
    assert code == 0
    assert "Field" in out


def test_compare_difference_exits_one(pair):
    code, out, _ = invoke("compare", *pair)
    assert code == 1  # libcurl/libcurl4 land in the only-buckets
    _, js, _ = invoke("compare", *pair, "--format", "json")
    assert "libcurl" in json.loads(js)["field_diffs"]["name"]["left_only"]


def test_compare_json_reproducible(pair):
    code1, out1, _ = invoke("compare", *pair, "--format", "json")
    code2, out2, _ = invoke("compare", *pair, "--format", "json")
    assert code1 == code2 == 1
    assert out1 == out2
    data = json.loads(out1)
    assert data["schema_version"] == "1"


def test_timestamp_breaks_reproducibility_markedly(pair):
    _, out, _ = invoke("compare", *pair, "--timestamp")
    assert out.startswith("generated: ")


def test_compare_fuzzy_section(pair):
    code, out, _ = invoke("compare", *pair, "--fuzzy", "--exclude-exact")
    assert code == 1
    assert "fuzzy matches:" in out
    assert "libcurl" in out.partition("fuzzy matches:")[2]


def test_compare_threshold_flag_filters(pair):
    _, out, _ = invoke("compare", *pair, "--fuzzy", "--exclude-exact", "--threshold", "0.999")
    assert "fuzzy matches:" not in out


def test_out_of_memory_is_exit_3_without_traceback(pair, monkeypatch):
    # exit 1 would read as "differences found"
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(fuzzy, "all_pairs_matches", exhausted)
    code, out, err = invoke("compare", "--fuzzy", "--threshold", "0", *pair)
    assert code == 3
    assert err == "error: out of memory\n"
    assert "Traceback" not in err and out == ""


def test_threshold_env_honored(pair, monkeypatch):
    monkeypatch.setenv("BOMDIFF_THRESHOLD", "0.999")
    _, out, _ = invoke("compare", *pair, "--fuzzy", "--exclude-exact")
    assert "fuzzy matches:" not in out
    # explicit flag beats the environment
    _, out, _ = invoke("compare", *pair, "--fuzzy", "--exclude-exact", "--threshold", "0.85")
    assert "fuzzy matches:" in out


def test_threshold_env_invalid_is_usage_error(pair, monkeypatch):
    monkeypatch.setenv("BOMDIFF_THRESHOLD", "not-a-number")
    code, _, err = invoke("compare", *pair, "--fuzzy")
    assert code == 2
    assert "BOMDIFF_THRESHOLD" in err


def test_count_skew_alone_exits_zero(cdx_file):
    left = cdx_file("l.json", [{"bom-ref": "a", "name": "chip"}, {"bom-ref": "b", "name": "chip"}])
    right = cdx_file("r.json", [{"bom-ref": "a", "name": "chip"}])
    code, out, _ = invoke("compare", left, right)
    assert code == 0


def test_consistency_finding_exits_one(cdx_file):
    mk = lambda d: [{"bom-ref": "a", "name": "x", "hashes": [{"alg": "SHA-256", "content": d}]}]
    left, right = cdx_file("l.json", mk("aa")), cdx_file("r.json", mk("bb"))
    code, out, _ = invoke("compare", left, right)
    assert code == 1
    assert "same-name-different-hash" in out
    assert "hash coverage: left 1/1" in out


def test_graph_stats_line(pair):
    code, out, _ = invoke("graph", *pair, "--stats")
    assert code == 1
    assert out.startswith("matched=")
    assert " fuzzy=" in out and out.count("\n") == 1


def test_graph_dot_output(pair):
    code, out, _ = invoke("graph", *pair, "--format", "dot")
    assert code == 1
    assert out.startswith("digraph")
    assert "#6baed6" in out and "#fa9fb5" in out and "#ffd92f" in out


def test_graph_text_lists_sides_and_hints(pair):
    code, out, _ = invoke("graph", *pair)
    assert code == 1
    assert "left only:" in out and "right only:" in out
    assert "fuzzy links:" in out
    assert "[prefix-specificity]" in out  # libcurl -> libcurl4


def test_graph_identical_exits_zero(pair):
    left, _ = pair
    code, out, _ = invoke("graph", left, left, "--stats")
    assert code == 0
    assert "left_only=0 right_only=0 fuzzy=0" in out


def test_graph_stats_on_long_names_one_letter_apart(cdx_file):
    # five children of the subject a side, named by 3999 a's and one letter
    # of their own: every pair passes the bound and is scored, which took
    # 3.6 s with the window-scan Jaro kernel
    def side(name, letters):
        return cdx_file(name, [{"bom-ref": f"c{i}", "name": "a" * 3999 + ch}
                               for i, ch in enumerate(letters)],
                        subject={"bom-ref": "top", "name": "top"})

    left, right = side("l.json", "bcdef"), side("r.json", "ghijk")
    t0 = time.perf_counter()
    result = invoke("graph", "--stats", left, right)
    assert time.perf_counter() - t0 < 1.0
    assert result == (1, "matched=1 left_only=5 right_only=5 fuzzy=5\n", "")


def test_graph_json(pair):
    code, out, _ = invoke("graph", *pair, "--format", "json")
    data = json.loads(out)
    assert data["graph"]["stats"]["fuzzy"] == 1


def test_orgs_delta(cdx_file):
    left = cdx_file(
        "l.json",
        [
            {"bom-ref": "a", "name": "m", "purl": "pkg:maven/com.corpa.util/m@1"},
            {"bom-ref": "b", "name": "jx", "purl": "pkg:maven/javax.xml/jx@1"},
        ],
    )
    right = cdx_file("r.json", [{"bom-ref": "a", "name": "m", "purl": "pkg:maven/io.vendor.api/m@1"}])
    code, out, _ = invoke("orgs", left, right)
    assert code == 1
    assert "gained:" in out and "io.vendor" in out
    assert "lost:" in out and "com.corpa" in out
    assert "javax.xml" not in out  # default exclusion
    _, out2, _ = invoke("orgs", left, right, "--no-default-excludes")
    assert "javax.xml" in out2


def test_licenses_output(pair):
    code, out, _ = invoke("licenses", *pair)
    assert "license coverage: left 1/2 components" in out
    assert "left licenses: Zlib" in out
    assert code == 0  # same license multiset on both sides


def test_licenses_difference(cdx_file):
    left = cdx_file("l.json", [{"bom-ref": "a", "name": "x",
                                "licenses": [{"license": {"id": "MIT"}}]}])
    right = cdx_file("r.json", [{"bom-ref": "a", "name": "x",
                                 "licenses": [{"license": {"id": "GPL-3.0-only"}}]}])
    code, out, _ = invoke("licenses", left, right)
    assert code == 1
    assert "MIT" in out and "GPL-3.0-only" in out


def test_usage_errors():
    assert invoke()[0] == 2
    assert invoke("no-such-command")[0] == 2
    assert invoke("compare", "only-one-file")[0] == 2
    code, _, err = invoke("compare", "a", "b", "--format", "yaml")
    assert code == 2 and "invalid choice" in err


def test_help_exits_zero():
    code, out, _ = invoke("--help")
    assert code == 0
    assert "compare" in out


def test_missing_file_is_io_error(pair):
    left, _ = pair
    code, _, err = invoke("compare", left, "/nonexistent/x.json")
    assert code == 3 and "error:" in err


def test_malformed_input_is_parse_error(tmp_path, pair):
    left, _ = pair
    bad = tmp_path / "bad.json"
    bad.write_text('{"bomFormat": "CycloneDX", "components": [{"purl": "pkg:pypi/x@1"}]}')
    code, _, err = invoke("compare", left, str(bad))
    assert code == 3
    assert "name" in err


@pytest.mark.parametrize(
    "hint, raw, offset",
    [
        ("cyclonedx-json", b"\xff\xfe{}", 0),
        ("spdx-json", b"\xff\xfe{}", 0),
        ("generic-hbom", b"\xff\xfe{}", 0),
        (None, b"ref,name\nx,\xff\n", 11),  # detected as HBOM CSV
        (None, b"\xff\xfe{}", 0),  # detection decodes strictly too
    ],
)
def test_non_utf8_input_is_parse_error(tmp_path, hint, raw, offset):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(raw)
    hint_args = ("--format-in", hint) if hint else ()
    code, out, err = invoke("inspect", *hint_args, str(bad))
    assert (code, out, err) == (3, "", f"error: byte {offset}: invalid UTF-8\n")


@pytest.mark.parametrize(
    "hint, fixture",
    [("cyclonedx-json", "make_cdx"), ("spdx-json", "make_spdx"), ("generic-hbom", "make_hbom")],
)
def test_utf8_byte_order_mark_is_ignored(request, tmp_path, hint, fixture):
    make = request.getfixturevalue(fixture)
    rows = {
        "make_cdx": [{"bom-ref": "a", "name": "zlib"}, {"bom-ref": "b", "name": "curl"}],
        "make_spdx": [{"SPDXID": "SPDXRef-a", "name": "zlib"}, {"SPDXID": "SPDXRef-b", "name": "curl"}],
        "make_hbom": [{"ref": "a", "name": "board"}, {"ref": "b", "name": "cap", "parent": "a"}],
    }[fixture]
    f = tmp_path / "doc"
    for hint_args in ((), ("--format-in", hint)):
        f.write_bytes(make(rows))
        plain = invoke("inspect", *hint_args, str(f))
        assert plain[0] == 0 and f"format: {hint}" in plain[1]
        f.write_bytes(b"\xef\xbb\xbf" + make(rows))
        assert invoke("inspect", *hint_args, str(f)) == plain


@pytest.mark.parametrize("hint", [None, "cyclonedx-json"])
def test_deep_nesting_is_parse_error(tmp_path, hint):
    depth = 3000
    raw = (
        '{"bomFormat": "CycloneDX", "specVersion": "1.5", "components": ['
        + '{"name": "c", "components": [' * depth
        + '{"name": "leaf"}'
        + "]}" * depth
        + "]}"
    )
    f = tmp_path / "deep.json"
    f.write_text(raw)
    hint_args = ("--format-in", hint) if hint else ()
    code, out, err = invoke("inspect", *hint_args, str(f))
    assert (code, out) == (3, "")
    assert [line for line in err.splitlines() if "error:" in line] == [
        "error: $: JSON nested too deeply to decode"
    ]
    assert "Traceback" not in err


_CDX = {"bomFormat": "CycloneDX", "specVersion": "1.5"}
_SPDX = {"spdxVersion": "SPDX-2.3"}
_SPDX_PKG = {"SPDXID": "SPDXRef-a", "name": "a"}


@pytest.mark.parametrize(
    "doc, message",
    [
        ({**_CDX, "components": [{"name": "a", "licenses": 5}]},
         "$.components[0].licenses: expected an array"),
        ({**_CDX, "components": [{"name": "a", "hashes": 5}]},
         "$.components[0].hashes: expected an array"),
        ({**_CDX, "components": [{"name": "a", "purl": {"type": "npm"}}]},
         "$.components[0].purl: expected a string"),
        ({**_SPDX, "packages": [_SPDX_PKG], "relationships": 5},
         "$.relationships: expected an array"),
        ({**_SPDX, "packages": [_SPDX_PKG], "relationships": [
            {"spdxElementId": {"id": 1}, "relatedSpdxElement": "SPDXRef-a",
             "relationshipType": "DEPENDS_ON"}]},
         "$.relationships[0].spdxElementId: expected a string"),
        ({**_SPDX, "packages": [_SPDX_PKG], "documentDescribes": [{"id": 1}]},
         "$.documentDescribes[0]: expected a string"),
        ({**_SPDX, "packages": [{**_SPDX_PKG, "externalRefs": 5}]},
         "$.packages[0].externalRefs: expected an array"),
        ({**_SPDX, "packages": [{**_SPDX_PKG, "checksums": 5}]},
         "$.packages[0].checksums: expected an array"),
        ({"hbom": [{"ref": 5, "name": "a"}]}, "row 1: ref must be a string"),
        ({"hbom": [{"ref": "a", "name": 5}]}, "row 1: name must be a string"),
        ({"hbom": [{"ref": "a", "name": "a", "parent": 5}]}, "row 1: parent must be a string"),
        ({"hbom": [{"ref": "a", "name": "a", "vendor": 5}]}, "row 1: vendor must be a string"),
    ],
)
def test_malformed_field_type_is_parse_error(tmp_path, doc, message):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(doc))
    assert invoke("inspect", str(f)) == (3, "", f"error: {message}\n")


def test_format_in_override_mismatch(tmp_path, make_spdx, pair):
    left, _ = pair
    spdx = tmp_path / "doc.spdx.json"
    spdx.write_bytes(make_spdx([{"SPDXID": "SPDXRef-a", "name": "a"}]))
    code, *_ = invoke("compare", left, str(spdx), "--format-in", "cyclonedx-json")
    assert code == 3
    assert invoke("compare", left, str(spdx))[0] in (0, 1)  # detection handles it


def test_drop_prefix_flag(cdx_file):
    left = cdx_file(
        "l.json",
        [
            {"bom-ref": "a", "name": "keep", "purl": "pkg:maven/g/keep@1"},
            {"bom-ref": "b", "name": "lp", "purl": "pkg:npm/lp@1"},
        ],
    )
    right = cdx_file("r.json", [{"bom-ref": "a", "name": "keep", "purl": "pkg:maven/g/keep@1"}])
    assert invoke("compare", left, right)[0] == 1
    assert invoke("compare", left, right, "--drop-prefix", "npm")[0] == 0


@pytest.mark.parametrize(
    "command, flag",
    [
        pytest.param("inspect", "--drop-prefix", id="inspect"),
        pytest.param("compare", "--drop-prefix", id="compare"),
        # an empty --exclude prefix would exclude every organization
        pytest.param("orgs", "--exclude", id="orgs-exclude"),
    ],
)
def test_empty_drop_prefix_is_usage_error(pair, command, flag):
    inputs = pair[:1] if command == "inspect" else pair
    code, out, err = invoke(command, *inputs, flag, "")
    assert code == 2 and out == ""
    assert [line for line in err.splitlines() if "error:" in line] == [
        f"bomdiff {command}: error: argument {flag}: must be non-empty"
    ]
    assert "Traceback" not in err


def test_hbom_round_trip(tmp_path, make_hbom):
    f = tmp_path / "parts.csv"
    f.write_bytes(
        make_hbom(
            [
                {"ref": "b", "name": "board"},
                {"ref": "c1", "name": "cap", "parent": "b"},
                {"ref": "c2", "name": "cap", "parent": "b"},
            ]
        )
    )
    code, out, _ = invoke("inspect", str(f))
    assert code == 0
    assert "format: generic-hbom" in out
    assert "components: 2" in out  # caps folded
    code, out, _ = invoke("graph", str(f), str(f), "--stats")
    assert code == 0
    assert "matched=4" in out  # root + board + 2 cap instances


def _reproducibility_doc(rng, rename):
    """A CycloneDX document with shuffled arrays, refless components (some
    nested) and one dependency listed twice."""
    comps = [
        {"bom-ref": f"c{i}", "name": f"lib{i}", "version": f"{i}.0",
         "purl": f"pkg:npm/lib{i}@{i}.0", "hashes": [{"alg": "SHA-256", "content": f"{i:02x}" * 32}]}
        for i in range(12)
    ]
    comps[3]["name"] = rename
    comps += [
        {"name": "refless", "version": "1"},
        {"name": "refless", "version": "1", "components": [{"name": "inner"}, {"name": "inner"}]},
        {"name": "refless", "purl": "pkg:npm/refless@2"},
    ]
    deps = [{"ref": f"c{i}", "dependsOn": [f"c{j}" for j in range(i + 1, 12, 3)]} for i in range(12)]
    deps.append({"ref": "c0", "dependsOn": ["c1", "c4"]})  # c0 -> c1 and c0 -> c4 again
    for d in deps:
        rng.shuffle(d["dependsOn"])
    rng.shuffle(comps)
    rng.shuffle(deps)
    return json.dumps({
        "bomFormat": "CycloneDX", "specVersion": "1.5",
        "metadata": {"component": {"bom-ref": "app", "name": "app"}},
        "components": comps, "dependencies": deps,
    })


def test_output_is_reproducible_across_hash_seeds_and_input_order(tmp_path):
    src = str(Path(bomdiff.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    outputs = []
    for hash_seed, order_seed in (("1", 1), ("2", 2)):
        rng = random.Random(order_seed)
        here = tmp_path / f"order{order_seed}"  # outputs name the input paths
        here.mkdir()
        (here / "left.json").write_text(_reproducibility_doc(rng, "lib3"))
        (here / "right.json").write_text(_reproducibility_doc(rng, "lib3-renamed"))
        runs = []
        for argv in (["graph", "--format", "dot"], ["compare", "--mode", "set", "--format", "json"]):
            r = subprocess.run(
                [sys.executable, "-m", "bomdiff.cli", *argv, "left.json", "right.json"],
                capture_output=True, cwd=here, env={**env, "PYTHONHASHSEED": hash_seed},
            )
            assert r.returncode == 1 and r.stderr == b"", r.stderr
            runs.append(r.stdout)
        outputs.append(runs)
    assert outputs[0] == outputs[1]
    assert b"refless" in outputs[0][0] and b"lib3-renamed" in outputs[0][1]


def _spdx_sides(rng):
    """Two SPDX documents with shuffled packages and relationships, repeated
    names, twins that differ only in id, and one relationship listed twice."""
    sides = []
    for rename in ("pkg3", "pkg3-renamed"):
        packages = [
            {"SPDXID": f"SPDXRef-{i}", "name": rename if i == 3 else f"pkg{i % 5}",
             "versionInfo": "1", "supplier": f"Organization: Org{i % 3}",
             "externalRefs": [{"referenceType": "purl",
                               "referenceLocator": f"pkg:pypi/pkg{i}@1"}],
             "checksums": [{"algorithm": "SHA256", "checksumValue": f"{i:02x}" * 32}]}
            for i in range(10)
        ]
        packages += [{"SPDXID": f"SPDXRef-twin{i}", "name": "twin", "versionInfo": "2"}
                     for i in range(3)]
        rels = [{"spdxElementId": f"SPDXRef-{i}", "relatedSpdxElement": f"SPDXRef-{j}",
                 "relationshipType": kind}
                for i in range(10) for j, kind in ((i + 1, "DEPENDS_ON"), (i + 4, "CONTAINS"))
                if j < 10]
        rels += [{"spdxElementId": "SPDXRef-0", "relatedSpdxElement": f"SPDXRef-twin{i}",
                  "relationshipType": "CONTAINS"} for i in (0, 1, 2, 1)]
        rels.append({"spdxElementId": "SPDXRef-DOCUMENT", "relatedSpdxElement": "SPDXRef-0",
                     "relationshipType": "DESCRIBES"})
        rng.shuffle(packages)
        rng.shuffle(rels)
        sides.append(json.dumps({"spdxVersion": "SPDX-2.3", "packages": packages,
                                 "relationships": rels}))
    return sides


def _hbom_sides(rng):
    """Two HBOM CSV tables with shuffled data rows: quantities, rows that fold
    and children listed before their parents."""
    sides = []
    for rename in ("cap", "capacitor"):
        rows = [f"r{i},{rename if i == 5 else f'part{i % 4}'},{f'r{i // 3}' if i else ''},"
                f"vendor{i % 2},{1 + i % 3}" for i in range(16)]
        rows += ["x1,screw,r1,acme,2", "x2,screw,r1,acme,3"]
        rng.shuffle(rows)
        sides.append("\n".join(["ref,name,parent,vendor,quantity", *rows]) + "\n")
    return sides


@pytest.mark.parametrize("sides, suffix", [(_spdx_sides, ".json"), (_hbom_sides, ".csv")],
                         ids=["spdx", "hbom"])
def test_spdx_and_hbom_output_is_independent_of_input_order(tmp_path, monkeypatch, sides,
                                                             suffix):
    left, right = f"left{suffix}", f"right{suffix}"
    outputs = []
    for order_seed in (1, 2):
        here = tmp_path / f"order{order_seed}"  # outputs name the input paths
        here.mkdir()
        for name, text in zip((left, right), sides(random.Random(order_seed))):
            (here / name).write_text(text)
        monkeypatch.chdir(here)
        runs = [invoke("inspect", left), invoke("compare", left, right),
                invoke("graph", "--format", "dot", left, right)]
        assert [code for code, _, _ in runs] == [0, 1, 1]
        assert all(err == "" for _, _, err in runs)
        outputs.append([out for _, out, _ in runs])
    assert (tmp_path / "order1" / left).read_text() != (tmp_path / "order2" / left).read_text()
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("argv", [["graph"], ["graph", "--format", "dot"],
                                  ["compare", "--fuzzy"]])
def test_lone_surrogate_name_is_escaped_on_stdout(tmp_path, argv):
    # "\ud800" is valid JSON but no encoding can write it; stdout escapes it
    # the way Python's stderr does instead of dying in the middle of a write
    for side, tail in (("left", "x"), ("right", "y")):
        (tmp_path / f"{side}.json").write_text(json.dumps({
            "bomFormat": "CycloneDX", "specVersion": "1.5",
            "components": [{"bom-ref": "a", "name": f"lib\ud800{tail}"}],
        }))
    src = str(Path(bomdiff.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    r = subprocess.run(
        [sys.executable, "-m", "bomdiff.cli", *argv, "left.json", "right.json"],
        capture_output=True, cwd=tmp_path, env=env,
    )
    assert (r.returncode, r.stderr) == (1, b"")
    assert b"lib\\ud800x" in r.stdout and b"lib\\ud800y" in r.stdout
