"""Tests of the benchmark's input generator.

    PYTHONPATH=src python3 -m pytest perfbench
"""

import json

import pytest

import gen
from bomdiff import graphcompare, ingest


@pytest.fixture(scope="module", params=gen.WORKLOADS)
def generated(request, tmp_path_factory):
    out = tmp_path_factory.mktemp(request.param)
    return out, gen.generate(request.param, 7, out)


def test_same_seed_gives_identical_files(generated, tmp_path):
    out, manifest = generated
    again = gen.generate(manifest["workload"], 7, tmp_path)
    assert again == manifest
    for f in manifest["files"].values():
        assert (tmp_path / f["path"]).read_bytes() == (out / f["path"]).read_bytes()
    assert (tmp_path / "manifest.json").read_bytes() == (out / "manifest.json").read_bytes()


def test_other_seed_gives_other_files(generated, tmp_path):
    out, manifest = generated
    other = gen.generate(manifest["workload"], 8, tmp_path)
    assert other["files"]["left"]["sha256"] != manifest["files"]["left"]["sha256"]


def test_files_are_detected_as_their_format(generated):
    out, manifest = generated
    for f in manifest["files"].values():
        assert ingest.detect_format((out / f["path"]).read_bytes()).value == f["format"]


def _raw_rows(path, fmt) -> int:
    if fmt == "generic-hbom":
        return len(path.read_text().splitlines()) - 1
    data = json.loads(path.read_bytes())
    if fmt == "spdx-json":
        return len(data["packages"])
    nested = sum(len(c.get("components", [])) for c in data["components"])
    return len(data["components"]) + nested + 1  # + metadata.component


def test_row_counts_match_manifest(generated):
    out, manifest = generated
    for f in manifest["files"].values():
        assert _raw_rows(out / f["path"], f["format"]) == f["rows"]
        assert (out / f["path"]).stat().st_size == f["bytes"]


PLANTED_COUNTS = {
    "sbom-flat": {"renames": 70, "bumps": 42, "duplicates": 6, "purlless": 12,
                  "relicensed": 6, "digest_renames": 35, "orgs_gained": 2},
    "sbom-fuzzy": {"renames": 50},
    "sbom-graph": {"renames": 300, "bumps": 180},
    "hbom-assembly": {"cycles": 10, "renamed_parts": 70, "quantity_changes": 70},
}


def test_planted_counts(generated):
    _, manifest = generated
    for key, n in PLANTED_COUNTS[manifest["workload"]].items():
        assert len(manifest["planted"][key]) == n, key


def test_normalized_counts_match_expectations(generated):
    out, manifest = generated
    for side, want in manifest["expect"].items():
        doc = ingest.load_document(out / manifest["files"][side]["path"])
        if "components" in want:
            assert len(doc.components) == want["components"]
        if "relationships" in want:
            assert len(doc.relationships) == want["relationships"]
        if "nodes" in want:
            assert len(graphcompare.build_graph(doc).nodes) == want["nodes"]


def test_graph_subtrees_account_for_node_counts(generated):
    _, manifest = generated
    if manifest["workload"] != "sbom-graph":
        pytest.skip("sbom-graph only")
    p, nodes = manifest["planted"], manifest["expect"]
    assert nodes["right"]["nodes"] == (
        nodes["left"]["nodes"] - p["removed_subtree"]["size"] + p["added_subtree"]["size"]
    )
    assert 0 < len(p["eligible_renames"]) <= len(p["renames"])
