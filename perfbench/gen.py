"""Seeded input generator for the bomdiff benchmark.

Writes a left/right BOM pair for one workload plus ``manifest.json``, the
ground truth of what was planted: renames, version bumps, duplicates,
removed and added subtrees, cycles and quantity changes, and the counts
bomdiff must report for them. The same (workload, seed) always gives
byte-identical files.

    python3 perfbench/gen.py --workload sbom-flat --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
from pathlib import Path

GENERATOR_VERSION = 2

_SYLLABLES = (
    "ba be bi bo bu ca ce ci co cu da de di do du fa fe fi fo fu ga ge gi go "
    "gu ha he hi ho ka ke ki ko ku la le li lo lu ma me mi mo mu na ne ni no "
    "nu pa pe pi po pu ra re ri ro ru sa se si so su ta te ti to tu va ve vi "
    "vo za ze zi zo"
).split()

_LICENSES = (
    "MIT", "MIT", "MIT", "Apache-2.0", "Apache-2.0", "BSD-3-Clause",
    "BSD-2-Clause", "ISC", "MPL-2.0", "EPL-2.0", "LGPL-2.1-only",
)
# Appears only on the right side of sbom-flat, so `licenses` must report it.
NEW_LICENSE = "BUSL-1.1"


class _Names:
    """Unique package-like names ("kabotu-remi") drawn from one rng."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set()

    def word(self, syllables: int = 3) -> str:
        return "".join(self.rng.choice(_SYLLABLES) for _ in range(syllables))

    def fresh(self) -> str:
        while True:
            name = f"{self.word()}-{self.word(2)}"
            if name not in self.used:
                self.used.add(name)
                return name

    def variant(self, name: str) -> str:
        """A rename a human would recognize: a short suffix or one deleted
        letter. Names here are at least 10 characters, which keeps the
        Jaro-Winkler score of the pair above 0.9."""
        while True:
            if self.rng.random() < 0.5:
                new = name + self.rng.choice(("-ng", "2", "-x", "js", "-v2"))
            else:
                letters = [i for i in range(2, len(name) - 1) if name[i] != "-"]
                i = self.rng.choice(letters)
                new = name[:i] + name[i + 1:]
            if new not in self.used:
                self.used.add(new)
                return new


def _digest(*parts) -> str:
    return hashlib.sha256(":".join(map(str, parts)).encode()).hexdigest()


def _version(rng: random.Random) -> str:
    return f"{rng.randrange(0, 6)}.{rng.randrange(0, 20)}.{rng.randrange(0, 10)}"


def _bump(version: str) -> str:
    major, minor, patch = version.split(".")
    return f"{major}.{int(minor) + 1}.{patch}"


def _dump_json(doc) -> bytes:
    return (json.dumps(doc, indent=1) + "\n").encode()


def _cdx_entry(c: dict, ecosystem: str) -> dict:
    purl = f"pkg:{ecosystem}/{c['org']}/{c['name']}@{c['version']}"
    return {
        "type": "library",
        "bom-ref": purl,
        "name": c["name"],
        "version": c["version"],
        "purl": purl,
        "supplier": {"name": c["vendor"]},
        "licenses": [{"license": {"id": c["license"]}}],
        "hashes": [{"alg": "SHA-256", "content": c["digest"]}],
    }


def _cdx_doc(entries, dependencies=None) -> dict:
    """A CycloneDX document whose subject (metadata.component) is "app"."""
    doc = {
        "bomFormat": "CycloneDX",
        "specVersion": "1.5",
        "version": 1,
        "metadata": {"component": {"type": "application", "bom-ref": "app", "name": "app",
                                   "version": "1.0.0"}},
        "components": entries,
    }
    if dependencies is not None:
        doc["dependencies"] = dependencies
    return doc


# ----------------------------------------------------------------- sbom-flat


def _flat(rng: random.Random, names: _Names, n: int = 1400):
    orgs = sorted({f"{rng.choice(('com', 'org', 'io', 'net'))}.{names.word(2)}" for _ in range(40)})
    vendor_of = {o: o.split(".")[1].title() + " Labs" for o in orgs}
    left = []
    for _ in range(n):
        org = rng.choice(orgs)
        name = names.fresh()
        version = _version(rng)
        left.append({
            "name": name, "version": version, "org": org, "vendor": vendor_of[org],
            "license": rng.choice(_LICENSES), "digest": _digest("flat", name, version),
        })

    n_renamed, n_bumped = n * 5 // 100, n * 3 // 100
    picks = rng.sample(range(n), n_renamed + n_bumped + 8 + 6 + 6 + 12)
    renamed, picks = picks[:n_renamed], picks[n_renamed:]
    bumped, picks = picks[:n_bumped], picks[n_bumped:]
    moved, picks = picks[:8], picks[8:]
    relicensed, picks = picks[:6], picks[6:]
    duplicated, purlless = picks[:6], picks[6:]
    new_orgs = []
    while len(new_orgs) < 2:
        org = f"dev.{names.word(3)}"
        if org not in orgs and org not in new_orgs:
            new_orgs.append(org)

    right = [dict(c) for c in left]
    renames = []
    for k, i in enumerate(sorted(renamed)):
        c = right[i]
        c["name"] = names.variant(c["name"])
        keeps = k % 2 == 0
        if not keeps:
            c["digest"] = _digest("flat-renamed", c["name"], c["version"])
        renames.append([left[i]["name"], c["name"], keeps])
    for i in bumped:
        c = right[i]
        c["version"] = _bump(c["version"])
        c["digest"] = _digest("flat-bumped", c["name"], c["version"])
    for k, i in enumerate(sorted(moved)):
        right[i]["org"] = new_orgs[k % 2]
    for i in relicensed:
        right[i]["license"] = NEW_LICENSE

    def package(c, sid, with_purl=True):
        pkg = {
            "SPDXID": sid,
            "name": c["name"],
            "versionInfo": c["version"],
            "downloadLocation": "NOASSERTION",
            "supplier": f"Organization: {c['vendor']}",
            "licenseConcluded": c["license"],
            "checksums": [{"algorithm": "SHA256", "checksumValue": c["digest"]}],
        }
        if with_purl:
            pkg["externalRefs"] = [{
                "referenceCategory": "PACKAGE-MANAGER",
                "referenceType": "purl",
                "referenceLocator": f"pkg:maven/{c['org']}/{c['name']}@{c['version']}",
            }]
        return pkg

    no_purl = set(purlless)
    packages = [package(c, f"SPDXRef-Package-{i}", i not in no_purl) for i, c in enumerate(right)]
    packages += [package(right[i], f"SPDXRef-Package-{i}-copy") for i in duplicated]
    rng.shuffle(packages)
    packages.insert(0, {"SPDXID": "SPDXRef-app", "name": "app", "versionInfo": "1.0.0",
                        "downloadLocation": "NOASSERTION"})
    relationships = [{"spdxElementId": "SPDXRef-DOCUMENT", "relationshipType": "DESCRIBES",
                      "relatedSpdxElement": "SPDXRef-app"}]
    relationships += [{"spdxElementId": "SPDXRef-app", "relationshipType": "DEPENDS_ON",
                       "relatedSpdxElement": p["SPDXID"]} for p in packages[1:]]
    spdx = {
        "spdxVersion": "SPDX-2.3",
        "dataLicense": "CC0-1.0",
        "SPDXID": "SPDXRef-DOCUMENT",
        "name": "app-right",
        "documentNamespace": "https://example.invalid/bomdiff-bench/right",
        "packages": packages,
        "relationships": relationships,
    }
    cdx = _cdx_doc([_cdx_entry(c, "maven") for c in left])
    planted = {
        "renames": renames,
        "bumps": sorted(left[i]["name"] for i in bumped),
        "duplicates": sorted(left[i]["name"] for i in duplicated),
        "purlless": sorted(left[i]["name"] for i in purlless),
        "orgs_gained": sorted(new_orgs),
        "relicensed": sorted(left[i]["name"] for i in relicensed),
        "new_license": NEW_LICENSE,
        "digest_renames": sorted(
            f"SHA256:{left[i]['digest']}" for k, i in enumerate(sorted(renamed)) if k % 2 == 0
        ),
    }
    expect = {
        # the subject is a component too; duplicate rows dedup away
        "left": {"components": n + 1, "relationships": n, "unique_names": n + 1},
        "right": {"components": n + 1, "relationships": n, "unique_names": n + 1,
                  "unique_hashes": n, "subject": "SPDXRef-app"},
    }
    files = {
        "left": ("left.cdx.json", "cyclonedx-json", _dump_json(cdx), n + 1),
        "right": ("right.spdx.json", "spdx-json", _dump_json(spdx), len(packages)),
    }
    return files, planted, expect


# ---------------------------------------------------------------- sbom-fuzzy


def _fuzzy(rng: random.Random, names: _Names, n: int = 500):
    left = []
    for _ in range(n):
        name = names.fresh()
        version = _version(rng)
        left.append({
            "name": name, "version": version, "org": "npmjs", "vendor": "npm",
            "license": rng.choice(_LICENSES), "digest": _digest("fuzzy", name, version),
        })
    right = [dict(c) for c in left]
    renames = []
    for i in sorted(rng.sample(range(n), n // 10)):
        right[i]["name"] = names.variant(left[i]["name"])
        right[i]["digest"] = _digest("fuzzy-renamed", right[i]["name"])
        renames.append([left[i]["name"], right[i]["name"]])
    rng.shuffle(right)
    files = {
        "left": ("left.cdx.json", "cyclonedx-json",
                 _dump_json(_cdx_doc([_cdx_entry(c, "npm") for c in left])), n + 1),
        "right": ("right.cdx.json", "cyclonedx-json",
                  _dump_json(_cdx_doc([_cdx_entry(c, "npm") for c in right])), n + 1),
    }
    return files, {"renames": renames}, {}


# ---------------------------------------------------------------- sbom-graph


def _graph(rng: random.Random, names: _Names, tree: int = 5820, assemblies: int = 60):
    """4-ary dependency tree under metadata.component plus nested assemblies.

    Node 0 is the subject; node i > 0 hangs off node (i - 1) // 4. Parts
    nested in an assembly's ``components`` array give CONTAINS edges.
    """
    nodes = [{"name": "app", "version": "1.0.0", "parent": None, "kind": "subject"}]
    for i in range(1, tree + 1):
        nodes.append({"name": names.fresh(), "version": _version(rng),
                      "parent": (i - 1) // 4, "kind": "dep"})
    for a in sorted(rng.sample(range(1, tree + 1), assemblies)):
        for _ in range(3):
            nodes.append({"name": names.fresh(), "version": _version(rng),
                          "parent": a, "kind": "part"})
    children: dict[int, list[int]] = {}
    for i, nd in enumerate(nodes):
        if nd["parent"] is not None:
            children.setdefault(nd["parent"], []).append(i)
    depth = [0] * len(nodes)
    for i in range(1, len(nodes)):
        depth[i] = depth[nodes[i]["parent"]] + 1

    def subtree(i):
        out, stack = [], [i]
        while stack:
            j = stack.pop()
            out.append(j)
            stack.extend(children.get(j, ()))
        return out

    removed_root = rng.choice([i for i in range(1, tree + 1) if depth[i] == 4])
    removed = set(subtree(removed_root))
    added_parent = rng.choice(
        [i for i in range(1, tree + 1) if depth[i] == 3 and i not in removed
         and nodes[removed_root]["parent"] != i]
    )
    # At most one renamed child per parent, and none beside the removed or
    # added subtree root, so every rename under a matched parent is the only
    # free pair there and must come out as a fuzzy link. Renames hit nodes
    # with at most 4 descendants: phase 1 never descends below a renamed
    # node, so a rename near the root would make the matched share, and with
    # it the work per run, swing from seed to seed.
    blocked_parents = {nodes[removed_root]["parent"], added_parent}
    renamed: list[int] = []
    for i in rng.sample(range(1, len(nodes)), len(nodes) - 1):
        if len(renamed) == len(nodes) // 20:
            break
        p = nodes[i]["parent"]
        if (i in removed or i == added_parent or p in blocked_parents
                or len(subtree(i)) > 5):
            continue
        blocked_parents.add(p)
        renamed.append(i)
    renamed_set = set(renamed)
    bump_pool = [i for i in range(1, len(nodes)) if i not in removed and i not in renamed_set]
    bumped = set(rng.sample(bump_pool, len(nodes) * 3 // 100))

    right = [dict(nd) for nd in nodes]
    for i in renamed:
        right[i]["name"] = names.variant(nodes[i]["name"])
    for i in bumped:
        right[i]["version"] = _bump(nodes[i]["version"])
    for i in removed:
        right[i] = None
    added_root = len(right)
    for k in range(40):
        parent = added_parent if k == 0 else added_root + (k - 1) // 4
        right.append({"name": names.fresh(), "version": _version(rng), "parent": parent,
                      "kind": "dep"})

    def document(side, salt):
        kids: dict[int, list[int]] = {}
        for i, nd in enumerate(side):
            if nd is not None and nd["parent"] is not None:
                kids.setdefault(nd["parent"], []).append(i)
        ref = {}
        entry = {}
        for i, nd in enumerate(side):
            if nd is None or i == 0:
                continue
            c = {"name": nd["name"], "version": nd["version"], "org": "graph",
                 "vendor": "Graph Co", "license": "MIT",
                 "digest": _digest(salt, nd["name"], nd["version"])}
            entry[i] = _cdx_entry(c, "npm")
            ref[i] = entry[i]["bom-ref"]
        ref[0] = "app"
        top = []
        for i in sorted(entry):
            parts = [j for j in kids.get(i, ()) if side[j]["kind"] == "part"]
            if parts:
                entry[i]["components"] = [entry[j] for j in parts]
            if side[i]["kind"] != "part":
                top.append(entry[i])
        rng.shuffle(top)
        deps = []
        for i in sorted(kids):
            dep_kids = [ref[j] for j in kids[i] if side[j]["kind"] != "part"]
            if dep_kids:
                deps.append({"ref": ref[i], "dependsOn": dep_kids})
        return _cdx_doc(top, deps), len(entry) + 1

    left_doc, left_rows = document(nodes, "graph")
    right_doc, right_rows = document(right, "graph")

    def eligible(i):
        p = nodes[i]["parent"]
        while p is not None:
            if p in renamed_set:
                return False
            p = nodes[p]["parent"]
        return True

    planted = {
        "renames": sorted([nodes[i]["name"], right[i]["name"]] for i in renamed),
        "eligible_renames": sorted([nodes[i]["name"], right[i]["name"]]
                                   for i in renamed if eligible(i)),
        "bumps": sorted(nodes[i]["name"] for i in bumped),
        "removed_subtree": {"root": nodes[removed_root]["name"], "size": len(removed)},
        "added_subtree": {"root": right[added_root]["name"],
                          "parent": nodes[added_parent]["name"], "size": 40},
    }
    # Every component becomes one graph node and the subject reaches all of
    # them, so no synthetic root is added.
    expect = {"left": {"nodes": left_rows}, "right": {"nodes": right_rows}}
    files = {
        "left": ("left.cdx.json", "cyclonedx-json", _dump_json(left_doc), left_rows),
        "right": ("right.cdx.json", "cyclonedx-json", _dump_json(right_doc), right_rows),
    }
    return files, planted, expect


# ------------------------------------------------------------- hbom-assembly

_PART_KINDS = ("RES", "CAP", "IND", "IC", "CONN", "LED", "DIODE", "XTAL", "FET", "FUSE")
_PACKAGES = ("0402", "0603", "0805", "1206", "SOT23", "QFN32", "SOIC8", "TSSOP20")


def _part_quantity(rng: random.Random) -> int:
    r = rng.random()
    if r < 0.65:
        return rng.randint(1, 4)
    if r < 0.88:
        return rng.randint(5, 24)
    return rng.randint(25, 100)


def _hbom(rng: random.Random, names: _Names, rows_total: int = 1600,
          products: int = 6, boards: int = 156, repeats: int = 32, cycles: int = 10):
    pool = set()
    while len(pool) < 320:
        pool.add(f"{rng.choice(_PART_KINDS)}-{rng.choice(_PACKAGES)}-{rng.randrange(1, 1000)}")
    pool = sorted(pool)
    vendor_of = {p: rng.choice(("Murata", "TDK", "Vishay", "Yageo", "TI", "ST", "NXP",
                                "Molex", "Bourns")) for p in pool}

    # The seed picks names only. Quantities and which rows repeat, form
    # cycles or change come from a fixed stream: the phase-2 candidates of a
    # renamed part grow with the square of its quantity, so letting the seed
    # choose them would swing time and memory from seed to seed.
    shape = random.Random("hbom-assembly:shape")
    parts_total = rows_total - products - boards - repeats
    part_q = [_part_quantity(shape) for _ in range(parts_total)]
    board_q = shape.choices((1, 2, 3), (70, 20, 10), k=boards)

    rows = []  # dicts: ref, name, parent, vendor, quantity
    for i in range(products):
        rows.append({"ref": f"P{i:03d}", "name": f"PRD-{i}-{names.word(3).upper()}",
                     "parent": "", "vendor": "Acme", "quantity": 1})
    board_refs = []
    for i in range(boards):
        ref = f"B{i:04d}"
        board_refs.append(ref)
        rows.append({"ref": ref, "name": f"BRD-{names.word(2).upper()}-{i}",
                     "parent": f"P{i % products:03d}", "vendor": "Acme",
                     "quantity": board_q[i]})
    part_rows = []
    per_board = [parts_total // boards + (1 if b < parts_total % boards else 0)
                 for b in range(boards)]
    for b, count in enumerate(per_board):
        for name in rng.sample(pool, count):
            part_rows.append({"ref": f"X{len(part_rows):05d}", "name": name,
                              "parent": board_refs[b], "vendor": vendor_of[name],
                              "quantity": part_q[len(part_rows)]})

    # Mis-entered parent refs: a board names one of its own parts as parent.
    cycle_boards = shape.sample(range(boards), cycles)
    cycle_parts = set()
    cycle_pairs = []
    by_board: dict[str, list[dict]] = {}
    for r in part_rows:
        by_board.setdefault(r["parent"], []).append(r)
    for b in sorted(cycle_boards):
        part = shape.choice(by_board[board_refs[b]])
        cycle_parts.add(part["ref"])
        rows[products + b]["parent"] = part["ref"]
        cycle_pairs.append([board_refs[b], part["ref"]])

    repeat_rows = []
    for r in shape.sample([r for r in part_rows if r["ref"] not in cycle_parts], repeats):
        repeat_rows.append({"ref": f"X{len(part_rows) + len(repeat_rows):05d}",
                            "name": r["name"], "parent": r["parent"], "vendor": r["vendor"],
                            "quantity": shape.randint(1, 10)})
    left_rows = rows + part_rows + repeat_rows

    right_rows = [dict(r) for r in left_rows]
    repeated = {(r["name"], r["parent"]) for r in repeat_rows}
    right_parts = right_rows[len(rows):]
    stable = [r for r in right_parts[:len(part_rows)]
              if (r["name"], r["parent"]) not in repeated and r["ref"] not in cycle_parts]
    changed = shape.sample(stable, len(part_rows) // 10)
    renamed, requantified = changed[: len(changed) // 2], changed[len(changed) // 2:]
    siblings: dict[str, set[str]] = {}
    for r in right_parts:
        siblings.setdefault(r["parent"], set()).add(r["name"])
    for r in renamed:
        new = f"{r['name']}-R{rng.randrange(2, 9)}"
        while new in siblings[r["parent"]]:
            new += "A"
        siblings[r["parent"]].add(new)
        r["name"] = new
    for r in requantified:
        r["quantity"] = r["quantity"] + shape.choice((-1, 1)) * shape.randint(1, 3)
        if r["quantity"] < 1:
            r["quantity"] += 4

    def csv_bytes(table):
        lines = ["ref,name,parent,vendor,quantity"]
        lines += [f"{r['ref']},{r['name']},{r['parent']},{r['vendor']},{r['quantity']}"
                  for r in table]
        return ("\n".join(lines) + "\n").encode()

    with_parent = sum(1 for r in left_rows if r["parent"])
    planted = {
        "repeats": repeats,
        "cycles": cycle_pairs,
        "renamed_parts": sorted(r["ref"] for r in renamed),
        "quantity_changes": sorted(r["ref"] for r in requantified),
    }
    # Folding preserves total quantity and the graph adds one synthetic root.
    expect = {
        "left": {"components": len(left_rows) - repeats,
                 "relationships": with_parent - repeats,
                 "nodes": sum(r["quantity"] for r in left_rows) + 1},
        "right": {"nodes": sum(r["quantity"] for r in right_rows) + 1},
    }
    files = {
        "left": ("left.csv", "generic-hbom", csv_bytes(left_rows), len(left_rows)),
        "right": ("right.csv", "generic-hbom", csv_bytes(right_rows), len(right_rows)),
    }
    return files, planted, expect


_BY_WORKLOAD = {"sbom-flat": _flat, "sbom-fuzzy": _fuzzy, "sbom-graph": _graph,
             "hbom-assembly": _hbom}
WORKLOADS = tuple(_BY_WORKLOAD)


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write both inputs and manifest.json into ``out``; return the manifest."""
    rng = random.Random(f"{workload}:{seed}")
    files, planted, expect = _BY_WORKLOAD[workload](rng, _Names(rng))
    out.mkdir(parents=True, exist_ok=True)
    manifest = {"generator": GENERATOR_VERSION, "workload": workload, "seed": seed,
                "files": {}, "planted": planted, "expect": expect}
    for side, (name, fmt, data, rows) in files.items():
        (out / name).write_bytes(data)
        manifest["files"][side] = {"path": name, "format": fmt, "rows": rows,
                                   "bytes": len(data),
                                   "sha256": hashlib.sha256(data).hexdigest()}
    # Written last: its presence marks a complete input set.
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    return manifest


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)
    generate(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
