"""The four benchmark workloads: the command list of one pass, the exit code
each command must return, and the checks that tie its output to the
generator's manifest (see gen.py).

A check returns a list of problems; an empty list means the output is
correct. Checks read only stdout text and the manifest. run.py checks the
first pass this way; later passes, and the traced in-process run, must then
repeat that pass's stdout byte for byte.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]  # after `bomdiff`; LEFT/RIGHT stand for the input paths
    exit_code: int
    check: Callable[[str, dict], list[str]]

    def resolve(self, left: str, right: str) -> list[str]:
        return [left if a == "LEFT" else right if a == "RIGHT" else a for a in self.argv]


def _expect_equal(label, got, want) -> list[str]:
    return [] if got == want else [f"{label}: got {got!r}, want {want!r}"]


def _missing(label, wanted, got) -> list[str]:
    absent = sorted(set(wanted) - set(got))
    return [f"{label}: {len(absent)} missing, e.g. {absent[:3]}"] if absent else []


_FINDING = re.compile(r"^  \[([a-z-]+)\] (?:name '(.+?)' |digest (\S+) )")


def _findings_in_text(out: str) -> dict[str, set[str]]:
    found: dict[str, set[str]] = {}
    for line in out.splitlines():
        m = _FINDING.match(line)
        if m:
            found.setdefault(m.group(1), set()).add(m.group(2) or m.group(3))
    return found


def _inspect_counts(out: str) -> dict[str, str]:
    return dict(line.split(": ", 1) for line in out.splitlines() if ": " in line)


# ----------------------------------------------------------------- sbom-flat


def _check_compare_text(out, m):
    p = m["planted"]
    found = _findings_in_text(out)
    return (
        _expect_equal("same-name-different-hash names",
                      found.get("same-name-different-hash", set()), set(p["bumps"]))
        + _expect_equal("different-name-same-hash digests",
                        found.get("different-name-same-hash", set()), set(p["digest_renames"]))
    )


def _check_compare_set_json(out, m):
    doc = json.loads(out)
    names = doc["field_diffs"]["name"]
    renames = m["planted"]["renames"]
    by_cat: dict[str, int] = {}
    for f in doc["findings"]:
        by_cat[f["category"]] = by_cat.get(f["category"], 0) + 1
    return (
        _expect_equal("name left_only", set(names["left_only"]), {r[0] for r in renames})
        + _expect_equal("name right_only", set(names["right_only"]), {r[1] for r in renames})
        + _expect_equal("same-name-different-hash findings",
                        by_cat.get("same-name-different-hash", 0), len(m["planted"]["bumps"]))
        + _expect_equal("different-name-same-hash findings",
                        by_cat.get("different-name-same-hash", 0),
                        len(m["planted"]["digest_renames"]))
    )


def _check_orgs(out, m):
    gained = re.search(r"\ngained:\n((?:  .*\n)*)", out)
    got = {line.strip() for line in gained.group(1).splitlines()} if gained else set()
    return _expect_equal("orgs gained", got, set(m["planted"]["orgs_gained"])) + (
        ["orgs: unexpected 'lost:' section"] if "\nlost:\n" in out else []
    )


def _check_licenses(out, m):
    lic = m["planted"]["new_license"]
    lines = dict(line.split(": ", 1) for line in out.splitlines()
                 if line.startswith(("left licenses: ", "right licenses: ")))
    problems = []
    if lic not in lines.get("right licenses", "").split(", "):
        problems.append(f"licenses: {lic} missing on the right")
    if lic in lines.get("left licenses", "").split(", "):
        problems.append(f"licenses: {lic} reported on the left")
    return problems


def _check_inspect(side):
    def check(out, m):
        counts = _inspect_counts(out)
        want = m["expect"][side]
        problems = _expect_equal("format", counts.get("format", "").split(" ")[0],
                                 m["files"][side]["format"])
        for key in ("components", "relationships", "unique_names", "unique_hashes", "subject"):
            if key in want:
                problems += _expect_equal(key, counts.get(key.replace("_", " ")), str(want[key]))
        return problems
    return check


# ---------------------------------------------------------------- sbom-fuzzy

_FUZZY_LINE = re.compile(r"^  (\d\.\d{6})  (.+?)  ~  (.+?)(?:  \[[a-z-]+\])?$")


def _pairs_in_text(out: str, section: str) -> set[tuple[str, str]]:
    lines = out.split(f"\n{section}:\n", 1)
    if len(lines) < 2:
        return set()
    pairs = set()
    for line in lines[1].splitlines():
        mt = _FUZZY_LINE.match(line)
        if not mt:
            break
        pairs.add((mt.group(2), mt.group(3)))
    return pairs


def _check_fuzzy(out, m):
    planted = {tuple(r[:2]) for r in m["planted"]["renames"]}
    return _missing("planted renames among fuzzy matches", planted,
                    _pairs_in_text(out, "fuzzy matches"))


# ---------------------------------------------------------------- sbom-graph

_STATS = re.compile(r"^matched=(\d+) left_only=(\d+) right_only=(\d+) fuzzy=(\d+)$", re.M)


def _partition(stats, m) -> list[str]:
    matched, left_only, right_only = stats[:3]
    return (
        _expect_equal("matched + left_only", matched + left_only, m["expect"]["left"]["nodes"])
        + _expect_equal("matched + right_only", matched + right_only,
                        m["expect"]["right"]["nodes"])
    )


def _stats_from_text(out) -> tuple[int, ...] | None:
    mt = _STATS.search(out)
    return tuple(int(g) for g in mt.groups()) if mt else None


def _check_graph_stats(out, m):
    stats = _stats_from_text(out)
    return _partition(stats, m) if stats else ["graph: no stats line"]


def _check_graph_text(out, m):
    problems = _check_graph_stats(out, m)
    links = _pairs_in_text(out, "fuzzy links")
    planted = {tuple(r) for r in m["planted"]["eligible_renames"]}
    return problems + _expect_equal("fuzzy links vs renames under matched parents",
                                    links, planted)


def _check_graph_json(out, m):
    g = json.loads(out)["graph"]
    s = g["stats"]
    stats = (s["matched"], s["left_only"], s["right_only"], s["fuzzy"])
    return _partition(stats, m) + _expect_equal("fuzzy_links length", len(g["fuzzy_links"]),
                                                s["fuzzy"])


def _check_dot(out, m):
    # Matched pairs collapse to one (blue) node, so the nodes drawn are both
    # inputs' nodes minus the matched pairs.
    nodes = out.count(' [label="')
    matched = out.count('fillcolor="#6baed6"')
    want = m["expect"]["left"]["nodes"] + m["expect"]["right"]["nodes"] - matched
    return _expect_equal("dot nodes", nodes, want) + (
        [] if out.startswith("digraph merged {") else ["dot: bad header"]
    )


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS: dict[str, tuple[Command, ...]] = {
    "sbom-flat": (
        Command(("compare", "LEFT", "RIGHT"), 1, _check_compare_text),
        Command(("compare", "--mode", "set", "--format", "json", "LEFT", "RIGHT"), 1,
                _check_compare_set_json),
        Command(("orgs", "LEFT", "RIGHT"), 1, _check_orgs),
        Command(("licenses", "LEFT", "RIGHT"), 1, _check_licenses),
        Command(("inspect", "RIGHT"), 0, _check_inspect("right")),
    ),
    "sbom-fuzzy": (
        Command(("compare", "--fuzzy", "LEFT", "RIGHT"), 1, _check_fuzzy),
    ),
    "sbom-graph": (
        Command(("graph", "LEFT", "RIGHT"), 1, _check_graph_text),
        Command(("graph", "--format", "json", "LEFT", "RIGHT"), 1, _check_graph_json),
        Command(("graph", "--format", "dot", "LEFT", "RIGHT"), 1, _check_dot),
    ),
    "hbom-assembly": (
        Command(("inspect", "LEFT"), 0, _check_inspect("left")),
        Command(("graph", "--stats", "LEFT", "RIGHT"), 1, _check_graph_stats),
        Command(("graph", "--format", "dot", "LEFT", "RIGHT"), 1, _check_dot),
    ),
}
