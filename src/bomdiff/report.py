"""Rendering: fixed-width tables, stable JSON, and DOT graph export.

All renderers are pure and byte-deterministic; anything unordered is sorted
before it reaches the output. Colors are pinned as hex values so golden
files survive tool upgrades.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum

from bomdiff.flatcompare import (
    ConsistencyCategory,
    ConsistencyFinding,
    FieldSelector,
    MultisetDiff,
)
from bomdiff.fuzzy import FuzzyMatch
from bomdiff.graphcompare import BomGraph, MergedGraph, match_stats

SCHEMA_VERSION = "1"

# (list row label, unique row label) per field
_LABELS = {
    FieldSelector.NAME: ("Name", "Unique Names"),
    FieldSelector.PURL: ("Purls", "Unique Purls"),
    FieldSelector.CPE: ("CPEs", "Unique CPEs"),
    FieldSelector.VENDOR: ("Vendors", "Unique Vendors"),
    FieldSelector.LICENSE: ("Licenses", "Unique Licenses"),
    FieldSelector.HASH_DIGEST: ("Hashes", "Unique Hashes"),
    FieldSelector.ORGANIZATION: ("Organizations", "Unique Organizations"),
}


@dataclass(frozen=True)
class DiffReport:
    source_names: tuple[str, str]
    field_diffs: dict[FieldSelector, MultisetDiff] = field(default_factory=dict)
    fuzzy: tuple[FuzzyMatch, ...] = ()
    graph: MergedGraph | None = None
    findings: tuple[ConsistencyFinding, ...] = ()
    hash_coverage: tuple[tuple[int, int], tuple[int, int]] | None = None

    def has_differences(self) -> bool:
        """Governs the CLI difference exit code: any only-bucket entry,
        fuzzy link, one-sided graph node, or non-consensus finding."""
        for diff in self.field_diffs.values():
            if diff.left_only or diff.right_only:
                return True
        if self.fuzzy:
            return True
        if self.graph is not None and (
            self.graph.left_only or self.graph.right_only or self.graph.fuzzy_links
        ):
            return True
        return any(
            f.category is not ConsistencyCategory.CONSENSUS for f in self.findings
        )


def render_table(report: DiffReport) -> str:
    """Text rendering: the field table, fuzzy matches, the merged graph,
    consistency findings, then hash coverage.

    Each section appears only when the report carries its data; sections
    are separated by a blank line.
    """
    sections = []
    if report.field_diffs:
        sections.append(_field_table(report))
    if report.fuzzy:
        sections.append(
            "fuzzy matches:\n"
            + "".join(f"  {m.score:.6f}  {m.left}  ~  {m.right}\n" for m in report.fuzzy)
        )
    if report.graph is not None:
        sections.append(_graph_text(report.graph))
    if report.findings:
        sections.append(
            "consistency findings:\n"
            + "".join(
                f"  [{f.category.value}] {f.detail}"
                f" (left: {', '.join(f.left_ids)}; right: {', '.join(f.right_ids)})\n"
                for f in report.findings
            )
        )
    if report.hash_coverage is not None:
        (lh, ln), (rh, rn) = report.hash_coverage
        sections.append(
            f"hash coverage: left {lh}/{lh + ln} components,"
            f" right {rh}/{rh + rn} components\n"
        )
    return "\n".join(sections)


def _field_table(report: DiffReport) -> str:
    """Fixed-width table: field, both totals, both only-counts.

    Each selected field contributes a count row and a unique-value row;
    the only-columns hold occurrences with no counterpart on the other
    side (for the unique row: values absent from the other side).
    """
    left_name, right_name = report.source_names
    header = [
        "Field",
        left_name,
        right_name,
        f"{left_name} (Only)",
        f"{right_name} (Only)",
    ]
    rows = [header]
    for sel in FieldSelector:
        diff = report.field_diffs.get(sel)
        if diff is None:
            continue
        list_label, unique_label = _LABELS[sel]
        rows.append(
            [
                list_label,
                str(diff.left_total),
                str(diff.right_total),
                str(diff.left_only_total),
                str(diff.right_only_total),
            ]
        )
        rows.append(
            [
                unique_label,
                str(diff.left_unique),
                str(diff.right_unique),
                str(len(diff.left_only)),
                str(len(diff.right_only)),
            ]
        )
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = []
    for r in rows:
        lines.append(
            " | ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip()
        )
        if r is header:
            lines.append("-+-".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def _node_names(merged: MergedGraph) -> tuple[dict[str, str], dict[str, str]]:
    """{node id: name} for the left graph and for the right graph."""
    return (
        {n.id: n.name for n in merged.left.nodes},
        {n.id: n.name for n in merged.right.nodes},
    )


def graph_stats_line(merged: MergedGraph) -> str:
    """The one-line partition summary, without a trailing newline."""
    stats = match_stats(merged)
    return (
        f"matched={stats.matched} left_only={stats.left_only} "
        f"right_only={stats.right_only} fuzzy={stats.fuzzy}"
    )


def _graph_text(merged: MergedGraph) -> str:
    """Stats line, sorted one-sided names, then fuzzy links with hints."""
    name_l, name_r = _node_names(merged)
    hints = {(l, r): hint for hint, (l, r) in classify_differences(merged)}
    lines = [graph_stats_line(merged)]
    if merged.left_only:
        lines.append("left only:")
        lines.extend(f"  {n}" for n in sorted(name_l[i] for i in merged.left_only))
    if merged.right_only:
        lines.append("right only:")
        lines.extend(f"  {n}" for n in sorted(name_r[i] for i in merged.right_only))
    if merged.fuzzy_links:
        lines.append("fuzzy links:")
        lines.extend(
            f"  {score:.6f}  {name_l[l]}  ~  {name_r[r]}  [{hints[(l, r)].value}]"
            for l, r, score in merged.fuzzy_links
        )
    return "\n".join(lines) + "\n"


def _diff_dict(diff: MultisetDiff) -> dict:
    return {
        "left_total": diff.left_total,
        "right_total": diff.right_total,
        "left_unique": diff.left_unique,
        "right_unique": diff.right_unique,
        "left_only_total": diff.left_only_total,
        "right_only_total": diff.right_only_total,
        "common": {v: list(c) for v, c in sorted(diff.common.items())},
        "left_only": dict(sorted(diff.left_only.items())),
        "right_only": dict(sorted(diff.right_only.items())),
    }


def _graph_dict(merged: MergedGraph) -> dict:
    stats = match_stats(merged)
    name_l, name_r = _node_names(merged)
    hints = {(l, r): hint for hint, (l, r) in classify_differences(merged)}
    return {
        "stats": {
            "matched": stats.matched,
            "left_only": stats.left_only,
            "right_only": stats.right_only,
            "fuzzy": stats.fuzzy,
        },
        "left_only": sorted(name_l[n] for n in merged.left_only),
        "right_only": sorted(name_r[n] for n in merged.right_only),
        "fuzzy_links": [
            {
                "left": name_l[l],
                "right": name_r[r],
                "score": round(score, 9),
                "hint": hints[(l, r)].value,
            }
            for l, r, score in merged.fuzzy_links
        ],
    }


def render_json(report: DiffReport) -> str:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "source_names": list(report.source_names),
        "field_diffs": {
            sel.value: _diff_dict(diff)
            for sel, diff in sorted(
                report.field_diffs.items(), key=lambda kv: kv[0].value
            )
        },
        "fuzzy": [
            {"left": m.left, "right": m.right, "score": round(m.score, 9)}
            for m in report.fuzzy
        ],
        "graph": _graph_dict(report.graph) if report.graph is not None else None,
        "findings": [
            {
                "category": f.category.value,
                "left_ids": list(f.left_ids),
                "right_ids": list(f.right_ids),
                "detail": f.detail,
            }
            for f in report.findings
        ],
        "hash_coverage": (
            {
                "left": {"hashed": report.hash_coverage[0][0], "unhashed": report.hash_coverage[0][1]},
                "right": {"hashed": report.hash_coverage[1][0], "unhashed": report.hash_coverage[1][1]},
            }
            if report.hash_coverage is not None
            else None
        ),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@dataclass(frozen=True)
class DotStyle:
    matched: str = "#6baed6"       # blue: in both inputs
    left_only: str = "#fa9fb5"     # pink: first input only
    right_only: str = "#ffd92f"    # yellow: second input only
    fuzzy_edge: str = "#ffd92f"
    fuzzy_penwidth: float = 3.0


def _dot_escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


def to_dot(merged: MergedGraph, style: DotStyle = DotStyle()) -> str:
    """Graphviz digraph of the merged node partition.

    Matched pairs collapse to one blue node; one-sided nodes keep their
    side's color; fuzzy links render as thick yellow dir=none edges on top
    of the solid structural edges.
    """
    name_l, name_r = _node_names(merged)

    ids: dict[tuple[str, str], str] = {}
    lines = ["digraph merged {", "  node [shape=box, style=filled];"]

    def add(ref: tuple[str, str], label: str, color: str):
        nid = f"n{len(ids)}"
        ids[ref] = nid
        lines.append(f'  {nid} [label="{_dot_escape(label)}", fillcolor="{color}"];')

    for l, r in merged.pairs:
        add(("both", l), name_l[l], style.matched)
    for l in merged.left_only:
        add(("left", l), name_l[l], style.left_only)
    for r in merged.right_only:
        add(("right", r), name_r[r], style.right_only)

    for src, dst, _kind in merged.edges:
        lines.append(f"  {ids[src]} -> {ids[dst]};")
    for l, r, score in merged.fuzzy_links:
        lines.append(
            f"  {ids[('left', l)]} -> {ids[('right', r)]} "
            f'[dir=none, color="{style.fuzzy_edge}", '
            f"penwidth={style.fuzzy_penwidth}, "
            f'tooltip="{score:.6f}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_dot(graph: BomGraph, fill: str = "#6baed6") -> str:
    """Single-document DOT export; every node one color."""
    ids = {n.id: f"n{i}" for i, n in enumerate(graph.nodes)}
    lines = ["digraph bom {", "  node [shape=box, style=filled];"]
    for n in graph.nodes:
        lines.append(
            f'  {ids[n.id]} [label="{_dot_escape(n.name)}", fillcolor="{fill}"];'
        )
    for s, t, _kind in graph.edges:
        lines.append(f"  {ids[s]} -> {ids[t]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


class DifferenceHint(Enum):
    PREFIX_SPECIFICITY = "prefix-specificity"
    LIKELY_TRANSCRIPTION = "likely-transcription"
    SUBSTITUTION = "substitution"


_SEPARATORS = str.maketrans("", "", "-_./ ")


def _levenshtein(a: str, b: str) -> int:
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(
                min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb))
            )
        prev = cur
    return prev[-1]


def classify_differences(
    merged: MergedGraph,
) -> list[tuple[DifferenceHint, tuple[str, str]]]:
    """Heuristic hint per fuzzy link; an aid for review, not a verdict.

    Separator-stripped proper prefixes suggest one side recorded a more
    specific part number; near-equal lengths with at most two edits look
    like transcription slips; everything else is treated as a substituted
    part.
    """
    name_l, name_r = _node_names(merged)
    out = []
    for l, r, _score in merged.fuzzy_links:
        a, b = name_l[l], name_r[r]
        sa, sb = a.translate(_SEPARATORS), b.translate(_SEPARATORS)
        if sa != sb and (sa.startswith(sb) or sb.startswith(sa)):
            hint = DifferenceHint.PREFIX_SPECIFICITY
        elif abs(len(a) - len(b)) <= 1 and _levenshtein(a, b) <= 2:
            hint = DifferenceHint.LIKELY_TRANSCRIPTION
        else:
            hint = DifferenceHint.SUBSTITUTION
        out.append((hint, (l, r)))
    return out
