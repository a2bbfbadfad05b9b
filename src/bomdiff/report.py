"""Rendering: every byte of CLI output except the --timestamp header.

Fixed-width tables and the command texts built on them, stable JSON, and
DOT graph export. All renderers are pure and byte-deterministic; anything
unordered is sorted before it reaches the output. Colors are pinned as hex
values so golden files survive tool upgrades.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING

from bomdiff.model import BomDocument, FieldSelector

if TYPE_CHECKING:  # only commands that build these load their modules
    from bomdiff.flatcompare import ConsistencyFinding, MultisetDiff
    from bomdiff.fuzzy import FuzzyMatch
    from bomdiff.graphcompare import MergedGraph

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
        g = self.graph
        if g is not None and (-1 in g.lmatch or -1 in g.rmatch or g.links):
            return True
        if not self.findings:
            return False
        from bomdiff.flatcompare import ConsistencyCategory

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
        sections.append(_coverage_line("hash", report.hash_coverage))
    return "\n".join(sections)


def _coverage_line(label: str, coverage) -> str:
    (lc, ln), (rc, rn) = coverage
    return (
        f"{label} coverage: left {lc}/{lc + ln} components,"
        f" right {rc}/{rc + rn} components\n"
    )


def render_summary(doc: BomDocument) -> str:
    """`inspect` text: provenance and sizes, then unique values per field."""
    from bomdiff import flatcompare

    version = f" {doc.spec_version}" if doc.spec_version else ""
    lines = [
        f"source: {doc.source_name}",
        f"format: {doc.format.value}{version}",
        f"components: {len(doc.components)}",
        f"relationships: {len(doc.relationships)}",
        f"subject: {doc.subject if doc.subject is not None else '(none)'}",
    ]
    for sel in FieldSelector:
        values = flatcompare.extract_field(doc, sel)
        lines.append(f"{_LABELS[sel][1].lower()}: {len(values)}")
    return "\n".join(lines) + "\n"


def render_orgs(report: DiffReport) -> str:
    """The organization table, then the gained and the lost organizations."""
    diff = report.field_diffs[FieldSelector.ORGANIZATION]
    text = render_table(report)
    for label, orgs in (("gained", diff.right_only), ("lost", diff.left_only)):
        if orgs:
            text += f"\n{label}:\n" + "".join(f"  {o}\n" for o in sorted(orgs))
    return text


def render_licenses(report: DiffReport, coverage) -> str:
    """The license table, the coverage line, then each side's licenses.

    ``coverage`` holds (licensed, unlicensed) component counts per side.
    """
    diff = report.field_diffs[FieldSelector.LICENSE]
    text = render_table(report) + "\n" + _coverage_line("license", coverage)
    for label, only in (("left", diff.left_only), ("right", diff.right_only)):
        listing = ", ".join(sorted(diff.common.keys() | only.keys())) or "(none)"
        text += f"{label} licenses: {listing}\n"
    return text


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


def _graph_names(merged: MergedGraph) -> tuple:
    """Sorted one-sided names per side, and (left name, right name,
    score, hint) per fuzzy link."""
    left, right = merged.left.nodes, merged.right.nodes
    return (
        sorted(left[i].name for i, j in enumerate(merged.lmatch) if j < 0),
        sorted(right[j].name for j, i in enumerate(merged.rmatch) if i < 0),
        [(left[i].name, right[j].name, s, h)
         for (i, j, s), (h, _) in zip(merged.links, classify_differences(merged))],
    )


def graph_stats_line(merged: MergedGraph) -> str:
    """The one-line partition summary."""
    from bomdiff.graphcompare import match_stats

    stats = match_stats(merged)._asdict().items()
    return " ".join(f"{k}={v}" for k, v in stats) + "\n"


def _graph_text(merged: MergedGraph) -> str:
    """Stats line, sorted one-sided names, then fuzzy links with hints."""
    left_only, right_only, links = _graph_names(merged)
    lines = []
    for label, names in (("left only:", left_only), ("right only:", right_only)):
        if names:
            lines += [label, *(f"  {n}" for n in names)]
    if links:
        lines.append("fuzzy links:")
        lines.extend(f"  {s:.6f}  {a}  ~  {b}  [{h.value}]" for a, b, s, h in links)
    return graph_stats_line(merged) + "".join(f"{line}\n" for line in lines)


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
    from bomdiff.graphcompare import match_stats

    left_only, right_only, links = _graph_names(merged)
    return {
        "stats": match_stats(merged)._asdict(),
        "left_only": left_only,
        "right_only": right_only,
        "fuzzy_links": [
            {"left": a, "right": b, "score": round(s, 9), "hint": h.value}
            for a, b, s, h in links
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
    """The fixed DOT palette."""

    matched: str = "#6baed6"       # blue: in both inputs
    left_only: str = "#fa9fb5"     # pink: first input only
    right_only: str = "#ffd92f"    # yellow: second input only
    fuzzy_edge: str = "#ffd92f"
    fuzzy_penwidth: float = 3.0


def _dot_escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


def to_dot(merged: MergedGraph) -> str:
    """Graphviz digraph of the merged node partition.

    Matched pairs collapse to one blue node; one-sided nodes keep their
    side's color; fuzzy links render as thick yellow dir=none edges on top
    of the solid structural edges.
    """
    style = DotStyle()
    left, right = merged.left.nodes, merged.right.nodes
    lrank, rrank, codes = merged.ranked
    lm = merged.lmatch
    nodes = [(lrank[i], left[i].name, style.left_only if lm[i] < 0 else style.matched)
             for i in sorted(range(len(lm)), key=lambda i: lm[i] < 0)]
    nodes += [(rrank[j], right[j].name, style.right_only)
              for j, i in enumerate(merged.rmatch) if i < 0]
    lines = ["digraph merged {", "  node [shape=box, style=filled];"]
    num = [0] * len(nodes)  # rank -> DOT node number
    for d, (rank, label, color) in enumerate(nodes):
        num[rank] = d
        lines.append(f'  n{d} [label="{_dot_escape(label)}", fillcolor="{color}"];')
    n = len(nodes)
    for c in codes:
        a, b = divmod(c >> 1, n)
        lines.append(f"  n{num[a]} -> n{num[b]};")
    for i, j, score in merged.links:
        lines.append(
            f"  n{num[lrank[i]]} -> n{num[rrank[j]]} "
            f'[dir=none, color="{style.fuzzy_edge}", '
            f"penwidth={style.fuzzy_penwidth}, "
            f'tooltip="{score:.6f}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


class DifferenceHint(Enum):
    PREFIX_SPECIFICITY = "prefix-specificity"
    LIKELY_TRANSCRIPTION = "likely-transcription"
    SUBSTITUTION = "substitution"


_SEPARATORS = str.maketrans("", "", "-_./ ")


def _within_edits(a: str, b: str, k: int) -> bool:
    """Whether the Levenshtein distance between a and b is at most k.

    Only the cells within k of the diagonal can hold a distance <= k, so
    each row computes just those 2k + 1 cells, with larger values held as
    k + 1, and the scan stops once a whole row exceeds k (E. Ukkonen,
    "Algorithms for approximate string matching", Information and Control
    64, 1985). O(k * len(a)) time and O(k) space.
    """
    n, m = len(a), len(b)
    if abs(n - m) > k:
        return False
    over = k + 1
    width = 2 * k + 1
    # row[d] is the distance between a[:i] and b[:j] for j = i - k + d.
    row = [d - k if k <= d <= k + m else over for d in range(width)]
    for i in range(1, n + 1):
        ca = a[i - 1]
        prev, row = row, [over] * width
        for d in range(max(0, k - i), min(width, k + m - i + 1)):
            j = i - k + d
            if j == 0:
                best = i
            else:
                best = prev[d] + (ca != b[j - 1])
                if d + 1 < width and prev[d + 1] < best:
                    best = prev[d + 1] + 1
                if d and row[d - 1] < best:
                    best = row[d - 1] + 1
            row[d] = best if best < over else over
        if min(row) > k:
            return False
    return row[m - n + k] <= k


def classify_differences(
    merged: MergedGraph,
) -> list[tuple[DifferenceHint, tuple[str, str]]]:
    """Heuristic hint per fuzzy link; an aid for review, not a verdict.

    Separator-stripped proper prefixes suggest one side recorded a more
    specific part number; near-equal lengths with at most two edits look
    like transcription slips; everything else is treated as a substituted
    part.
    """
    left, right = merged.left.nodes, merged.right.nodes
    out = []
    for i, j, _score in merged.links:
        a, b = left[i].name, right[j].name
        sa, sb = a.translate(_SEPARATORS), b.translate(_SEPARATORS)
        if sa != sb and (sa.startswith(sb) or sb.startswith(sa)):
            hint = DifferenceHint.PREFIX_SPECIFICITY
        elif abs(len(a) - len(b)) <= 1 and _within_edits(a, b, 2):
            hint = DifferenceHint.LIKELY_TRANSCRIPTION
        else:
            hint = DifferenceHint.SUBSTITUTION
        out.append((hint, (left[i].id, right[j].id)))
    return out
