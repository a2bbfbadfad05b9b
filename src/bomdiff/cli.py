"""Command-line interface.

Subcommands: inspect, compare, graph, orgs, licenses. Exit codes: 0 success
without differences, 1 success with differences, 2 usage error, 3 parse or
I/O error. Output is byte-reproducible for identical inputs unless
--timestamp is given.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import gc
import os
import sys

from bomdiff import flatcompare, fuzzy, graphcompare, ingest, report
from bomdiff.flatcompare import FieldSelector
from bomdiff.model import BomFormat

_FIELD_CHOICES = {s.value: s for s in FieldSelector if s is not FieldSelector.CPE}
_DEFAULT_FIELDS = tuple(_FIELD_CHOICES)

_FORMAT_CHOICES = {f.value: f for f in BomFormat}

USAGE_ERROR = 2
PARSE_ERROR = 3


def _prefix(value: str) -> str:
    # an empty prefix would match everything: IngestOptions refuses it for
    # --drop-prefix, and --exclude would exclude every organization
    if not value:
        raise argparse.ArgumentTypeError("must be non-empty")
    return value


def _add_common(p: argparse.ArgumentParser, inputs: int):
    if inputs == 1:
        p.add_argument("file", help="BOM file to read")
    else:
        p.add_argument("left", help="first BOM file")
        p.add_argument("right", help="second BOM file")
    p.add_argument(
        "--format-in",
        choices=sorted(_FORMAT_CHOICES),
        help="input format override (default: detect by content)",
    )
    p.add_argument(
        "--drop-prefix",
        action="append",
        default=[],
        type=_prefix,
        metavar="PREFIX",
        help="drop components whose purl ecosystem equals or name starts "
        "with PREFIX (repeatable)",
    )
    p.add_argument("--no-dedup", action="store_true", help="keep duplicate components")
    p.add_argument(
        "--no-fold", action="store_true", help="keep repeated HBOM rows separate"
    )
    p.add_argument(
        "--timestamp",
        action="store_true",
        help="prepend a generation timestamp (breaks reproducibility)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bomdiff",
        description="Normalize and compare software/hardware bills of materials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inspect", help="parse one BOM and print summary counts")
    _add_common(p, inputs=1)

    p = sub.add_parser("compare", help="flat field comparison of two BOMs")
    _add_common(p, inputs=2)
    p.add_argument(
        "--field",
        action="append",
        choices=sorted(_FIELD_CHOICES),
        help="field to compare (repeatable; default: all)",
    )
    p.add_argument("--mode", choices=("list", "set"), default="list")
    p.add_argument("--fuzzy", action="store_true", help="add fuzzy name matching")
    p.add_argument("--threshold", type=float, help="fuzzy score cutoff (0..1)")
    p.add_argument(
        "--exclude-exact",
        action="store_true",
        help="drop equal-name pairs from fuzzy output",
    )
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("graph", help="merge two BOM graphs and export")
    _add_common(p, inputs=2)
    p.add_argument("--threshold", type=float, help="fuzzy score cutoff (0..1)")
    p.add_argument("--format", choices=("text", "json", "dot"), default="text")
    p.add_argument("--stats", action="store_true", help="print the stats line only")

    p = sub.add_parser("orgs", help="organization delta between two BOMs")
    _add_common(p, inputs=2)
    p.add_argument(
        "--exclude",
        action="append",
        default=None,
        type=_prefix,
        metavar="PREFIX",
        help="exclude organizations starting with PREFIX "
        "(repeatable; default: the Java standard library namespaces)",
    )
    p.add_argument(
        "--no-default-excludes",
        action="store_true",
        help="start from an empty exclusion list",
    )

    p = sub.add_parser("licenses", help="license comparison with coverage counts")
    _add_common(p, inputs=2)
    p.add_argument("--format", choices=("text", "json"), default="text")

    return parser


def _ingest_options(args) -> ingest.IngestOptions:
    return ingest.IngestOptions(
        dedup=not args.no_dedup,
        fold_quantities=not args.no_fold,
        drop_name_prefixes=tuple(args.drop_prefix),
    )


def _threshold(args) -> float:
    if getattr(args, "threshold", None) is not None:
        return args.threshold
    env = os.environ.get("BOMDIFF_THRESHOLD")
    if env:
        try:
            return float(env)
        except ValueError:
            raise fuzzy.ConfigError(
                f"BOMDIFF_THRESHOLD={env!r} is not a number"
            ) from None
    return 0.85


def _load_two(args, opts) -> tuple:
    hint = _FORMAT_CHOICES[args.format_in] if args.format_in else None
    # Left first, so a bad left input is the error reported.
    return tuple(
        ingest.load_document(path, opts, hint) for path in (args.left, args.right)
    )


def _emit(out, args, text: str):
    if args.timestamp:
        now = datetime.datetime.now(datetime.timezone.utc).isoformat()
        out.write(f"generated: {now}\n")
    out.write(text)


def _cmd_inspect(args, out) -> int:
    opts = _ingest_options(args)
    hint = _FORMAT_CHOICES[args.format_in] if args.format_in else None
    doc = ingest.load_document(args.file, opts, hint)
    _emit(out, args, report.render_summary(doc))
    return 0


def _compare_report(args, left, right) -> report.DiffReport:
    fields = [_FIELD_CHOICES[f] for f in (args.field or _DEFAULT_FIELDS)]
    # each (side, field) is extracted once; --fuzzy reuses the name counters
    wanted = dict.fromkeys(fields + ([FieldSelector.NAME] if args.fuzzy else []))
    lvals = {sel: flatcompare.extract_field(left, sel) for sel in wanted}
    rvals = {sel: flatcompare.extract_field(right, sel) for sel in wanted}
    diff_fn = flatcompare.multiset_diff if args.mode == "list" else flatcompare.set_diff
    field_diffs = {sel: diff_fn(lvals[sel], rvals[sel]) for sel in fields}
    matches = ()
    if args.fuzzy:
        cfg = fuzzy.FuzzyConfig(threshold=_threshold(args))
        matches = tuple(
            fuzzy.all_pairs_matches(
                set(lvals[FieldSelector.NAME]),
                set(rvals[FieldSelector.NAME]),
                cfg,
                exclude_exact=args.exclude_exact,
            )
        )
    return report.DiffReport(
        source_names=(left.source_name, right.source_name),
        field_diffs=field_diffs,
        fuzzy=matches,
        findings=tuple(flatcompare.cross_field_consistency(left, right)),
        hash_coverage=(
            flatcompare.field_coverage(left, FieldSelector.HASH_DIGEST),
            flatcompare.field_coverage(right, FieldSelector.HASH_DIGEST),
        ),
    )


def _cmd_compare(args, out) -> int:
    left, right = _load_two(args, _ingest_options(args))
    rep = _compare_report(args, left, right)
    if args.format == "json":
        _emit(out, args, report.render_json(rep))
    else:
        _emit(out, args, report.render_table(rep))
    return 1 if rep.has_differences() else 0


def _cmd_graph(args, out) -> int:
    left, right = _load_two(args, _ingest_options(args))
    cfg = fuzzy.FuzzyConfig(threshold=_threshold(args))
    gl = graphcompare.build_graph(left)
    gr = graphcompare.build_graph(right)
    merged = graphcompare.merge_graphs(gl, gr, cfg)

    rep = report.DiffReport(
        source_names=(left.source_name, right.source_name), graph=merged
    )
    if args.stats:
        _emit(out, args, report.graph_stats_line(merged))
    elif args.format == "dot":
        _emit(out, args, report.to_dot(merged))
    elif args.format == "json":
        _emit(out, args, report.render_json(rep))
    else:
        _emit(out, args, report.render_table(rep))
    return 1 if rep.has_differences() else 0


def _cmd_orgs(args, out) -> int:
    left, right = _load_two(args, _ingest_options(args))
    excludes = [] if args.no_default_excludes else list(
        flatcompare.JAVA_STDLIB_ORG_PREFIXES
    )
    if args.exclude:
        excludes.extend(args.exclude)
    rep = report.DiffReport(
        source_names=(left.source_name, right.source_name),
        field_diffs={
            FieldSelector.ORGANIZATION: flatcompare.organization_delta(
                left, right, tuple(excludes)
            )
        },
    )
    _emit(out, args, report.render_orgs(rep))
    return 1 if rep.has_differences() else 0


def _cmd_licenses(args, out) -> int:
    left, right = _load_two(args, _ingest_options(args))
    lvals = flatcompare.extract_field(left, FieldSelector.LICENSE)
    rvals = flatcompare.extract_field(right, FieldSelector.LICENSE)
    rep = report.DiffReport(
        source_names=(left.source_name, right.source_name),
        field_diffs={FieldSelector.LICENSE: flatcompare.multiset_diff(lvals, rvals)},
    )
    if args.format == "json":
        _emit(out, args, report.render_json(rep))
        return 1 if rep.has_differences() else 0

    coverage = tuple(
        flatcompare.field_coverage(doc, FieldSelector.LICENSE) for doc in (left, right)
    )
    _emit(out, args, report.render_licenses(rep, coverage))
    return 1 if rep.has_differences() else 0


_COMMANDS = {
    "inspect": _cmd_inspect,
    "compare": _cmd_compare,
    "graph": _cmd_graph,
    "orgs": _cmd_orgs,
    "licenses": _cmd_licenses,
}


def run(argv, stdout=None, stderr=None) -> int:
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    parser = _build_parser()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse already printed usage/help; normalize --help to 0.
        return 0 if e.code == 0 else USAGE_ERROR
    # A command builds no reference cycles (tests/test_cli_gc.py checks this
    # at two input sizes), so the cyclic collector would only rescan a large
    # acyclic heap. It is off while the command runs; the caller's setting
    # comes back on every exit path.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _COMMANDS[args.command](args, out)
    except (ingest.ParseError, ingest.UnknownFormatError) as e:
        err.write(f"error: {e}\n")
        return PARSE_ERROR
    except fuzzy.ConfigError as e:
        err.write(f"error: {e}\n")
        return USAGE_ERROR
    except OSError as e:
        err.write(f"error: {e}\n")
        return PARSE_ERROR
    finally:
        if collecting:
            gc.enable()


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
