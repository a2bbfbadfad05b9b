"""Command-line interface.

Subcommands: inspect, compare, graph, orgs, licenses. Exit codes: 0 success
without differences, 1 success with differences, 2 usage error, 3 parse, I/O
or out-of-memory error. Output is byte-reproducible for identical inputs
unless --timestamp is given.

Each command loads only the modules it runs: ``graphcompare`` is imported
for ``graph`` alone, ``flatcompare`` for every command but ``graph``,
``fuzzy`` for ``graph`` and ``compare --fuzzy``, and ``datetime`` for
``--timestamp``. ``main`` freezes the heap before the process exits, so
the interpreter's final collection does not walk it; ``run`` leaves the
caller's collector as it found it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import os
import sys
from typing import TYPE_CHECKING

from bomdiff import ingest, report
from bomdiff.model import BomFormat, ConfigError, FieldSelector

if TYPE_CHECKING:
    from bomdiff import fuzzy

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


def _fuzzy_config(args) -> fuzzy.FuzzyConfig:
    """--threshold, else BOMDIFF_THRESHOLD, else FuzzyConfig's default."""
    from bomdiff import fuzzy

    threshold = args.threshold
    env = os.environ.get("BOMDIFF_THRESHOLD")
    if threshold is None and env:
        try:
            threshold = float(env)
        except ValueError:
            raise ConfigError(f"BOMDIFF_THRESHOLD={env!r} is not a number") from None
    return fuzzy.FuzzyConfig() if threshold is None else fuzzy.FuzzyConfig(threshold=threshold)


def _load(args, *paths) -> tuple:
    """Load paths in order under the ingest flags and --format-in of args."""
    opts = ingest.IngestOptions(
        dedup=not args.no_dedup,
        fold_quantities=not args.no_fold,
        drop_name_prefixes=tuple(args.drop_prefix),
    )
    hint = _FORMAT_CHOICES[args.format_in] if args.format_in else None
    return tuple(ingest.load_document(path, opts, hint) for path in paths)


def _load_two(args) -> tuple:
    # Left first, so a bad left input is the error reported. A name of its
    # own, so perfbench/traced.py times exactly the two-input loads it
    # replays as ingest.load_seq.
    return _load(args, args.left, args.right)


def _emit(out, args, text: str):
    if args.timestamp:
        import datetime

        now = datetime.datetime.now(datetime.timezone.utc).isoformat()
        out.write(f"generated: {now}\n")
    out.write(text)


def _cmd_inspect(args):
    (doc,) = _load(args, args.file)
    return report.render_summary(doc), None


def _compare_report(args, left, right) -> report.DiffReport:
    from bomdiff import flatcompare

    fields = [_FIELD_CHOICES[f] for f in (args.field or _DEFAULT_FIELDS)]
    # each (side, field) is extracted once; --fuzzy reuses the name counters
    wanted = dict.fromkeys(fields + ([FieldSelector.NAME] if args.fuzzy else []))
    lvals = {sel: flatcompare.extract_field(left, sel) for sel in wanted}
    rvals = {sel: flatcompare.extract_field(right, sel) for sel in wanted}
    diff_fn = flatcompare.multiset_diff if args.mode == "list" else flatcompare.set_diff
    field_diffs = {sel: diff_fn(lvals[sel], rvals[sel]) for sel in fields}
    matches = ()
    if args.fuzzy:
        from bomdiff import fuzzy

        matches = tuple(
            fuzzy.all_pairs_matches(
                set(lvals[FieldSelector.NAME]),
                set(rvals[FieldSelector.NAME]),
                _fuzzy_config(args),
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


def _cmd_compare(args):
    left, right = _load_two(args)
    rep = _compare_report(args, left, right)
    render = report.render_json if args.format == "json" else report.render_table
    return render(rep), rep


def _cmd_graph(args):
    from bomdiff import graphcompare

    left, right = _load_two(args)
    cfg = _fuzzy_config(args)
    gl = graphcompare.build_graph(left)
    gr = graphcompare.build_graph(right)
    merged = graphcompare.merge_graphs(gl, gr, cfg)
    rep = report.DiffReport((left.source_name, right.source_name), graph=merged)
    if args.stats:
        return report.graph_stats_line(merged), rep
    if args.format == "dot":
        return report.to_dot(merged), rep
    render = report.render_json if args.format == "json" else report.render_table
    return render(rep), rep


def _cmd_orgs(args):
    from bomdiff import flatcompare

    left, right = _load_two(args)
    excludes = () if args.no_default_excludes else flatcompare.JAVA_STDLIB_ORG_PREFIXES
    delta = flatcompare.organization_delta(left, right, excludes + tuple(args.exclude or ()))
    rep = report.DiffReport(
        source_names=(left.source_name, right.source_name),
        field_diffs={FieldSelector.ORGANIZATION: delta},
    )
    return report.render_orgs(rep), rep


def _cmd_licenses(args):
    from bomdiff import flatcompare

    left, right = _load_two(args)
    lvals = flatcompare.extract_field(left, FieldSelector.LICENSE)
    rvals = flatcompare.extract_field(right, FieldSelector.LICENSE)
    rep = report.DiffReport(
        source_names=(left.source_name, right.source_name),
        field_diffs={FieldSelector.LICENSE: flatcompare.multiset_diff(lvals, rvals)},
    )
    if args.format == "json":
        return report.render_json(rep), rep
    coverage = tuple(
        flatcompare.field_coverage(doc, FieldSelector.LICENSE) for doc in (left, right)
    )
    return report.render_licenses(rep, coverage), rep


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
        # each command returns its text and its DiffReport (None for inspect)
        text, rep = _COMMANDS[args.command](args)
        _emit(out, args, text)
        return 1 if rep is not None and rep.has_differences() else 0
    except (ingest.ParseError, ingest.UnknownFormatError) as e:
        err.write(f"error: {e}\n")
        return PARSE_ERROR
    except ConfigError as e:
        err.write(f"error: {e}\n")
        return USAGE_ERROR
    except OSError as e:
        err.write(f"error: {e}\n")
        return PARSE_ERROR
    except MemoryError:  # uncaught, it would exit 1: "differences found"
        err.write("error: out of memory\n")
        return PARSE_ERROR
    finally:
        if collecting:
            gc.enable()


def main():
    # a name may hold a lone surrogate (valid JSON); escape it as stderr does
    sys.stdout.reconfigure(errors="backslashreplace")
    code = run(sys.argv[1:])
    # Everything the command allocated dies with the process. The collection
    # the interpreter runs at exit skips frozen objects; it would otherwise
    # walk the whole heap once more.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
