"""Traced in-process run of one workload's command list.

Wraps the public functions of each bomdiff module from outside (the package
itself is not modified), then calls ``bomdiff.cli.run`` with the same argv
the subprocess passes use. Each iteration runs every command of the list
untraced and traced back to back, so the difference is the tracing
overhead.

Spans are recorded on the main thread only. The CLI loads two-input
commands on a two-thread pool, and spans taken inside those threads would
include time spent waiting for the interpreter lock; the whole threaded
load is one ``ingest.load_wall`` span instead, and the same two loads are
then replayed one after the other outside ``cli.run`` (``ingest.load_seq``)
to attribute time to detect, parse and normalize.

Prints one JSON object on stdout. Started by run.py with PYTHONPATH naming
the checkout's ``src`` directory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import statistics
import threading
import time
from collections import Counter
from pathlib import Path

from bomdiff import cli, flatcompare, fuzzy, graphcompare, ingest, report

import workloads


class Tracer:
    """Span stack with per-name self time, total time and call counts.

    Self time is a span's duration minus the time its child spans cover.
    """

    def __init__(self):
        self._main = threading.main_thread()
        self._stack: list[list] = []
        self._installed: list[tuple] = []
        self.blocking = True
        self.reset()

    def reset(self):
        self.self_s: Counter = Counter()
        self.total_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        # self time of spans under cli.run only (not the sequential replay)
        self.blocking_self_s: Counter = Counter()

    def _enter(self, name: str):
        self._stack.append([name, time.perf_counter(), 0.0])

    def _exit(self):
        name, start, child = self._stack.pop()
        dur = time.perf_counter() - start
        self.self_s[name] += dur - child
        self.total_s[name] += dur
        self.calls[name] += 1
        if self.blocking:
            self.blocking_self_s[name] += dur - child
        if self._stack:
            self._stack[-1][2] += dur

    @contextlib.contextmanager
    def span(self, name: str):
        self._enter(name)
        try:
            yield
        finally:
            self._exit()

    def wrap(self, owner, attr: str, name: str, count=None):
        """Register a traced wrapper for ``owner.attr`` (or ``owner[attr]``
        for a dict), swapped in by installed(). ``count(args, result)``
        returns counter increments."""
        is_dict = isinstance(owner, dict)
        fn = owner[attr] if is_dict else getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            if threading.current_thread() is not tracer._main:
                return fn(*args, **kwargs)
            tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            if count is not None:
                tracer.counts.update(count(args, result))
            return result

        self._installed.append((owner, attr, fn, traced, is_dict))

    @contextlib.contextmanager
    def installed(self):
        """Swap the traced wrappers in for the duration of the block."""
        for owner, attr, _fn, traced, is_dict in self._installed:
            if is_dict:
                owner[attr] = traced
            else:
                setattr(owner, attr, traced)
        try:
            yield
        finally:
            for owner, attr, fn, _traced, is_dict in self._installed:
                if is_dict:
                    owner[attr] = fn
                else:
                    setattr(owner, attr, fn)


def _instrument(tracer: Tracer, rows_by_path: dict[str, int]):
    t = tracer
    t.wrap(cli, "_load_two", "ingest.load_wall")
    t.wrap(ingest, "load_document", "ingest.load", lambda a, r: {
        "ingest.components_in": rows_by_path[str(a[0])],
        "ingest.components_out": len(r.components),
    })
    t.wrap(ingest, "detect_format", "ingest.detect")
    for fmt in list(ingest._PARSERS):
        t.wrap(ingest._PARSERS, fmt, "ingest.parse")
    t.wrap(ingest, "_finish", "ingest.normalize")
    # canonical_form is imported by name into both modules that call it
    t.wrap(ingest, "canonical_form", "model.canonical")
    t.wrap(graphcompare, "canonical_form", "model.canonical")
    t.wrap(flatcompare, "extract_field", "flatcompare.extract")
    for attr in ("multiset_diff", "set_diff", "organization_delta"):
        t.wrap(flatcompare, attr, "flatcompare.diff")
    t.wrap(flatcompare, "cross_field_consistency", "flatcompare.consistency", lambda a, r: {
        "flatcompare.consistency_pairs": sum(1 for c in a[0].components if c.hashes)
        * sum(1 for c in a[1].components if c.hashes),
        "flatcompare.findings": len(r),
    })
    t.wrap(fuzzy, "all_pairs_matches", "fuzzy.all_pairs", lambda a, r: {
        "fuzzy.pairs": len(set(a[0])) * len(set(a[1])),
        "fuzzy.hits": len(r),
    })

    def graph_counts(a, g):
        synthetic = g.by_id[g.root].component_id is None
        return {
            "graphcompare.nodes": len(g.nodes),
            "graphcompare.edges": len(g.edges),
            "graphcompare.adopted": sum(1 for s, _, _ in g.edges if s == g.root)
            if synthetic else 0,
        }

    t.wrap(graphcompare, "build_graph", "graphcompare.build", graph_counts)
    t.wrap(graphcompare, "merge_graphs", "graphcompare.merge",
           lambda a, m: {"graphcompare.fuzzy_links": len(m.fuzzy_links)})
    t.wrap(graphcompare, "jaro_winkler", "graphcompare.phase2_score")
    for attr in ("render_table", "render_json", "to_dot"):
        t.wrap(report, attr, "report.render", lambda a, r: {"report.out_bytes": len(r.encode())})
    t.wrap(report, "classify_differences", "report.classify")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _pass_metrics(t: Tracer, json_floor_s: float, untraced_s: float) -> dict[str, float]:
    s, c = t.self_s, t.counts
    run_s = t.total_s["cli.run"]
    return {
        "ingest.detect_s": s["ingest.detect"],
        "ingest.parse_s": s["ingest.parse"],
        "ingest.normalize_s": s["ingest.normalize"],
        "ingest.json_floor_s": json_floor_s,
        "ingest.load_wall_s": t.total_s["ingest.load_wall"],
        "ingest.load_seq_s": t.total_s["ingest.load_seq"],
        "ingest.components_in": c["ingest.components_in"],
        "ingest.components_out": c["ingest.components_out"],
        "model.canonical_s": s["model.canonical"],
        "model.canonical_calls": t.calls["model.canonical"],
        "flatcompare.extract_s": s["flatcompare.extract"],
        "flatcompare.extract_calls": t.calls["flatcompare.extract"],
        "flatcompare.diff_s": s["flatcompare.diff"],
        "flatcompare.consistency_s": s["flatcompare.consistency"],
        "flatcompare.consistency_pairs": c["flatcompare.consistency_pairs"],
        "flatcompare.findings": c["flatcompare.findings"],
        "fuzzy.all_pairs_s": s["fuzzy.all_pairs"],
        "fuzzy.pairs": c["fuzzy.pairs"],
        "fuzzy.hits": c["fuzzy.hits"],
        "fuzzy.hit_ratio": _ratio(c["fuzzy.hits"], c["fuzzy.pairs"]),
        "graphcompare.build_s": s["graphcompare.build"],
        "graphcompare.nodes": c["graphcompare.nodes"],
        "graphcompare.edges": c["graphcompare.edges"],
        "graphcompare.adopted": c["graphcompare.adopted"],
        "graphcompare.merge_s": s["graphcompare.merge"],
        "graphcompare.phase2_score_s": s["graphcompare.phase2_score"],
        "graphcompare.phase2_scored": t.calls["graphcompare.phase2_score"],
        "graphcompare.fuzzy_links": c["graphcompare.fuzzy_links"],
        "graphcompare.link_ratio": _ratio(c["graphcompare.fuzzy_links"],
                                          t.calls["graphcompare.phase2_score"]),
        "report.render_s": s["report.render"],
        "report.classify_s": s["report.classify"],
        "report.out_bytes": c["report.out_bytes"],
        "cli.run_s": run_s,
        "cli.self_s": s["cli.run"],
        "trace.overhead_frac": _ratio(run_s, untraced_s) - 1.0,
    }


def _json_floor(path: Path) -> float:
    """One json.loads of the file: the least any JSON parse of it costs."""
    raw = path.read_bytes()
    if not raw.lstrip().startswith(b"{"):
        return 0.0
    t0 = time.perf_counter()
    json.loads(raw.decode("utf-8"))
    return time.perf_counter() - t0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--work", required=True, type=Path, help="input directory, relative to cwd")
    ap.add_argument("--seconds", required=True, type=float)
    args = ap.parse_args(argv)
    deadline = time.perf_counter() + args.seconds

    manifest = json.loads((args.work / "manifest.json").read_text())
    paths = {side: str(args.work / f["path"]) for side, f in manifest["files"].items()}
    rows_by_path = {paths[side]: f["rows"] for side, f in manifest["files"].items()}
    commands = workloads.WORKLOADS[args.workload]
    reference = [(args.work / f"ref-{i}.out").read_bytes() for i in range(len(commands))]

    tracer = Tracer()
    _instrument(tracer, rows_by_path)
    attempted = failed = 0
    problems: list[str] = []
    samples: list[dict] = []
    blocking: list[Counter] = []

    def invoke(i, cmd) -> float:
        nonlocal attempted, failed
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            code = cli.run(cmd.resolve(paths["left"], paths["right"]), stdout=out, stderr=err)
        except Exception as e:  # a crash is a failed command, as it is for the subprocess
            code = repr(e)
        dt = time.perf_counter() - t0
        attempted += 1
        same = out.getvalue().encode() == reference[i]
        if code != cmd.exit_code or not same:
            failed += 1
            problems.append(f"in-process {' '.join(cmd.argv)}: exit {code}, stdout "
                            f"{'same as' if same else 'differs from'} the subprocess pass")
        return dt

    def iteration(traced_first: bool) -> tuple[float, float]:
        """One pass, each command run untraced and traced back to back;
        returns (untraced seconds, json floor seconds)."""
        tracer.reset()
        untraced_s = json_floor_s = 0.0
        for i, cmd in enumerate(commands):
            for is_traced in (traced_first, not traced_first):
                if is_traced:
                    with tracer.installed(), tracer.span("cli.run"):
                        invoke(i, cmd)
                else:
                    untraced_s += invoke(i, cmd)
            loaded = [a.lower() for a in cmd.argv if a in ("LEFT", "RIGHT")]
            if len(loaded) == 2:
                tracer.blocking = False
                with tracer.installed(), tracer.span("ingest.load_seq"):
                    for side in loaded:
                        ingest.load_document(paths[side])
                tracer.blocking = True
            json_floor_s += sum(_json_floor(Path(paths[side])) for side in loaded)
        return untraced_s, json_floor_s

    while True:
        started = time.perf_counter()
        # Alternate which side runs first, so neither always meets the
        # colder process state.
        untraced_s, json_floor_s = iteration(traced_first=len(samples) % 2 == 1)
        samples.append(_pass_metrics(tracer, json_floor_s, untraced_s))
        blocking.append(Counter(tracer.blocking_self_s))
        elapsed = time.perf_counter() - started
        if time.perf_counter() + elapsed > deadline:
            break

    metrics = {k: statistics.median(s[k] for s in samples) for k in samples[0]}
    spans = {name: statistics.median(b[name] for b in blocking)
             for name in set().union(*blocking)}
    print(json.dumps({
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "iterations": len(samples),
        "metrics": metrics,
        "blocking_self_s": dict(sorted(spans.items(), key=lambda kv: -kv[1])),
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
