"""Closed-loop benchmark of the bomdiff command-line interface.

One client runs one workload's command list over and over, each command a
fresh ``python -m bomdiff.cli`` child, one at a time, until the time budget
is spent. It reports what a CI job running bomdiff pays, and checks every
output against the generator's manifest.

    python3 perfbench/run.py --workload sbom-graph --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from anywhere; paths resolve from this file's checkout. ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics from a
traced in-process run (traced.py). The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics; a human summary goes
to stderr. Exit code 1 means an output check failed, 2 that the checkout
has no bomdiff sources.

The times in the result line are at a reference host speed. The host's
speed drifts by a third over minutes, so calib.py, a fixed stdlib-only
program, runs between passes; each pass and setup time is divided by the
mean calibration time around it and multiplied by CAL_REF_S. The unscaled
wall times are in the record and the summary.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SRC = ROOT / "src"

SETUP_PER_PASS = 2
# Times are reported at the host speed where calib.py takes CAL_REF_S
# seconds; CAL_CHECKSUM is what it prints.
CAL_REF_S = 1.0
CAL_CHECKSUM = "163232"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("BOMDIFF_THRESHOLD", None)  # outputs are checked at the default cutoff
    return env


class Launcher:
    """Client of launch.py, which spawns every measured command."""

    def __init__(self, env):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "launch.py")], env=env,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.peak_kb = 0  # the launcher's own RSS high-water mark

    def spawn(self, argv: list[str], stdout_path: Path) -> tuple[float, float, int]:
        """Run one child; return (wall seconds, peak RSS in MiB, exit code)."""
        req = {"argv": argv, "stdout": str(stdout_path),
               "stderr": str(stdout_path.with_suffix(".err")), "cwd": str(ROOT)}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit("launcher exited unexpectedly")
        reply = json.loads(line)
        self.peak_kb = max(self.peak_kb, reply["launcher_kb"])
        return reply["wall_s"], reply["peak_kb"] / 1024.0, reply["exit"]

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def generate(workload: str, seed: int) -> tuple[Path, dict]:
    work = WORK / f"{workload}-s{seed}"
    shutil.rmtree(work, ignore_errors=True)
    # A child process generates, so run.py never holds the inputs.
    subprocess.run([sys.executable, str(HERE / "gen.py"), "--workload", workload,
                    "--seed", str(seed), "--out", str(work)], check=True)
    return work, json.loads((work / "manifest.json").read_text())


def stamp(env, workload: str, seed: int, manifest: dict) -> dict:
    """What a result depends on besides the code: interpreter, kernel
    backend, cores, sources and inputs. Also warms the bytecode cache."""
    probe = ("import json, platform, bomdiff.cli, bomdiff.fuzzy as f; "
             "print(json.dumps({'python': platform.python_version(), "
             "'implementation': platform.python_implementation(), "
             "'backend': f.BACKEND, 'module': bomdiff.cli.__file__}))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout
    info = json.loads(out)
    if not Path(info.pop("module")).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit("bomdiff was imported from outside this checkout's src/")
    digest = hashlib.sha256()
    for p in sorted((SRC / "bomdiff").glob("*.py*")):
        digest.update(p.name.encode() + b"\0" + p.read_bytes())
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = res.stdout.strip() or None
    return {
        **info,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload": workload,
        "seed": seed,
        "input_bytes": {side: f["bytes"] for side, f in manifest["files"].items()},
    }


class Pass:
    """Runs passes over one workload's command list and checks the outputs:
    the first pass against the manifest, later passes against the first."""

    def __init__(self, work: Path, manifest: dict, commands, launcher: Launcher):
        self.work, self.manifest, self.commands = work, manifest, commands
        self.launcher = launcher
        files = manifest["files"]
        rel = lambda side: os.path.relpath(work / files[side]["path"], ROOT)  # noqa: E731
        self.argvs = [[sys.executable, "-m", "bomdiff.cli", *c.resolve(rel("left"), rel("right"))]
                      for c in commands]
        self.reference: list[str] = []
        self.problems: list[str] = []

    def run(self) -> dict:
        walls, peaks, failed = [], [], 0
        first = not self.reference
        for i, (cmd, argv) in enumerate(zip(self.commands, self.argvs)):
            out_path = self.work / f"out-{i}.out"
            wall, peak, code = self.launcher.spawn(argv, out_path)
            walls.append(wall)
            peaks.append(peak)
            problems = self._check(i, cmd, code, out_path, first)
            if problems:
                failed += 1
                self.problems += [f"{' '.join(cmd.argv)}: {p}" for p in problems]
        return {"pass_s": sum(walls), "peak_rss_mb": max(peaks), "command_s": walls,
                "failed": failed}

    def _check(self, i, cmd, code, out_path: Path, first: bool) -> list[str]:
        problems = []
        if code != cmd.exit_code:
            err = out_path.with_suffix(".err").read_text(errors="replace")[-300:]
            problems.append(f"exit {code}, want {cmd.exit_code}; stderr: {err!r}")
        data = out_path.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if first:
            self.reference.append(digest)
            shutil.copyfile(out_path, self.work / f"ref-{i}.out")
            try:
                problems += cmd.check(data.decode("utf-8"), self.manifest)
            except (ValueError, KeyError, TypeError, AttributeError) as e:
                problems.append(f"output not understood: {e!r}")
        elif digest != self.reference[i]:
            problems.append("stdout differs from the first pass")
        return problems


def declared(kind: str, values: dict[str, float]) -> dict[str, dict]:
    """Values of the metrics BENCHMARK.json declares under ``kind``, in its
    order and with its units; every declared metric must be measured."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        raise SystemExit(f"metrics declared but not measured: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def spawn_setup(launcher: Launcher, work: Path) -> float:
    wall, _, code = launcher.spawn([sys.executable, "-c", "import bomdiff.cli"],
                                   work / "setup.out")
    if code != 0:
        raise SystemExit(f"import bomdiff.cli failed with exit code {code}")
    return wall


class Calibration:
    """Wall times of calib.py, a fixed stdlib-only program, run between
    passes to gauge the host's speed (see calib.py)."""

    def __init__(self, launcher: Launcher, work: Path):
        self.launcher, self.work = launcher, work
        self.argv = [sys.executable, "-I", str(HERE / "calib.py")]
        self.walls: list[float] = []
        self.problems: list[str] = []

    def sample(self):
        out = self.work / "calib.out"
        wall, _, code = self.launcher.spawn(self.argv, out)
        if code != 0 or out.read_text().strip() != CAL_CHECKSUM:
            self.problems.append(f"calib.py: exit {code}, stdout {out.read_text()[:60]!r}, "
                                 f"want {CAL_CHECKSUM}")
        self.walls.append(wall)


def check_launcher(launcher: Launcher, peak_mb: float) -> list[str]:
    own = launcher.peak_kb / 1024.0
    if own >= peak_mb:
        return [f"launcher peak RSS {own:.1f} MiB >= child peak {peak_mb:.1f} MiB; "
                "peak_rss_mb would report the launcher"]
    return []


def run_workload(launcher: Launcher, env, name: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    work, manifest = generate(name, seed)
    info = stamp(env, name, seed, manifest)
    commands = workloads.WORKLOADS[name]
    t0 = time.perf_counter()
    deadline = t0 + seconds
    runner = Pass(work, manifest, commands, launcher)
    record = {"stamp": info, "trace": int(trace), "seconds": seconds}

    if trace:
        first = runner.run()
        left = max(deadline - time.perf_counter(), 1.0)
        res = subprocess.run([sys.executable, str(HERE / "traced.py"), "--workload", name,
                              "--work", os.path.relpath(work, ROOT), "--seconds", f"{left:.3f}"],
                             env=env, cwd=ROOT, check=True, capture_output=True, text=True)
        traced = json.loads(res.stdout.splitlines()[-1])
        record.update(
            attempted=len(commands) + traced["attempted"],
            failed=first["failed"] + traced["failed"],
            problems=runner.problems + traced["problems"],
            iterations=traced["iterations"],
            blocking_self_s=traced["blocking_self_s"],
            metrics=declared("per_layer", traced["metrics"]),
        )
        return record

    # Rounds of: setup probes, one pass, one calibration. Round i lies
    # between calibrations i and i + 1, whose mean is the host's speed then.
    gauge = Calibration(launcher, work)
    gauge.sample()
    setup, passes, rounds = [], [], []
    while True:
        t_round = time.perf_counter()
        for _ in range(SETUP_PER_PASS):
            setup.append(spawn_setup(launcher, work))
        passes.append(runner.run())
        gauge.sample()
        rounds.append(time.perf_counter() - t_round)
        if time.perf_counter() + max(rounds) >= deadline:
            break
    speed = [(a + b) / 2 for a, b in zip(gauge.walls, gauge.walls[1:])]
    pass_s = [CAL_REF_S * p["pass_s"] / s for p, s in zip(passes, speed)]
    setup_s = [CAL_REF_S * w / speed[i // SETUP_PER_PASS] for i, w in enumerate(setup)]
    problems = (runner.problems + gauge.problems
                + check_launcher(launcher, min(p["peak_rss_mb"] for p in passes)))
    attempted = len(commands) * len(passes)
    failed = sum(p["failed"] for p in passes)
    if problems and not failed:  # a launcher or calibration problem taints the whole run
        failed = 1
    record.update(
        attempted=attempted,
        failed=failed,
        problems=problems,
        samples={"pass_s": pass_s,
                 "pass_wall_s": [p["pass_s"] for p in passes],
                 "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
                 "setup_s": setup_s,
                 "setup_wall_s": setup,
                 "calibration_s": gauge.walls,
                 "command_s": [p["command_s"] for p in passes]},
        metrics=declared("end_to_end", {
            "pass_s": statistics.median(pass_s),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
            "setup_s": statistics.median(setup_s),
        }),
    )
    return record


def tail_note(samples: list[float]) -> str:
    """The highest of p99 and p90 with at least ten samples beyond it."""
    n = len(samples)
    for p in (99, 90):
        if n * (100 - p) / 100 >= 10:
            cut = statistics.quantiles(samples, n=100)[p - 1]
            return f"p{p} {cut:.4f} s"
    return f"no tail percentile (n={n} < 100)"


def summarize(rec: dict) -> str:
    st = rec["stamp"]
    lines = [f"== {st['workload']} seed={st['seed']} trace={rec['trace']} "
             f"python={st['python']} backend={st['backend']} nproc={st['nproc']} "
             f"commit={st['commit'] or '-'} inputs={st['input_bytes']}"]
    for k, m in rec["metrics"].items():
        lines.append(f"  {k:32s} {m['value']:.6g} {m['unit']}")
    if "samples" in rec:
        s = rec["samples"]
        lines.append(f"  passes={len(s['pass_s'])} setup samples={len(s['setup_s'])}; "
                     f"pass_s {tail_note(s['pass_s'])}")
        lines.append(f"  unscaled wall medians: pass {statistics.median(s['pass_wall_s']):.6g} s, "
                     f"setup {statistics.median(s['setup_wall_s']):.6g} s, calibration "
                     f"{statistics.median(s['calibration_s']):.6g} s (reference {CAL_REF_S} s)")
    if "blocking_self_s" in rec:
        top = list(rec["blocking_self_s"].items())[:4]
        lines.append(f"  iterations={rec['iterations']}; largest self time under cli.run: "
                     + ", ".join(f"{k} {v:.3f}s" for k, v in top))
    lines.append(f"  failed_frac {rec['failed']}/{rec['attempted']} = "
                 f"{rec['failed'] / rec['attempted']:.4g}")
    lines += [f"  PROBLEM {p}" for p in rec["problems"][:20]]
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", type=Path, help="also write the full result record(s) here")
    args = ap.parse_args(argv)

    if not (SRC / "bomdiff" / "cli.py").is_file():
        print(f"error: no bomdiff sources under {SRC}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    env = child_env()
    launcher = Launcher(env)  # started first, while this process is still small
    records = []
    try:
        for name in names:
            rec = run_workload(launcher, env, name, args.seed, args.seconds, bool(args.trace))
            print(summarize(rec), file=sys.stderr)
            records.append(rec)
            if not rec["failed"]:  # keep the outputs of a failed run for inspection
                shutil.rmtree(WORK / f"{name}-s{args.seed}")
    finally:
        launcher.close()
    if args.record:
        args.record.parent.mkdir(parents=True, exist_ok=True)
        args.record.write_text(json.dumps(records, indent=1) + "\n")

    failed = sum(r["failed"] for r in records)
    prefix = len(records) > 1
    metrics = {(f"{r['stamp']['workload']}.{k}" if prefix else k): v
               for r in records for k, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
