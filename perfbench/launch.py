"""Command launcher for run.py: spawns one child per request and reports
its wall time, peak RSS and exit code.

exec keeps the RSS high-water mark of the process it replaces, so a child
started by a large process reports that process's peak as its own. run.py
grows while it checks outputs; this process imports little and never holds
more than one request, so the peaks it reports are the children's. Its own
high-water mark (VmHWM, which unlike getrusage does not carry over what
run.py had when it started this process) goes back with every reply so
run.py can check that.

Protocol: one JSON request per stdin line, {"argv", "stdout", "stderr",
"cwd"}; one JSON reply per stdout line, {"wall_s", "peak_kb", "exit",
"launcher_kb"}. Exits at end of input.
"""

import json
import os
import subprocess
import sys
import time


def own_peak_kb() -> int:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(req["argv"], stdout=out, stderr=err, cwd=req["cwd"])
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"wall_s": wall, "peak_kb": usage.ru_maxrss, "exit": proc.returncode,
                 "launcher_kb": own_peak_kb()}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
