"""cli.run turns the cyclic collector off while a command runs.

That is only safe if no command leaves reference cycles behind in
proportion to its input, and only polite if the caller gets its own
collector setting back on every exit path. cli.main, which owns the
process, also freezes the heap before it exits; run does not.
"""

import gc
import io
import json
import os
import random
import string
import subprocess
import sys
from pathlib import Path

import pytest

import bomdiff
from bomdiff import graphcompare
from bomdiff.cli import run


def _cdx(n, rename=False):
    # a 4-ary dependency tree under the subject, with licenses and hashes
    comps = []
    for i in range(n):
        # varied letters, so all-pairs fuzzy scoring prunes most pairs
        name = "".join(random.Random(i).choices(string.ascii_lowercase, k=10))
        name += "x" if rename and i % 10 == 3 else ""
        comps.append({
            "bom-ref": f"c{i}",
            "name": name,
            "version": "1.0",
            "purl": f"pkg:maven/org{i % 7}/{name}@1.0",
            "licenses": [{"license": {"id": "MIT" if i % 3 else "Apache-2.0"}}],
            "hashes": [{"alg": "SHA-256", "content": f"{i:064x}"}],
        })
    deps = {"app": ["c0"]}
    for i in range(1, n):
        deps.setdefault(f"c{(i - 1) // 4}", []).append(f"c{i}")
    return json.dumps({
        "bomFormat": "CycloneDX",
        "specVersion": "1.5",
        "metadata": {"component": {"bom-ref": "app", "name": "app"}},
        "components": comps,
        "dependencies": [{"ref": k, "dependsOn": v} for k, v in deps.items()],
    }).encode()


def _hbom(n, rename=False):
    lines = ["ref,name,parent,vendor,quantity"]
    for i in range(n):
        parent = f"r{(i - 1) // 8}" if i else ""
        name = f"part{i % 50}" + ("b" if rename and i % 10 == 3 else "")
        lines.append(f"r{i},{name},{parent},acme,{1 + i % 3}")
    return ("\n".join(lines) + "\n").encode()


_COMMANDS = [
    ["inspect", "{left}"],
    ["compare", "--fuzzy", "{left}", "{right}"],
    ["graph", "--format", "dot", "{left}", "{right}"],
    ["orgs", "{left}", "{right}"],
    ["licenses", "--format", "json", "{left}", "{right}"],
]


def _cyclic_garbage(paths):
    """Objects the cyclic collector finds after each command, by command."""
    found = {}
    gc.disable()
    try:
        for argv in _COMMANDS:
            gc.collect()
            gc.set_debug(gc.DEBUG_SAVEALL)
            code = run([a.format(**paths) for a in argv],
                       stdout=io.StringIO(), stderr=io.StringIO())
            assert code in (0, 1), argv
            found[argv[0]] = gc.collect()
            # free what was saved, so the next command starts clean
            gc.set_debug(0)
            gc.garbage.clear()
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    return found


@pytest.mark.parametrize("make", [_cdx, _hbom])
def test_commands_leave_no_input_sized_cycles(tmp_path, make):
    sizes = {}
    for n in (20, 2000):
        paths = {"left": tmp_path / f"l{n}", "right": tmp_path / f"r{n}"}
        paths["left"].write_bytes(make(n))
        paths["right"].write_bytes(make(n, rename=True))
        sizes[n] = {k: str(p) for k, p in paths.items()}
    _cyclic_garbage(sizes[20])  # warm up imports and caches
    small = _cyclic_garbage(sizes[20])
    large = _cyclic_garbage(sizes[2000])
    assert small == large


@pytest.fixture
def pair(tmp_path):
    left, right = tmp_path / "l.json", tmp_path / "r.json"
    left.write_bytes(_cdx(5))
    right.write_bytes(_cdx(5, rename=True))
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"bomFormat": "CycloneDX", "components": 7}')
    return str(left), str(right), str(bad)


@pytest.mark.parametrize(
    "argv, env, code",
    [
        (["inspect", "{left}"], None, 0),
        (["graph", "{left}", "{right}"], None, 1),
        (["inspect", "{bad}"], None, 3),
        (["inspect", "{left}/missing"], None, 3),
        (["graph", "{left}", "{right}"], "abc", 2),
        (["graph", "--format", "svg", "{left}", "{right}"], None, 2),
    ],
    ids=["exit-0", "exit-1", "parse-error", "io-error", "bad-threshold-env", "usage-error"],
)
@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_run_restores_the_callers_collector_state(pair, monkeypatch, argv, env, code, enabled):
    left, right, bad = pair
    if env is not None:
        monkeypatch.setenv("BOMDIFF_THRESHOLD", env)
    else:
        monkeypatch.delenv("BOMDIFF_THRESHOLD", raising=False)
    argv = [a.format(left=left, right=right, bad=bad) for a in argv]
    seen = []
    real = graphcompare.merge_graphs

    def spy(*args):
        seen.append(gc.isenabled())
        return real(*args)

    monkeypatch.setattr(graphcompare, "merge_graphs", spy)
    frozen = gc.get_freeze_count()
    try:
        if not enabled:
            gc.disable()
        assert run(argv, stdout=io.StringIO(), stderr=io.StringIO()) == code
        assert gc.isenabled() is enabled
        # only main freezes: a library caller keeps a collector that sees its heap
        assert gc.get_freeze_count() == frozen
    finally:
        gc.enable()
    # the collector is off while a command merges graphs
    assert seen == ([False] if argv[0] == "graph" and code == 1 else [])



def test_main_writes_all_of_a_large_output_into_a_pipe(tmp_path):
    # main freezes the heap and exits; the whole output must still reach a
    # reader that drains a pipe more slowly than the command fills it
    left, right = tmp_path / "l.json", tmp_path / "r.json"
    left.write_bytes(_cdx(2000))
    right.write_bytes(_cdx(2000, rename=True))
    argv = ["compare", "--format", "json", str(left), str(right)]
    out = io.StringIO()
    code = run(argv, stdout=out, stderr=io.StringIO())
    assert code == 1 and len(out.getvalue()) > 8 * 65536  # many pipe buffers
    src = str(Path(bomdiff.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "BOMDIFF_THRESHOLD"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    r = subprocess.run([sys.executable, "-m", "bomdiff.cli", *argv],
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert (r.returncode, r.stderr) == (code, b"")
    assert r.stdout == out.getvalue().encode()
