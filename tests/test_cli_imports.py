"""What a command loads, and the paths that load a module on first use.

In this process every bomdiff module is already imported, so these tests
start a fresh interpreter for each run.
"""

import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import bomdiff
from bomdiff.cli import run

_SRC = str(Path(bomdiff.__file__).resolve().parents[1])

# the modules a command may leave unloaded
_WATCHED = ("bomdiff.graphcompare", "bomdiff.flatcompare", "bomdiff.fuzzy", "datetime", "csv")

# Runs cli.run on argv and prints its exit code and which watched modules
# importing bomdiff.cli and running the command loaded.
_PROBE = f"""
import io, json, sys
before = set(sys.modules)
from bomdiff.cli import run
code = run(sys.argv[1:], stdout=io.StringIO(), stderr=io.StringIO())
loaded = [m for m in {_WATCHED!r} if m in sys.modules and m not in before]
print(json.dumps([code, loaded]))
"""

_INSPECT = (
    "source: l.json\n"
    "format: cyclonedx-json 1.5\n"
    "components: 2\n"
    "relationships: 0\n"
    "subject: (none)\n"
    "unique names: 2\n"
    "unique purls: 2\n"
    "unique cpes: 0\n"
    "unique vendors: 0\n"
    "unique licenses: 0\n"
    "unique hashes: 0\n"
    "unique organizations: 2\n"
)


def _cdx(*names):
    return json.dumps({
        "bomFormat": "CycloneDX", "specVersion": "1.5",
        "components": [{"bom-ref": n, "name": n, "purl": f"pkg:pypi/{n}@1"} for n in names],
    })


@pytest.fixture
def tiny(tmp_path):
    (tmp_path / "l.json").write_text(_cdx("requests", "zlib"))
    (tmp_path / "r.json").write_text(_cdx("requests2", "zlib"))
    (tmp_path / "parts.csv").write_text("ref,name,parent\nb,board,\nc,cap,b\n")
    return tmp_path


def _fresh(args, cwd, **env):
    """A fresh interpreter with this checkout's sources first on the path."""
    full = {k: v for k, v in os.environ.items() if k != "BOMDIFF_THRESHOLD"}
    full["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, full.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], capture_output=True, cwd=cwd,
                          env={**full, **env})


def _cli(argv, cwd, **env):
    return _fresh(["-m", "bomdiff.cli", *argv], cwd, **env)


_FLAT, _GRAPH = ["bomdiff.flatcompare"], ["bomdiff.graphcompare", "bomdiff.fuzzy"]


@pytest.mark.parametrize("argv, code, loaded", [
    (["inspect", "l.json"], 0, _FLAT),
    (["compare", "l.json", "r.json"], 1, _FLAT),
    (["compare", "--mode", "set", "--format", "json", "l.json", "r.json"], 1, _FLAT),
    (["orgs", "l.json", "r.json"], 1, _FLAT),
    (["licenses", "l.json", "r.json"], 0, _FLAT),
    (["compare", "--fuzzy", "l.json", "r.json"], 1, _FLAT + ["bomdiff.fuzzy"]),
    (["graph", "l.json", "r.json"], 1, _GRAPH),
    (["graph", "--format", "json", "l.json", "r.json"], 1, _GRAPH),
    (["graph", "--format", "dot", "l.json", "r.json"], 1, _GRAPH),
    (["graph", "--stats", "l.json", "r.json"], 1, _GRAPH),
    (["graph", "parts.csv", "parts.csv"], 0, _GRAPH + ["csv"]),
    (["inspect", "--timestamp", "l.json"], 0, _FLAT + ["datetime"]),
    (["inspect", "parts.csv"], 0, _FLAT + ["csv"]),
], ids=["inspect", "compare", "compare-set-json", "orgs", "licenses", "compare-fuzzy",
        "graph", "graph-json", "graph-dot", "graph-stats", "graph-equal", "timestamp",
        "csv-input"])
def test_each_command_loads_only_what_it_runs(tiny, argv, code, loaded):
    r = _fresh(["-c", _PROBE, *argv], tiny)
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout) == [code, loaded]


def test_bare_package_import_loads_no_submodule(tiny):
    r = _fresh(["-c", (
        "import sys, bomdiff\n"
        "print(sorted(m for m in sys.modules if m.startswith('bomdiff.')))\n"
        "print(set(bomdiff.__all__) <= set(dir(bomdiff)))\n"
        "from bomdiff import graphcompare\n"
        "print(graphcompare is sys.modules['bomdiff.graphcompare'])\n"
    )], tiny)
    assert (r.returncode, r.stdout, r.stderr) == (0, b"[]\nTrue\nTrue\n", b"")


def test_timestamp_header_precedes_the_same_output(tiny):
    r = _cli(["inspect", "--timestamp", "l.json"], tiny)
    assert (r.returncode, r.stderr) == (0, b"")
    header, rest = r.stdout.decode().split("\n", 1)
    # isoformat drops the fraction when the microseconds are 0
    assert re.fullmatch(r"generated: \d{4}-\d\d-\d\dT\d\d:\d\d:\d\d(\.\d{6})?\+00:00", header)
    assert rest == _INSPECT


@pytest.mark.parametrize("argv, env, stderr", [
    (["graph", "--threshold", "2", "l.json", "r.json"], {},
     b"error: threshold 2.0 outside [0, 1]\n"),
    (["compare", "--fuzzy", "l.json", "r.json"], {"BOMDIFF_THRESHOLD": "x"},
     b"error: BOMDIFF_THRESHOLD='x' is not a number\n"),
    (["graph", "l.json", "r.json"], {"BOMDIFF_THRESHOLD": "x"},
     b"error: BOMDIFF_THRESHOLD='x' is not a number\n"),
])
def test_config_errors_from_a_fresh_interpreter(tiny, argv, env, stderr):
    # cli catches model.ConfigError, which fuzzy raises under the same name
    r = _cli(argv, tiny, **env)
    assert (r.returncode, r.stdout, r.stderr) == (2, b"", stderr)


@pytest.mark.parametrize("argv", [["--help"], ["graph", "--help"]])
def test_help_from_a_fresh_interpreter_matches_in_process(tiny, argv):
    out = io.StringIO()
    assert run(argv, stdout=out, stderr=io.StringIO()) == 0
    r = _cli(argv, tiny)
    assert (r.returncode, r.stdout.decode(), r.stderr) == (0, out.getvalue(), b"")


def test_every_public_name_resolves_to_its_home_object():
    # dir() lists a name before its first access binds it in the package
    assert set(bomdiff.__all__) <= set(dir(bomdiff))
    for name in bomdiff.__all__:
        value = getattr(bomdiff, name)
        assert value is getattr(sys.modules[f"bomdiff.{bomdiff._HOME[name]}"], name), name
    # the version stays a plain attribute
    assert bomdiff.__version__ == "0.1.0" and "__version__" in dir(bomdiff)


def test_field_selector_is_one_object_in_every_module():
    # defined in model, so that graph and the CLI need not load flatcompare
    from bomdiff import flatcompare, model, report

    assert bomdiff.FieldSelector is flatcompare.FieldSelector is model.FieldSelector
    assert set(report._LABELS) == set(model.FieldSelector)


def test_model_names_load_only_model(tiny):
    # FieldSelector and ConfigError live in model, so neither loads
    # flatcompare or fuzzy, which keep them under the same names
    r = _fresh(["-c", (
        "import sys, bomdiff\n"
        "bomdiff.FieldSelector, bomdiff.ConfigError\n"
        "print(sorted(m for m in sys.modules if m.startswith('bomdiff.')))\n"
        "from bomdiff import flatcompare, fuzzy, model\n"
        "print(fuzzy.ConfigError is model.ConfigError is bomdiff.ConfigError)\n"
        "print(flatcompare.FieldSelector is model.FieldSelector is bomdiff.FieldSelector)\n"
    )], tiny)
    assert (r.returncode, r.stdout, r.stderr) == (0, b"['bomdiff.model']\nTrue\nTrue\n", b"")


def test_star_import_binds_every_public_name():
    ns = {}
    exec("from bomdiff import *", ns)
    assert {name: ns[name] for name in bomdiff.__all__} == {
        name: getattr(bomdiff, name) for name in bomdiff.__all__
    }


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        bomdiff.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from bomdiff import no_such_name", {})
    assert not hasattr(bomdiff, "no_such_name")
