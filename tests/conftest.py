import json
import re
import warnings

import pytest

from bomdiff.model import BomDocument, BomFormat, Component, Relationship, RelationshipKind

# Hypothesis reports a failing example through hypothesis.extra._patching,
# which imports libcst, whose import warns (DeprecationWarning). Under
# `-W error` that warning escapes pytest's report hook as an INTERNALERROR,
# which hides the failing test's name and example. Imported once here with
# the warning ignored, the module is cached and the report imports it
# silently. Without libcst the report skips the patch and nothing warns.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


@pytest.fixture
def make_cdx():
    """Builder for CycloneDX JSON bytes."""

    def build(components, dependencies=None, subject=None, spec_version="1.5"):
        doc = {
            "bomFormat": "CycloneDX",
            "specVersion": spec_version,
            "components": components,
        }
        if subject is not None:
            doc["metadata"] = {"component": subject}
        if dependencies is not None:
            doc["dependencies"] = dependencies
        return json.dumps(doc).encode()

    return build


@pytest.fixture
def make_spdx():
    def build(packages, relationships=None, describes=None):
        doc = {"spdxVersion": "SPDX-2.3", "packages": packages}
        if relationships is not None:
            doc["relationships"] = relationships
        if describes is not None:
            doc["documentDescribes"] = describes
        return json.dumps(doc).encode()

    return build


@pytest.fixture
def make_hbom():
    def build(rows):
        lines = ["ref,name,parent,vendor,quantity"]
        for r in rows:
            lines.append(
                ",".join(
                    str(r.get(k, "")) for k in ("ref", "name", "parent", "vendor", "quantity")
                )
            )
        return "\n".join(lines).encode() + b"\n"

    return build


def doc_from(components, relationships=(), subject=None, fmt=BomFormat.CYCLONEDX_JSON, source="test"):
    """Direct document builder for graph/diff tests that don't need parsing."""
    return BomDocument(
        format=fmt,
        spec_version="",
        subject=subject,
        components=tuple(components),
        relationships=tuple(
            Relationship(s, t, k) for s, t, k in relationships
        ),
        source_name=source,
    )


def comp(cid, name=None, **kw):
    return Component(id=cid, name=name if name is not None else cid, **kw)


DEP = RelationshipKind.DEPENDS_ON
CON = RelationshipKind.CONTAINS


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion, from real test outcomes."""
    results = {}
    for status in ("passed", "failed", "error", "skipped"):
        for rep in terminalreporter.stats.get(status, []):
            nodeid = getattr(rep, "nodeid", "")
            m = re.search(r"test_acceptance\.py::test_criterion_(\d+)", nodeid)
            if m is None:
                continue
            num = int(m.group(1))
            # a setup error must not be shadowed by a missing call phase
            if num not in results or status != "passed":
                results[num] = (status, nodeid.split("::")[-1])
    if not results:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for num in sorted(results):
        status, label = results[num]
        word = "PASS" if status == "passed" else "FAIL"
        terminalreporter.write_line(f"criterion {num:02d}: {word}  {label}")
