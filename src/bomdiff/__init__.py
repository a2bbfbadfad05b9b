"""Normalize, compare, and visualize software and hardware bills of materials.

The public names below load their module on first access (PEP 562), so
``import bomdiff`` loads no submodule and a CLI command loads only the
modules it runs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "flatcompare": (
        "ConsistencyCategory",
        "ConsistencyFinding",
        "MultisetDiff",
        "cross_field_consistency",
        "extract_field",
        "extract_organization",
        "multiset_diff",
        "organization_delta",
        "set_diff",
    ),
    "fuzzy": (
        "FuzzyConfig",
        "FuzzyMatch",
        "all_pairs_matches",
        "jaro",
        "jaro_winkler",
    ),
    "graphcompare": (
        "BomGraph",
        "MergedGraph",
        "build_graph",
        "match_stats",
        "merge_graphs",
        "structure_constrained_reduction",
    ),
    "ingest": (
        "IngestOptions",
        "ParseError",
        "UnknownFormatError",
        "dedup_components",
        "detect_format",
        "load_document",
        "parse_cyclonedx",
        "parse_document",
        "parse_hbom",
        "parse_spdx",
    ),
    "model": (
        "BomDocument",
        "BomFormat",
        "Component",
        "ConfigError",
        "FieldSelector",
        "Relationship",
        "RelationshipKind",
    ),
    "report": ("DiffReport", "classify_differences", "render_json", "render_table", "to_dot"),
}

# public name -> the submodule that defines it
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
