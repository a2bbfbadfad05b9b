"""The hand-written record classes against the dataclasses they replaced.

``tests/dataclass_records.py`` keeps each record class as the frozen
dataclass it was. For the same field values, old and new agree on the
outcome of construction (the fields after normalization, or the type and
text of the error), on ``repr``, ``==`` and ``hash`` (or the ``TypeError``
of a record that holds a dict or list), on ``__match_args__`` and the
constructor's signature, and on replacing a field. The new records are
also immutable, and survive ``copy``, ``deepcopy`` and ``pickle``.
"""

import copy
import dataclasses
import inspect
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dataclass_records as old
from bomdiff import flatcompare, fuzzy, graphcompare, ingest, model, report
from bomdiff.flatcompare import ConsistencyCategory, ConsistencyFinding, MultisetDiff
from bomdiff.fuzzy import FuzzyMatch
from bomdiff.graphcompare import BomGraph, GraphNode
from bomdiff.model import (
    BomFormat,
    Component,
    FieldSelector,
    Relationship,
    RelationshipKind,
)

# ------------------------------------------------------------- field values

_STR = st.sampled_from(["", "a", "b", "zlib"])
_OPT = st.sampled_from([None, "", "1", "pkg:npm/a@1"])


def _seq(elements):
    """Short lists or tuples of ``elements``."""
    items = st.lists(elements, max_size=3)
    return items | items.map(tuple)


_PAIR = st.tuples(st.sampled_from(["MD5", "k"]), st.sampled_from(["aa", "1"]))
_PAIRS = _seq(_PAIR | _PAIR.map(list))

_component_args = st.tuples(
    _STR, _STR, _OPT, _OPT, _OPT, _OPT, _seq(st.sampled_from(["MIT", "Zlib"])),
    _PAIRS, st.integers(-1, 3), _PAIRS,
)
_relationship_args = st.tuples(st.sampled_from(["a", "b"]), st.sampled_from(["a", "b"]),
                               st.sampled_from(RelationshipKind))


@st.composite
def _document_args(draw):
    ids = draw(st.lists(st.sampled_from(["a", "b", "c"]), max_size=4))
    components = [Component(i, draw(st.sampled_from(["x", "y"])),
                            draw(st.sampled_from([None, "1"]))) for i in ids]
    ends = st.sampled_from(["a", "b", "c", "ghost"])
    edges = st.tuples(ends, ends, st.sampled_from(RelationshipKind)).filter(
        lambda e: e[0] != e[1])
    relationships = [Relationship(*e) for e in draw(st.lists(edges, max_size=4))]
    return (draw(st.sampled_from(BomFormat)), draw(st.sampled_from(["", "1.5"])),
            draw(st.sampled_from([None, "a", "ghost"])),
            draw(st.sampled_from([list, tuple]))(components), relationships,
            draw(st.sampled_from(["", "l.json"])))


_ingest_options_args = st.tuples(
    st.booleans(), st.booleans(),
    st.sampled_from(["", "lib", (), ("lib",), ["lib", "x"], ("",), (b"x",), ("a", 1)]),
)
_text_args = st.tuples(_STR, _STR)

_counts = st.dictionaries(st.sampled_from(["a", "b"]), st.integers(1, 2), max_size=2)
_multiset_diff_args = st.tuples(
    st.integers(0, 2), st.integers(0, 2), st.integers(0, 2), st.integers(0, 2),
    st.dictionaries(st.sampled_from(["a", "b"]), st.tuples(st.integers(1, 2), st.integers(1, 2)),
                    max_size=2),
    _counts, _counts,
)
_ids = st.lists(st.sampled_from(["a", "b"]), max_size=2).map(tuple)
_finding_args = st.tuples(st.sampled_from(ConsistencyCategory), _ids, _ids, _STR)
_fuzzy_config_args = st.tuples(st.sampled_from([-0.5, 0.0, 0.85, 1.0, 1.5]),
                               st.sampled_from([0.0, 0.7]))
_fuzzy_match_args = st.tuples(_STR, _STR, st.sampled_from([0.0, 0.9, 1.0]))


def _graph(name):
    nodes = (GraphNode("r", "r", None), GraphNode("a", "a", "a"))
    return BomGraph(nodes, ({0: [1]}, {}), 0, name)


_GRAPHS = (_graph("l"), _graph("r"))
_bom_graph_args = st.tuples(
    st.sampled_from([(), (GraphNode("a", "a", "a"),)]),
    st.sampled_from([({}, {}), ({0: [1]}, {})]), st.integers(0, 1), _STR,
)
_matches = st.lists(st.sampled_from([-1, 0, 1]), max_size=2)
_merged_graph_args = st.tuples(
    st.sampled_from(_GRAPHS), st.sampled_from(_GRAPHS), _matches, _matches,
    st.sampled_from([(), ((1, 1, 0.9),)]),
)
_diff_report_args = st.tuples(
    st.tuples(_STR, _STR),
    st.sampled_from([{}, {FieldSelector.NAME: MultisetDiff(1, 1, 1, 1, {}, {"a": 1}, {})}]),
    st.sampled_from([(), (FuzzyMatch("a", "b", 0.9),)]),
    st.sampled_from([None, graphcompare.MergedGraph(*_GRAPHS, [0, 1], [0, 1], ())]),
    st.sampled_from([(), (ConsistencyFinding(ConsistencyCategory.CONSENSUS, ("a",), ("a",),
                                             "d"),)]),
    st.sampled_from([None, ((1, 2), (3, 4))]),
)

# name: (the dataclass, the record, a strategy of its constructor's arguments)
_CASES = {
    "Component": (old.Component, model.Component, _component_args),
    "Relationship": (old.Relationship, model.Relationship, _relationship_args),
    "BomDocument": (old.BomDocument, model.BomDocument, _document_args()),
    "IngestOptions": (old.IngestOptions, ingest.IngestOptions, _ingest_options_args),
    "_Text": (old._Text, ingest._Text, _text_args),
    "DiffReport": (old.DiffReport, report.DiffReport, _diff_report_args),
    "MultisetDiff": (old.MultisetDiff, flatcompare.MultisetDiff, _multiset_diff_args),
    "ConsistencyFinding": (old.ConsistencyFinding, flatcompare.ConsistencyFinding,
                           _finding_args),
    "FuzzyConfig": (old.FuzzyConfig, fuzzy.FuzzyConfig, _fuzzy_config_args),
    "FuzzyMatch": (old.FuzzyMatch, fuzzy.FuzzyMatch, _fuzzy_match_args),
    "BomGraph": (old.BomGraph, graphcompare.BomGraph, _bom_graph_args),
    "MergedGraph": (old.MergedGraph, graphcompare.MergedGraph, _merged_graph_args),
}
_HOLD_A_DICT_OR_LIST = {"DiffReport", "MultisetDiff", "BomGraph", "MergedGraph"}


def _outcome(build, *args, **kwargs):
    """What a call gives: its value, or the type and text of what it raised."""
    try:
        return "ok", build(*args, **kwargs)
    except Exception as e:  # compared, never swallowed: any mismatch fails
        return "raised", type(e).__name__, str(e)


def _fields(record):
    """A record's fields as a tuple, with their exact types kept."""
    return tuple((type(getattr(record, f)), getattr(record, f)) for f in record.__match_args__)


def _same(old_outcome, new_outcome):
    if old_outcome[0] != "ok" or new_outcome[0] != "ok":
        return old_outcome == new_outcome
    a, b = old_outcome[1], new_outcome[1]
    return _fields(a) == _fields(b) and repr(a) == repr(b)


@st.composite
def _arguments(draw, strategy, dataclass):
    """All of a constructor's arguments, or a prefix that leaves the rest
    to their defaults."""
    args = draw(strategy)
    required = sum(f.default is dataclasses.MISSING
                   and f.default_factory is dataclasses.MISSING
                   for f in dataclasses.fields(dataclass))
    return args[:draw(st.integers(required, len(args)))]


# ------------------------------------------------------------------- tests


@pytest.mark.parametrize("name", _CASES)
def test_match_args_and_signature_follow_the_dataclass(name):
    dataclass, record, _ = _CASES[name]
    fields = tuple(f.name for f in dataclasses.fields(dataclass))
    assert record.__match_args__ == dataclass.__match_args__ == fields
    assert record.__name__ == record.__qualname__ == dataclass.__qualname__
    assert record.__doc__ and not record.__doc__.startswith(f"{name}(")
    want = inspect.signature(dataclass).parameters
    got = inspect.signature(record).parameters
    assert list(got) == list(want)
    for p in fields:
        assert got[p].kind == want[p].kind
        if name == "DiffReport" and p == "field_diffs":
            # a fresh {} per report, as the dataclass's default_factory gave
            assert got[p].default is None
            assert record(("l", "r")).field_diffs == {}
            assert record(("l", "r")).field_diffs is not record(("l", "r")).field_diffs
        else:
            assert got[p].default == want[p].default


@pytest.mark.parametrize("name", _CASES)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_record_matches_dataclass(name, data):
    dataclass, record, strategy = _CASES[name]
    a = data.draw(_arguments(strategy, dataclass), label="a")
    b = data.draw(_arguments(strategy, dataclass), label="b")
    old_a, new_a = _outcome(dataclass, *a), _outcome(record, *a)
    assert _same(old_a, new_a)
    if new_a[0] != "ok":
        return
    old_a, new_a = old_a[1], new_a[1]
    assert type(new_a) is record
    assert _outcome(hash, new_a) == _outcome(hash, old_a)
    if name in _HOLD_A_DICT_OR_LIST:
        assert _outcome(hash, new_a)[0] == "raised"
    old_b, new_b = _outcome(dataclass, *b), _outcome(record, *b)
    if old_b[0] == new_b[0] == "ok":
        assert (new_a == new_b[1]) == (old_a == old_b[1])
        assert (new_a != new_b[1]) == (old_a != old_b[1])
    assert new_a.__eq__(old_a) is NotImplemented and new_a != old_a
    # replacing one field with b's value: the same outcome, through the
    # constructor and its checks
    field = data.draw(st.sampled_from(record.__match_args__), label="field")
    if len(b) > record.__match_args__.index(field):
        value = b[record.__match_args__.index(field)]
        assert _same(_outcome(dataclasses.replace, old_a, **{field: value}),
                     _outcome(new_a.__replace__, **{field: value}))
    assert new_a.__replace__() == new_a


@pytest.mark.parametrize("name", _CASES)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_record_is_immutable_and_copies(name, data):
    dataclass, record, strategy = _CASES[name]
    built = _outcome(record, *data.draw(strategy))
    if built[0] != "ok":
        return
    r = built[1]
    before = _fields(r)
    for attr in (*record.__match_args__, "other"):
        with pytest.raises(AttributeError):
            setattr(r, attr, None)
        with pytest.raises(AttributeError):
            delattr(r, attr)
    assert _fields(r) == before
    for twin in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
        assert type(twin) is record and twin == r and repr(twin) == repr(r)


def test_slots_where_no_cached_view_needs_a_dict():
    for name, (_, record, _) in _CASES.items():
        if name in ("BomDocument", "BomGraph", "MergedGraph"):
            assert "__dict__" in dir(record) and "__slots__" not in vars(record)
        else:
            assert record.__slots__ == record.__match_args__, name


def test_component_normalizes_as_the_dataclass_did():
    args = ("x", "n", "", "", "", "", ["MIT"], [["MD5", "aa"]], 2,
            [["b", "1"], ("a", "2")])
    new, dataclass = Component(*args), old.Component(*args)
    assert _fields(new) == _fields(dataclass)
    assert (new.version, new.purl, new.cpe, new.vendor) == (None,) * 4
    assert new.hashes == (("MD5", "aa"),) and new.extra == (("a", "2"), ("b", "1"))


def test_dot_style_keeps_the_palette():
    assert {f.name: getattr(report.DotStyle, f.name)
            for f in dataclasses.fields(old.DotStyle)} == dataclasses.asdict(old.DotStyle())


def test_builder_made_records_are_the_public_classes(make_cdx):
    doc = ingest.parse_document(make_cdx(
        [{"bom-ref": "a", "name": "a"}, {"bom-ref": "b", "name": "b"}],
        [{"ref": "a", "dependsOn": ["b"]}]))
    assert doc.components and doc.relationships
    for c in doc.components:
        assert type(c) is Component and isinstance(c, Component)
        assert c == Component(*(getattr(c, f) for f in Component.__match_args__))
    for r in doc.relationships:
        assert type(r) is Relationship and isinstance(r, Relationship)
        with pytest.raises(AttributeError):
            r.kind = None
    assert copy.deepcopy(doc) == doc == pickle.loads(pickle.dumps(doc))

