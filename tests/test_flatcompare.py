import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import comp, doc_from
from bomdiff.flatcompare import (
    JAVA_STDLIB_ORG_PREFIXES,
    ConsistencyCategory,
    ConsistencyFinding,
    FieldSelector,
    cross_field_consistency,
    extract_field,
    extract_organization,
    field_coverage,
    multiset_diff,
    organization_delta,
    set_diff,
)


def test_extract_field_weighs_quantity():
    doc = doc_from([comp("a", "chip", quantity=4), comp("b", "chip", quantity=2), comp("c", "other")])
    assert extract_field(doc, FieldSelector.NAME) == Counter({"chip": 6, "other": 1})


def test_extract_field_hash_entries():
    doc = doc_from([comp("a", "x", hashes=(("SHA256", "aa"), ("MD5", "bb")))])
    assert set(extract_field(doc, FieldSelector.HASH_DIGEST)) == {"SHA256:aa", "MD5:bb"}


def test_extract_field_skips_missing():
    doc = doc_from([comp("a", "x"), comp("b", "y", vendor="Acme")])
    assert extract_field(doc, FieldSelector.VENDOR) == Counter({"Acme": 1})


def chain_extract_field(doc, sel):
    """Reference: the original per-component if-chain over the selectors."""
    out = Counter()
    for c in doc.components:
        q = c.quantity
        if sel is FieldSelector.NAME:
            out[c.name] += q
        elif sel is FieldSelector.PURL:
            if c.purl is not None:
                out[c.purl] += q
        elif sel is FieldSelector.CPE:
            if c.cpe is not None:
                out[c.cpe] += q
        elif sel is FieldSelector.VENDOR:
            if c.vendor is not None:
                out[c.vendor] += q
        elif sel is FieldSelector.LICENSE:
            for lic in c.licenses:
                out[lic] += q
        elif sel is FieldSelector.HASH_DIGEST:
            for alg, digest in c.hashes:
                out[f"{alg}:{digest}"] += q
        elif sel is FieldSelector.ORGANIZATION:
            if c.purl is not None:
                org = extract_organization(c.purl)
                if org is not None:
                    out[org] += q
    return out


def _optional(values):
    return st.one_of(st.none(), st.just(""), st.sampled_from(values))


_PURLS = (
    "pkg:maven/com.acme.util/a@1",
    "pkg:maven/com.acme.util/b@2",
    "pkg:pypi/requests@2.28.0",
    "PKG:npm/%40angular/core@12",
    "pkg:generic",
    "pkg:maven/./x@1",
    "not-a-purl",
    "npm/left-pad@1",
)

_field_components = st.lists(
    st.fixed_dictionaries(
        {
            "name": st.sampled_from(("zlib", "curl", "cap")),
            "purl": _optional(_PURLS),
            "cpe": _optional(("cpe:2.3:a:zlib:zlib:1", "cpe:2.3:a:x:y:2")),
            "vendor": _optional(("Acme", "Murata")),
            "licenses": st.lists(st.sampled_from(("MIT", "Zlib", "GPL-3.0-only")), max_size=3),
            "hashes": st.lists(
                st.sampled_from((("SHA256", "aa"), ("MD5", "aa"), ("SHA256", "bb"))),
                unique=True,
                max_size=3,
            ),
            "quantity": st.integers(1, 5),
        }
    ),
    max_size=10,
).map(lambda fields: doc_from([comp(f"c{i}", **f) for i, f in enumerate(fields)]))


@given(_field_components)
@settings(max_examples=300)
def test_extract_field_table_equals_if_chain(doc):
    for sel in FieldSelector:
        assert extract_field(doc, sel) == chain_extract_field(doc, sel)


@pytest.mark.parametrize(
    "purl,expected",
    [
        ("pkg:maven/com.example.foo/bar@1.2.3", "com.example"),
        ("pkg:maven/org.slf4j/slf4j-api@2.0.9", "org.slf4j"),
        ("pkg:npm/%40angular/core@12.0.0", "%40angular"),
        ("pkg:pypi/requests@2.28.0", "requests"),  # undotted head returned whole
        ("pkg:golang/github.com/stretchr/testify@v1.8.0", "github.com"),
        ("pkg:maven/io.github.classgraph/classgraph@4.8.149", "io.github"),
        ("not-a-purl", None),
        ("", None),
    ],
)
def test_extract_organization(purl, expected):
    assert extract_organization(purl) == expected


def test_extract_organization_field():
    doc = doc_from(
        [
            comp("a", "foo", purl="pkg:maven/com.example.app/foo@1"),
            comp("b", "bar", purl="pkg:maven/com.example.app/bar@1"),
            comp("c", "baz", purl="pkg:pypi/baz@1"),
        ]
    )
    assert extract_field(doc, FieldSelector.ORGANIZATION) == Counter(
        {"com.example": 2, "baz": 1}
    )


def test_multiset_diff_known():
    d = multiset_diff(Counter({"a": 3, "b": 1, "c": 2}), Counter({"a": 1, "b": 1, "d": 5}))
    assert d.common == {"a": (3, 1), "b": (1, 1)}  # count skew stays in common
    assert d.left_only == {"c": 2}
    assert d.right_only == {"d": 5}
    assert d.left_only_total == 4  # a-surplus 2 + c 2
    assert d.right_only_total == 5


names = st.text(alphabet="abcdef", min_size=1, max_size=3)
multisets = st.dictionaries(names, st.integers(min_value=1, max_value=9), max_size=8).map(Counter)


@given(multisets, multisets)
@settings(max_examples=300)
def test_multiset_diff_conservation(left, right):
    d = multiset_diff(left, right)
    for k in set(left) | set(right):
        lc, rc = d.common.get(k, (0, 0))
        assert lc + d.left_only.get(k, 0) == left.get(k, 0)
        assert rc + d.right_only.get(k, 0) == right.get(k, 0)
    assert d.left_total == sum(left.values())
    assert d.right_total == sum(right.values())


@given(multisets, multisets)
@settings(max_examples=300)
def test_multiset_diff_antisymmetric(left, right):
    d, r = multiset_diff(left, right), multiset_diff(right, left)
    assert d.left_only == r.right_only
    assert d.common == {k: (rc, lc) for k, (lc, rc) in r.common.items()}
    assert d.left_only_total == r.right_only_total


@given(multisets)
@settings(max_examples=100)
def test_multiset_diff_self_is_empty(ms):
    d = multiset_diff(ms, ms)
    assert d.left_only == {} and d.right_only == {}
    assert d.common == {k: (v, v) for k, v in ms.items()}
    assert d.left_only_total == 0 and d.right_only_total == 0


def test_set_diff_collapses_counts():
    d = set_diff(Counter({"a": 5, "b": 2}), Counter({"b": 9, "c": 1}))
    assert d.common == {"b": (1, 1)}
    assert d.left_only == {"a": 1} and d.right_only == {"c": 1}
    assert d.left_unique == 2 and d.right_unique == 2


def test_organization_delta_excludes_java_stdlib():
    left = doc_from(
        [
            comp("a", "rt", purl="pkg:maven/java.base/rt@17"),
            comp("b", "annot", purl="pkg:maven/javax.annotation/a@1"),
            comp("c", "app", purl="pkg:maven/com.corp.app/app@1"),
        ]
    )
    right = doc_from([comp("d", "app", purl="pkg:maven/com.corp.app/app@2")])
    d = organization_delta(left, right)
    assert d.left_only == {} and d.right_only == {}
    # with exclusions disabled the stdlib orgs surface
    d2 = organization_delta(left, right, exclude_prefixes=())
    assert set(d2.left_only) == {"java.base", "javax.annotation"}


def test_java_stdlib_prefix_list_contents():
    assert "javax." in JAVA_STDLIB_ORG_PREFIXES and "com.sun." in JAVA_STDLIB_ORG_PREFIXES


def test_exclusion_covers_truncated_namespace_root():
    # two-segment extraction turns com.sun.mail into plain "com.sun", which
    # the dotted prefix must still cover
    left = doc_from([comp("a", "m", purl="pkg:maven/com.sun.mail/m@1")])
    right = doc_from([])
    assert organization_delta(left, right).left_only == {}
    # but unrelated orgs sharing the spelling prefix stay
    loose = doc_from([comp("a", "m", purl="pkg:maven/com.sunshine.api/m@1")])
    assert set(organization_delta(loose, right).left_only) == {"com.sunshine"}


def test_hash_coverage_partition():
    doc = doc_from([comp("a", "x", hashes=(("SHA256", "aa"),)), comp("b", "y"), comp("c", "z")])
    assert field_coverage(doc, FieldSelector.HASH_DIGEST) == (1, 2)


def test_field_coverage_counts_components_not_values():
    doc = doc_from(
        [
            comp("a", "x", licenses=("MIT", "Zlib"), quantity=3),
            comp("b", "y", purl="not-a-purl"),
            comp("c", "z", purl="pkg:maven/com.acme.x/z@1"),
        ]
    )
    assert field_coverage(doc, FieldSelector.LICENSE) == (1, 2)
    assert field_coverage(doc, FieldSelector.PURL) == (2, 1)
    assert field_coverage(doc, FieldSelector.ORGANIZATION) == (1, 2)
    assert field_coverage(doc, FieldSelector.NAME) == (3, 0)
    assert field_coverage(doc_from([]), FieldSelector.NAME) == (0, 0)


def _pair(left_comps, right_comps):
    return doc_from(left_comps, source="left"), doc_from(right_comps, source="right")


def test_consistency_same_name_different_hash():
    left, right = _pair(
        [comp("a", "openssl", hashes=(("SHA256", "aa"),))],
        [comp("b", "openssl", hashes=(("SHA256", "bb"),))],
    )
    findings = cross_field_consistency(left, right)
    assert [f.category for f in findings] == [ConsistencyCategory.SAME_NAME_DIFFERENT_HASH]
    assert findings[0].left_ids == ("a",) and findings[0].right_ids == ("b",)


def test_consistency_different_name_same_hash():
    left, right = _pair(
        [comp("a", "pkg-oldname", hashes=(("SHA256", "feed"),))],
        [comp("b", "pkg-newname", hashes=(("SHA256", "feed"),))],
    )
    findings = cross_field_consistency(left, right)
    assert [f.category for f in findings] == [ConsistencyCategory.DIFFERENT_NAME_SAME_HASH]
    assert "SHA256:feed" in findings[0].detail


def test_consistency_consensus():
    left, right = _pair(
        [comp("a", "zlib", hashes=(("SHA256", "cc"),))],
        [comp("b", "zlib", hashes=(("SHA256", "cc"), ("MD5", "dd")))],
    )
    findings = cross_field_consistency(left, right)
    assert [f.category for f in findings] == [ConsistencyCategory.CONSENSUS]


def test_consistency_categories_mutually_exclusive():
    # same name pair cannot be both consensus and same-name-different-hash
    left, right = _pair(
        [comp("a", "zlib", hashes=(("SHA256", "cc"),))],
        [comp("b", "zlib", hashes=(("SHA256", "cc"),)), comp("c", "tar", hashes=(("SHA1", "ee"),))],
    )
    findings = cross_field_consistency(left, right)
    cats = [f.category for f in findings]
    assert cats.count(ConsistencyCategory.CONSENSUS) == 1
    assert ConsistencyCategory.SAME_NAME_DIFFERENT_HASH not in cats


def test_consistency_unhashed_components_ignored():
    left, right = _pair([comp("a", "x")], [comp("b", "x")])
    assert cross_field_consistency(left, right) == []


def test_consistency_ordering_stable():
    left, right = _pair(
        [
            comp("a", "alpha", hashes=(("SHA256", "11"),)),
            comp("b", "beta", hashes=(("SHA256", "22"),)),
            comp("c", "was-gamma", hashes=(("SHA256", "33"),)),
        ],
        [
            comp("d", "alpha", hashes=(("SHA256", "11"),)),
            comp("e", "beta", hashes=(("SHA256", "99"),)),
            comp("f", "now-gamma", hashes=(("SHA256", "33"),)),
        ],
    )
    cats = [f.category for f in cross_field_consistency(left, right)]
    assert cats == [
        ConsistencyCategory.CONSENSUS,
        ConsistencyCategory.DIFFERENT_NAME_SAME_HASH,
        ConsistencyCategory.SAME_NAME_DIFFERENT_HASH,
    ]


def pairwise_cross_field_consistency(left, right):
    """Reference: the original all-pairs scan over hashed components."""
    lh = [c for c in left.components if c.hashes]
    rh = [c for c in right.components if c.hashes]

    consensus, sndh, dnsh = {}, {}, {}

    def tally(bucket, key, lid, rid):
        ls, rs, n = bucket.get(key, (set(), set(), 0))
        ls.add(lid)
        rs.add(rid)
        bucket[key] = (ls, rs, n + 1)

    for lc in lh:
        lset = set(lc.hashes)
        for rc in rh:
            shared = lset.intersection(rc.hashes)
            if lc.name == rc.name:
                if shared:
                    tally(consensus, lc.name, lc.id, rc.id)
                else:
                    tally(sndh, lc.name, lc.id, rc.id)
            elif shared:
                for alg, digest in shared:
                    tally(dnsh, f"{alg}:{digest}", lc.id, rc.id)

    findings = []
    for name in sorted(consensus):
        ls, rs, n = consensus[name]
        findings.append(
            ConsistencyFinding(
                ConsistencyCategory.CONSENSUS,
                tuple(sorted(ls)),
                tuple(sorted(rs)),
                f"name '{name}' agrees on at least one digest ({n} pair(s))",
            )
        )
    for key in sorted(dnsh):
        ls, rs, n = dnsh[key]
        findings.append(
            ConsistencyFinding(
                ConsistencyCategory.DIFFERENT_NAME_SAME_HASH,
                tuple(sorted(ls)),
                tuple(sorted(rs)),
                f"digest {key} appears under different names ({n} pair(s))",
            )
        )
    for name in sorted(sndh):
        ls, rs, n = sndh[name]
        findings.append(
            ConsistencyFinding(
                ConsistencyCategory.SAME_NAME_DIFFERENT_HASH,
                tuple(sorted(ls)),
                tuple(sorted(rs)),
                f"name '{name}' has no digest in common ({n} pair(s))",
            )
        )
    return findings


# Small pools make same-name groups and shared digests common; the hot digest
# lands on many components under several names.
_POOL_NAMES = ("zlib", "tar", "curl", "ssl")
_POOL_HASHES = tuple((alg, d) for alg in ("SHA256", "MD5") for d in ("aa", "bb", "cc"))
_HOT = ("SHA256", "ff")


def _components(prefix):
    entry = st.tuples(
        st.sampled_from(_POOL_NAMES),
        st.lists(st.sampled_from(_POOL_HASHES), unique=True, max_size=3),
        st.booleans(),
    )
    return st.lists(entry, max_size=12).map(
        lambda entries: [
            comp(f"{prefix}{i}", name, hashes=tuple(hs) + ((_HOT,) if hot else ()))
            for i, (name, hs, hot) in enumerate(entries)
        ]
    )


@given(_components("l"), _components("r"))
@settings(max_examples=400)
def test_indexed_consistency_equals_pairwise(left_comps, right_comps):
    left, right = _pair(left_comps, right_comps)
    assert cross_field_consistency(left, right) == pairwise_cross_field_consistency(
        left, right
    )


def test_indexed_consistency_equals_pairwise_on_seeded_corpus():
    rng = random.Random(3)
    names = [f"pkg-{i}" for i in range(90)]
    digests = [(rng.choice(("SHA256", "SHA1", "MD5")), f"{i:04x}") for i in range(120)]
    hot = ("SHA256", "hot")

    def side(prefix):
        out = []
        for i in range(300):
            hashes = rng.sample(digests, rng.choice((0, 1, 1, 1, 2, 3)))
            if rng.random() < 0.08:
                hashes.append(hot)
            out.append(comp(f"{prefix}{i:03d}", rng.choice(names), hashes=tuple(hashes)))
        return out

    left, right = _pair(side("l"), side("r"))
    findings = cross_field_consistency(left, right)
    assert findings == pairwise_cross_field_consistency(left, right)
    assert {f.category for f in findings} == set(ConsistencyCategory)
    assert any(f.detail.startswith("digest SHA256:hot ") for f in findings)
