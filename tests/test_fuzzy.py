import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bomdiff import _jaro_py
from bomdiff.fuzzy import (
    BACKEND,
    ConfigError,
    FuzzyConfig,
    FuzzyMatch,
    all_pairs_matches,
    jaro,
    jaro_winkler,
)

try:
    from bomdiff import _jaro_cy
except ImportError:
    _jaro_cy = None


# Independent reference: index-set formulation instead of flag arrays.
# Kept deliberately different in structure from the shipped kernels.
def ref_jaro(s1, s2):
    if not s1 and not s2:
        return 1.0
    if not s1 or not s2:
        return 0.0
    window = max(max(len(s1), len(s2)) // 2 - 1, 0)
    m1, m2 = [], []
    used = set()
    for i, ch in enumerate(s1):
        for j in range(max(0, i - window), min(len(s2), i + window + 1)):
            if j not in used and s2[j] == ch:
                used.add(j)
                m1.append(i)
                m2.append(j)
                break
    if not m1:
        return 0.0
    a = [s1[i] for i in sorted(m1)]
    b = [s2[j] for j in sorted(m2)]
    mismatched = sum(1 for x, y in zip(a, b) if x != y)
    t = mismatched // 2
    m = len(m1)
    return (m / len(s1) + m / len(s2) + (m - t) / m) / 3


def ref_jaro_winkler(s1, s2, scale=0.1, max_prefix=4):
    j = ref_jaro(s1, s2)
    prefix = 0
    for a, b in zip(s1[:max_prefix], s2[:max_prefix]):
        if a != b:
            break
        prefix += 1
    return j + prefix * scale * (1 - j)


names = st.text(
    alphabet=st.sampled_from("abcdefgh-._0123456789"), min_size=0, max_size=24
)


# The all-pairs loop as it was before pruning: every pair is scored. Kept as
# the oracle for the pruned ``_jaro_py.score_pairs``.
def unpruned_score_pairs(
    left, right, threshold, prefix_scale=0.1, max_prefix=4, boost_floor=0.0,
    exclude_exact=False,
):
    out = []
    for i in range(len(left)):
        l = left[i]
        for j in range(len(right)):
            r = right[j]
            if exclude_exact and l == r:
                continue
            score = _jaro_py.jaro_winkler(l, r, prefix_scale, max_prefix, boost_floor)
            if score > threshold:
                out.append((i, j, score))
    return out


def test_classic_reference_values():
    assert math.isclose(jaro("MARTHA", "MARHTA"), 17 / 18, abs_tol=1e-12)
    assert math.isclose(jaro_winkler("MARTHA", "MARHTA"), 0.9611111111111111, abs_tol=1e-12)
    assert math.isclose(jaro_winkler("DWAYNE", "DUANE"), 0.84, abs_tol=1e-9)
    assert math.isclose(jaro_winkler("DIXON", "DICKSONX"), 0.8133333333333332, abs_tol=1e-9)


def test_trivial_values():
    assert jaro("abc", "abc") == 1.0
    assert jaro("abc", "xyz") == 0.0
    assert jaro("", "") == 1.0
    assert jaro("a", "") == 0.0
    assert jaro("", "a") == 0.0
    assert jaro_winkler("x", "x") == 1.0


@given(names, names)
@settings(max_examples=500)
def test_jaro_matches_reference(s1, s2):
    assert jaro(s1, s2) == ref_jaro(s1, s2)


@given(names, names)
@settings(max_examples=500)
def test_jaro_winkler_matches_reference(s1, s2):
    assert jaro_winkler(s1, s2) == ref_jaro_winkler(s1, s2)


@given(names, names)
@settings(max_examples=300)
def test_symmetry(s1, s2):
    assert jaro(s1, s2) == jaro(s2, s1)
    assert jaro_winkler(s1, s2) == jaro_winkler(s2, s1)


@given(names, names)
@settings(max_examples=300)
def test_range_and_dominance(s1, s2):
    j = jaro(s1, s2)
    jw = jaro_winkler(s1, s2)
    assert 0.0 <= j <= 1.0
    assert 0.0 <= jw <= 1.0
    assert jw >= j


@given(names, names)
@settings(max_examples=300)
def test_identity_iff_equal(s1, s2):
    if s1 == s2:
        assert jaro_winkler(s1, s2) == 1.0
    else:
        assert jaro_winkler(s1, s2) < 1.0


@given(names, names, st.sampled_from([0.0, 0.5, 0.7, 0.9]))
@settings(max_examples=300)
def test_boost_floor_gates_the_bonus(s1, s2, floor):
    cfg = FuzzyConfig(boost_floor=floor)
    j = jaro(s1, s2)
    jw = jaro_winkler(s1, s2, cfg)
    if floor > 0.0 and j < floor:
        assert jw == j
    else:
        assert jw == jaro_winkler(s1, s2)


@pytest.mark.skipif(_jaro_cy is None, reason="compiled backend not built")
@given(
    names,
    names,
    st.sampled_from([0.0, 0.1, 0.25]),
    st.sampled_from([0, 1, 4]),
    st.sampled_from([0.0, 0.7]),
)
@settings(max_examples=500)
def test_backends_bit_identical(s1, s2, scale, max_prefix, floor):
    assert _jaro_cy.jaro(s1, s2) == _jaro_py.jaro(s1, s2)
    assert _jaro_cy.jaro_winkler(s1, s2, scale, max_prefix, floor) == _jaro_py.jaro_winkler(
        s1, s2, scale, max_prefix, floor
    )


def test_backend_is_reportable():
    assert BACKEND in ("compiled", "pure")


def test_config_validation():
    with pytest.raises(ConfigError):
        FuzzyConfig(threshold=1.5)
    with pytest.raises(ConfigError):
        FuzzyConfig(threshold=-0.1)
    with pytest.raises(ConfigError):
        FuzzyConfig(prefix_scale=0.3)
    with pytest.raises(ConfigError):
        FuzzyConfig(max_prefix=-1)
    # each in range, product out of range: score could pass 1
    with pytest.raises(ConfigError):
        FuzzyConfig(prefix_scale=0.25, max_prefix=5)
    FuzzyConfig(prefix_scale=0.25, max_prefix=4)  # product exactly 1 is fine


@pytest.mark.parametrize("max_prefix", [2.5, 3.0, True, "4"])
def test_config_rejects_non_integer_max_prefix(max_prefix):
    with pytest.raises(ConfigError, match="max_prefix"):
        FuzzyConfig(max_prefix=max_prefix)


def test_all_pairs_single_match():
    out = all_pairs_matches({"commons-collections"}, {"commons-collections4"})
    assert len(out) == 1
    assert out[0].left == "commons-collections"
    assert math.isclose(out[0].score, 0.99, abs_tol=1e-9)


def test_all_pairs_exact_exclusion():
    assert all_pairs_matches({"a"}, {"a"}, exclude_exact=True) == []
    kept = all_pairs_matches({"a"}, {"a"})
    assert [m.score for m in kept] == [1.0]


def test_all_pairs_dissimilar_sets_empty():
    assert all_pairs_matches({"aaaa"}, {"zzzz"}) == []


def test_all_pairs_ordering_is_deterministic():
    left = {"alpha", "alphb", "beta"}
    right = {"alphc", "betb"}
    cfg = FuzzyConfig(threshold=0.5)
    out = all_pairs_matches(left, right, cfg)
    assert out == sorted(out, key=lambda m: (-m.score, m.left, m.right))
    # independent of input iteration order
    assert out == all_pairs_matches(sorted(left, reverse=True), sorted(right, reverse=True), cfg)


@given(
    st.sets(names, max_size=20),
    st.sets(names, max_size=20),
    st.sampled_from([0.5, 0.85, 0.95]),
)
@settings(max_examples=100)
def test_all_pairs_equals_brute_force(left, right, threshold):
    cfg = FuzzyConfig(threshold=threshold)
    got = {(m.left, m.right, m.score) for m in all_pairs_matches(left, right, cfg)}
    want = set()
    for l in left:
        for r in right:
            s = jaro_winkler(l, r, cfg)
            if s > threshold:
                want.add((l, r, s))
    assert got == want


def test_table_anchored_rename_pairs_clear_default_threshold():
    pairs = [
        ("bcpkix-jdk15on", "bcpkix-jdk18on"),
        ("bcprov-jdk15on", "bcprov-jdk18on"),
        ("commons-collections", "commons-collections4"),
        ("hypersistence-utils-hibernate-55", "hypersistence-utils-hibernate-63"),
        ("javax.annotation-api", "jakarta.annotation-api"),
        ("swagger-annotations", "swagger-annotations-jakarta"),
    ]
    for left, right in pairs:
        assert jaro_winkler(left, right) > 0.85, (left, right)


def test_match_dataclass_shape():
    m = FuzzyMatch(left="a", right="b", score=0.9)
    assert (m.left, m.right, m.score) == ("a", "b", 0.9)


@given(
    st.lists(names, max_size=12),
    st.lists(names, max_size=12),
    st.sampled_from([0.0, 0.1, 0.25]),
    st.sampled_from([0, 1, 4]),
    st.sampled_from([0.0, 0.7]),
    st.booleans(),
    st.data(),
)
@settings(max_examples=300)
def test_pruned_score_pairs_equals_unpruned(
    left, right, scale, max_prefix, floor, exclude_exact, data
):
    args = (scale, max_prefix, floor, exclude_exact)
    scores = [s for _, _, s in unpruned_score_pairs(left, right, -1.0, *args)]
    thresholds = [0.0, 0.5, 0.85, 1.0]
    if scores:
        # A pair's own score and the float just below it: the pair must be
        # dropped at the first and kept at the second (strict >).
        score = data.draw(st.sampled_from(scores))
        thresholds += [score, math.nextafter(score, -math.inf)]
    for threshold in thresholds:
        assert _jaro_py.score_pairs(left, right, threshold, *args) == (
            unpruned_score_pairs(left, right, threshold, *args)
        ), threshold


def test_pruned_score_pairs_on_criterion_10_corpus():
    words = (
        "relay sensor bridge filter codec driver panel probe shunt mixer valve core"
    ).split()
    rng = random.Random(7)
    mk = lambda tag: [
        f"{rng.choice(words)}-{tag}{i:03d}-{rng.choice(words)}" for i in range(250)
    ]
    left, right = sorted(mk("a")), sorted(mk("b"))
    cfg = FuzzyConfig()
    args = (cfg.threshold, cfg.prefix_scale, cfg.max_prefix, cfg.boost_floor)
    want = unpruned_score_pairs(left, right, *args)
    assert want
    assert _jaro_py.score_pairs(left, right, *args) == want


@pytest.mark.parametrize("scale, max_prefix", [(0.5, 4), (-0.1, 4), (0.1, 2.5)])
def test_score_pairs_outside_pruning_range_scores_every_pair(scale, max_prefix):
    # p * scale may leave [0, 1] (or max_prefix is not an integer), so the
    # bound does not hold and the kernel must fall back to scoring every pair.
    left = ["abcdx", "abcyz", "zzzz", "", "ab"]
    right = ["abcdy", "abqqq", "zzzy", "", "a"]
    for threshold in (-1.0, 0.0, 0.5, 0.9):
        assert _jaro_py.score_pairs(left, right, threshold, scale, max_prefix) == (
            unpruned_score_pairs(left, right, threshold, scale, max_prefix)
        )
