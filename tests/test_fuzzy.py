import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bomdiff import fuzzy
from bomdiff.fuzzy import (
    BACKEND,
    ConfigError,
    FuzzyConfig,
    FuzzyMatch,
    all_pairs_matches,
    jaro,
    jaro_winkler,
)


# Independent reference: index-set formulation instead of flag arrays.
# Kept deliberately different in structure from the shipped kernel.
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

# Characters that stress the prefix slices of ``all_pairs_matches``: upper
# case sorts before lower case, a non-ASCII letter and an astral code point
# sort after ASCII, and U+10FFFF is the largest code point, so a slice end
# cannot be found by stepping past it.
_wide_chars = st.sampled_from("aAbZ-0\u00e9\U0001f600\U0010ffff")
# One stem per example, shared by both sides, so that names share prefixes
# of every length from 1 to 6.
_stem = st.shared(st.text(alphabet=_wide_chars, min_size=1, max_size=6), key="stem")
wide_names = st.one_of(
    names,
    st.text(alphabet=_wide_chars, max_size=10),
    st.builds(
        lambda stem, k, tail: stem[:k] + tail,
        _stem,
        st.integers(1, 6),
        st.text(alphabet=_wide_chars, max_size=6),
    ),
)


# The all-pairs loop as it was before pruning: every pair is scored. Kept as
# the oracle for the pruned ``all_pairs_matches``.
def unpruned_all_pairs(left, right, cfg=FuzzyConfig(), exclude_exact=False):
    out = []
    for l in sorted(left):
        for r in sorted(right):
            if exclude_exact and l == r:
                continue
            score = jaro_winkler(l, r, cfg)
            if score > cfg.threshold:
                out.append(FuzzyMatch(l, r, score))
    out.sort(key=lambda m: (-m.score, m.left, m.right))
    return out


# ``all_pairs_matches`` as it was before the prefix-block filter: one
# bounded test per pair. Kept as the oracle for kernel-call counts; the
# kernel is reached through the module so that a test can count the calls.
def pairwise_bound_all_pairs(
    left,
    right,
    cfg: FuzzyConfig = FuzzyConfig(),
    exclude_exact: bool = False,
) -> list[FuzzyMatch]:
    ls = sorted(left)
    rs = sorted(right)
    threshold, scale, cap = cfg.threshold, fuzzy._PREFIX_SCALE, fuzzy._MAX_PREFIX
    cutoff = threshold - fuzzy._MARGIN
    bits: dict = {}
    left_masks = fuzzy._char_masks(ls, bits)
    right_masks = fuzzy._char_masks(rs, bits)
    out = []
    for l, lmask in zip(ls, left_masks):
        n1 = len(l)
        for r, rmask in zip(rs, right_masks):
            if exclude_exact and l == r:
                continue
            n2 = len(r)
            if n1 and n2:
                m = (lmask & rmask).bit_count()
                bound = (m / n1 + m / n2 + 1.0) / 3.0 if m else 0.0
                gap = scale * (1.0 - bound)
                # Cheap test with the longest possible prefix first, then
                # the pair's own prefix.
                if bound + cap * gap <= cutoff:
                    continue
                limit = n1 if n1 < n2 else n2
                if limit > cap:
                    limit = cap
                prefix = 0
                while prefix < limit and l[prefix] == r[prefix]:
                    prefix += 1
                if bound + prefix * gap <= cutoff:
                    continue
            score = fuzzy.jaro_winkler(l, r, cfg)
            if score > threshold:
                out.append(FuzzyMatch(l, r, score))
    out.sort(key=lambda fm: (-fm.score, fm.left, fm.right))
    return out


def _criterion_10_corpus():
    words = (
        "relay sensor bridge filter codec driver panel probe shunt mixer valve core"
    ).split()
    rng = random.Random(7)
    mk = lambda tag: [
        f"{rng.choice(words)}-{tag}{i:03d}-{rng.choice(words)}" for i in range(250)
    ]
    return mk("a"), mk("b")


def _numbered_corpus():
    # Near-identical names, one in ten renamed by a suffix: the shared
    # characters bound prunes almost nothing here.
    left = [f"lib{i:05d}" for i in range(300)]
    right = [name + "-rc" if i % 10 == 0 else name for i, name in enumerate(left)]
    return left, right


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


def test_backend_is_reportable():
    # perfbench/run.py stamps fuzzy.BACKEND into every record and
    # perfbench/compare.py refuses records whose backend differs.
    assert BACKEND == "pure"


def test_config_validation():
    with pytest.raises(ConfigError):
        FuzzyConfig(threshold=1.5)
    with pytest.raises(ConfigError):
        FuzzyConfig(threshold=-0.1)


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
    st.sets(wide_names, max_size=20),
    st.sets(wide_names, max_size=20),
    st.sampled_from([0.5, 0.85, 0.95]),
    st.sampled_from([0.0, 0.7]),
    st.booleans(),
)
@settings(max_examples=100)
def test_all_pairs_equals_brute_force(left, right, threshold, floor, exclude_exact):
    cfg = FuzzyConfig(threshold=threshold, boost_floor=floor)
    got = {
        (m.left, m.right, m.score)
        for m in all_pairs_matches(left, right, cfg, exclude_exact)
    }
    want = set()
    for l in left:
        for r in right:
            if exclude_exact and l == r:
                continue
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
    st.lists(wide_names, max_size=12),
    st.lists(wide_names, max_size=12),
    st.sampled_from([0.0, 0.7]),
    st.booleans(),
    st.data(),
)
@settings(max_examples=300)
def test_pruned_score_pairs_equals_unpruned(left, right, floor, exclude_exact, data):
    def cfg(threshold):
        return FuzzyConfig(threshold=threshold, boost_floor=floor)

    scores = [m.score for m in unpruned_all_pairs(left, right, cfg(0.0), exclude_exact)]
    thresholds = [0.0, 0.5, 0.85, 1.0]
    if scores:
        # A pair's own score and the float just below it: the pair must be
        # dropped at the first and kept at the second (strict >). Every
        # score here is above 0, so both are legal thresholds.
        score = data.draw(st.sampled_from(scores))
        thresholds += [score, math.nextafter(score, -math.inf)]
    for threshold in thresholds:
        assert all_pairs_matches(left, right, cfg(threshold), exclude_exact) == (
            unpruned_all_pairs(left, right, cfg(threshold), exclude_exact)
        ), threshold


def test_pruned_score_pairs_on_criterion_10_corpus():
    left, right = _criterion_10_corpus()
    want = unpruned_all_pairs(left, right)
    assert want
    assert all_pairs_matches(left, right) == want


def test_least_shared_count_is_the_pairwise_bound():
    # m >= _least_shared(...) keeps exactly the pairs that the per-pair
    # bound test of pairwise_bound_all_pairs keeps.
    for threshold in (0.0, 0.5, 0.85, 0.95, 1.0):
        cutoff = threshold - fuzzy._MARGIN
        for n1 in range(1, 25):
            for n2 in range(1, 25):
                for p in range(min(n1, n2, 4) + 1):
                    need = fuzzy._least_shared(n1, n2, p, cutoff)
                    for m in range(min(n1, n2) + 1):
                        bound = (m / n1 + m / n2 + 1.0) / 3.0 if m else 0.0
                        gap = fuzzy._PREFIX_SCALE * (1.0 - bound)
                        cap = fuzzy._MAX_PREFIX
                        kept = bound + cap * gap > cutoff and bound + p * gap > cutoff
                        assert (m >= need) == kept, (threshold, n1, n2, p, m)


@pytest.mark.parametrize("corpus", [_criterion_10_corpus, _numbered_corpus])
@pytest.mark.parametrize("exclude_exact", [False, True])
def test_kernel_calls_no_more_than_pairwise_bound(monkeypatch, corpus, exclude_exact):
    left, right = corpus()
    kernel = fuzzy.jaro_winkler

    def run(fn):
        equal = []

        def counted(s1, s2, cfg=FuzzyConfig()):
            equal.append(s1 == s2)
            return kernel(s1, s2, cfg)

        with monkeypatch.context() as mp:
            mp.setattr(fuzzy, "jaro_winkler", counted)
            out = fn(left, right, FuzzyConfig(), exclude_exact)
        return out, len(equal), sum(equal)

    want, old_calls, old_equal = run(pairwise_bound_all_pairs)
    got, new_calls, new_equal = run(all_pairs_matches)
    assert want and got == want
    assert new_equal == 0
    assert new_calls <= old_calls - old_equal
    if corpus is _numbered_corpus and not exclude_exact:
        assert old_equal == 270
