"""Name similarity scoring: Jaro, Jaro-Winkler, and all-pairs matching.

The prefix bonus uses Winkler's fixed scale 0.1 over at most 4 characters
(W. E. Winkler, "String Comparator Metrics and Enhanced Decision Rules in the
Fellegi-Sunter Model of Record Linkage", 1990); ``FuzzyConfig`` sets only the
threshold and the Jaro floor that may withhold the bonus.

``all_pairs_matches`` skips every pair whose upper bound on the Jaro-Winkler
score cannot exceed the threshold (the length and character filter of
Dressler & Ngonga Ngomo, "On the efficient execution of bounded Jaro-Winkler
distances", Semantic Web 8(2), 2017). The bound is exact, so the matches are
the ones that scoring every pair gives.
"""

from __future__ import annotations

from dataclasses import dataclass

# The one similarity kernel. perfbench stamps this into every record and
# refuses to compare records whose kernels differ.
BACKEND = "pure"

# Slack between a pair's float upper bound and the threshold before the pair
# is skipped. The computed score and the computed bound each lie within a few
# ulps of their real values, far inside this margin, so rounding can never
# skip a pair whose computed score is above the threshold.
_MARGIN = 1e-9

# Winkler's prefix scale and cap: prefix * scale <= 0.4, so scores stay in [0, 1].
_PREFIX_SCALE = 0.1
_MAX_PREFIX = 4


class ConfigError(ValueError):
    """Raised for fuzzy-matching parameters outside their legal ranges."""


@dataclass(frozen=True)
class FuzzyConfig:
    threshold: float = 0.85
    # 0.0 applies the prefix bonus unconditionally; Winkler's original
    # variant gated it on a base score of at least 0.7.
    boost_floor: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.threshold <= 1.0:
            raise ConfigError(f"threshold {self.threshold} outside [0, 1]")


@dataclass(frozen=True)
class FuzzyMatch:
    left: str
    right: str
    score: float


def jaro(s1: str, s2: str) -> float:
    """Jaro similarity over Unicode code points, in [0, 1].

    Characters match within a window of floor(max(len1, len2) / 2) - 1;
    the result is the mean of m/len1, m/len2 and (m - t)/m where t is the
    number of matched characters appearing in a different order, halved
    with floor division as in Winkler's strcmp95 (the mismatch count can
    be odd when the matched sequences are unequal-length permutations).
    Two empty strings score 1.0, exactly one empty string scores 0.0.
    """
    len1, len2 = len(s1), len(s2)
    if len1 == 0 and len2 == 0:
        return 1.0
    if len1 == 0 or len2 == 0:
        return 0.0
    window = (len1 if len1 > len2 else len2) // 2 - 1
    if window < 0:
        window = 0

    flags2 = [False] * len2
    matched1 = []
    for i in range(len1):
        ch = s1[i]
        start = i - window if i > window else 0
        end = i + window + 1
        if end > len2:
            end = len2
        for j in range(start, end):
            if not flags2[j] and s2[j] == ch:
                flags2[j] = True
                matched1.append(ch)
                break

    m = len(matched1)
    if m == 0:
        return 0.0

    mismatches = 0
    k = 0
    for j in range(len2):
        if flags2[j]:
            if s2[j] != matched1[k]:
                mismatches += 1
            k += 1
    t = mismatches // 2
    return (m / len1 + m / len2 + (m - t) / m) / 3.0


def jaro_winkler(s1: str, s2: str, cfg: FuzzyConfig = FuzzyConfig()) -> float:
    """Jaro similarity plus a common-prefix bonus of p * 0.1 * (1 - jaro).

    p is the common prefix, capped at 4 characters. With cfg.boost_floor > 0
    the bonus applies only when the base Jaro score reaches the floor
    (Winkler's original variant used 0.7).
    """
    j = jaro(s1, s2)
    if cfg.boost_floor > 0.0 and j < cfg.boost_floor:
        return j
    limit = len(s1) if len(s1) < len(s2) else len(s2)
    if limit > _MAX_PREFIX:
        limit = _MAX_PREFIX
    prefix = 0
    while prefix < limit and s1[prefix] == s2[prefix]:
        prefix += 1
    return j + prefix * _PREFIX_SCALE * (1.0 - j)


def _char_masks(names: list[str], bits: dict) -> list[int]:
    """One int bitmask per name, one bit per (code point, occurrence number).

    ``bits`` maps each token to its bit and grows as new tokens appear, so
    masks built with the same dict share bit positions. Then
    ``(mask_a & mask_b).bit_count()`` is the sum over characters c of
    min(count of c in a, count of c in b): an upper bound on the number of
    characters Jaro can match between a and b.
    """
    out = []
    for s in names:
        seen: dict[str, int] = {}
        mask = 0
        for ch in s:
            k = seen.get(ch, 0)
            seen[ch] = k + 1
            mask |= 1 << bits.setdefault((ch, k), len(bits))
        out.append(mask)
    return out


def all_pairs_matches(
    left,
    right,
    cfg: FuzzyConfig = FuzzyConfig(),
    exclude_exact: bool = False,
) -> list[FuzzyMatch]:
    """Every left x right pair scoring above cfg.threshold.

    Sorted by descending score, then (left, right) lexicographically so
    output is reproducible regardless of input iteration order. Equal
    strings score 1.0 and are kept unless exclude_exact is set.

    A pair of non-empty strings is skipped without scoring when an upper
    bound on its score cannot exceed the threshold. Jaro's match count m is
    at most the number of shared characters, counted with multiplicity, so
    Jaro <= (m/len1 + m/len2 + 1) / 3, and Jaro is 0 when m is 0. With the
    pair's common prefix p (capped at 4), the score is at most that bound
    plus p * 0.1 * (1 - bound), whether or not boost_floor withholds the
    bonus. The bound holds because Jaro-Winkler rises with Jaro while
    0 <= p * 0.1 <= 0.4, which holds by construction.
    """
    ls = sorted(left)
    rs = sorted(right)
    threshold, scale, cap = cfg.threshold, _PREFIX_SCALE, _MAX_PREFIX
    cutoff = threshold - _MARGIN
    bits: dict = {}
    left_masks = _char_masks(ls, bits)
    right_masks = _char_masks(rs, bits)
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
            score = jaro_winkler(l, r, cfg)
            if score > threshold:
                out.append(FuzzyMatch(l, r, score))
    out.sort(key=lambda fm: (-fm.score, fm.left, fm.right))
    return out
