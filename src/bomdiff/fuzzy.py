"""Name similarity scoring: Jaro, Jaro-Winkler, and all-pairs matching.

The prefix bonus uses Winkler's fixed scale 0.1 over at most 4 characters
(W. E. Winkler, "String Comparator Metrics and Enhanced Decision Rules in the
Fellegi-Sunter Model of Record Linkage", 1990); ``FuzzyConfig`` sets only the
threshold and the Jaro floor that may withhold the bonus.

``all_pairs_matches`` skips every pair whose upper bound on the Jaro-Winkler
score cannot exceed the threshold (the length and character filter of
Dressler & Ngonga Ngomo, "On the efficient execution of bounded Jaro-Winkler
distances", Semantic Web 8(2), 2017). The bound is exact, so the matches are
the ones that scoring every pair gives. The pairs are not visited one by
one: the right names that share a left name's first k characters form a
block of the sorted right list, as in the prefix filtering of Bayardo, Ma &
Srikant, "Scaling Up All Pairs Similarity Search", WWW 2007, and every pair
in a block is tested against the bound at once, with bit-sliced counts of
shared characters. Equal names score exactly 1.0 without a kernel call.
Near-identical names, such as numbered ones, pass the bound and are scored;
their matches, and so the work, stay quadratic, since the output is.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter

from bomdiff.model import ConfigError

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


def _least_shared(n1: int, n2: int, prefix: int, cutoff: float) -> int:
    """Least shared-character count whose score bound exceeds ``cutoff``.

    The bound is the one described in ``all_pairs_matches``, computed with
    the same float expressions, for names of lengths n1, n2 > 0 with common
    prefix ``prefix``. It rises with the count m (each step adds at least
    0.6 * (1/n1 + 1/n2) / 3 to it, far above the rounding error), so the
    counts that pass are exactly those >= the result. The result is
    min(n1, n2) + 1, which no count reaches, when none pass.
    """
    lo, hi = 0, min(n1, n2) + 1
    while lo < hi:
        m = (lo + hi) // 2
        bound = (m / n1 + m / n2 + 1.0) / 3.0 if m else 0.0
        gap = _PREFIX_SCALE * (1.0 - bound)
        if bound + prefix * gap > cutoff:
            hi = m
        else:
            lo = m + 1
    return lo


def _at_least(planes: list[int], v: int, everyone: int) -> int:
    """Positions whose count, held bit-sliced in ``planes``, is >= v.

    planes[i] holds bit i of every position's count; ``everyone`` has a bit
    for every position.
    """
    if v <= 0:
        return everyone
    if v >> len(planes):
        return 0
    below, equal = 0, everyone
    for i in range(len(planes) - 1, -1, -1):
        c = planes[i]
        if v >> i & 1:
            below |= equal & ~c
            equal &= c
        else:
            equal &= ~c
    return everyone & ~below


# The first k characters of a name, as bisect keys for k = 0 .. _MAX_PREFIX.
_PREFIX_KEYS = tuple(itemgetter(slice(k)) for k in range(_MAX_PREFIX + 1))


def _span(lo: int, hi: int) -> int:
    """Bitset of the positions lo .. hi - 1."""
    return (1 << hi) - (1 << lo)


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

    The right names that share a left name's first k characters form one
    slice of the sorted right list, for each k up to 4, and each slice
    nests in the one before. In a slice minus the next one every pair has
    the same p, so a pair passes exactly when its shared-character count
    reaches a least value set by the two lengths and p (``_least_shared``).
    The counts of one left name against every right name are summed at once
    as bit-sliced integers over right positions, one bitset per character
    token, and only the pairs that pass are scored. Equal names score 1.0
    without a kernel call. Pairs with an empty name are always scored.
    """
    ls = sorted(left)
    rs = sorted(right)
    threshold = cfg.threshold
    cutoff = threshold - _MARGIN
    keep_equal = not exclude_exact and 1.0 > threshold
    bits: dict = {}
    left_masks = _char_masks(ls, bits)
    right_masks = _char_masks(rs, bits)
    # at[t]: the right positions whose names hold token t; by_length[n]:
    # the right positions whose names have n characters.
    at = [0] * len(bits)
    by_length: dict[int, int] = {}
    for j, (r, mask) in enumerate(zip(rs, right_masks)):
        bit = 1 << j
        by_length[len(r)] = by_length.get(len(r), 0) | bit
        while mask:
            low = mask & -mask
            at[low.bit_length() - 1] |= bit
            mask ^= low
    n_right = len(rs)
    everyone = _span(0, n_right)
    # Empty names sort first; they pair with every left name.
    empty = bisect_right(rs, "")
    out = []
    by_left_length = sorted(zip(ls, left_masks), key=lambda lm: len(lm[0]))
    for n1, group in groupby(by_left_length, key=lambda lm: len(lm[0])):
        # needs[p]: {least shared count: the nonempty right positions with
        # that least count at left length n1 and common prefix p}
        needs = []
        for p in range(min(n1, _MAX_PREFIX) + 1):
            need: dict[int, int] = {}
            for n2, positions in by_length.items():
                if n1 and n2:
                    v = _least_shared(n1, n2, p, cutoff)
                    need[v] = need.get(v, 0) | positions
            needs.append(need)
        for l, lmask in group:
            if not n1:
                survivors = everyone
            else:
                # planes[i]: bit i of each right name's shared-token count.
                planes: list[int] = []
                while lmask:
                    low = lmask & -lmask
                    lmask ^= low
                    carry = at[low.bit_length() - 1]
                    for i, c in enumerate(planes):
                        planes[i] = c ^ carry
                        carry &= c
                        if not carry:
                            break
                    if carry:
                        planes.append(carry)
                at_least: dict[int, int] = {}
                survivors = _span(0, empty)
                # outer: the right names that share l's first p characters.
                lo, hi = empty, n_right
                outer = _span(lo, hi)
                for p, need in enumerate(needs):
                    inner = 0
                    if p + 1 < len(needs):
                        lo = bisect_left(rs, l[: p + 1], lo, hi)
                        hi = bisect_right(rs, l[: p + 1], lo, hi, key=_PREFIX_KEYS[p + 1])
                        inner = _span(lo, hi)
                    exact = outer & ~inner
                    for v, positions in need.items():
                        if positions & exact:
                            if v not in at_least:
                                at_least[v] = _at_least(planes, v, everyone)
                            survivors |= positions & exact & at_least[v]
                    outer = inner
                    if not outer:
                        break
            while survivors:
                low = survivors & -survivors
                survivors ^= low
                r = rs[low.bit_length() - 1]
                if r == l:
                    # m = len, t = 0 and the bonus is scaled by 1 - 1.0.
                    if keep_equal:
                        out.append(FuzzyMatch(l, r, 1.0))
                    continue
                score = jaro_winkler(l, r, cfg)
                if score > threshold:
                    out.append(FuzzyMatch(l, r, score))
    out.sort(key=lambda fm: (-fm.score, fm.left, fm.right))
    return out
