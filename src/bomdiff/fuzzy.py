"""Name similarity scoring: Jaro, Jaro-Winkler, and all-pairs matching.

The scoring loops live in the pure-Python kernel ``bomdiff._jaro_py``; this
module validates parameters and orders the results.
"""

from __future__ import annotations

from dataclasses import dataclass

from bomdiff import _jaro_py

# The one similarity kernel. perfbench stamps this into every record and
# refuses to compare records whose kernels differ.
BACKEND = "pure"


class ConfigError(ValueError):
    """Raised for fuzzy-matching parameters outside their legal ranges."""


@dataclass(frozen=True)
class FuzzyConfig:
    threshold: float = 0.85
    prefix_scale: float = 0.1
    max_prefix: int = 4
    # 0.0 applies the prefix bonus unconditionally; Winkler's original
    # variant gated it on a base score of at least 0.7.
    boost_floor: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.threshold <= 1.0:
            raise ConfigError(f"threshold {self.threshold} outside [0, 1]")
        if not 0.0 <= self.prefix_scale <= 0.25:
            raise ConfigError(f"prefix_scale {self.prefix_scale} outside [0, 0.25]")
        # score_pairs prunes only for an integer max_prefix (a float would
        # make jaro_winkler round the prefix cap up); bool is an int subclass
        if not isinstance(self.max_prefix, int) or isinstance(self.max_prefix, bool):
            raise ConfigError(f"max_prefix {self.max_prefix!r} is not an integer")
        if self.max_prefix < 0:
            raise ConfigError(f"max_prefix {self.max_prefix} is negative")
        if self.max_prefix * self.prefix_scale > 1.0:
            raise ConfigError(
                "max_prefix * prefix_scale exceeds 1; scores could leave [0, 1]"
            )


@dataclass(frozen=True)
class FuzzyMatch:
    left: str
    right: str
    score: float


def jaro(s1: str, s2: str) -> float:
    """Jaro similarity in [0, 1]; symmetric, 1.0 iff equal."""
    return _jaro_py.jaro(s1, s2)


def jaro_winkler(s1: str, s2: str, cfg: FuzzyConfig = FuzzyConfig()) -> float:
    """Jaro-Winkler similarity in [0, 1] under cfg's prefix parameters."""
    return _jaro_py.jaro_winkler(
        s1, s2, cfg.prefix_scale, cfg.max_prefix, cfg.boost_floor
    )


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
    """
    ls = sorted(left)
    rs = sorted(right)
    triples = _jaro_py.score_pairs(
        ls,
        rs,
        cfg.threshold,
        cfg.prefix_scale,
        cfg.max_prefix,
        cfg.boost_floor,
        exclude_exact,
    )
    matches = [FuzzyMatch(ls[i], rs[j], score) for i, j, score in triples]
    matches.sort(key=lambda m: (-m.score, m.left, m.right))
    return matches
