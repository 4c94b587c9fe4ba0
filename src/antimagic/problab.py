"""Desk-scale checks of the character-sum and point-probability bounds.

For d disjoint label pairs drawn from {1..t} and the root of unity of
order p = floor(t*sqrt(d)), the character product

    T(x) = prod_i (w^(a_i1 x) + w^(a_i2 x)) / 2

is small away from x = 0, which caps the point probabilities of the random
sum Q built by picking one element per pair.  The published bounds carry
unspecified absolute constants; the checks here take the decay rate of the
near region and the multiplier of the far region as recorded configuration
(defaults below), with the constant-free forms recoverable by passing 1.

Everything about Q itself is exact: distributions are integer counts out
of 2**d, and point probabilities are exact rationals.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .graph import GraphError

# Recorded defaults for the bound constants the source analysis leaves
# unspecified.  Calibrated so that at (t, d) = (300, 30) well over 99% of
# random samples satisfy both regions while a broken T(x) computation
# still fails them; the literal constant-1 forms fail essentially every
# sample at any accessible scale (see the decisions ledger).
NEAR_DECAY_DEFAULT = 0.25
FAR_MULTIPLIER_DEFAULT = 500.0
POINT_MASS_MULTIPLIER_DEFAULT = 10.0

MAX_EXACT_PAIRS = 30  # 2**d outcome counts stay within one 64-bit bucket


@dataclass(frozen=True)
class PairSample:
    """d disjoint unordered pairs of distinct elements of {1..t}."""

    t: int
    d: int
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.d < 1 or self.t < 2 or 2 * self.d > self.t:
            raise GraphError("need 1 <= d and 2d <= t")
        if len(self.pairs) != self.d:
            raise GraphError(f"expected {self.d} pairs, got {len(self.pairs)}")
        seen = set()
        norm = []
        for a, b in self.pairs:
            if not (1 <= a <= self.t and 1 <= b <= self.t) or a == b:
                raise GraphError(f"bad pair ({a}, {b})")
            seen.update((a, b))
            norm.append((min(a, b), max(a, b)))
        if len(seen) != 2 * self.d:
            raise GraphError("pair elements must be pairwise distinct")
        object.__setattr__(self, "pairs", tuple(norm))

    @property
    def p(self) -> int:
        """Order of the root of unity: floor(t * sqrt(d)), exactly."""
        return math.isqrt(self.t * self.t * self.d)

    def gaps(self) -> tuple[int, ...]:
        return tuple(b - a for a, b in self.pairs)


def sample_pairs(t: int, d: int, rng: random.Random) -> PairSample:
    """Draw d disjoint pairs sequentially, each uniform over what remains."""
    if 2 * d > t:
        raise GraphError("need 2d <= t")
    remaining = list(range(1, t + 1))
    pairs = []
    for _ in range(d):
        a, b = rng.sample(remaining, 2)
        remaining.remove(a)
        remaining.remove(b)
        pairs.append((a, b))
    return PairSample(t, d, tuple(pairs))


def character_product_complex(sample: PairSample, x: int) -> complex:
    """T(x) as a complex number, phases reduced mod p before exponentiation."""
    p = sample.p
    if not 0 <= x < p:
        raise GraphError(f"x must lie in [0, {p}), got {x}")
    val = 1 + 0j
    for a, b in sample.pairs:
        pa = 2 * math.pi * ((a * x) % p) / p
        pb = 2 * math.pi * ((b * x) % p) / p
        val *= (cmath.exp(1j * pa) + cmath.exp(1j * pb)) / 2
    return val


def character_product(sample: PairSample, x: int) -> float:
    """|T(x)|; always at most 1."""
    return abs(character_product_complex(sample, x))


def character_magnitudes(sample: PairSample) -> list[float]:
    """|T(x)| for x = 1..p-1 via the cosine form of each factor.

    Each factor satisfies |(w^(ax) + w^(bx))/2| = |cos(((b-a) x mod p) pi / p)|,
    so one table of |cos(k pi / p)| over the residues k serves every factor;
    the complex route is kept for cross-checking.
    """
    p = sample.p
    step = math.pi / p
    cosines = [abs(math.cos(k * step)) for k in range(p)]
    gaps = sample.gaps()
    return [math.prod([cosines[g * x % p] for g in gaps]) for x in range(1, p)]


@dataclass(frozen=True)
class BoundReport:
    """Result of checking both |T(x)| regions for one sample.

    Ratios are max |T(x)| / bound per region (at most 1 means pass); the
    worst x is the maximizer, or None when the region is empty.
    """

    ok_near: bool
    ok_far: bool
    worst_near_x: Optional[int]
    worst_far_x: Optional[int]
    worst_near_ratio: float
    worst_far_ratio: float

    @property
    def ok(self) -> bool:
        return self.ok_near and self.ok_far


def check_character_bounds(sample: PairSample,
                           near_decay: float = NEAR_DECAY_DEFAULT,
                           far_multiplier: float = FAR_MULTIPLIER_DEFAULT) -> BoundReport:
    """Evaluate |T(x)| against both bound regions for every x in 1..p-1.

    Near region (min(x, p-x)^2 < d): |T(x)| <= exp(-near_decay * min(x, p-x)^2).
    Far region (the rest):           |T(x)| <= far_multiplier / t^2.
    Report-only; region membership is decided in exact integer arithmetic.
    """
    p = sample.p
    far_bound = far_multiplier / sample.t ** 2
    worst = {True: (None, 0.0), False: (None, 0.0)}  # near? -> (first maximizer, its ratio)
    for x, magnitude in enumerate(character_magnitudes(sample), start=1):
        square = min(x, p - x) ** 2
        near = square < sample.d
        ratio = magnitude / (math.exp(-near_decay * square) if near else far_bound)
        worst_x, worst_ratio = worst[near]
        if worst_x is None or ratio > worst_ratio:
            worst[near] = (x, ratio)
    (near_x, near_ratio), (far_x, far_ratio) = worst[True], worst[False]
    return BoundReport(near_ratio <= 1.0, far_ratio <= 1.0, near_x, far_x, near_ratio, far_ratio)


class DistributionTable:
    """Exact distribution of Q = sum of one element per pair.

    Counts are integers out of 2**d; probabilities are exact fractions.
    """

    def __init__(self, d: int, counts: dict[int, int]):
        self.d = d
        self.counts = dict(counts)
        if sum(self.counts.values()) != 1 << d:
            raise GraphError("counts must total 2^d")

    @property
    def outcomes(self) -> int:
        return 1 << self.d

    def probability(self, s: int) -> Fraction:
        return Fraction(self.counts.get(s, 0), self.outcomes)


def sum_distribution(sample: PairSample) -> DistributionTable:
    """Exact law of Q by convolving the d two-point masses."""
    if sample.d > MAX_EXACT_PAIRS:
        raise GraphError(f"exact table supports at most d={MAX_EXACT_PAIRS}")
    counts = {0: 1}
    for a, b in sample.pairs:
        nxt: dict[int, int] = {}
        for s, c in counts.items():
            nxt[s + a] = nxt.get(s + a, 0) + c
            nxt[s + b] = nxt.get(s + b, 0) + c
        counts = nxt
    return DistributionTable(sample.d, counts)


def max_point_probability(table: DistributionTable) -> Fraction:
    """Largest single-outcome probability of Q, exact."""
    return Fraction(max(table.counts.values()), table.outcomes)


def mod_p_distribution(sample: PairSample) -> list[float]:
    """Pr[Q = s mod p] for every residue s, from the exact table."""
    table = sum_distribution(sample)
    counts = [0] * sample.p
    for s, c in table.counts.items():
        counts[s % sample.p] += c
    return [c / table.outcomes for c in counts]


def mod_p_distribution_fourier(sample: PairSample) -> list[float]:
    """Pr[Q = s mod p] via (1/p) sum_x T(x) w^(-sx), real part: the Fourier
    side of the exact table."""
    p = sample.p
    tvals = [character_product_complex(sample, x) for x in range(p)]
    roots = [cmath.exp(-2j * math.pi * k / p) for k in range(p)]
    return [sum(roots[s * x % p] * tx for x, tx in enumerate(tvals)).real / p for s in range(p)]


@dataclass(frozen=True)
class TrialSummary:
    """Aggregate of a seeded Monte Carlo run, ready for CLI reporting."""

    t: int
    d: int
    trials: int
    passed: int
    threshold: float
    worst_statistic: float
    rows: tuple[tuple[int, float, bool], ...]  # (trial, statistic, ok)

    @property
    def pass_fraction(self) -> float:
        return self.passed / self.trials

    @property
    def ok(self) -> bool:
        return self.pass_fraction >= self.threshold


def run_character_bound_experiment(t: int, d: int, trials: int, seed: int,
                                   near_decay: float = NEAR_DECAY_DEFAULT,
                                   far_multiplier: float = FAR_MULTIPLIER_DEFAULT,
                                   min_pass_fraction: float = 0.95) -> TrialSummary:
    """Fraction of random samples satisfying both |T(x)| regions."""
    rng = random.Random(seed)
    rows = []
    passed = 0
    worst = 0.0
    for trial in range(trials):
        rep = check_character_bounds(sample_pairs(t, d, rng), near_decay, far_multiplier)
        stat = max(rep.worst_near_ratio, rep.worst_far_ratio)
        worst = max(worst, stat)
        passed += rep.ok
        rows.append((trial, stat, rep.ok))
    return TrialSummary(t, d, trials, passed, min_pass_fraction, worst, tuple(rows))


def run_point_mass_experiment(t: int, d: int, trials: int, seed: int,
                              multiplier: float = POINT_MASS_MULTIPLIER_DEFAULT) -> TrialSummary:
    """Check max point probability * t * sqrt(d) <= multiplier per sample."""
    rng = random.Random(seed)
    rows = []
    passed = 0
    worst = 0.0
    for trial in range(trials):
        table = sum_distribution(sample_pairs(t, d, rng))
        stat = float(max_point_probability(table)) * t * math.sqrt(d)
        ok = stat <= multiplier
        worst = max(worst, stat)
        passed += ok
        rows.append((trial, stat, ok))
    return TrialSummary(t, d, trials, passed, 1.0, worst, tuple(rows))
