"""Desk-scale checks of the character-sum and point-probability bounds.

For d disjoint label pairs drawn from {1..t} and the root of unity of
order p = floor(t*sqrt(d)), the character product

    T(x) = prod_i (w^(a_i1 x) + w^(a_i2 x)) / 2

is small away from x = 0, which caps the point probabilities of the random
sum Q built by picking one element per pair.  The published bounds carry
unspecified absolute constants; the checks here fix them as the module
constants below: ``NEAR_DECAY``, the decay rate of the near region,
``FAR_MULTIPLIER``, the multiplier of the far region, and
``POINT_MASS_MULTIPLIER``, the multiplier of the point-mass bound.  An
experiment is ``ok`` when at least ``MIN_PASS_FRACTION`` of its samples
pass.  The constant-free forms of the two |T(x)| regions are the checks
with ``NEAR_DECAY`` and ``FAR_MULTIPLIER`` set to 1.0 on the module, as
``tests/test_problab.py`` does with monkeypatch.

Everything about Q itself is exact: distributions are integer counts out
of 2**d, and point probabilities are exact rationals.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from ..graph import GraphError, check_knobs

# The bound constants the source analysis leaves unspecified.  Calibrated so
# that at (t, d) = (300, 30) well over 99% of random samples satisfy both
# regions while a broken T(x) computation still fails them; the literal
# constant-1 forms fail essentially every sample at any accessible scale
# (see the decisions ledger).
NEAR_DECAY = 0.25
FAR_MULTIPLIER = 500.0
POINT_MASS_MULTIPLIER = 10.0
MIN_PASS_FRACTION = 0.95  # share of samples that must pass for a character-bound run to be ok

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


def character_product(sample: PairSample, x: int) -> complex:
    """T(x) as a complex number, phases reduced mod p before exponentiation;
    its modulus is at most 1."""
    p = sample.p
    if not 0 <= x < p:
        raise GraphError(f"x must lie in [0, {p}), got {x}")
    val = 1 + 0j
    for a, b in sample.pairs:
        pa = 2 * math.pi * ((a * x) % p) / p
        pb = 2 * math.pi * ((b * x) % p) / p
        val *= (cmath.exp(1j * pa) + cmath.exp(1j * pb)) / 2
    return val


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


def check_character_bounds(sample: PairSample) -> BoundReport:
    """Evaluate |T(x)| against both bound regions for every x in 1..p-1.

    Near region (min(x, p-x)^2 < d): |T(x)| <= exp(-NEAR_DECAY * min(x, p-x)^2).
    Far region (the rest):           |T(x)| <= FAR_MULTIPLIER / t^2.
    Report-only; region membership is decided in exact integer arithmetic.
    """
    p = sample.p
    far_bound = FAR_MULTIPLIER / sample.t ** 2
    worst = {True: (None, 0.0), False: (None, 0.0)}  # near? -> (first maximizer, its ratio)
    for x, magnitude in enumerate(character_magnitudes(sample), start=1):
        square = min(x, p - x) ** 2
        near = square < sample.d
        ratio = magnitude / (math.exp(-NEAR_DECAY * square) if near else far_bound)
        worst_x, worst_ratio = worst[near]
        if worst_x is None or ratio > worst_ratio:
            worst[near] = (x, ratio)
    (near_x, near_ratio), (far_x, far_ratio) = worst[True], worst[False]
    return BoundReport(near_ratio <= 1.0, far_ratio <= 1.0, near_x, far_x, near_ratio, far_ratio)


def sum_distribution(sample: PairSample) -> dict[int, int]:
    """Exact law of Q by convolving the d two-point masses: the number of
    the 2**d choices that give each sum."""
    if sample.d > MAX_EXACT_PAIRS:
        raise GraphError(f"exact table supports at most d={MAX_EXACT_PAIRS}")
    counts = {0: 1}
    for a, b in sample.pairs:
        nxt: dict[int, int] = {}
        for s, c in counts.items():
            nxt[s + a] = nxt.get(s + a, 0) + c
            nxt[s + b] = nxt.get(s + b, 0) + c
        counts = nxt
    return counts


def max_point_probability(sample: PairSample) -> Fraction:
    """Largest single-outcome probability of Q, exact."""
    return Fraction(max(sum_distribution(sample).values()), 1 << sample.d)


def mod_p_distribution(sample: PairSample) -> list[float]:
    """Pr[Q = s mod p] for every residue s, from the exact table."""
    counts = [0] * sample.p
    for s, c in sum_distribution(sample).items():
        counts[s % sample.p] += c
    return [c / (1 << sample.d) for c in counts]


def mod_p_distribution_fourier(sample: PairSample) -> list[float]:
    """Pr[Q = s mod p] via (1/p) sum_x T(x) w^(-sx), real part: the Fourier
    side of the exact table."""
    p = sample.p
    tvals = [character_product(sample, x) for x in range(p)]
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


def _trials(t: int, d: int, trials: int, seed: int,
            statistic: Callable[[PairSample], tuple[float, bool]], threshold: float) -> TrialSummary:
    """Draw ``trials`` seeded samples and apply ``statistic`` to each: it
    gives the row's statistic and whether the sample passes."""
    check_knobs(trials=trials, seed=seed)
    rng = random.Random(seed)
    rows = tuple((trial, *statistic(sample_pairs(t, d, rng))) for trial in range(trials))
    passed = sum(ok for _, _, ok in rows)
    return TrialSummary(t, d, trials, passed, threshold, max(stat for _, stat, _ in rows), rows)


def _worst_ratio(sample: PairSample) -> tuple[float, bool]:
    rep = check_character_bounds(sample)
    return max(rep.worst_near_ratio, rep.worst_far_ratio), rep.ok


def _scaled_point_mass(sample: PairSample) -> tuple[float, bool]:
    stat = float(max_point_probability(sample)) * sample.t * math.sqrt(sample.d)
    return stat, stat <= POINT_MASS_MULTIPLIER


def run_character_bound_experiment(t: int, d: int, trials: int, seed: int) -> TrialSummary:
    """Fraction of random samples satisfying both |T(x)| regions."""
    return _trials(t, d, trials, seed, _worst_ratio, MIN_PASS_FRACTION)


def run_point_mass_experiment(t: int, d: int, trials: int, seed: int) -> TrialSummary:
    """Check max point probability * t * sqrt(d) <= POINT_MASS_MULTIPLIER
    per sample; every sample must pass."""
    return _trials(t, d, trials, seed, _scaled_point_mass, 1.0)
