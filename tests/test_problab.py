import itertools
import math
import random
from fractions import Fraction

import pytest

from antimagic.graph import GraphError
from antimagic.lab import problab
from antimagic.lab.problab import (
    PairSample,
    character_magnitudes,
    character_product,
    check_character_bounds,
    max_point_probability,
    mod_p_distribution,
    mod_p_distribution_fourier,
    run_character_bound_experiment,
    run_point_mass_experiment,
    sample_pairs,
    sum_distribution,
)


class TestPairSample:
    def test_p_is_exact_floor(self):
        s = PairSample(300, 30, tuple((2 * i + 1, 2 * i + 2) for i in range(30)))
        assert s.p == 1643
        assert s.p ** 2 <= 300 ** 2 * 30 < (s.p + 1) ** 2

    def test_rejects_overlapping_pairs(self):
        with pytest.raises(GraphError):
            PairSample(10, 2, ((1, 2), (2, 3)))

    def test_rejects_too_many_pairs(self):
        with pytest.raises(GraphError):
            PairSample(4, 3, ((1, 2), (3, 4), (1, 3)))

    def test_sampler_uses_whole_range(self):
        rng = random.Random(0)
        s = sample_pairs(20, 10, rng)
        assert sorted(x for p in s.pairs for x in p) == list(range(1, 21))


class TestCharacterProduct:
    def test_x_zero_is_one(self):
        s = PairSample(10, 3, ((1, 2), (3, 4), (5, 6)))
        assert abs(character_product(s, 0)) == pytest.approx(1.0)

    def test_quarter_turn_vanishes(self):
        # d=1, t=4, pair (1,3): |T(1)| = |cos(2*pi/4)| = 0
        s = PairSample(4, 1, ((1, 3),))
        assert s.p == 4
        assert abs(character_product(s, 1)) == pytest.approx(0.0, abs=1e-12)

    def test_equal_gaps_square(self):
        s = PairSample(8, 2, ((1, 2), (3, 4)))
        p = s.p
        for x in range(1, p):
            expected = abs(math.cos(math.pi * x / p)) ** 2
            assert abs(character_product(s, x)) == pytest.approx(expected, abs=1e-9)

    def test_out_of_range_x(self):
        s = PairSample(8, 2, ((1, 2), (3, 4)))
        with pytest.raises(GraphError):
            character_product(s, s.p)

    def test_complex_route_matches_cosine_route(self):
        rng = random.Random(7)
        for _ in range(20):
            s = sample_pairs(60, 6, rng)
            mags = character_magnitudes(s)
            for x in (1, 5, s.p // 2, s.p - 1):
                assert abs(abs(character_product(s, x)) - mags[x - 1]) < 1e-9

    def test_magnitude_never_exceeds_one(self):
        rng = random.Random(3)
        s = sample_pairs(50, 10, rng)
        assert max(character_magnitudes(s)) <= 1.0 + 1e-12


class TestBoundCheck:
    def test_near_region_vacuous_when_tiny(self):
        s = PairSample(2, 1, ((1, 2),))
        rep = check_character_bounds(s)
        assert rep.ok_near and rep.worst_near_x is None

    def test_adversarial_consecutive_pairs_flagged_at_literal_constants(self, monkeypatch):
        # consecutive pairs keep every gap at 1, so |T(x)| decays as slowly
        # as possible; the constant-free near bound must fail at x=1
        monkeypatch.setattr(problab, "NEAR_DECAY", 1.0)
        monkeypatch.setattr(problab, "FAR_MULTIPLIER", 1.0)
        s = PairSample(300, 30, tuple((2 * i + 1, 2 * i + 2) for i in range(30)))
        rep = check_character_bounds(s)
        assert not rep.ok_near
        assert rep.worst_near_ratio > 1.0
        # with unit gaps |T(1)| = cos(pi/p)^d, nowhere near e^-1
        mags = character_magnitudes(s)
        assert mags[0] > 0.99

    def test_report_ratios_consistent(self):
        rng = random.Random(11)
        s = sample_pairs(100, 8, rng)
        rep = check_character_bounds(s)
        mags = character_magnitudes(s)
        if rep.worst_far_x is not None:
            got = mags[rep.worst_far_x - 1] / (500.0 / 100 ** 2)
            assert got == pytest.approx(rep.worst_far_ratio)


class TestSumDistribution:
    def test_single_pair(self):
        s = PairSample(4, 1, ((1, 2),))
        assert sum_distribution(s) == {1: 1, 2: 1}
        assert max_point_probability(s) == Fraction(1, 2)

    def test_two_pairs_enumerated(self):
        assert sum_distribution(PairSample(6, 2, ((1, 2), (3, 4)))) == {4: 1, 5: 2, 6: 1}

    def test_three_consecutive_pairs(self):
        s = PairSample(8, 3, ((1, 2), (3, 4), (5, 6)))
        assert sum_distribution(s) == {9: 1, 10: 3, 11: 3, 12: 1}
        assert max_point_probability(s) == Fraction(3, 8)

    def test_matches_brute_force_enumeration(self):
        rng = random.Random(5)
        s = sample_pairs(30, 5, rng)
        brute = {}
        for picks in itertools.product(*s.pairs):
            q = sum(picks)
            brute[q] = brute.get(q, 0) + 1
        assert sum_distribution(s) == brute

    def test_counts_total_and_symmetry(self):
        rng = random.Random(9)
        for _ in range(10):
            s = sample_pairs(40, 6, rng)
            counts = sum_distribution(s)
            assert sum(counts.values()) == 2 ** s.d
            full = sum(a + b for a, b in s.pairs)
            assert all(counts[q] == counts[full - q] for q in counts)

    def test_rejects_oversized(self):
        pairs = tuple((2 * i + 1, 2 * i + 2) for i in range(31))
        with pytest.raises(GraphError):
            sum_distribution(PairSample(62, 31, pairs))


class TestFourierIdentity:
    def test_mod_p_distribution_matches_fourier(self):
        rng = random.Random(21)
        s = sample_pairs(40, 4, rng)
        exact = mod_p_distribution(s)
        fourier = mod_p_distribution_fourier(s)
        assert len(exact) == len(fourier) == s.p
        assert max(abs(a - b) for a, b in zip(exact, fourier)) < 1e-9


class TestExperiments:
    def test_character_bound_experiment_smoke(self):
        summary = run_character_bound_experiment(100, 8, 50, seed=1)
        assert summary.trials == 50
        assert 0 <= summary.passed <= 50
        assert len(summary.rows) == 50
        assert summary.pass_fraction == summary.passed / summary.trials
        assert summary.ok == (summary.pass_fraction >= 0.95)

    def test_calibrated_cell_fails_a_broken_character(self, monkeypatch):
        # every sample passes the cell the bound constants were calibrated on;
        # with every phase doubled, |cos(2 pi g x / p)| is no longer |T(x)|,
        # and the same cell must say so
        summary = run_character_bound_experiment(300, 30, 20, seed=1)
        assert summary.passed == 20 and summary.ok

        def doubled(sample):
            p = sample.p
            return [math.prod(abs(math.cos(2 * math.pi * (g * x % p) / p)) for g in sample.gaps())
                    for x in range(1, p)]

        monkeypatch.setattr(problab, "character_magnitudes", doubled)
        broken = run_character_bound_experiment(300, 30, 20, seed=1)
        assert broken.passed == 0 and not broken.ok
        assert broken.worst_statistic > 100

    # trials below 1 once divided by zero or gave a negative count, and a
    # None seed drew from the operating system
    @pytest.mark.parametrize("trials, seed", [(0, 1), (-3, 1), (20, None), (20, 1.5), (1.5, 1)],
                             ids=["no-trials", "negative-trials", "seed-none", "seed-float",
                                  "trials-float"])
    @pytest.mark.parametrize("run", [run_character_bound_experiment, run_point_mass_experiment],
                             ids=["character-bound", "point-mass"])
    def test_experiments_refuse_bad_trials_and_seeds(self, run, trials, seed):
        with pytest.raises(GraphError):
            run(60, 8, trials, seed)

    def test_point_mass_experiment_smoke(self):
        summary = run_point_mass_experiment(60, 8, 20, seed=2)
        assert summary.passed == 20  # generous threshold at this scale
        assert summary.pass_fraction == summary.passed / summary.trials == 1.0
        assert summary.ok
        assert summary.worst_statistic <= 10.0


# Each row's statistic and ok flag, frozen from the numpy version of the lab.
# Floats compare to a relative 1e-12, since a vectorized cos may differ in
# the last bits from one CPU to the next; the flags compare exactly.
CHARACTER_BOUND_ROWS = (  # run_character_bound_experiment(300, 30, 20, seed=1)
    0.401950417033586, 0.5347979430425949, 0.3979814332474397, 0.4367521495373861,
    0.57208261045848, 0.7531873577068823, 0.7278466010446883, 0.5870928007773578,
    0.6376632407103867, 0.7030351820227134, 0.5176287561746323, 0.5704146924000791,
    0.7329724322608647, 0.6716395827696513, 0.4357572375490495, 0.7261711351748087,
    0.5922146407020218, 0.31271011282563815, 0.5587233782900186, 0.503998145067713,
)
POINT_MASS_ROWS = (  # run_point_mass_experiment(60, 8, 20, seed=2)
    3.97747564417433, 3.3145630368119416, 2.6516504294495533, 5.303300858899107,
    3.97747564417433, 3.97747564417433, 3.97747564417433, 3.97747564417433,
    3.3145630368119416, 2.6516504294495533, 3.3145630368119416, 3.3145630368119416,
    4.640388251536718, 2.6516504294495533, 1.988737822087165, 3.97747564417433,
    3.97747564417433, 3.3145630368119416, 2.6516504294495533, 3.97747564417433,
)
# The residues Q takes mod p = 80 on TestFourierIdentity's sample, each once
# in 2^4 draws
MOD_P_SUPPORT = {3, 5, 12, 14, 19, 21, 23, 25, 28, 30, 32, 34, 39, 41, 48, 50}


class TestFrozenOutputs:
    @pytest.mark.parametrize("run, args, frozen", [
        (run_character_bound_experiment, (300, 30, 20, 1), CHARACTER_BOUND_ROWS),
        (run_point_mass_experiment, (60, 8, 20, 2), POINT_MASS_ROWS),
    ], ids=["character-bound", "point-mass"])
    def test_experiment_rows(self, run, args, frozen):
        summary = run(*args)
        assert summary.passed == 20 and summary.ok
        assert [ok for _, _, ok in summary.rows] == [True] * 20
        assert [trial for trial, _, _ in summary.rows] == list(range(20))
        assert [stat for _, stat, _ in summary.rows] == pytest.approx(frozen, rel=1e-12, abs=0)
        assert summary.worst_statistic == pytest.approx(max(frozen), rel=1e-12, abs=0)

    def test_mod_p_distribution(self):
        s = sample_pairs(40, 4, random.Random(21))
        assert s.p == 80
        expected = [1 / 16 if r in MOD_P_SUPPORT else 0.0 for r in range(80)]
        assert list(mod_p_distribution(s)) == pytest.approx(expected, rel=0, abs=1e-15)
