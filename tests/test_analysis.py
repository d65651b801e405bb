import itertools
import math
import random
from fractions import Fraction

import pytest

from steplab.analysis import (
    ComplexityParams,
    exhaustive_bias,
    subsample_bias_variance,
    tokens_mathshepherd,
    tokens_mcnig,
    tokens_omegaprm,
)


def params(n, s_bar, m=1, big_s=1, t=1.0, q_len=0.0):
    return ComplexityParams(
        steps=n,
        tokens_per_step=s_bar,
        rollouts_per_prefix=m,
        sampled_answers=big_s,
        answer_tokens=t,
        question_tokens=q_len,
    )


class TestTokenFormulas:
    def test_mathshepherd_reference_point(self):
        assert tokens_mathshepherd(params(100, 30, m=8)) == 1_188_000

    def test_mathshepherd_single_step_is_free(self):
        assert tokens_mathshepherd(params(1, 30, m=8)) == 0

    def test_mathshepherd_linear_in_rollouts(self):
        assert tokens_mathshepherd(params(50, 20, m=16)) == 2 * tokens_mathshepherd(params(50, 20, m=8))

    def test_omegaprm_reference_point(self):
        value = tokens_omegaprm(params(100, 30, m=8))
        assert value == pytest.approx(12_000 * math.log2(100), abs=1e-9)
        assert value == pytest.approx(79_726.3, abs=0.1)

    def test_omegaprm_minimal_case(self):
        assert tokens_omegaprm(params(2, 1, m=1)) == pytest.approx(1.0)

    def test_omegaprm_natural_log_flag(self):
        base2 = tokens_omegaprm(params(64, 10, m=2))
        natural = tokens_omegaprm(params(64, 10, m=2), natural_log=True)
        assert natural == pytest.approx(base2 * math.log(2), rel=1e-12)

    def test_omegaprm_needs_two_steps(self):
        with pytest.raises(ValueError):
            tokens_omegaprm(params(1, 30, m=8))

    def test_omegaprm_vanishes_relative_to_mathshepherd(self):
        p = params(10**6, 30, m=8)
        assert tokens_omegaprm(p) / tokens_mathshepherd(p) < 1e-4

    def test_mcnig_reference_point(self):
        assert tokens_mcnig(params(100, 30, big_s=16, t=20, q_len=60)) == 35_380

    def test_mcnig_minimal_case(self):
        assert tokens_mcnig(params(1, 0, big_s=1, t=1, q_len=0)) == 2

    def test_mcnig_affine_in_steps(self):
        values = [tokens_mcnig(params(n, 30, big_s=16, t=20, q_len=60)) for n in range(1, 8)]
        diffs = [b - a for a, b in zip(values, values[1:])]
        second_diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        assert all(d == 0 for d in second_diffs)

    def test_asymptotic_ordering(self):
        for n in (10**2, 10**3, 10**4, 10**5, 10**6):
            p = params(n, 30, m=8, big_s=16, t=20, q_len=60)
            assert tokens_mcnig(p) < tokens_omegaprm(p) < tokens_mathshepherd(p)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            ComplexityParams(steps=0, tokens_per_step=1)
        with pytest.raises(ValueError):
            ComplexityParams(steps=2, tokens_per_step=-1)


def oracle_exhaustive(pool, s):
    """Independent enumeration with exact rationals."""
    maxes = [Fraction(max(c)) for c in itertools.combinations(pool, s)]
    expectation = sum(maxes, Fraction(0)) / len(maxes)
    bias = expectation - Fraction(max(pool))
    variance = sum(((m - expectation) ** 2 for m in maxes), Fraction(0)) / len(maxes)
    return float(bias), float(variance)


class TestExhaustiveBias:
    def test_three_element_pool_exactly(self):
        bias, variance = exhaustive_bias([1.0, 2.0, 3.0], 2)
        assert bias == float(Fraction(-1, 3))
        assert variance == float(Fraction(2, 9))

    def test_full_pool_subsample_is_exact_zero(self):
        rng = random.Random(3)
        for _ in range(20):
            pool = [rng.uniform(-30, 0) for _ in range(rng.randint(1, 8))]
            bias, variance = exhaustive_bias(pool, len(pool))
            assert bias == 0.0 and variance == 0.0

    def test_two_point_pool_single_draw(self):
        bias, variance = exhaustive_bias([0.0, 10.0], 1)
        assert bias == -5.0
        assert variance == 25.0

    def test_matches_independent_enumeration(self):
        rng = random.Random(7)
        for _ in range(50):
            pool = [rng.uniform(-20, 0) for _ in range(rng.randint(2, 8))]
            s = rng.randint(1, len(pool))
            assert exhaustive_bias(pool, s) == oracle_exhaustive(pool, s)

    def test_bias_never_positive_and_monotone_in_s(self):
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randint(2, 9)
            pool = [rng.choice([rng.uniform(-10, 0), round(rng.uniform(-3, 0))]) for _ in range(n)]
            biases = [exhaustive_bias(pool, s)[0] for s in range(1, n + 1)]
            assert all(b <= 0 for b in biases)
            if len(set(pool)) > 1 and pool.count(max(pool)) == 1:
                assert all(b < 0 for b in biases[:-1])
            for lo, hi in zip(biases, biases[1:]):
                assert hi >= lo
            assert biases[-1] == 0.0

    def test_large_pool_is_exact_without_enumeration(self):
        # C(40, 20) is about 1.4e11 subsets: too many to enumerate.
        assert exhaustive_bias(list(range(40)), 20) == (float(Fraction(-20, 21)), float(Fraction(8200, 4851)))


class TestSubsampleBiasVariance:
    def test_full_pool_draws_are_exact(self):
        bias, variance = subsample_bias_variance([1.0, 2.0, 3.0], 3, replicates=50, seed=0)
        assert bias == 0.0 and variance == 0.0

    def test_constant_pool(self):
        bias, variance = subsample_bias_variance([2.0] * 6, 3, replicates=100, seed=1)
        assert bias == 0.0 and variance == 0.0

    def test_monte_carlo_agrees_with_exhaustive_within_three_se(self):
        pool = [1.0, 2.0, 3.0]
        exact_bias, exact_var = exhaustive_bias(pool, 2)
        replicates = 10_000
        bias, variance = subsample_bias_variance(pool, 2, replicates=replicates, seed=0)
        se = (exact_var / replicates) ** 0.5
        assert abs(bias - exact_bias) <= 3 * se
        assert variance == pytest.approx(exact_var, rel=0.15)

    def test_deterministic_given_seed(self):
        pool = [random.Random(5).uniform(-9, 0) for _ in range(12)]
        one = subsample_bias_variance(pool, 4, replicates=500, seed=9)
        two = subsample_bias_variance(pool, 4, replicates=500, seed=9)
        assert one == two

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            subsample_bias_variance([1.0, 2.0], 3, replicates=10)
        with pytest.raises(ValueError):
            subsample_bias_variance([1.0, 2.0], 1, replicates=0)
        with pytest.raises(ValueError):
            exhaustive_bias([], 1)

    def test_bias_and_variance_decrease_on_a_smooth_pool(self):
        # Not a theorem for arbitrary pools; checked on one smooth, spread-out
        # pool where the exact curve is monotone, with the Monte Carlo
        # estimate tracking it at moderate subsample sizes.
        rng = random.Random(99)
        pool = [rng.gauss(-8.0, 3.0) for _ in range(16)]
        grid = [2, 4, 6, 8, 10, 12]
        exact = [exhaustive_bias(pool, s) for s in grid]
        for (b_lo, v_lo), (b_hi, v_hi) in zip(exact, exact[1:]):
            assert b_hi >= b_lo
            assert v_hi <= v_lo
        for s, (bias, variance) in zip(grid, exact):
            replicates = 6000
            mc_bias, _ = subsample_bias_variance(pool, s, replicates=replicates, seed=5)
            se = (variance / replicates) ** 0.5
            assert abs(mc_bias - bias) <= 4 * max(se, 1e-12)
