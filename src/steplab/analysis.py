"""Labeling-cost accounting and the subsampled-max bias/variance study.

Token costs are closed-form expected counts for three labeling strategies:
rollout-per-step (quadratic in the step count), rollout-with-binary-search
(N log N), and prefix-rescoring (linear). The bias study quantifies how far
the max over a size-s subsample sits below the max over the full candidate
pool, exactly from order statistics or by seeded Monte Carlo replication.
"""

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from statistics import fmean

from .ioutil import stable_seed


@dataclass
class ComplexityParams:
    """Workload description for the token-cost formulas.

    steps: CoT steps to label (N >= 1). tokens_per_step: average step
    length. rollouts_per_prefix: completions sampled per prefix by the
    rollout-based methods. sampled_answers and answer_tokens describe the
    candidate answers rescored by the prefix method; question_tokens is the
    prompt length.
    """

    steps: int
    tokens_per_step: float
    rollouts_per_prefix: int = 1
    sampled_answers: int = 1
    answer_tokens: float = 1.0
    question_tokens: float = 0.0

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be at least 1")
        if self.rollouts_per_prefix < 1 or self.sampled_answers < 1:
            raise ValueError("rollout and answer counts must be at least 1")
        if not all(0 <= n < math.inf for n in (self.tokens_per_step, self.answer_tokens, self.question_tokens)):
            raise ValueError("token counts must be finite and non-negative")


def tokens_mathshepherd(p: ComplexityParams) -> float:
    """Expected rollout tokens when every step spawns full completions:
    M * s_bar * N(N-1)/2."""
    return p.rollouts_per_prefix * p.tokens_per_step * p.steps * (p.steps - 1) / 2


def tokens_omegaprm(p: ComplexityParams, natural_log: bool = False) -> float:
    """Expected rollout tokens under binary search for the first failure:
    M * s_bar * (N/2) * log N.

    The log is base 2 by default, matching the binary-search query count;
    ``natural_log`` switches base for sensitivity checks.
    """
    if p.steps < 2:
        raise ValueError("binary-search accounting needs at least 2 steps")
    log_n = math.log(p.steps) if natural_log else math.log2(p.steps)
    return p.rollouts_per_prefix * p.tokens_per_step * (p.steps / 2) * log_n


def tokens_mcnig(p: ComplexityParams) -> float:
    """Tokens for one prefix pass plus rescoring every sampled answer at every
    prefix including the baseline: |q| + N*s_bar + (N+1)*S*T."""
    return (
        p.question_tokens
        + p.steps * p.tokens_per_step
        + (p.steps + 1) * p.sampled_answers * p.answer_tokens
    )


def subsample_bias_variance(pool: list[float], s: int, replicates: int, seed: int = 0) -> tuple[float, float]:
    """Monte Carlo estimate of the subsampled-max bias and variance, as
    ``(bias, variance)`` like :func:`exhaustive_bias`.

    Each replicate draws s values without replacement (with its own derived
    seed, so replicates are order-independent) and takes their max. The bias
    is the replicate mean minus the full-pool max; the variance uses the
    population 1/K normalization.
    """
    _check_subsample_args(pool, s)
    if replicates < 1:
        raise ValueError("replicates must be at least 1")
    maxes = []
    for r in range(replicates):
        rng = random.Random(stable_seed(seed, r))
        maxes.append(max(rng.sample(pool, s)))
    mean = fmean(maxes)
    return mean - max(pool), fmean((m - mean) ** 2 for m in maxes)


def exhaustive_bias(pool: list[float], s: int) -> tuple[float, float]:
    """Exact bias and variance of the subsampled max over all size-s
    subsets, each equally likely.

    Sorted ascending, the i-th value (1-based) is the max of C(i-1, s-1)
    of the C(n, s) subsets (ties go to the later index), so E[max] and
    E[max^2] are weighted sums over the sorted pool and the variance is
    E[max^2] - E[max]^2. Arithmetic is exact (rational), so e.g. a pool of
    {1,2,3} at s=2 gives bias -1/3 and variance 2/9 with no float drift
    beyond the final conversion.
    """
    _check_subsample_args(pool, s)
    ordered = sorted(Fraction(v) for v in pool)
    n_subsets = math.comb(len(ordered), s)
    weights = [Fraction(math.comb(i, s - 1), n_subsets) for i in range(len(ordered))]
    expectation = sum(w * v for w, v in zip(weights, ordered))
    variance = sum(w * v * v for w, v in zip(weights, ordered)) - expectation**2
    return float(expectation - ordered[-1]), float(variance)


def _check_subsample_args(pool: list[float], s: int) -> None:
    if not pool:
        raise ValueError("pool must be non-empty")
    if not 1 <= s <= len(pool):
        raise ValueError(f"subsample size {s} outside 1..{len(pool)}")
