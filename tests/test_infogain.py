import math
import random

import pytest

from helpers import make_problem, make_trace, scored_profile
from steplab.infogain import (
    StepSignal,
    assign_labels,
    ig_signal,
    mcnig_extended,
    mcnig_signal,
    net_info,
)
from steplab.scoring import InformationProfile, ReferenceModel
from steplab.trace_model import AnswerPool


def make_profile(values, answers=None, pid="p1", tid="t1"):
    answers = answers or [f"a{j}" for j in range(len(values[0]))]
    return InformationProfile(problem_id=pid, trace_id=tid, answers=answers, values=values)


def random_profile(rng, n_steps=None, n_answers=None):
    n_steps = n_steps or rng.randint(1, 6)
    n_answers = n_answers or rng.randint(2, 6)
    values = [
        [rng.uniform(-12.0, 0.0) for _ in range(n_answers)] for _ in range(n_steps + 1)
    ]
    profile = make_profile(values)
    split = rng.randint(1, n_answers - 1)
    pool = AnswerPool(problem_id="p1", correct=profile.answers[:split], wrong=profile.answers[split:])
    return profile, pool


@pytest.fixture()
def worked_fixture():
    """One-step trace over answers a (correct) and b (wrong) with hand-set
    probabilities: p(a)=0.5->0.8 and p(b)=0.4->0.1 as the step arrives."""
    problem = make_problem(question="What?", gold="a")
    model = ReferenceModel(
        table={"What?": {"a": 0.5, "b": 0.4}, "What?\nr1": {"a": 0.8, "b": 0.1}},
        fallback_prob=0.01,
    )
    trace = make_trace(steps=["r1"], final_answer="a")
    profile = scored_profile(problem, trace, ["a", "b"], model)
    pool = AnswerPool(problem_id="p1", correct=["a"], wrong=["b"])
    return profile, pool


class TestIgSignal:
    def test_hand_computed_gain(self, worked_fixture):
        profile, _ = worked_fixture
        signal = ig_signal(profile, "a")
        assert signal.values == pytest.approx([math.log(0.8 / 0.5)], abs=1e-12)
        assert signal.values[0] == pytest.approx(0.4700, abs=1e-4)

    def test_constant_information_gives_zero_signal(self):
        profile = make_profile([[-1.0, -2.0], [-1.0, -2.5], [-1.0, -3.0]])
        signal = ig_signal(profile, "a0")
        assert signal.values == [0.0, 0.0]

    def test_shift_invariance_of_labels(self):
        rng = random.Random(2)
        for _ in range(100):
            profile, _ = random_profile(rng)
            gold = profile.answers[0]
            shift = rng.uniform(-5, 5)
            shifted = make_profile(
                [[v + shift if j == 0 else v for j, v in enumerate(row)] for row in profile.values],
                answers=profile.answers,
            )
            base = assign_labels(ig_signal(profile, gold), 0.0)
            moved = assign_labels(ig_signal(shifted, gold), 0.0)
            assert base == moved


class TestNetInfo:
    def test_hand_computed_values(self, worked_fixture):
        profile, pool = worked_fixture
        values = net_info(profile, pool, "max")
        assert values[0] == pytest.approx(math.log(0.5) - math.log(0.4), abs=1e-12)
        assert values[1] == pytest.approx(math.log(0.8) - math.log(0.1), abs=1e-12)
        assert values[0] == pytest.approx(0.2231, abs=1e-4)
        assert values[1] == pytest.approx(2.0794, abs=1e-4)

    def test_symmetric_pools_give_zero(self):
        profile = make_profile([[-1.0, -1.0], [-2.5, -2.5]])
        pool = AnswerPool(problem_id="p1", correct=["a0"], wrong=["a1"])
        assert net_info(profile, pool) == [0.0, 0.0]

    def test_max_dominates_mean_pointwise(self):
        rng = random.Random(5)
        for _ in range(500):
            profile, pool = random_profile(rng)
            by_max = net_info(profile, pool, "max")
            by_mean = net_info(profile, pool, "mean")
            for i, row in enumerate(profile.values):
                c_vals = [row[profile.answers.index(a)] for a in pool.correct]
                w_vals = [row[profile.answers.index(a)] for a in pool.wrong]
                assert max(c_vals) >= sum(c_vals) / len(c_vals) - 1e-12
                assert max(w_vals) >= sum(w_vals) / len(w_vals) - 1e-12
                # The decomposed identity: each aggregation side matches.
                assert by_max[i] == pytest.approx(max(c_vals) - max(w_vals), abs=1e-12)
                assert by_mean[i] == pytest.approx(
                    sum(c_vals) / len(c_vals) - sum(w_vals) / len(w_vals), abs=1e-9
                )


class TestMcnig:
    def test_worked_fixture_value(self, worked_fixture):
        profile, pool = worked_fixture
        signal = mcnig_signal(profile, pool)
        assert signal.values[0] == pytest.approx(1.8563, abs=1e-4)

    def test_step0_reference_starts_at_zero(self):
        rng = random.Random(13)
        for _ in range(300):
            profile, pool = random_profile(rng)
            extended = mcnig_extended(profile, pool, "max", "step0")
            assert extended[0] == 0.0

    def test_previous_reference_telescopes(self):
        rng = random.Random(17)
        for _ in range(300):
            profile, pool = random_profile(rng)
            step0 = mcnig_extended(profile, pool, "max", "step0")
            previous = mcnig_extended(profile, pool, "max", "previous")
            running = 0.0
            for i in range(len(step0)):
                running += previous[i]
                assert abs(running - step0[i]) < 1e-12

    def test_constant_net_info_gives_zero_signal(self):
        profile = make_profile([[-1.0, -3.0], [-2.0, -4.0], [-0.5, -2.5]])
        pool = AnswerPool(problem_id="p1", correct=["a0"], wrong=["a1"])
        for reference in ("step0", "previous"):
            signal = mcnig_signal(profile, pool, reference=reference)
            assert signal.values == pytest.approx([0.0, 0.0], abs=1e-12)


class TestStepSignalJson:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), "NaN"])
    def test_non_finite_value_rejected(self, bad):
        obj = {"problem_id": "p7", "trace_id": "t3", "method": "MCNIG", "values": [0.5, bad, 1.0]}
        with pytest.raises(ValueError, match="p7/t3"):
            StepSignal(**obj)

    def test_no_values_rejected(self):
        with pytest.raises(ValueError, match="p7/t3"):
            StepSignal(problem_id="p7", trace_id="t3", method="MCNIG", values=[])


class TestAssignLabels:
    def test_positive_signal_above_zero_threshold(self, worked_fixture):
        profile, pool = worked_fixture
        labels = assign_labels(mcnig_signal(profile, pool), 0.0)
        assert labels == [1]

    def test_strict_inequality_at_boundary(self):
        labels = assign_labels(
            StepSignal(problem_id="p", trace_id="t", method="IG", values=[0.0, -0.5]), 0.0
        )
        assert labels == [0, 0]

    def test_minus_infinity_threshold_labels_everything(self):
        signal = StepSignal(problem_id="p", trace_id="t", method="IG", values=[-9.0, 0.0, 4.0])
        labels = assign_labels(signal, float("-inf"))
        assert labels == [1, 1, 1]

    def test_monotone_in_threshold(self):
        rng = random.Random(23)
        for _ in range(200):
            values = [rng.uniform(-3, 3) for _ in range(rng.randint(1, 8))]
            signal = StepSignal(problem_id="p", trace_id="t", method="IG", values=values)
            lo, hi = sorted((rng.uniform(-3, 3), rng.uniform(-3, 3)))
            low_labels = assign_labels(signal, lo)
            high_labels = assign_labels(signal, hi)
            for l_low, l_high in zip(low_labels, high_labels):
                assert l_high <= l_low
