"""Step-quality signals derived from information profiles.

Two signals are computed per trace, both in nats:

* the gold-answer lift of each step prefix over the no-reasoning baseline
  (method "IG"), and
* the net-information gain (method "MCNIG"): the aggregated information of
  correct pool answers minus that of incorrect ones, referenced either to
  step 0 or to the previous step.

Binary step labels come from thresholding a signal with a strict ``>``.
"""

import math
from dataclasses import dataclass, field
from statistics import fmean

from .scoring import InformationProfile
from .trace_model import AnswerPool

# Each aggregation's function over a row's picked columns.
AGGREGATIONS = {"max": max, "mean": fmean}
REFERENCES = ("step0", "previous")


@dataclass
class StepSignal:
    """Per-step signal values for one trace, indexed i = 1..N."""

    problem_id: str
    trace_id: str
    method: str
    aggregation: str | None = None
    reference: str | None = None
    values: list[float] = field(kw_only=True)

    def __post_init__(self):
        """Ids must be strings, and values, one per step, finite numbers:
        thresholding and calibration need a total order on them."""
        if type(self.problem_id) is not str or type(self.trace_id) is not str:
            raise ValueError("problem_id and trace_id must be strings")
        if not self.values or not all(type(v) in (int, float) and math.isfinite(v) for v in self.values):
            raise ValueError(f"trace {self.problem_id}/{self.trace_id}: values must be one or more finite numbers")


def ig_signal(profile: InformationProfile, gold_answer: str) -> StepSignal:
    """Gold-answer information lift of each step prefix over step 0."""
    col = profile.answers.index(gold_answer)
    base = profile.values[0][col]
    return StepSignal(
        problem_id=profile.problem_id,
        trace_id=profile.trace_id,
        method="IG",
        values=[profile.values[i][col] - base for i in range(1, len(profile.values))],
    )


def net_info(profile: InformationProfile, pool: AnswerPool, aggregation: str = "max") -> list[float]:
    """Aggregated correct-answer information minus aggregated wrong-answer
    information, one value per step prefix 0..N.

    Both sides must be non-empty, and each pool answer a column of the
    profile. ``max`` keeps the strongest alternative on each side; ``mean``
    averages in log space.
    """
    c_cols = [profile.answers.index(a) for a in pool.correct]
    w_cols = [profile.answers.index(a) for a in pool.wrong]
    aggregate = AGGREGATIONS[aggregation]
    return [aggregate([row[c] for c in c_cols]) - aggregate([row[c] for c in w_cols]) for row in profile.values]


def mcnig_extended(
    profile: InformationProfile,
    pool: AnswerPool,
    aggregation: str = "max",
    reference: str = "step0",
) -> list[float]:
    """Net-information gain including the step-0 entry, which is 0 by
    construction under either reference: "step0", or else "previous"."""
    net = net_info(profile, pool, aggregation)
    if reference == "step0":
        return [v - net[0] for v in net]
    return [0.0] + [net[i] - net[i - 1] for i in range(1, len(net))]


def mcnig_signal(
    profile: InformationProfile,
    pool: AnswerPool,
    aggregation: str = "max",
    reference: str = "step0",
) -> StepSignal:
    extended = mcnig_extended(profile, pool, aggregation, reference)
    return StepSignal(
        problem_id=profile.problem_id,
        trace_id=profile.trace_id,
        method="MCNIG",
        aggregation=aggregation,
        reference=reference,
        values=extended[1:],
    )


def assign_labels(signal: StepSignal, threshold: float) -> list[int]:
    """Label step i positive (1) iff its signal value strictly exceeds the threshold."""
    return [int(v > threshold) for v in signal.values]
