"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Expected values are either fixed reference points or computed by the
independent oracles defined alongside each test.
"""

import json
import math
import random
import time
from fractions import Fraction

import pytest

from helpers import information, make_problem, make_trace, parse_record_line, scored_profile
from steplab.analysis import (
    ComplexityParams,
    exhaustive_bias,
    subsample_bias_variance,
    tokens_mathshepherd,
    tokens_mcnig,
    tokens_omegaprm,
)
from steplab.calibration import sweep_threshold
from steplab.dataset_emit import STEP_MARKER, emit_orm_record, emit_prm_record, trace_fragment, write_shards
from steplab.errors import ReservedSymbolError
from steplab.evaluation import best_of_k, oracle_score, random_scorer
from steplab.infogain import StepSignal, mcnig_extended, mcnig_signal, net_info
from steplab.pipeline import RunConfig, artifact_paths, run_pipeline
from steplab.scoring import InformationProfile, ReferenceModel, build_context
from steplab.trace_model import AnswerPool, filter_and_subsample
from steplab.validators import check_sql


def _passed(n, name):
    print(f"ACCEPTANCE {n:02d} {name}: PASS")


def test_c01_information_oracle_equivalence():
    """information(...) equals hand-summed table log-probs on 50 random pairs."""
    rng = random.Random(101)
    table = {}
    cases = []
    start = time.monotonic()
    for i in range(50):
        question = f"question {rng.randint(0, 10**9)}"
        steps = [f"step {j} {rng.randint(0, 999)}" for j in range(rng.randint(0, 4))]
        answer = "".join(rng.choice("abcxyz0123456789") for _ in range(rng.randint(1, 4)))
        context = build_context(question, steps)
        for c in range(len(answer)):
            key = context + answer[:c]
            table.setdefault(key, {})[answer[c]] = round(rng.uniform(0.05, 0.9), 6)
        cases.append((question, steps, answer))
    model = ReferenceModel(table=table, fallback_prob=0.05)
    for question, steps, answer in cases:
        problem = make_problem(question=question)
        # Independent oracle: walk the raw table and sum logs by hand.
        context = build_context(question, steps)
        expected = 0.0
        for c, ch in enumerate(answer):
            prob = table.get(context + answer[:c], {}).get(ch, 0.05)
            expected += math.log(prob)
        got = information(problem, steps, answer, model)
        assert abs(got - expected) < 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _passed(1, "information-oracle-equivalence")


def _random_profile_and_pool(rng):
    n_steps = rng.randint(1, 7)
    n_answers = rng.randint(2, 6)
    answers = [f"a{j}" for j in range(n_answers)]
    values = [[rng.uniform(-15.0, 0.0) for _ in range(n_answers)] for _ in range(n_steps + 1)]
    profile = InformationProfile(problem_id="p", trace_id="t", answers=answers, values=values)
    split = rng.randint(1, n_answers - 1)
    pool = AnswerPool(problem_id="p", correct=answers[:split], wrong=answers[split:])
    return profile, pool


def test_c02_definition_identities():
    """Step-0 value is exactly 0; the previous-step variant telescopes."""
    rng = random.Random(202)
    for _ in range(1000):
        profile, pool = _random_profile_and_pool(rng)
        aggregation = rng.choice(["max", "mean"])
        step0 = mcnig_extended(profile, pool, aggregation, "step0")
        assert step0[0] == 0.0
        previous = mcnig_extended(profile, pool, aggregation, "previous")
        running = 0.0
        for i in range(len(step0)):
            running += previous[i]
            assert abs(running - step0[i]) <= 1e-12
    _passed(2, "definition-identities")


def test_c03_worked_mcnig_fixture():
    """Two-answer fixture reproduces the hand-computed net values."""
    problem = make_problem(question="What?", gold="a")
    model = ReferenceModel(
        table={"What?": {"a": 0.5, "b": 0.4}, "What?\nr1": {"a": 0.8, "b": 0.1}},
        fallback_prob=0.01,
    )
    trace = make_trace(steps=["r1"], final_answer="a")
    profile = scored_profile(problem, trace, ["a", "b"], model)
    pool = AnswerPool(problem_id="p1", correct=["a"], wrong=["b"])
    net = net_info(profile, pool, "max")
    signal = mcnig_signal(profile, pool)
    assert net[0] == pytest.approx(0.2231, abs=1e-4)
    assert net[1] == pytest.approx(2.0794, abs=1e-4)
    assert signal.values[0] == pytest.approx(1.8563, abs=1e-4)
    _passed(3, "worked-mcnig-fixture")


def test_c04_aggregation_dominance():
    """max >= mean pointwise on 10,000 random sets, strict when non-constant.

    The exact-arithmetic comparison uses rationals; the module-level check
    allows one-ulp float noise on constant sets, where a summed mean can
    land a rounding step away from the shared value.
    """
    rng = random.Random(404)
    for _ in range(10_000):
        size = rng.randint(1, 8)
        constant = rng.random() < 0.1
        if constant:
            values = [rng.uniform(-9, 0)] * size
        else:
            values = [rng.uniform(-9, 0) for _ in range(size)]
        exact_mean = sum(Fraction(v) for v in values) / size
        assert Fraction(max(values)) >= exact_mean
        if len(set(values)) > 1:
            assert Fraction(max(values)) > exact_mean
        # Same comparison through the module's aggregations: with a singleton
        # wrong set, the net difference reduces to max_c - mean_c. A profile
        # holds a step row besides step 0; only the step-0 row is compared.
        answers = [f"a{j}" for j in range(size)] + ["w"]
        profile = InformationProfile(
            problem_id="p", trace_id="t", answers=answers, values=[values + [-1.0]] * 2
        )
        pool = AnswerPool(problem_id="p", correct=answers[:-1], wrong=["w"])
        gap = net_info(profile, pool, "max")[0] - net_info(profile, pool, "mean")[0]
        if len(set(values)) > 1:
            assert gap > 0.0
        else:
            assert abs(gap) <= 1e-12
    _passed(4, "aggregation-dominance")


def _exhaustive_sweep(signals, truths, grid):
    best = None
    for tau in grid:
        tp = fn = tn = fp = 0
        for signal, truth in zip(signals, truths):
            pred = 1 if all(v > tau for v in signal.values[:-1]) else 0
            tp += pred and truth
            fn += (not pred) and truth
            fp += pred and (not truth)
            tn += (not pred) and (not truth)
        if tp + fn == 0 or tn + fp == 0:
            continue
        ba = 0.5 * (tp / (tp + fn) + tn / (tn + fp))
        if best is None or ba > best[1] or (ba == best[1] and tau < best[0]):
            best = (tau, ba)
    return best


def test_c05_calibration_sweep():
    """Fixture argmax, exhaustive agreement on 100 instances, constant = 0.5."""
    signal_a = StepSignal(problem_id="p", trace_id="A", method="MCNIG", values=[0.5, 0.9, 5.0])
    signal_b = StepSignal(problem_id="p", trace_id="B", method="MCNIG", values=[0.2, -0.1, 5.0])
    sweep = sweep_threshold([signal_a, signal_b], [1, 0], [0.3, 0.7], domain="math")
    assert sweep["best_threshold"] == 0.3
    assert sweep["best_balanced_accuracy"] == 1.0

    rng = random.Random(505)
    for _ in range(100):
        signals, truths = [], []
        for t in range(rng.randint(2, 10)):
            values = [rng.uniform(-2, 2) for _ in range(rng.randint(1, 5))]
            signals.append(StepSignal(problem_id="p", trace_id=f"t{t}", method="MCNIG", values=values))
            truths.append(rng.randint(0, 1))
        if len(set(truths)) < 2:
            truths[0] = 1 - truths[0]
        grid = sorted(rng.uniform(-2, 2) for _ in range(rng.randint(1, 10)))
        result = sweep_threshold(signals, truths, grid)
        expected = _exhaustive_sweep(signals, truths, grid)
        assert result["best_threshold"] == expected[0]
        assert result["best_balanced_accuracy"] == expected[1]

        # A threshold below every signal value predicts 1 everywhere, which
        # must score a balanced accuracy of exactly 0.5.
        low = min(v for s in signals for v in s.values) - 1.0
        constant = sweep_threshold(signals, truths, [low])
        assert constant["best_balanced_accuracy"] == 0.5
    _passed(5, "calibration-sweep")


def test_c06_complexity_formulas():
    p = ComplexityParams(
        steps=100, tokens_per_step=30, rollouts_per_prefix=8,
        sampled_answers=16, answer_tokens=20, question_tokens=60,
    )
    assert tokens_mathshepherd(p) == 1_188_000
    assert tokens_mcnig(p) == 35_380
    assert tokens_omegaprm(p) == pytest.approx(79_726.3, abs=0.1)
    for n in (10**2, 10**3, 10**4, 10**5, 10**6):
        pn = ComplexityParams(
            steps=n, tokens_per_step=30, rollouts_per_prefix=8,
            sampled_answers=16, answer_tokens=20, question_tokens=60,
        )
        assert tokens_mcnig(pn) < tokens_omegaprm(pn) < tokens_mathshepherd(pn)
    _passed(6, "complexity-formulas")


def test_c07_bias_variance_oracle():
    bias, variance = exhaustive_bias([1.0, 2.0, 3.0], 2)
    assert bias == float(Fraction(-1, 3))
    assert variance == float(Fraction(2, 9))

    replicates = 10_000
    mc_bias, _ = subsample_bias_variance([1.0, 2.0, 3.0], 2, replicates=replicates, seed=0)
    se = (variance / replicates) ** 0.5
    assert abs(mc_bias - bias) <= 3 * se

    rng = random.Random(707)
    for _ in range(500):
        n = rng.randint(2, 8)
        pool = [rng.uniform(-25, 0) for _ in range(n)]
        if rng.random() < 0.2:
            pool[rng.randrange(n)] = max(pool)
        biases = []
        for s in range(1, n + 1):
            b, v = exhaustive_bias(pool, s)
            assert b <= 0.0
            biases.append(b)
        for lo, hi in zip(biases, biases[1:]):
            assert hi >= lo
        full_bias, full_var = exhaustive_bias(pool, n)
        assert full_bias == 0.0 and full_var == 0.0
    _passed(7, "bias-variance-oracle")


def test_c08_filtering_invariants():
    rng = random.Random(808)
    problems, traces_by_problem = [], {}
    for i in range(200):
        problem = make_problem(pid=f"p{i}")
        n = rng.randint(1, 14)
        traces = []
        for t in range(n):
            parse_ok = rng.random() > 0.15
            traces.append(
                make_trace(
                    problem_id=problem.id,
                    trace_id=f"p{i}-t{t}",
                    final_answer="4" if parse_ok else None,
                    steps=["s1", "s2"],
                    correct=(rng.random() < 0.4) if parse_ok else None,
                )
            )
        problems.append(problem)
        traces_by_problem[problem.id] = traces

    first, _ = filter_and_subsample(problems, traces_by_problem, k=8, seed=17)
    second, _ = filter_and_subsample(problems, traces_by_problem, k=8, seed=17)
    as_bytes = lambda kept: json.dumps(
        [(p.id, [t.trace_id for t in ts]) for p, ts in kept]
    ).encode()
    assert as_bytes(first) == as_bytes(second)

    for problem, kept in first:
        parsed = [t for t in traces_by_problem[problem.id] if t.parse_ok]
        assert not all(t.correct for t in parsed)
        assert len(kept) == min(8, len(parsed))
        if any(t.correct for t in parsed):
            assert any(t.correct for t in kept)
    _passed(8, "filtering-invariants")


def _bok_instance(rng):
    problems, candidates, truth = [], {}, {}
    for i in range(rng.randint(2, 10)):
        problem = make_problem(pid=f"p{i}")
        answers = [str(rng.randint(0, 4)) for _ in range(rng.randint(1, 10))]
        winners = {str(v) for v in range(5) if rng.random() < 0.35}
        traces = [
            make_trace(problem_id=problem.id, trace_id=f"p{i}-t{t}", final_answer=a, correct=a in winners)
            for t, a in enumerate(answers)
        ]
        for trace in traces:
            truth[(problem.id, trace.final_answer)] = int(trace.correct)
        problems.append(problem)
        candidates[problem.id] = traces
    return problems, candidates, truth


def test_c09_best_of_k_properties():
    rng = random.Random(909)
    for _ in range(100):
        problems, candidates, truth = _bok_instance(rng)
        k = rng.randint(1, 10)

        report_k1, _, _ = best_of_k(problems, candidates, random_scorer(3), 1, "random:3")
        for selection in report_k1["per_problem"]:
            first = candidates[selection["problem_id"]][0]
            assert selection["selected_trace_id"] == first.trace_id
            assert selection["success"] == truth[(selection["problem_id"], first.final_answer)]

        oracle, _, _ = best_of_k(problems, candidates, oracle_score, k, "oracle")
        brute = sum(
            any(truth.get((p.id, t.final_answer), 0) for t in candidates[p.id][:k])
            for p in problems
        ) / len(problems)
        assert oracle["accuracy"] == brute

        base = random_scorer(rng.randint(0, 10**6))
        a, b = rng.uniform(0.1, 4.0), rng.uniform(-3, 3)
        monotone = lambda p, t: math.exp(a * base(p, t) + b)
        assert [s["selected_trace_id"] for s in best_of_k(problems, candidates, base, k, "base")[0]["per_problem"]] == [
            s["selected_trace_id"] for s in best_of_k(problems, candidates, monotone, k, "monotone")[0]["per_problem"]
        ]

        accs = [best_of_k(problems, candidates, oracle_score, kk, "oracle")[0]["accuracy"] for kk in range(1, 11)]
        assert all(hi >= lo for lo, hi in zip(accs, accs[1:]))
    _passed(9, "best-of-k-properties")


def test_c10_dataset_emission(tmp_path):
    rng = random.Random(1010)
    built = {"prm": [], "orm": []}
    for i in range(1000):
        problem = make_problem(pid=f"p{i}", question=f"q {rng.randint(0, 10**6)}")
        n_steps = rng.randint(1, 7)
        trace = make_trace(
            problem_id=problem.id,
            trace_id=f"p{i}-t0",
            steps=[f"step {j} {rng.randint(0, 99)}" for j in range(n_steps)],
            correct=bool(rng.randint(0, 1)),
        )
        labels = [rng.randint(0, 1) for _ in range(n_steps)]
        fragment = trace_fragment(problem, trace)
        built["prm"].append(emit_prm_record(fragment, labels))
        prm = parse_record_line(built["prm"][-1])
        assert sum(s["is_target"] for s in prm["segments"]) == n_steps == len(prm["targets"])

        built["orm"].append(emit_orm_record(fragment, trace.correct))
        orm = parse_record_line(built["orm"][-1])
        assert sum(s["is_target"] for s in orm["segments"]) == 1

    # Round trip: the shards hold the builders' lines, each of which loads
    # back and passes the marker-layout check.
    for which, lines in built.items():
        paths = write_shards(lines, tmp_path / which, "train", records_per_shard=300)
        assert "".join(path.read_text(encoding="utf-8") for path in paths) == "".join(lines)
        assert [parse_record_line(line) for line in lines] == [json.loads(line) for line in lines]

    poisoned = make_trace(steps=[f"uses {STEP_MARKER} inline"], correct=True)
    with pytest.raises(ReservedSymbolError) as err:
        trace_fragment(make_problem(), poisoned)
    assert err.value.reason_code == "reserved_symbol_in_step"
    _passed(10, "dataset-emission")


def test_c11_sql_validator(sql_fixture):
    start = time.monotonic()
    gold = "SELECT name FROM employees WHERE dept_id = 1"
    equivalent = (
        "SELECT e.name FROM employees e JOIN departments d "
        "ON e.dept_id = d.dept_id WHERE d.name = 'Engineering'"
    )
    assert check_sql(equivalent, gold, sql_fixture).value == 1
    assert check_sql("SELECT name FROM employees WHERE dept_id = 2", gold, sql_fixture).value == 0
    broken = check_sql("SELEC name FRM employees", gold, sql_fixture)
    assert broken.value == 0 and broken.diagnostic
    assert time.monotonic() - start < 10.0
    _passed(11, "sql-validator")


def test_c12_pipeline_determinism_and_cache(demo_corpus, tmp_path):
    start = time.monotonic()
    problems_file = demo_corpus["problems"]
    assert len(problems_file.read_text(encoding="utf-8").splitlines()) >= 20

    def config(out):
        return RunConfig(
            problems=str(demo_corpus["problems"]),
            traces=str(demo_corpus["traces"]),
            out_dir=str(tmp_path / out),
            backend=f"reference:{demo_corpus['reference_model']}",
            cache_dir=str(tmp_path / "cache"),
            seed=20240801,
        )

    run_pipeline(config("run1"))
    manifest2 = run_pipeline(config("run2"))
    score = next(s for s in manifest2["stages"] if s["name"] == "score")
    assert score["counts"]["cache_hit_rate"] == 1.0

    paths1, paths2 = artifact_paths(tmp_path / "run1"), artifact_paths(tmp_path / "run2")
    for name in ("step_labels", "signals", "sweep", "thresholds"):
        assert paths1[name].read_bytes() == paths2[name].read_bytes()
    for sub in ("prm_dir", "orm_dir"):
        shards1 = sorted(paths1[sub].glob("*.jsonl"))
        shards2 = sorted(paths2[sub].glob("*.jsonl"))
        assert [p.name for p in shards1] == [p.name for p in shards2]
        for a, b in zip(shards1, shards2):
            assert a.read_bytes() == b.read_bytes()
    assert time.monotonic() - start < 60.0
    _passed(12, "pipeline-determinism-and-cache")
