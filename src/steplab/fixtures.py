"""Deterministic demo corpus: problems, raw traces, and a reference-model
fixture that yields non-degenerate information profiles.

Everything is derived from a single seed, so rebuilding the corpus with the
same arguments is byte-identical. The corpus mixes math problems (numeric
validator) and yes/no questions (normalized-exact validator), includes a
problem the model always solves and one it never parses (both get dropped
by filtering), and one problem with no correct answer at all.
"""

import random
from pathlib import Path

from .ioutil import stable_seed, write_jsonl
from .scoring import ReferenceModel, prefix_contexts
from .trace_model import Problem, parse_trace, write_problems
from .validators import ValidatorSpec

FALLBACK_PROB = 0.05


def build_demo_corpus(
    out_dir: str | Path,
    n_problems: int = 24,
    traces_per_problem: int = 8,
    seed: int = 20240801,
) -> dict[str, Path]:
    """Write problems.jsonl, traces.jsonl, and reference_model.json.

    Returns the paths keyed by artifact name.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    problems: list[Problem] = []
    raw_traces: list[dict] = []
    weights: dict[str, dict[str, float]] = {}

    for p_idx in range(n_problems):
        problem = _make_problem(p_idx, seed)
        problems.append(problem)
        answers: set[str] = {problem.gold_answer}
        parsed = []
        for t_idx in range(traces_per_problem):
            trace_id = f"{problem.id}-t{t_idx}"
            raw = _make_raw_trace(problem, p_idx, t_idx, seed)
            raw_traces.append({"problem_id": problem.id, "trace_id": trace_id, "raw_text": raw})
            trace = parse_trace(raw, problem.domain, problem_id=problem.id, trace_id=trace_id)
            if trace.parse_ok:
                answers.add(trace.final_answer)
                parsed.append(trace)
        for trace in parsed:
            _add_table_weights(weights, problem, trace, sorted(answers), seed)

    table = _normalize_weights(weights)
    model = ReferenceModel(table=table, fallback_prob=FALLBACK_PROB)

    paths = {
        "problems": out_dir / "problems.jsonl",
        "traces": out_dir / "traces.jsonl",
        "reference_model": out_dir / "reference_model.json",
    }
    write_problems(paths["problems"], problems)
    write_jsonl(paths["traces"], raw_traces)
    model.to_file(paths["reference_model"])
    return paths


def _make_problem(p_idx: int, seed: int) -> Problem:
    rng = random.Random(stable_seed(seed, "problem", p_idx))
    pid = f"demo-{p_idx:03d}"
    if p_idx % 2 == 0:
        a, b = rng.randint(11, 79), rng.randint(11, 79)
        return Problem(
            id=pid,
            domain="math",
            question=f"Compute {a} + {b}.",
            gold_answer=str(a + b),
            validator_spec=ValidatorSpec(kind="numeric_equivalence"),
        )
    n = rng.randint(10, 99)
    return Problem(
        id=pid,
        domain="qa",
        question=f"Is {n} an even number? Answer yes or no.",
        gold_answer="yes" if n % 2 == 0 else "no",
        validator_spec=ValidatorSpec(kind="normalized_exact"),
    )


def _wrong_answer(problem: Problem, rng: random.Random) -> str:
    if problem.domain == "math":
        offset = rng.choice([-5, -3, -2, -1, 1, 2, 3, 4])
        return str(int(problem.gold_answer) + offset)
    return {"yes": "no", "no": "yes"}[problem.gold_answer] if rng.random() < 0.8 else "maybe"


def _make_raw_trace(problem: Problem, p_idx: int, t_idx: int, seed: int) -> str:
    rng = random.Random(stable_seed(seed, "trace", p_idx, t_idx))
    n_steps = rng.randint(2, 4)
    steps = [
        f"Step {i + 1} of attempt {t_idx}: work through the problem about {problem.question.split()[0].lower()}."
        for i in range(n_steps - 1)
    ]
    # Fixed roles keep the corpus useful: problem 3 is solved every time,
    # problem 5 never yields a parseable answer, problem 7 is never solved.
    if p_idx == 5:
        steps.append("I cannot commit to a final answer here.")
        return " [STEP] ".join(steps)
    if p_idx == 3:
        answer = problem.gold_answer
    elif p_idx == 7:
        answer = _wrong_answer(problem, rng)
    elif t_idx == 0:
        answer = problem.gold_answer
    elif t_idx == 1:
        answer = _wrong_answer(problem, rng)
    else:
        answer = problem.gold_answer if rng.random() < 0.45 else _wrong_answer(problem, rng)
    steps.append(f"So the final answer is ${answer}$.")
    return " [STEP] ".join(steps)


def _add_table_weights(
    weights: dict[str, dict[str, float]],
    problem: Problem,
    trace,
    answers: list[str],
    seed: int,
) -> None:
    rng = random.Random(stable_seed(seed, "table", problem.id, trace.trace_id))
    own = trace.final_answer
    ends_correct = own == problem.gold_answer
    for i, base_key in enumerate(prefix_contexts(problem.question, trace.steps)):
        for answer in answers:
            # Traces that end correct build support for their own answer as
            # steps accumulate; other answers drift slightly down.
            if answer == own and ends_correct:
                weight = min(0.9, 0.25 + 0.12 * i + rng.uniform(0.0, 0.1))
            elif answer == own:
                weight = min(0.9, 0.30 + 0.08 * i + rng.uniform(0.0, 0.1))
            else:
                weight = max(0.03, 0.30 - 0.04 * i + rng.uniform(-0.05, 0.1))
            weight = round(weight, 4)
            for c, ch in enumerate(answer):
                key = base_key + answer[:c]
                if (dist := weights.get(key)) is None:
                    weights[key] = {ch: weight}
                elif ch not in dist:  # the first trace to reach a key sets its weight
                    dist[ch] = weight


def _normalize_weights(weights: dict[str, dict[str, float]]) -> dict[str, dict[str, float]]:
    table: dict[str, dict[str, float]] = {}
    for key, dist in weights.items():
        total = sum(dist.values())
        if total > 0.95:
            dist = {ch: round(w * 0.95 / total, 6) for ch, w in dist.items()}
        table[key] = dist
    return table
