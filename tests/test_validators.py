import hashlib
import json
import os
import sqlite3
import subprocess
import sys
import threading
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import make_problem
from steplab.errors import ValidatorError
from steplab.validators import (
    COMMAND_ADDRESS_SPACE,
    COMMAND_FILE_SIZE,
    NUMBER_DIGITS,
    ValidatorSpec,
    check_external,
    check_sql,
    normalized_exact,
    numeric_equivalent,
    parse_numeric,
    validate,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def _probe(script: str, *args: str, address_space: int | None = None, timeout: float = 60):
    """The JSON that ``script`` prints, run by one child interpreter with ``src``
    and the tests on its path, a timeout and, when given, an address space of
    at most ``address_space`` bytes: a probe that hangs or exhausts memory
    fails the test, not the suite."""
    if address_space is not None:
        limit = f"resource.setrlimit(resource.RLIMIT_AS, ({address_space}, {address_space}))"
        script = f"import resource\n{limit}\n{script}"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), str(Path(__file__).parent)])}
    child = subprocess.run([sys.executable, "-c", script, *args], env=env, capture_output=True, text=True,
                           timeout=timeout)
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout)


class TestNumericEquivalent:
    def test_fraction_matches_decimal(self):
        assert numeric_equivalent("0.5", "1/2") == 1

    def test_relative_tolerance(self):
        # |3.0000000001 - 3| / 3 is about 3.3e-11, inside the 1e-9 default.
        rel_err = abs(3.0000000001 - 3.0) / 3.0
        assert rel_err < 1e-9
        assert numeric_equivalent("3", "3.0000000001") == 1
        # And a gap well outside the tolerance stays unequal.
        assert numeric_equivalent("3", "3.001") == 0

    def test_symbolic_strings_fall_back_to_string_equality(self):
        assert numeric_equivalent("x+1", "1+x") == 0
        assert numeric_equivalent("x+1", "x+1") == 1

    def test_currency_and_separators(self):
        assert numeric_equivalent("$32,348", "32348") == 1

    @pytest.mark.parametrize("text", ["1/0", "inf", "nan"])
    def test_what_is_no_finite_rational_parses_to_none(self, text):
        assert parse_numeric(text) is None

    def test_a_huge_exponent_scores_zero_within_a_second(self):
        script = (
            "import json, time\n"
            "from helpers import make_problem\n"
            "from steplab.validators import ValidatorSpec, validate\n"
            "start = time.perf_counter()\n"
            "value = validate(ValidatorSpec(kind='numeric_equivalence'), '1e100000000', make_problem(gold='3'))\n"
            "print(json.dumps([value, time.perf_counter() - start]))\n"
        )
        value, seconds = _probe(script, address_space=1 << 30, timeout=20)
        assert value == 0 and seconds < 1.0

    @pytest.mark.parametrize("answer", ["1e5000", "5" * 5000 + "/2"], ids=["exponent", "numerator"])
    def test_a_number_too_long_to_print_is_a_wrong_answer(self, answer):
        """``normalize_answer`` prints the exact value of a parsed number, and
        Python prints no integer of more than 4,300 digits: such a number
        parses to None, so the pool files it as wrong, with no diagnostic."""
        script = (
            "import json, sys\n"
            "from helpers import make_problem, make_trace\n"
            "from steplab.trace_model import build_answer_pool, normalize_answer\n"
            "from steplab.validators import make_validator\n"
            "problem, answer = make_problem(gold='3'), sys.argv[1]\n"
            "traces = [make_trace(trace_id=t, final_answer=a) for t, a in (('t1', answer), ('t2', '3'))]\n"
            "pool = build_answer_pool(problem, traces, make_validator(problem))\n"
            "print(json.dumps([pool.correct, pool.wrong, pool.diagnostics, normalize_answer(answer, 'math')]))\n"
        )
        assert _probe(script, answer, timeout=20) == [["3"], [answer], {}, answer]

    def test_the_number_bound_is_inclusive(self):
        bound = NUMBER_DIGITS
        assert parse_numeric(f"1e{bound}") == 10**bound and parse_numeric(f"1e-{bound}") == Fraction(1, 10**bound)
        assert parse_numeric("7" * bound) == int("7" * bound)
        assert parse_numeric("7" * bound + "/" + "3" * bound) == Fraction(int("7" * bound), int("3" * bound))
        for past in (f"1e{bound + 1}", f"1e-{bound + 1}", "7" * (bound + 1), "7" * (bound + 1) + "/3"):
            assert parse_numeric(past) is None

    def test_unequal_values_beyond_the_float_range_are_unequal(self):
        # Both parse exactly, but neither converts to a float for the tolerance check.
        assert numeric_equivalent("1e400", "2e400") == 0

    def test_equivalence_relation_at_tolerance_zero(self):
        values = ["1/2", "0.5", "2/4", "0.25", "3"]
        parsed = [v for v in values if parse_numeric(v) is not None]
        for a in parsed:
            assert numeric_equivalent(a, a, rel_tol=0.0) == 1
            for b in parsed:
                assert numeric_equivalent(a, b, rel_tol=0.0) == numeric_equivalent(b, a, rel_tol=0.0)
        for a in parsed:
            for b in parsed:
                for c in parsed:
                    if numeric_equivalent(a, b, 0.0) and numeric_equivalent(b, c, 0.0):
                        assert numeric_equivalent(a, c, 0.0) == 1


class TestNormalizedExact:
    def test_case_and_punctuation(self):
        assert normalized_exact("Yes.", "yes") == 1

    def test_mismatch(self):
        assert normalized_exact("no", "yes") == 0

    def test_whitespace(self):
        assert normalized_exact("  the   answer ", "the answer") == 1


class TestSqlEquivalent:
    def test_row_equivalent_but_textually_different(self, sql_fixture):
        gold = "SELECT name FROM employees WHERE dept_id = 1"
        candidate = (
            "SELECT e.name FROM employees e JOIN departments d "
            "ON e.dept_id = d.dept_id WHERE d.name = 'Engineering'"
        )
        # Independent oracle: run both queries directly and compare multisets.
        conn = sqlite3.connect(":memory:")
        conn.executescript(sql_fixture.read_text())
        gold_rows = Counter(conn.execute(gold).fetchall())
        cand_rows = Counter(conn.execute(candidate).fetchall())
        conn.close()
        assert gold_rows == cand_rows
        assert check_sql(candidate, gold, sql_fixture).value == 1

    def test_mutated_candidate_is_wrong(self, sql_fixture):
        gold = "SELECT name FROM employees WHERE dept_id = 1"
        candidate = "SELECT name FROM employees WHERE dept_id = 2"
        assert check_sql(candidate, gold, sql_fixture).value == 0

    def test_syntax_error_scores_zero_with_diagnostic(self, sql_fixture):
        result = check_sql("SELEC name FRM employees", "SELECT name FROM employees", sql_fixture)
        assert result.value == 0
        assert result.diagnostic and "execution error" in result.diagnostic

    def test_identity(self, sql_fixture):
        gold = "SELECT name FROM employees WHERE salary > 9000"
        assert check_sql(gold, gold, sql_fixture).value == 1

    def test_order_insensitive_by_default(self, sql_fixture):
        gold = "SELECT name FROM employees"
        candidate = "SELECT name FROM employees ORDER BY salary DESC"
        assert check_sql(candidate, gold, sql_fixture).value == 1

    def test_gold_with_order_by_is_order_sensitive(self, sql_fixture):
        gold = "SELECT name FROM employees ORDER BY salary DESC"
        candidate = "SELECT name FROM employees ORDER BY salary ASC"
        assert check_sql(candidate, gold, sql_fixture).value == 0

    def test_missing_fixture_is_structured_error(self):
        with pytest.raises(ValidatorError):
            check_sql("SELECT 1", "SELECT 1", "does/not/exist.sqlite")

    @pytest.mark.parametrize("kind", ["fifo", "directory"])
    @pytest.mark.parametrize("suffix", [".sql", ".sqlite"])
    def test_a_fixture_that_is_not_a_regular_file_is_a_structured_error(self, tmp_path, kind, suffix):
        fixture = tmp_path / f"company{suffix}"
        os.mkfifo(fixture) if kind == "fifo" else fixture.mkdir()
        errors = []

        def check():
            try:
                check_sql("SELECT 1", "SELECT 1", fixture)
            except ValidatorError as exc:
                errors.append(exc)

        worker = threading.Thread(target=check, daemon=True)  # a read of the FIFO would block for ever
        worker.start()
        worker.join(timeout=20)
        assert not worker.is_alive() and len(errors) == 1 and str(fixture) in str(errors[0])

    def test_symmetry_without_ordering_clauses(self, sql_fixture):
        pairs = [
            ("SELECT name FROM employees WHERE dept_id = 1",
             "SELECT e.name FROM employees e WHERE e.dept_id = 2 - 1"),
            ("SELECT name FROM employees WHERE dept_id = 1",
             "SELECT name FROM employees WHERE dept_id = 2"),
            ("SELECT city FROM departments",
             "SELECT DISTINCT city FROM departments"),
        ]
        for a, b in pairs:
            assert check_sql(a, b, sql_fixture).value == check_sql(b, a, sql_fixture).value


class TestSqlGuards:
    def test_unbounded_recursion_times_out(self, sql_fixture):
        # Run in a daemon thread so a missing budget fails the test instead
        # of hanging the suite.
        candidate = "WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x+1 FROM c) SELECT count(*) FROM c"
        results = []
        worker = threading.Thread(
            target=lambda: results.append(check_sql(candidate, "SELECT 1", sql_fixture)), daemon=True
        )
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive(), "check_sql did not stop the candidate"
        assert (results[0].value, results[0].diagnostic) == (0, "timeout")

    def test_bounded_recursion_still_runs(self, sql_fixture):
        candidate = "WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x+1 FROM c WHERE x < 10) SELECT sum(x) FROM c"
        assert check_sql(candidate, "SELECT 55", sql_fixture).value == 1

    def test_attach_is_denied_and_creates_no_file(self, sql_fixture, tmp_path):
        target = tmp_path / "attached.db"
        result = check_sql(f"ATTACH DATABASE '{target}' AS x", "SELECT 1", sql_fixture)
        assert result.value == 0
        assert "not authorized" in result.diagnostic
        assert not target.exists()

    @pytest.mark.parametrize("candidate", [
        "DETACH DATABASE main",
        "PRAGMA table_info(employees)",
        "SELECT name FROM pragma_table_info('employees')",
        "DELETE FROM employees",
        "UPDATE employees SET salary = 0",
        "INSERT INTO departments VALUES (4, 'Ops', 'Bern')",
        "CREATE TABLE t (x)",
        "DROP TABLE employees",
    ])
    def test_everything_but_reading_is_denied(self, sql_fixture, candidate):
        result = check_sql(candidate, "SELECT 1", sql_fixture)
        assert result.value == 0
        assert "not authorized" in result.diagnostic

    def test_a_value_over_the_length_bound_scores_zero(self, sql_fixture):
        result = check_sql("SELECT randomblob(2000000)", "SELECT 1", sql_fixture)
        assert (result.value, result.diagnostic) == (0, "execution error: string or blob too big")

    def test_the_gold_query_runs_before_the_bound(self, sql_fixture):
        assert check_sql("SELECT 2000000", "SELECT length(randomblob(2000000))", sql_fixture).value == 1

    @pytest.mark.parametrize("candidate, diagnostic", [
        ("WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x+1 FROM c) SELECT zeroblob(1000000) FROM c",
         "result too large"),
        ("SELECT " + ", ".join(["randomblob(1000000)"] * 600), "execution error: too many columns in result set"),
    ], ids=["endless-rows-of-1-mb", "600-values-of-1-mb-in-a-row"])
    def test_a_result_too_large_to_hold_scores_zero_in_bounded_memory(self, sql_fixture, candidate, diagnostic):
        """About 1.1M rows of 1 MB fit in the step budget, and a row may hold
        2,000 values of 1 MB: only the gold's row count plus one rows are read,
        and a row wider than SQL_COLUMN_LIMIT is refused before it is made, in a
        child whose address space is 512 MB."""
        script = (
            "import json, sys\n"
            "from steplab.validators import check_sql\n"
            "result = check_sql(sys.argv[1], 'SELECT name FROM employees', sys.argv[2])\n"
            "print(json.dumps([result.value, result.diagnostic]))\n"
        )
        assert _probe(script, candidate, str(sql_fixture), address_space=512 << 20) == [0, diagnostic]

    @pytest.mark.parametrize("candidate, gold", [
        ("SELECT name, salary FROM employees", "SELECT name FROM employees"),
        ("SELECT name, " + ", ".join(["zeroblob(1000000)"] * 50) + " FROM employees", "SELECT name FROM employees"),
        ("SELECT name FROM employees LIMIT 0", "SELECT name, salary FROM employees WHERE 0"),
    ], ids=["wider", "wider-by-50-large-values", "narrower-and-both-empty"])
    def test_a_result_of_another_width_scores_zero_before_a_row_is_read(self, sql_fixture, candidate, gold):
        result = check_sql(candidate, gold, sql_fixture)
        assert (result.value, result.diagnostic) == (0, "result width mismatch")

    def test_a_result_one_row_longer_than_the_golds_scores_zero(self, sql_fixture):
        candidate = "SELECT name FROM employees UNION ALL SELECT 'Zed'"
        result = check_sql(candidate, "SELECT name FROM employees", sql_fixture)
        assert (result.value, result.diagnostic) == (0, "result too large")

    @pytest.mark.parametrize("candidate", [
        "SELECT name FROM employees ORDER BY dept_id, salary DESC, name",
        "SELECT name FROM (SELECT * FROM employees JOIN departments USING (dept_id)) ORDER BY dept_id, salary DESC",
        "SELECT e.name FROM employees e GROUP BY e.dept_id, e.salary, e.name ORDER BY e.dept_id, e.salary DESC",
    ])
    def test_the_column_limit_keeps_a_correct_candidate_that_orders_by_more_than_it_returns(
        self, sql_fixture, candidate
    ):
        gold = "SELECT name FROM employees ORDER BY dept_id, salary DESC"
        assert check_sql(gold, gold, sql_fixture).value == 1
        assert check_sql(candidate, gold, sql_fixture).value == 1


class TestRunExternal:
    def test_passing_command(self):
        assert check_external(f"{sys.executable} {{candidate}}", "print('ok')", timeout_s=30).value == 1

    def test_failing_command(self):
        assert check_external(f"{sys.executable} {{candidate}}", "raise SystemExit(3)", timeout_s=30).value == 0

    def test_timeout_scores_zero_with_flag(self):
        result = check_external(
            f"{sys.executable} {{candidate}}",
            "while True:\n    pass",
            timeout_s=1.0,
        )
        assert result.value == 0
        assert result.timed_out

    # The command starts a background job that would create a marker file
    # 0.5 s later, then times out or exits at once; either way the job must
    # die with it. Two processes are started below the command, no more.
    @pytest.mark.parametrize("rest, timeout_s", [("exec sleep 5", 0.2), ("true", 5.0)])
    def test_nothing_the_command_started_outlives_it(self, tmp_path, rest, timeout_s):
        marker = tmp_path / "marker"
        command = f'sh -c "(sleep 0.5; touch {marker}) >/dev/null 2>&1 & {rest}" {{candidate}}'
        result = check_external(command, "x", timeout_s=timeout_s)
        assert result.timed_out == (rest != "true")
        time.sleep(1.2)
        assert not marker.exists()

    def test_a_flood_of_stderr_is_kept_as_a_bounded_tail(self):
        """The validating process reads back only the end of a command's
        stderr: measured as a child process's peak RSS, not the suite's."""
        candidate = (
            "import sys\n"
            "for _ in range(64 * 1024):\n"
            "    sys.stderr.buffer.write(b'x' * 1023 + b'\\n')\n"
            "sys.stderr.buffer.write('the last line, \u00e9\\n'.encode())\n"
            "sys.exit(1)\n"
        )
        script = (
            "import json, sys\n"
            "from steplab.validators import check_external\n"
            "def hwm_kib():\n"
            "    return next(int(l.split()[1]) for l in open('/proc/self/status') if l.startswith('VmHWM:'))\n"
            "before = hwm_kib()\n"
            "result = check_external(sys.executable + ' {candidate}', sys.argv[1], timeout_s=60)\n"
            "print(json.dumps([hwm_kib() - before, result.value, result.diagnostic]))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        child = subprocess.run([sys.executable, "-c", script, candidate], env=env, capture_output=True, text=True,
                               timeout=120)
        assert child.returncode == 0, child.stderr
        grown_kib, value, diagnostic = json.loads(child.stdout)
        stderr = "x" * 1023 + "\n" + "the last line, \u00e9\n"
        assert (value, diagnostic) == (0, f"exit status 1: {stderr.strip()[-200:]}")
        assert grown_kib < 16 << 10

    def test_the_command_runs_under_the_resource_limits(self):
        program = (
            "import resource as r, sys\n"
            f"limits = [(r.RLIMIT_AS, {COMMAND_ADDRESS_SPACE}), (r.RLIMIT_FSIZE, {COMMAND_FILE_SIZE}), (r.RLIMIT_CORE, 0)]\n"
            "sys.exit(0 if all(r.getrlimit(which) == (limit, limit) for which, limit in limits) else 1)\n"
        )
        assert check_external(f"{sys.executable} {{candidate}}", program, timeout_s=30).value == 1

    def test_a_lower_hard_limit_is_kept(self):
        """Run from a process whose hard file-size limit is 1 MiB, the command
        gets 1 MiB, not COMMAND_FILE_SIZE: no limit is raised."""
        script = (
            "import resource, sys\n"
            "from steplab.validators import check_external\n"
            "resource.setrlimit(resource.RLIMIT_FSIZE, (1 << 20, 1 << 20))\n"
            "program = 'import resource, sys; sys.exit(resource.getrlimit(resource.RLIMIT_FSIZE) != (1 << 20, 1 << 20))'\n"
            "sys.exit(check_external(sys.executable + ' {candidate}', program, timeout_s=30).value != 1)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        child = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
        assert child.returncode == 0, child.stderr

    def test_command_not_found_is_structured_error(self):
        with pytest.raises(ValidatorError):
            check_external("definitely-not-a-command-9f2 {candidate}", "x", timeout_s=5)


class TestValidateDispatch:
    def test_numeric(self):
        problem = make_problem(gold="1/2")
        spec = ValidatorSpec(kind="numeric_equivalence")
        assert validate(spec, "0.5", problem) == 1

    def test_normalized_exact(self):
        problem = make_problem(domain="qa", gold="yes")
        spec = ValidatorSpec(kind="normalized_exact")
        assert validate(spec, "Yes.", problem) == 1

    def test_sql(self, sql_fixture):
        problem = make_problem(domain="sql", gold="unused")
        spec = ValidatorSpec(
            kind="sql_execution",
            payload={"fixture": str(sql_fixture), "gold_query": "SELECT city FROM departments"},
        )
        assert validate(spec, "SELECT city FROM departments ORDER BY dept_id", problem) == 1
        assert validate(spec, "SELECT name FROM departments", problem) == 0

    def test_sql_on_a_sqlite_file_opens_it_read_only(self, sql_fixture, tmp_path):
        database = tmp_path / "company.sqlite"
        with sqlite3.connect(database) as conn:
            conn.executescript(sql_fixture.read_text())
        conn.close()
        before = hashlib.sha256(database.read_bytes()).hexdigest()
        problem = make_problem(domain="sql", gold="unused")
        spec = ValidatorSpec(
            kind="sql_execution",
            payload={"fixture": str(database), "gold_query": "SELECT name FROM employees WHERE dept_id = 2"},
        )
        assert validate(spec, "SELECT name FROM employees WHERE salary BETWEEN 6500 AND 7500", problem) == 1
        assert validate(spec, "SELECT name FROM employees WHERE dept_id = 3", problem) == 0
        assert validate(spec, "DELETE FROM employees", problem) == 0
        assert hashlib.sha256(database.read_bytes()).hexdigest() == before

    def test_determinism(self, sql_fixture):
        problem = make_problem(domain="sql", gold="unused")
        spec = ValidatorSpec(
            kind="sql_execution",
            payload={"fixture": str(sql_fixture), "gold_query": "SELECT COUNT(*) FROM employees"},
        )
        outcomes = {validate(spec, "SELECT 7", problem) for _ in range(5)}
        assert outcomes == {1}


class TestValidatorSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ValidatorSpec(kind="quantum")

    def test_sql_payload_completeness(self):
        with pytest.raises(ValueError):
            ValidatorSpec(kind="sql_execution", payload={"fixture": "x.sql"})

    def test_command_template_needs_placeholder(self):
        with pytest.raises(ValueError):
            ValidatorSpec(kind="external_command", payload={"command": "pytest"})

    def test_json_roundtrip(self):
        spec = ValidatorSpec(kind="external_command", payload={"command": "run {candidate}", "timeout_s": 5})
        again = ValidatorSpec.from_json_dict(spec.to_json_dict())
        assert again == spec
