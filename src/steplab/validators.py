"""Task-specific answer validators.

A validator maps a candidate final answer to 0 or 1 for a given problem.
Four kinds are supported:

* ``numeric_equivalence`` for math-style answers (rationals, decimals),
* ``sql_execution`` comparing query results on an embedded SQLite fixture,
* ``external_command`` running the candidate against a shell command
  (the escape hatch for unit-test style checking),
* ``normalized_exact`` for short free-text answers.

Candidate-level failures (a query that does not run, a failing test) count
as 0. Infrastructure failures (missing fixture, unspawnable command) raise
:class:`ValidatorError` so callers can distinguish them from model errors.
"""

import logging
import math
import os
import re
import string
from collections import Counter
from contextlib import suppress
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from pathlib import Path
from typing import Callable

from .errors import ValidatorError

log = logging.getLogger(__name__)

VALIDATOR_KINDS = ("numeric_equivalence", "sql_execution", "external_command", "normalized_exact")

DEFAULT_REL_TOL = 1e-9
DEFAULT_COMMAND_TIMEOUT_S = 30.0

# Candidate SQL runs under a budget of SQLite VM instructions, checked every
# SQL_PROGRESS_INTERVAL instructions, may make no string or blob longer than
# SQL_VALUE_LIMIT bytes, and may only read: no writes, ATTACH, DETACH or
# PRAGMA.
SQL_STEP_BUDGET = 20_000_000
SQL_PROGRESS_INTERVAL = 1_000
SQL_VALUE_LIMIT = 1 << 20
# Bytes of a command's stderr read back for its diagnostic, from the end.
STDERR_TAIL_BYTES = 4096
# A command validator's process may map at most COMMAND_ADDRESS_SPACE bytes,
# write no file past COMMAND_FILE_SIZE bytes, and dump no core. A lower hard
# limit that steplab already runs under stays.
COMMAND_ADDRESS_SPACE = 2 << 30
COMMAND_FILE_SIZE = 256 << 20


@dataclass(frozen=True)
class ValidatorSpec:
    """Declarative description of how to check answers for one problem.

    ``payload`` keys by kind:
      numeric_equivalence: gold (optional, defaults to the problem's gold
        answer), rel_tol (optional)
      sql_execution: fixture (path to a .sqlite file or .sql build script),
        gold_query
      external_command: command (template containing ``{candidate}``),
        timeout_s (optional)
      normalized_exact: gold (optional, defaults to the problem's gold answer)
    """

    kind: str
    payload: dict = field(default_factory=dict)

    def __post_init__(self):
        """Check the kind, and each payload value of any kind: ``gold``,
        ``fixture``, ``gold_query`` and ``command`` are strings, ``rel_tol``
        a finite number of at least 0 and ``timeout_s`` a finite number above
        0 (``true`` is no number)."""
        if self.kind not in VALIDATOR_KINDS:
            raise ValueError(f"validator kind must be one of {', '.join(VALIDATOR_KINDS)}, got {self.kind!r}")
        for key in ("gold", "fixture", "gold_query", "command"):
            if key in self.payload and type(self.payload[key]) is not str:
                raise TypeError(f"validator {key!r} must be a string, got {self.payload[key]!r}")
        rel_tol = self.payload.get("rel_tol", DEFAULT_REL_TOL)
        if type(rel_tol) not in (int, float) or not 0 <= rel_tol < math.inf:
            raise ValueError(f"validator rel_tol must be a finite number of at least 0, got {rel_tol!r}")
        timeout_s = self.payload.get("timeout_s", DEFAULT_COMMAND_TIMEOUT_S)
        if type(timeout_s) not in (int, float) or not 0 < timeout_s < math.inf:
            raise ValueError(f"validator timeout_s must be a positive finite number, got {timeout_s!r}")
        if self.kind == "sql_execution":
            for key in ("fixture", "gold_query"):
                if not self.payload.get(key):
                    raise ValueError(f"sql_execution validator requires payload key {key!r}")
        if self.kind == "external_command" and "{candidate}" not in self.payload.get("command", ""):
            raise ValueError("external_command validator requires a command template with {candidate}")

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, **self.payload}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "ValidatorSpec":
        """A spec read from a problem record's ``validator`` object."""
        obj = dict(obj)
        kind = obj.pop("kind", None)
        return cls(kind=kind, payload=obj)


@dataclass
class Check:
    value: int
    diagnostic: str | None = None
    timed_out: bool = False


def parse_numeric(text: str) -> Fraction | None:
    """Parse integers, decimals, and simple p/q fractions to an exact rational.

    A leading currency ``$`` and thousands separators are tolerated. Returns
    None for anything else (symbolic expressions stay unparsed on purpose).
    """
    s = text.strip()
    if s.startswith("$"):
        s = s[1:].strip()
    if re.fullmatch(r"[+-]?\d{1,3}(,\d{3})+(\.\d+)?", s):
        s = s.replace(",", "")
    m = re.fullmatch(r"([+-]?\d+)\s*/\s*([+-]?\d+)", s)
    if m:
        num, den = int(m.group(1)), int(m.group(2))
        if den == 0:
            return None
        return Fraction(num, den)
    if s.lower() in ("inf", "-inf", "infinity", "-infinity", "nan"):
        return None
    try:
        return Fraction(Decimal(s))
    except (InvalidOperation, ValueError, OverflowError):
        return None


def _normalize_text(text: str) -> str:
    """Lowercase, collapse whitespace, and strip punctuation at token edges."""
    tokens = [t.strip(string.punctuation) for t in text.lower().split()]
    return " ".join(t for t in tokens if t)


def numeric_equivalent(a: str, b: str, rel_tol: float = DEFAULT_REL_TOL) -> int:
    """1 iff both strings parse as numbers equal within ``rel_tol``, or both
    collapse to the same string. Unparseable pairs fall back to string
    equality after whitespace collapsing."""
    fa, fb = parse_numeric(a), parse_numeric(b)
    if fa is not None and fb is not None:
        if fa == fb:
            return 1
        try:
            return int(math.isclose(float(fa), float(fb), rel_tol=rel_tol, abs_tol=0.0))
        except OverflowError:
            return 0
    return int(a.split() == b.split())


def normalized_exact(candidate: str, gold: str) -> int:
    """1 iff the strings match after case, whitespace, and edge-punctuation
    normalization ("Yes." matches "yes")."""
    return int(_normalize_text(candidate) == _normalize_text(gold))


def _has_order_by(query: str) -> bool:
    return re.search(r"\border\s+by\b", query, re.IGNORECASE) is not None


def _open_fixture(fixture: str | Path) -> "sqlite3.Connection":
    import sqlite3  # only SQL validators load it

    path = Path(fixture)
    if not path.is_file():  # a FIFO would block the read
        raise ValidatorError(f"database fixture not found, or not a regular file: {path}")
    if path.suffix == ".sql":
        conn = sqlite3.connect(":memory:")
        try:
            conn.executescript(path.read_text(encoding="utf-8"))
        except sqlite3.Error as exc:
            conn.close()
            raise ValidatorError(f"failed to build fixture from {path}: {exc}") from exc
        return conn
    try:
        # Read-only URI keeps each invocation isolated from every other.
        return sqlite3.connect(f"file:{path}?mode=ro", uri=True)
    except sqlite3.Error as exc:
        raise ValidatorError(f"failed to open fixture {path}: {exc}") from exc


def check_sql(candidate_query: str, gold_query: str, fixture: str | Path) -> Check:
    """Execute both queries on the fixture and compare result multisets.

    Comparison is order-insensitive unless the gold query carries an explicit
    ORDER BY, in which case row order must match too. A candidate that fails
    to execute, or is denied anything but reading, scores 0 with a
    diagnostic; one that exceeds ``SQL_STEP_BUDGET`` scores 0 with the
    diagnostic "timeout", and one that makes a value longer than
    ``SQL_VALUE_LIMIT`` bytes with "execution error: string or blob too
    big". The bound is set after the gold query runs, so it does not limit
    the fixture. A broken fixture or gold query is an infrastructure error.
    """
    import sqlite3

    conn = _open_fixture(fixture)
    try:
        try:
            gold_rows = conn.execute(gold_query).fetchall()
        except sqlite3.Error as exc:
            raise ValidatorError(f"gold query failed on fixture: {exc}") from exc
        budget = SQL_STEP_BUDGET // SQL_PROGRESS_INTERVAL
        ticks = 0

        def over_budget() -> bool:
            nonlocal ticks
            ticks += 1
            return ticks > budget

        reads = (sqlite3.SQLITE_SELECT, sqlite3.SQLITE_READ, sqlite3.SQLITE_FUNCTION, sqlite3.SQLITE_RECURSIVE)
        conn.set_authorizer(lambda action, *_: sqlite3.SQLITE_OK if action in reads else sqlite3.SQLITE_DENY)
        conn.set_progress_handler(over_budget, SQL_PROGRESS_INTERVAL)
        conn.setlimit(sqlite3.SQLITE_LIMIT_LENGTH, SQL_VALUE_LIMIT)
        try:
            cand_rows = conn.execute(candidate_query).fetchall()
        except sqlite3.Error as exc:
            if ticks > budget:
                return Check(0, "timeout")
            return Check(0, f"execution error: {exc}")
        if _has_order_by(gold_query):
            equal = cand_rows == gold_rows
        else:
            equal = Counter(cand_rows) == Counter(gold_rows)
        return Check(int(equal), None if equal else "result mismatch")
    finally:
        conn.close()


def check_external(command_template: str, candidate: str, timeout_s: float = DEFAULT_COMMAND_TIMEOUT_S) -> Check:
    """Materialize the candidate to a file and run the command template on it.

    The command runs in a throwaway working directory with ``{candidate}``
    (which :class:`ValidatorSpec` requires) replaced by the file path. Exit
    status 0 scores 1, anything else 0. Timeouts score 0 with the
    ``timed_out`` flag; a command that cannot be spawned at all raises
    :class:`ValidatorError`. The command runs in its own process group,
    which is killed at the timeout and after the command exits, so nothing
    it started outlives it, and under the limits :data:`COMMAND_ADDRESS_SPACE`
    and :data:`COMMAND_FILE_SIZE`, with no core dump. Its stderr goes to an
    unnamed file in the working directory, and a failure's diagnostic keeps
    the last 200 characters of that file's last :data:`STDERR_TAIL_BYTES` bytes.
    """
    import resource, shlex, signal, subprocess, tempfile  # noqa: E401  only command validators load them

    def limit_child() -> None:
        # Runs in the child between fork and exec, where a lock another thread
        # held at the fork stays held. No steplab thread runs a validator: the
        # validate stage calls them on the thread that runs the pipeline.
        for which, limit in (
            (resource.RLIMIT_AS, COMMAND_ADDRESS_SPACE), (resource.RLIMIT_FSIZE, COMMAND_FILE_SIZE), (resource.RLIMIT_CORE, 0)
        ):
            hard = resource.getrlimit(which)[1]
            limit = limit if hard == resource.RLIM_INFINITY else min(limit, hard)
            resource.setrlimit(which, (limit, limit))

    with tempfile.TemporaryDirectory(prefix="steplab-validate-") as workdir:
        cand_path = Path(workdir) / "candidate"
        cand_path.write_text(candidate, encoding="utf-8")
        argv = shlex.split(command_template.replace("{candidate}", str(cand_path)))
        with tempfile.TemporaryFile(dir=workdir) as stderr:
            try:
                with subprocess.Popen(
                    argv, cwd=workdir, stdout=subprocess.DEVNULL, stderr=stderr, start_new_session=True,
                    preexec_fn=limit_child,
                ) as proc:
                    try:
                        proc.wait(timeout=timeout_s)
                    finally:
                        with suppress(ProcessLookupError):
                            os.killpg(proc.pid, signal.SIGKILL)
            except subprocess.TimeoutExpired:
                return Check(0, f"timeout after {timeout_s}s", timed_out=True)
            except FileNotFoundError as exc:
                raise ValidatorError(f"command not found: {argv[0]}") from exc
            except OSError as exc:
                raise ValidatorError(f"failed to spawn command: {exc}") from exc
            if proc.returncode == 0:
                return Check(1)
            stderr.seek(max(0, stderr.seek(0, os.SEEK_END) - STDERR_TAIL_BYTES))
            stderr_tail = stderr.read().decode("utf-8", "replace").strip()[-200:]
        return Check(0, f"exit status {proc.returncode}: {stderr_tail}")


def validate(spec: ValidatorSpec, candidate: str, problem) -> int:
    """Apply the validator described by ``spec`` to a candidate answer.

    Deterministic in its arguments and any fixture contents. ``spec`` was
    checked when built, so a kind not named below is ``external_command``;
    ``candidate`` is non-empty, as :class:`ReasoningTrace` checks.
    """
    if spec.kind == "numeric_equivalence":
        gold = spec.payload.get("gold") or problem.gold_answer
        rel_tol = spec.payload.get("rel_tol", DEFAULT_REL_TOL)
        return numeric_equivalent(candidate, gold, rel_tol)
    if spec.kind == "normalized_exact":
        gold = spec.payload.get("gold") or problem.gold_answer
        return normalized_exact(candidate, gold)
    if spec.kind == "sql_execution":
        return check_sql(candidate, spec.payload["gold_query"], spec.payload["fixture"]).value
    timeout_s = spec.payload.get("timeout_s", DEFAULT_COMMAND_TIMEOUT_S)
    return check_external(spec.payload["command"], candidate, timeout_s).value


def make_validator(problem) -> Callable[[str], int]:
    """Bind a problem's validator spec into a ``candidate -> {0,1}`` callable."""
    spec = problem.validator_spec
    return lambda candidate: validate(spec, candidate, problem)
