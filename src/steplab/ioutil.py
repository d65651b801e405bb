"""Small file, hashing, and seeding helpers used across the pipeline."""

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from .errors import ConfigError, DataError


_raw_decode = json.JSONDecoder().raw_decode


def read_jsonl(path: str | Path, make: Callable[[dict], Any] | None = None, key: Callable | None = None) -> Iterator:
    """Yield one parsed object per non-empty line of a JSONL file, or ``make(obj)``.
    With ``make``, a line that is not a JSON object, or that ``make`` rejects
    for a missing or wrong-typed field, is a DataError naming file and line.
    With ``key``, so is a row whose ``key(row)`` an earlier row had: this is
    the program's one check for a row repeated across a file (a repeat inside
    one row is for ``make`` to reject). A line is decoded in one
    ``raw_decode`` call; if it is not one whole JSON value, ``json.loads``
    gives the error reported."""
    first_line: dict = {}  # each key, and the line that had it first
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                try:
                    obj, end = _raw_decode(line)
                except json.JSONDecodeError:
                    end = -1
                if end != len(line):
                    obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}:{lineno}: invalid JSON: {exc.msg}") from exc
            try:
                if make is not None:
                    if not isinstance(obj, dict):
                        raise TypeError(f"expected a JSON object, got {type(obj).__name__}")
                    obj = make(obj)
                if key is not None and first_line.setdefault(key(obj), lineno) != lineno:
                    first = first_line[key(obj)]
                    raise DataError(f"{path}:{lineno}: repeats the key {key(obj)!r} of line {first}")
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                raise DataError(f"{path}:{lineno}: malformed record: {exc!r}") from exc
            yield obj


def _json_encoder() -> Callable[[Any], str]:
    """``json.dumps(obj, ensure_ascii=False)``, built once and without the check
    for reference cycles (rows are trees), on json's C encoder where there is one."""
    python = json.JSONEncoder(ensure_ascii=False, check_circular=False)
    c_make = json.encoder.c_make_encoder  # its arguments are CPython's own
    if c_make is None:
        return python.encode
    encode = c_make(None, python.default, json.encoder.encode_basestring, None, ": ", ", ", False, False, True)
    return lambda obj: "".join(encode(obj, 0))


encode_json = _json_encoder()


def write_jsonl(path: str | Path, records: Iterable[dict]) -> str:
    """Write records as one JSON object per line. The file appears atomically.
    Returns the sha256 of the bytes written."""
    return atomic_write_lines(path, (encode_json(r) + "\n" for r in records))


def atomic_write_text(path: str | Path, text: str) -> str:
    """Write ``text`` as :func:`atomic_write_lines` writes one line."""
    return atomic_write_lines(path, [text])


def atomic_write_lines(path: str | Path, lines: Iterable[str]) -> str:
    """Write the lines via a temp file and rename, so readers never see partial
    output and a failed write leaves ``path`` as it was. Each line is encoded
    and hashed as written, through a 64-KiB buffer. Returns the bytes' sha256.

    Each write gets its own temp name, so concurrent writers of one path never
    rename each other's file; the last rename wins.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.urandom(16).hex()}.tmp")
    digest = hashlib.sha256()
    try:
        with open(tmp, "wb", buffering=1 << 16) as fh:
            for line in lines:
                data = line.encode("utf-8")
                digest.update(data)
                fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return digest.hexdigest()


def input_file(path: str | Path, what: str) -> Path:
    """``path``, a file a user named, if it is a regular file, else a ConfigError
    naming it, before anything opens it: a directory fails a read, a FIFO can block one."""
    if not os.path.isfile(path):
        problem = "is not a regular file" if os.path.exists(path) else "not found"
        raise ConfigError(f"{what} file {problem}: {path}")
    return Path(path)


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def stable_seed(*parts: Any) -> int:
    """Derive a 64-bit seed from the parts, stable across runs and platforms.

    Used wherever per-item reproducibility must not depend on dataset order
    (e.g. one RNG per problem, one per replicate).
    """
    joined = "\x1f".join(str(p) for p in parts)
    digest = hashlib.sha256(joined.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")
