import json
import threading

import pytest

from steplab import ioutil
from steplab.errors import DataError
from steplab.ioutil import atomic_write_text, read_jsonl, sha256_file, stable_seed, write_jsonl

# Values whose text json.dumps spells in a way of its own.
JSON_VALUES = [
    "naïve ∑ 数学 \U0001f600",
    "\x00\x1f\t\n\r\x7f\u2028",
    'a "quoted" \\ backslash /',
    [0.1, -0.0, 1e300, 1e-7, float("inf"), float("-inf"), float("nan"), 123456789012345678901234567890],
    [True, False, None],
    {"empty": [[], {}, [[]], [{}]], "": {"nested": {"deeper": []}}},
    {"x": 1, "ü": [1.5, "two", None], "1": True},
    [],
    {},
]


class TestJsonl:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        rows = [{"a": 1}, {"b": [1, 2]}, {"c": "x"}]
        write_jsonl(path, rows)
        assert list(read_jsonl(path)) == rows

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"a": 1}\n\n{"b": 2}\n')
        assert list(read_jsonl(path)) == [{"a": 1}, {"b": 2}]

    def test_invalid_json_names_file_and_line(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"a": 1}\n{"broken": \n')
        with pytest.raises(DataError) as err:
            list(read_jsonl(path))
        assert str(err.value).startswith(f"{path}:2: invalid JSON: ")

    def test_each_line_decodes_as_json_loads_does(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        lines = [json.dumps(value, ensure_ascii=False) for value in JSON_VALUES] + [' \t{"a": [1 , 2]} \r', "7"]
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        # Compared as JSON text: NaN is unequal to itself.
        assert [json.dumps(obj) for obj in read_jsonl(path)] == [json.dumps(json.loads(line)) for line in lines]

    @pytest.mark.parametrize(
        "line", ['{"a": 1} {"b": 2}', '{"a": 1}]', "\ufeff{}", "[1, 2", "nul", '{"a": 1}x', '"\\ud800'],
    )
    def test_an_invalid_line_reports_the_error_of_json_loads(self, tmp_path, line):
        with pytest.raises(json.JSONDecodeError) as expected:
            json.loads(line)
        path = tmp_path / "rows.jsonl"
        path.write_text('{"a": 1}\n' + line + "\n", encoding="utf-8")
        with pytest.raises(DataError) as err:
            list(read_jsonl(path))
        assert str(err.value) == f"{path}:2: invalid JSON: {expected.value.msg}"

    def test_a_repeated_key_names_its_line_and_the_first(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"id": "a"}\n{"id": "b"}\n\n{"id": "a"}\n')
        rows = read_jsonl(path, dict, key=lambda row: row["id"])
        assert next(rows) == {"id": "a"} and next(rows) == {"id": "b"}
        with pytest.raises(DataError) as err:
            next(rows)
        assert str(err.value) == f"{path}:4: repeats the key 'a' of line 1"

    def test_a_key_that_cannot_be_hashed_is_a_malformed_record(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"id": ["a"]}\n')
        with pytest.raises(DataError, match=f"{path}:1: malformed record: TypeError"):
            list(read_jsonl(path, dict, key=lambda row: row["id"]))


class TestEncodeJson:
    @pytest.fixture(params=["c", "python"])
    def encode(self, request, monkeypatch):
        """The module's encoder, and one built where json has no C encoder."""
        if request.param == "c":
            assert json.encoder.c_make_encoder is not None
            return ioutil.encode_json
        monkeypatch.setattr(json.encoder, "c_make_encoder", None)
        return ioutil._json_encoder()

    @pytest.mark.parametrize("value", JSON_VALUES, ids=range(len(JSON_VALUES)))
    def test_bytes_equal_json_dumps(self, encode, value):
        assert encode(value) == json.dumps(value, ensure_ascii=False)

    def test_an_unserializable_value_is_a_type_error(self, encode):
        with pytest.raises(TypeError, match="not JSON serializable"):
            encode({"rows": [1, {2}]})


class TestAtomicWrite:
    def test_concurrent_writers_of_one_path(self, tmp_path):
        path = tmp_path / "shared.json"
        texts = [f"writer {i}\n" * 2000 for i in range(8)]
        start = threading.Barrier(len(texts))
        errors = []

        def write(text):
            start.wait()
            try:
                for _ in range(30):
                    atomic_write_text(path, text)
            except OSError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=write, args=(text,)) for text in texts]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        assert errors == []
        assert path.read_text() in texts
        assert [p.name for p in tmp_path.iterdir()] == ["shared.json"]

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "out.txt"
        with pytest.raises(UnicodeEncodeError):
            atomic_write_text(path, "\udcff")
        assert list(tmp_path.iterdir()) == []


class TestHashing:
    def test_sha256_file_stable(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("content")
        assert sha256_file(path) == sha256_file(path)

    def test_stable_seed_is_deterministic_and_sensitive(self):
        assert stable_seed(1, "p1") == stable_seed(1, "p1")
        assert stable_seed(1, "p1") != stable_seed(2, "p1")
        assert stable_seed(1, "p1") != stable_seed(1, "p2")
        # Joined parts must not be confusable ("ab","c" vs "a","bc").
        assert stable_seed("ab", "c") != stable_seed("a", "bc")
