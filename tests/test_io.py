"""One reading and writing contract for every file the CLI touches.

A fault in any input file exits 2 with a message naming the file and, where
it can, the line or record; an output that cannot be written exits 2 naming
its path. Every manifest records the block size that ran. Any flag value
exits 0 or 2.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from click.types import IntParamType
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from streamrag import cli as cli_module
from streamrag.cli import cli, main
from streamrag.core import ScriptedQueries, read_traces, trace_from_dict, write_traces
from streamrag.errors import InputError
from streamrag.labeling import read_training_set
from streamrag.synth import FixtureWorld, random_batch

from subproc import child_env

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
TRACES, CORPUS, KG = (str(FIXTURES / name) for name in ("traces.jsonl", "corpus.jsonl", "kg.json"))
STRATEGIES = ["closed_book", "open_book", "fixed_interval", "model_triggered"]


def run_main(*args: str) -> tuple[int, str]:
    """The console entry point in-process: (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            pytest.raises(SystemExit) as exit_info:
        main(list(args))
    return exit_info.value.code, err.getvalue()


@pytest.fixture(scope="module")
def outcomes(tmp_path_factory) -> Path:
    """open_book outcomes over the fixtures."""
    out = tmp_path_factory.mktemp("outcomes")
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("STREAMRAG_CONFIG", raising=False)
        code, err = run_main("simulate", "--traces", TRACES, "--corpus", CORPUS, "--kg", KG,
                             "--strategy", "open_book", "--out-dir", str(out))
    assert code == 0, err
    return out / "outcomes.jsonl"


@pytest.fixture(autouse=True)
def no_env_config(monkeypatch):
    monkeypatch.delenv("STREAMRAG_CONFIG", raising=False)


def _lines(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def _bad_outcome(change):
    def edit(rows: list[dict]) -> list:
        rows[1] = change(rows[1])
        return rows
    return edit


def _set(key, value):
    return lambda row: {**row, key: value}


# (case id, records edited on line 2 of an open_book outcomes file)
BAD_OUTCOMES = [
    ("line-is-a-list", _bad_outcome(lambda row: [1])),
    ("references-is-a-list", _bad_outcome(_set("references", []))),
    ("no-latency", _bad_outcome(lambda row: {k: v for k, v in row.items() if k != "latency"})),
    ("query-gen-ms-is-text",
     _bad_outcome(lambda row: {**row, "latency": {**row["latency"], "query_gen_ms": "x"}})),
    ("latency-is-null", _bad_outcome(_set("latency", None))),
    ("latency-field-is-true",
     _bad_outcome(lambda row: {**row, "latency": {**row["latency"], "first_token_ms": True}})),
    ("degraded-is-text", _bad_outcome(_set("degraded", "false"))),
    ("chunks-are-text",
     _bad_outcome(lambda row: {**row, "references": {**row["references"], "web_chunks": "abc"}})),
    ("answer-is-a-number",
     _bad_outcome(lambda row: {**row, "references": {**row["references"], "kg_answers": [1]}})),
    ("references-lack-a-key",
     _bad_outcome(_set("references", {"web_chunks": [], "kg_answers": []}))),
    ("utterance-id-is-a-number", _bad_outcome(_set("utterance_id", 5))),
    ("response-text-is-a-list", _bad_outcome(_set("response_text", ["a"]))),
    ("selected-block-is-text", _bad_outcome(_set("selected_block", "2"))),
    ("schema-version-is-true", _bad_outcome(_set("schema_version", True))),
    ("a-key-the-schema-lacks", _bad_outcome(_set("note", "settled"))),
]


class TestFaultyInputsExitTwo:
    """Inputs that once escaped as internal errors (exit 3)."""

    def test_trace_with_scripted_queries_list(self, tmp_path):
        rows = _lines(Path(TRACES))
        rows[1]["scripted_queries"] = []
        bad = tmp_path / "traces.jsonl"
        bad.write_text("".join(json.dumps(r) + "\n" for r in rows))
        code, err = run_main("simulate", "--traces", str(bad), "--corpus", CORPUS, "--kg", KG,
                             "--out-dir", str(tmp_path / "out"))
        assert code == 2
        assert f"input error: {bad}:2: scripted_queries must be an object, got []" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("side, value", [("kg", None), ("web", "NO_QUERY")])
    @pytest.mark.parametrize("run", [*STRATEGIES, "label"])
    def test_scripted_no_query_is_rejected_when_read(self, tmp_path, run, side, value):
        """A script says what a generator would ask; only a generator says NO_QUERY."""
        rows = _lines(Path(TRACES))
        last = rows[-1]
        block = max(last["scripted_queries"], key=int)
        last["scripted_queries"][block][side] = value
        bad = _write_lines(tmp_path / "traces.jsonl", rows)
        if run == "label":
            args = ["label", "--traces", bad, "--corpus", CORPUS]
        else:
            args = ["simulate", "--traces", bad, "--corpus", CORPUS, "--kg", KG,
                    "--strategy", run]
        code, err = run_main(*args, "--out-dir", str(tmp_path / "out"))
        assert code == 2
        if value is None:  # the schema's: a kg query is an object
            assert (f"input error: {bad}:{len(rows)}: scripted_queries.{block}.kg must be an "
                    "object, got None") in err
        else:
            assert (f"input error: {bad}:{len(rows)}: {last['utterance_id']}: scripted entry "
                    f"for block {block} must carry both tool queries") in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("side", ["--baseline", "--strategy"])
    @pytest.mark.parametrize("edit", [e for _, e in BAD_OUTCOMES], ids=[i for i, _ in BAD_OUTCOMES])
    def test_malformed_outcome(self, tmp_path, outcomes, side, edit):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("".join(json.dumps(r) + "\n" for r in edit(_lines(outcomes))))
        good = str(outcomes)
        paths = {"--baseline": good, "--strategy": good, side: str(bad)}
        code, err = run_main("report", *(a for kv in paths.items() for a in kv),
                             "--out-dir", str(tmp_path / "rep"))
        assert code == 2, err
        assert f"input error: {bad}:2: " in err
        assert not (tmp_path / "rep").exists()

    def test_empty_judgments_file(self, tmp_path, outcomes):
        empty = tmp_path / "judgments.jsonl"
        empty.write_text("\n")
        code, err = run_main("report", "--baseline", str(outcomes), "--strategy", str(outcomes),
                             "--judgments", str(empty), "--out-dir", str(tmp_path / "rep"))
        assert code == 2
        assert f"input error: {empty}: no records" in err

    def test_repeated_judgment_is_found_before_any_output(self, tmp_path, outcomes):
        uids = [row["utterance_id"] for row in _lines(outcomes)]
        judgments = _write_lines(tmp_path / "judgments.jsonl", [
            {"utterance_id": uid, "verdict": "accurate"} for uid in [*uids, uids[0]]])
        out = tmp_path / "rep"
        code, err = run_main("report", "--baseline", str(outcomes), "--strategy", str(outcomes),
                             "--judgments", judgments, "--out-dir", str(out))
        assert code == 2
        assert (f"input error: {judgments}:{len(uids) + 1}: duplicate judgment for utterance "
                f"{uids[0]!r} (first at {judgments}:1)") in err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["traces", "corpus", "kg", "config"])
    def test_non_utf8_bytes(self, tmp_path, kind):
        sources = {"traces": TRACES, "corpus": CORPUS, "kg": KG}
        if kind == "config":
            lines = [b"{\n", b'  "seed": 3\n', b"}\n"]
        else:
            lines = Path(sources[kind]).read_bytes().splitlines(keepends=True)
        lines[2] = lines[2][:1] + b"\xff\xfe" + lines[2][1:]
        bad = tmp_path / f"bad-{kind}"
        bad.write_bytes(b"".join(lines))
        args = {"--traces": TRACES, "--corpus": CORPUS, "--kg": KG}
        if kind == "config":
            args["--config"] = str(bad)
        else:
            args[f"--{kind}"] = str(bad)
        code, err = run_main("simulate", *(a for kv in args.items() for a in kv),
                             "--out-dir", str(tmp_path / "out"))
        assert code == 2
        assert f"input error: {bad}:3: not UTF-8" in err

    def test_non_utf8_config_from_environment(self, tmp_path, monkeypatch):
        bad = tmp_path / "config.json"
        bad.write_bytes(b'{"seed": "\xe9"}')
        monkeypatch.setenv("STREAMRAG_CONFIG", str(bad))
        code, err = run_main("label", "--traces", TRACES, "--corpus", CORPUS,
                             "--out-dir", str(tmp_path / "out"))
        assert code == 2
        assert f"input error: {bad}:1: not UTF-8" in err

    def test_repeated_kg_query_names_both_records(self, tmp_path):
        records = json.loads(Path(KG).read_text(encoding="utf-8"))
        repeat = copy.deepcopy(records[1])
        # canonical keys ignore the case of attribute values
        repeat["query"] = {k: v.upper() if k != "domain" else v for k, v in repeat["query"].items()}
        repeat["answer"] = "a different answer"
        bad = tmp_path / "kg.json"
        bad.write_text(json.dumps([*records, repeat]))
        code, err = run_main("simulate", "--traces", TRACES, "--corpus", CORPUS, "--kg", str(bad),
                             "--out-dir", str(tmp_path / "out"))
        assert code == 2
        canonical = (repeat["query"]["domain"], tuple(sorted(
            (k, v.lower()) for k, v in repeat["query"].items() if k != "domain")))
        assert (f"input error: {bad}: record {len(records)}: duplicate {canonical} "
                f"(first at {bad}: record 1)") in err


class TestSchemaTypes:
    """Corpus and KG values of a type their schema does not allow exit 2 where
    they are read: a corpus record at its line, a KG record at its index. So
    do trace values, and trace keys the schema does not allow."""

    @pytest.mark.parametrize("record, message", [
        ({"doc_id": 7, "text": ["x"]}, "doc_id must be a string, got 7"),
        ({"doc_id": "", "text": "x"}, "doc_id must have length at least 1, got ''"),
        ({"doc_id": "dz", "text": ["x"]}, "text must be a string, got ['x']"),
        ({"doc_id": "dz", "text": None}, "text must be a string, got None"),
    ])
    @pytest.mark.parametrize("command", ["simulate", "label"])
    def test_corpus_value(self, tmp_path, command, record, message):
        rows = _lines(Path(CORPUS))
        rows.insert(2, record)
        bad = _write_lines(tmp_path / "corpus.jsonl", rows)
        args = ["--kg", KG] if command == "simulate" else []
        code, err = run_main(command, "--traces", TRACES, "--corpus", bad, *args,
                             "--out-dir", str(tmp_path / "out"))
        assert code == 2
        assert f"input error: {bad}:3: {message}" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["simulate", "label"])
    def test_repeated_doc_id_names_both_lines(self, tmp_path, command):
        rows = _lines(Path(CORPUS))
        bad = _write_lines(tmp_path / "corpus.jsonl", [*rows[:3], rows[0], *rows[3:]])
        args = ["--kg", KG] if command == "simulate" else []
        code, err = run_main(command, "--traces", TRACES, "--corpus", bad, *args,
                             "--out-dir", str(tmp_path / "out"))
        assert code == 2
        assert (f"input error: {bad}:4: duplicate doc_id {rows[0]['doc_id']!r} "
                f"(first at {bad}:1)") in err

    @pytest.mark.parametrize("query, answer, message", [
        ({"domain": "other", "main_entity": 5}, None, "query.main_entity must be a string, got 5"),
        ({"domain": "other", "main_entity": "zz"}, None, "answer must be a string, got None"),
        ({"domain": "other", "main_entity": "zz"}, 5, "answer must be a string, got 5"),
        ({"domain": "music", "artist_name": ["zz"]}, "a", "query.artist_name must be a string, got ['zz']"),
        ({"domain": 5, "main_entity": "zz"}, "a", "query.domain must be one of ['finance', 'sports', "
                                                  "'music', 'movie', 'encyclopedia', 'other'], got 5"),
    ])
    def test_kg_value(self, tmp_path, query, answer, message):
        records = json.loads(Path(KG).read_text(encoding="utf-8"))
        records.insert(1, {"query": query, "answer": answer})
        bad = tmp_path / "kg.json"
        bad.write_text(json.dumps(records))
        code, err = run_main("simulate", "--traces", TRACES, "--corpus", CORPUS, "--kg", str(bad),
                             "--out-dir", str(tmp_path / "out"))
        assert code == 2
        assert f"input error: {bad}[1].{message}" in err
        assert not (tmp_path / "out").exists()

    def test_a_scripted_kg_query_is_held_to_the_same_schema(self, tmp_path):
        rows = _lines(Path(TRACES))
        block = min(rows[0]["scripted_queries"], key=int)
        rows[0]["scripted_queries"][block]["kg"] = {"domain": "other", "main_entity": 5}
        bad = _write_lines(tmp_path / "traces.jsonl", rows)
        code, err = run_main("simulate", "--traces", bad, "--corpus", CORPUS, "--kg", KG,
                             "--out-dir", str(tmp_path / "out"))
        assert code == 2
        assert (f"input error: {bad}:1: scripted_queries.{block}.kg.main_entity must be a string, "
                "got 5") in err

    @pytest.mark.parametrize("edit, message", [
        (lambda row: row.update(utterance_id=7), "utterance_id must be a string, got 7"),
        (lambda row: row.update(utterance_id=""), "utterance_id must have length at least 1, got ''"),
        (lambda row: row.update(final_answer_ref=5),
         "final_answer_ref must be a string or null, got 5"),
        (lambda row: row["words"][1].update(text=12), "words[1].text must be a string, got 12"),
    ], ids=["id-is-a-number", "id-is-empty", "answer-is-a-number", "word-is-a-number"])
    @pytest.mark.parametrize("command", ["simulate", "label"])
    def test_trace_value(self, tmp_path, command, edit, message):
        """A trace value is not converted: ``str()`` once ran id 7 as "7" and
        kept answer 5, which ``report`` then rejected in the outcomes."""
        rows = _lines(Path(TRACES))
        edit(rows[1])
        bad = _write_lines(tmp_path / "traces.jsonl", rows)
        args = ["--kg", KG] if command == "simulate" else []
        code, err = run_main(command, "--traces", bad, "--corpus", CORPUS, *args,
                             "--out-dir", str(tmp_path / "out"))
        assert code == 2, err
        assert f"input error: {bad}:2: {message}" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda row: row.update(final_answer=row.pop("final_answer_ref")),
         "trace has key 'final_answer', which trace.schema.json does not allow"),
        (lambda row: row["words"][2].update(confidence=0.9),
         "words[2] has key 'confidence', which trace.schema.json does not allow"),
        (lambda row: row["scripted_queries"]["1"].update(note="settled"),
         "scripted_queries.1 has key 'note', which trace.schema.json does not allow"),
    ], ids=["trace", "word", "scripted-entry"])
    @pytest.mark.parametrize("command", ["simulate", "label"])
    def test_trace_key(self, tmp_path, command, edit, message):
        """A key the schema does not allow is named, not dropped: a trace
        whose ``final_answer_ref`` was misspelled once ran with no answer."""
        rows = _lines(Path(TRACES))
        edit(rows[1])
        bad = _write_lines(tmp_path / "traces.jsonl", rows)
        args = ["--kg", KG] if command == "simulate" else []
        code, err = run_main(command, "--traces", bad, "--corpus", CORPUS, *args,
                             "--out-dir", str(tmp_path / "out"))
        assert code == 2, err
        assert f"input error: {bad}:2: {message}" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["simulate", "label"])
    def test_a_trace_without_scripted_queries_exits_two_at_its_line(self, tmp_path, command):
        """The schema requires the key: a trace without it once ran
        ``simulate --strategy open_book`` to exit 0 with its session left out."""
        rows = _lines(Path(TRACES))
        del rows[1]["scripted_queries"]
        bad = _write_lines(tmp_path / "traces.jsonl", rows)
        args = ["--kg", KG, "--strategy", "open_book"] if command == "simulate" else []
        code, err = run_main(command, "--traces", bad, "--corpus", CORPUS, *args,
                             "--out-dir", str(tmp_path / "out"))
        assert code == 2, err
        assert f"input error: {bad}:2: trace lacks key 'scripted_queries'" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("strategy", ["open_book", "fixed_interval", "model_triggered"])
    def test_a_trace_without_words_exits_two_at_its_line(self, tmp_path, strategy):
        """The schema asks for one word at least: a trace without one was once
        read, and ``simulate`` left its session out with a warning and exit 0."""
        rows = _lines(Path(TRACES))
        rows[0]["words"] = []
        bad = _write_lines(tmp_path / "traces.jsonl", rows)
        code, err = run_main("simulate", "--traces", bad, "--corpus", CORPUS, "--kg", KG,
                             "--strategy", strategy, "--block-ms", "500",
                             "--out-dir", str(tmp_path / "out"))
        assert code == 2, err
        assert f"input error: {bad}:1: words must have length at least 1, got []" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind, index, at, message", [
        ("judgments", 1, ":2: judgment has key 'note'", "judgment.schema.json"),
        ("kg", 1, "[1] has key 'note'", "kg_fixture.schema.json"),
        ("pseudo_gt", 2, ":3: reference query has key 'blok'", "pseudo_gt.schema.json"),
    ])
    def test_a_key_the_schema_lacks_exits_two_at_its_record(self, fuzz_inputs, tmp_path, kind,
                                                             index, at, message):
        """Such a key was once read without a word: a misspelled ``"blok"``
        beside a pseudo-GT record's ``block``, say."""
        _, records = fuzz_inputs
        damaged = copy.deepcopy(records[kind])
        damaged[index]["blok" if kind == "pseudo_gt" else "note"] = 2
        paths = {}
        for name in KINDS:
            paths[name] = str(tmp_path / _file_name(name))
            Path(paths[name]).write_bytes(_dump(name, damaged if name == kind else records[name]))
        code, err = run_main(*_command(KINDS[kind][0], paths, "open_book", str(tmp_path / "out")))
        assert code == 2, err
        assert f"input error: {paths[kind]}{at}, which {message} does not allow" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field, value, message", [
        ("is_negative_sample", "false", "is_negative_sample must be true or false, got 'false'"),
        ("is_negative_sample", 0, "is_negative_sample must be true or false, got 0"),
        ("is_negative_sample", None, "is_negative_sample must be true or false, got None"),
        ("utterance_id", 7, "utterance_id must be a string, got 7"),
        ("prefix_text", ["who"], "prefix_text must be a string, got ['who']"),
        ("prefix_text", None, "prefix_text must be a string, got None"),
        ("block", 0, "block must be at least 1, got 0"),
        ("note", "settled",
         "training record has key 'note', which training_record.schema.json does not allow"),
        ("original_prev", "NO_QUERY",
         "original_prev is on negative samples only, not on this positive one"),
    ])
    def test_training_record_value(self, tmp_path, field, value, message):
        """``bool("false")`` once read a positive record as a negative one,
        with its substituted previous query taken as the true one."""
        out = tmp_path / "out"
        code, err = run_main("label", "--traces", TRACES, "--corpus", CORPUS, "--out-dir", str(out))
        assert code == 0, err
        rows = _lines(out / "training.jsonl")
        assert rows[1]["is_negative_sample"] is False
        rows[1][field] = value
        bad = _write_lines(tmp_path / "training.jsonl", rows)
        with pytest.raises(InputError) as info:
            read_training_set(bad)
        assert str(info.value) == f"{bad}:2: {message}"

    def test_a_reference_query_id_is_a_string(self, tmp_path):
        records = _pseudo_gt(_lines(Path(TRACES)))
        records[2]["utterance_id"] = 7
        bad = _write_lines(tmp_path / "pseudo_gt.jsonl", records)
        code, err = run_main("label", "--traces", TRACES, "--corpus", CORPUS, "--pseudo-gt", bad,
                             "--out-dir", str(tmp_path / "out"))
        assert code == 2, err
        assert f"input error: {bad}:3: utterance_id must be a string, got 7" in err
        assert not (tmp_path / "out").exists()

    def test_a_judgment_id_is_a_string(self, tmp_path, outcomes):
        uids = [row["utterance_id"] for row in _lines(outcomes)]
        judgments = _write_lines(tmp_path / "judgments.jsonl", [
            {"utterance_id": uid, "verdict": "accurate"} for uid in uids[:1]] + [
            {"utterance_id": 7, "verdict": "accurate"}])
        code, err = run_main("report", "--baseline", str(outcomes), "--strategy", str(outcomes),
                             "--judgments", judgments, "--out-dir", str(tmp_path / "rep"))
        assert code == 2, err
        assert f"input error: {judgments}:2: utterance_id must be a string, got 7" in err
        assert not (tmp_path / "rep").exists()


class TestScriptedPairMemo:
    """``read_traces`` parses each distinct scripted pair once per call; what
    it returns is what parsing every pair would return."""

    def _pair(self, kg: dict) -> dict:
        return {"web": "Who founded Rare Beauty", "kg": kg}

    def _traces(self, tmp_path, first: dict, second: dict) -> str:
        rows = _lines(Path(TRACES))[:2]
        rows[0]["scripted_queries"]["1"] = first
        rows[1]["scripted_queries"]["2"] = second
        return _write_lines(tmp_path / "traces.jsonl", rows)

    def test_a_repeated_pair_parses_to_an_equal_pair(self, tmp_path):
        pair = self._pair({"domain": "other", "main_entity": "Rare Beauty"})
        first, second = read_traces(self._traces(tmp_path, pair, copy.deepcopy(pair)))
        assert first.scripted_queries[1] == second.scripted_queries[2] \
            == ScriptedQueries.from_wire(pair)

    def test_kg_attributes_in_another_order_parse_to_an_equal_query(self, tmp_path):
        kg = {"domain": "music", "artist_name": "Queen", "artist_aspect": "member"}
        reordered = dict(reversed(list(kg.items())))
        first, second = read_traces(self._traces(tmp_path, self._pair(kg), self._pair(reordered)))
        assert first.scripted_queries[1] == second.scripted_queries[2] \
            == ScriptedQueries.from_wire(self._pair(kg))

    @pytest.mark.parametrize("second", [
        {"web": "Who founded Rare Beauty", "kg": {"domain": "other", "main_entity": "Selena"}},
        {"web": "Who founded Rare Beauty", "kg": {"domain": "music", "main_entity": "Rare Beauty"}},
        {"web": "Who founded Fenty", "kg": {"domain": "other", "main_entity": "Rare Beauty"}},
    ], ids=["kg-value", "kg-domain", "web"])
    def test_a_pair_differing_in_one_string_parses_apart(self, tmp_path, second):
        first = self._pair({"domain": "other", "main_entity": "Rare Beauty"})
        a, b = read_traces(self._traces(tmp_path, first, second))
        assert a.scripted_queries[1] == ScriptedQueries.from_wire(first)
        assert b.scripted_queries[2] == ScriptedQueries.from_wire(second)

    @pytest.mark.parametrize("value", [1, ["1"]], ids=repr)
    @pytest.mark.parametrize("command", ["simulate", "label"])
    def test_a_value_where_a_repeated_pair_had_text_exits_two_at_its_line(self, tmp_path,
                                                                          command, value):
        bad = self._traces(tmp_path, self._pair({"domain": "other", "main_entity": "1"}),
                           self._pair({"domain": "other", "main_entity": value}))
        args = ["--kg", KG] if command == "simulate" else []
        code, err = run_main(command, "--traces", bad, "--corpus", CORPUS, *args,
                             "--out-dir", str(tmp_path / "out"))
        assert code == 2, err
        assert (f"input error: {bad}:2: scripted_queries.2.kg.main_entity must be a string, "
                f"got {value!r}") in err
        assert not (tmp_path / "out").exists()

    def test_a_repeated_pair_with_another_key_exits_two_at_its_line(self, tmp_path):
        pair = self._pair({"domain": "other", "main_entity": "Rare Beauty"})
        bad = self._traces(tmp_path, pair, {**pair, "note": "settled"})
        with pytest.raises(InputError) as info:
            read_traces(bad)
        assert str(info.value) == (f"{bad}:2: scripted_queries.2 has key 'note', "
                                   f"which trace.schema.json does not allow")

    def test_two_reads_share_nothing(self, tmp_path):
        pair = self._pair({"domain": "other", "main_entity": "Rare Beauty"})
        path = self._traces(tmp_path, pair, pair)
        (a1, a2), (b1, b2) = read_traces(path), read_traces(path)
        # one call parses the repeat once; the next call parses it afresh
        assert a1.scripted_queries[1] is a2.scripted_queries[2]
        assert b1.scripted_queries[1] is b2.scripted_queries[2]
        assert a1.scripted_queries[1] == b1.scripted_queries[1]
        assert a1.scripted_queries[1] is not b1.scripted_queries[1]

    def test_one_trace_parsed_alone_shares_its_repeats_and_nothing_more(self):
        raw = _lines(Path(TRACES))[0]
        pair = self._pair({"domain": "other", "main_entity": "Rare Beauty"})
        raw["scripted_queries"] = {"1": pair, "2": copy.deepcopy(pair)}
        first, again = trace_from_dict(raw), trace_from_dict(raw)
        assert first.scripted_queries[1] is first.scripted_queries[2]
        assert first.scripted_queries[1] == again.scripted_queries[1]
        assert first.scripted_queries[1] is not again.scripted_queries[1]


def _write_lines(path: Path, rows: list) -> str:
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    return str(path)


def _pseudo_gt(traces: list[dict]) -> list[dict]:
    """The traces' scripted queries as reference-query records."""
    return [{"utterance_id": t["utterance_id"], "block": int(b), **entry}
            for t in traces for b, entry in t["scripted_queries"].items()]


# JSON values that int() once read as integers: true as 1, 450.9 and 1.7
# truncated, "12" parsed
NOT_INTEGERS = [True, 450.9, "12", 1.7]


class TestIntegersExitTwo:
    """Every integer field takes one rule: a JSON integer, nothing int() accepts."""

    @pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
    @pytest.mark.parametrize("field", ["start_ms", "end_ms"])
    def test_trace_word_time(self, tmp_path, field, value):
        rows = _lines(Path(TRACES))
        rows[1]["words"][2][field] = value
        bad = _write_lines(tmp_path / "traces.jsonl", rows)
        code, err = run_main("simulate", "--traces", bad, "--corpus", CORPUS, "--kg", KG,
                             "--out-dir", str(tmp_path / "out"))
        assert code == 2, err
        assert f"input error: {bad}:2: words[2].{field} must be an integer, got {value!r}" in err

    @pytest.mark.parametrize("value", [*NOT_INTEGERS, 0], ids=repr)
    def test_pseudo_gt_block(self, tmp_path, value):
        records = _pseudo_gt(_lines(Path(TRACES)))
        records[2]["block"] = value
        bad = _write_lines(tmp_path / "pseudo_gt.jsonl", records)
        code, err = run_main("label", "--traces", TRACES, "--corpus", CORPUS, "--pseudo-gt", bad,
                             "--out-dir", str(tmp_path / "out"))
        assert code == 2, err
        rule = "be at least 1" if value == 0 else "be an integer"
        assert f"input error: {bad}:3: block must {rule}, got {value!r}" in err

    @pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
    def test_training_record_block(self, tmp_path, value):
        out = tmp_path / "out"
        code, err = run_main("label", "--traces", TRACES, "--corpus", CORPUS, "--out-dir", str(out))
        assert code == 0, err
        rows = _lines(out / "training.jsonl")
        rows[1]["block"] = value
        bad = _write_lines(tmp_path / "training.jsonl", rows)
        with pytest.raises(InputError) as info:
            read_training_set(bad)
        assert str(info.value) == f"{bad}:2: block must be an integer, got {value!r}"

    @pytest.mark.parametrize("value", [*NOT_INTEGERS, -1], ids=repr)
    @pytest.mark.parametrize("field", ["threads_spawned", "threads_cancelled",
                                       "max_parallel_threads", "references.total_tokens"])
    def test_outcome_count(self, tmp_path, outcomes, field, value):
        rows = _lines(outcomes)
        *parents, key = field.split(".")
        record = rows[1]
        for name in parents:
            record = record[name]
        record[key] = value
        bad = _write_lines(tmp_path / "outcomes.jsonl", rows)
        code, err = run_main("report", "--baseline", str(outcomes), "--strategy", bad,
                             "--out-dir", str(tmp_path / "rep"))
        assert code == 2, err
        rule = "be at least 0" if value == -1 else "be an integer"
        assert f"input error: {bad}:2: {field} must {rule}, got {value!r}" in err
        assert not (tmp_path / "rep").exists()

    @pytest.mark.parametrize("ratio", ["1_0:1", " 2:1", "+2:1", "2:-1", "2:1:1", "\u00b2:1",
                                       "9" * 5000 + ":1", "0:0"], ids=lambda r: ascii(r[:8]))
    def test_ratio(self, tmp_path, ratio):
        code, err = run_main("simulate", "--traces", TRACES, "--corpus", CORPUS, "--kg", KG,
                             "--ratio", ratio, "--out-dir", str(tmp_path / "out"))
        assert code == 2, err
        assert (f"input error: --ratio must be web:kg in ASCII digits, not both 0, "
                f"like '2:1', got {ratio!r}") in err
        assert not (tmp_path / "out").exists()


# The run's child is capped at 2 GiB of address space, so a trace whose blocks
# were enumerated would fail with exit 3, not exhaust the machine; it prints
# the seconds main() took.
_TIMED_MAIN = """
import resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (1 << 31, 1 << 31))
from streamrag.cli import main
start = time.perf_counter()
try:
    main(sys.argv[1:])
finally:
    print(f"seconds: {time.perf_counter() - start:.3f}", file=sys.stderr)
"""


def test_a_fault_in_a_parser_is_internal(tmp_path, outcomes, monkeypatch):
    """Only an InputError is a malformed record: a parser's own fault on a
    record its schema accepts exits 3, as any other bug does."""
    def parse(raw):
        raise TypeError("a parser's bug")

    monkeypatch.setattr(cli_module, "outcome_from_dict", parse)
    code, err = run_main("report", "--baseline", str(outcomes), "--strategy", str(outcomes),
                         "--out-dir", str(tmp_path / "rep"))
    assert code == 3, err
    line = parse.__code__.co_firstlineno + 1
    assert f"internal error: TypeError: a parser's bug (test_io.py:{line})" in err


class TestNamedFailures:
    """Failures found after every record parsed still name the file at fault."""

    @pytest.mark.parametrize("command", ["simulate", "label"])
    def test_a_trace_far_longer_than_its_script_exits_two_at_once(self, tmp_path, command):
        trace = _lines(Path(TRACES))[0]
        trace["words"][-1]["end_ms"] = 10**12
        traces = _write_lines(tmp_path / "traces.jsonl", [trace])
        args = (["simulate", "--kg", KG, "--strategy", "fixed_interval"] if command == "simulate"
                else ["label"])
        run = subprocess.run([sys.executable, "-c", _TIMED_MAIN, *args, "--traces", traces,
                              "--corpus", CORPUS, "--out-dir", str(tmp_path / "out")],
                             capture_output=True, text=True, env=child_env(), timeout=120)
        assert run.returncode == 2, run.stderr
        first_ten = f"{trace['utterance_id']}: no %s for blocks {list(range(6, 16))} and more"
        if command == "simulate":
            assert (f"input error: {traces}: " + first_ten % "scripted queries"
                    + " of 1000000000 at block_ms=1000") in run.stderr
        else:
            assert (f"input error: {traces}: " + first_ten % "reference queries"
                    + " of 2000000000 at block_ms=500") in run.stderr
        assert float(run.stderr.rsplit("seconds: ", 1)[1]) < 1.0

    @pytest.mark.parametrize("command", ["fixed_interval", "model_triggered", "label"])
    def test_a_script_for_smaller_blocks_exits_two_naming_the_blocks(self, tmp_path, command):
        # the fixtures are scripted for 500 ms blocks: 1000 ms blocks end
        # brand-founder at block 3, before its script does
        args = (["label"] if command == "label"
                else ["simulate", "--kg", KG, "--strategy", command])
        code, err = run_main(*args, "--traces", TRACES, "--corpus", CORPUS, "--block-ms", "1000",
                             "--out-dir", str(tmp_path / "out"))
        assert code == 2
        what = "reference" if command == "label" else "scripted"
        assert (f"brand-founder: {what} queries for blocks [4, 5] beyond the 3 blocks "
                "at block_ms=1000") in err
        assert not (tmp_path / "out").exists()

    def test_missing_reference_queries_name_the_pseudo_gt_file(self, tmp_path):
        traces = _lines(Path(TRACES))
        records = [r for r in _pseudo_gt(traces)
                   if (r["utterance_id"], r["block"]) != ("jump-shots", 3)]
        pseudo_gt = _write_lines(tmp_path / "pseudo_gt.jsonl", records)
        code, err = run_main("label", "--traces", TRACES, "--corpus", CORPUS,
                             "--pseudo-gt", pseudo_gt, "--out-dir", str(tmp_path / "out"))
        assert code == 2
        assert (f"input error: {pseudo_gt}: jump-shots: no reference queries for blocks [3] "
                "at block_ms=500") in err

    def test_unpaired_outcomes_name_both_files(self, tmp_path, outcomes):
        short = _write_lines(tmp_path / "short.jsonl", _lines(outcomes)[:-1])
        code, err = run_main("report", "--baseline", str(outcomes), "--strategy", short,
                             "--out-dir", str(tmp_path / "rep"))
        assert code == 2
        assert f"input error: {outcomes} and {short}: outcomes do not pair by utterance_id" in err


class TestUnwritableOutputs:
    def _args(self, command: str, outcomes: Path) -> list[str]:
        if command == "report":
            return ["report", "--baseline", str(outcomes), "--strategy", str(outcomes)]
        if command == "label":
            return ["label", "--traces", TRACES, "--corpus", CORPUS]
        return ["simulate", "--traces", TRACES, "--corpus", CORPUS, "--kg", KG]

    @pytest.mark.parametrize("command", ["simulate", "label", "report"])
    def test_out_dir_under_a_regular_file(self, tmp_path, outcomes, command):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory\n")
        out = blocker / "x"
        code, err = run_main(*self._args(command, outcomes), "--out-dir", str(out))
        assert code == 2
        assert f"input error: cannot create output directory {out}: " in err

    @pytest.mark.parametrize("command,output", [("simulate", "outcomes.jsonl"),
                                                ("label", "training.jsonl"),
                                                ("report", "savings.json")])
    def test_output_occupied_by_a_directory(self, tmp_path, outcomes, command, output):
        out = tmp_path / "out"
        (out / output).mkdir(parents=True)
        code, err = run_main(*self._args(command, outcomes), "--out-dir", str(out))
        assert code == 2
        assert f"input error: cannot write {out / output}: " in err
        assert not (out / f"{output}.tmp").exists()


@pytest.fixture(scope="module")
def scripted_at(tmp_path_factory) -> dict[int, str]:
    """A trace file scripted at each block size, over the fixtures' corpus:
    the fixtures' own at 500 ms."""
    path = tmp_path_factory.mktemp("traces") / "traces-1000.jsonl"
    write_traces(random_batch(FixtureWorld(), count=4, seed=11, block_ms=1000), str(path))
    return {500: TRACES, 1000: str(path)}


class TestManifestBlockSize:
    """The manifest records the block size the run used, defaulted or given."""

    @pytest.mark.parametrize("given", [None, 500, 1000])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_simulate(self, tmp_path, scripted_at, strategy, given):
        out = tmp_path / "out"
        flags = [] if given is None else ["--block-ms", str(given)]
        default = 500 if strategy == "model_triggered" else 1000
        traces = scripted_at[default if given is None else given]
        cli.main(args=["simulate", "--traces", traces, "--corpus", CORPUS, "--kg", KG,
                       "--strategy", strategy, *flags, "--out-dir", str(out)],
                 standalone_mode=False)
        recorded = json.loads((out / "manifest.json").read_text())["config"]["block_ms"]
        ingested = [e for e in _lines(out / "events.jsonl") if e["type"] == "block_ingested"]
        if strategy in ("fixed_interval", "model_triggered"):
            # a block before an utterance's last is ingested at b * block_ms
            last = {e["utterance_id"]: e["block"] for e in ingested}
            interior = [e for e in ingested if e["block"] < last[e["utterance_id"]]]
            assert interior and {e["t_ms"] / e["block"] for e in interior} == {recorded}
        else:
            assert ingested == []  # these strategies never split the utterance
        assert recorded == (default if given is None else given)

    @pytest.mark.parametrize("given", [None, 1000])
    def test_label(self, tmp_path, scripted_at, given):
        out = tmp_path / "out"
        flags = [] if given is None else ["--block-ms", str(given)]
        traces = scripted_at[500 if given is None else given]
        cli.main(args=["label", "--traces", traces, "--corpus", CORPUS, *flags,
                       "--out-dir", str(out)], standalone_mode=False)
        recorded = json.loads((out / "manifest.json").read_text())["config"]["block_ms"]
        assert recorded == json.loads((out / "summary.json").read_text())["block_ms"]
        assert recorded == (500 if given is None else given)


# --- fuzzing ---------------------------------------------------------------
#
# One line (one record, for kg and config) of one input file is damaged:
# truncated, a value swapped for one of another type, a key dropped, or bytes
# that are not UTF-8 injected. Whatever the damage, the CLI exits 0 or 2.

scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=4),
    st.floats(-1e4, 1e4), st.sampled_from([math.nan, math.inf, -math.inf]),
)
json_values = st.one_of(scalars, st.lists(scalars, max_size=2),
                        st.dictionaries(st.text(max_size=3), scalars, max_size=2))

KINDS = {  # file kind -> the commands that read it
    "traces": ["simulate", "label"],
    "corpus": ["simulate", "label"],
    "kg": ["simulate"],
    "outcomes": ["report"],
    "pseudo_gt": ["label"],
    "judgments": ["report"],
    "config": ["simulate", "label"],  # no setting reaches report
}
JSON_KINDS = {"kg": "kg.json", "config": "config.json"}


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory, outcomes) -> tuple[Path, dict[str, list]]:
    """Small, valid inputs for every file kind, as lists of records."""
    traces = _lines(Path(TRACES))[:3]
    uids = {t["utterance_id"] for t in traces}
    records = {
        "traces": traces,
        "corpus": _lines(Path(CORPUS)),
        "kg": json.loads(Path(KG).read_text(encoding="utf-8")),
        "outcomes": [o for o in _lines(outcomes) if o["utterance_id"] in uids],
        "pseudo_gt": _pseudo_gt(traces),
        "judgments": [{"utterance_id": uid, "verdict": "accurate"} for uid in sorted(uids)],
        "config": [{"seed": 3, "top_docs": 20, "block_ms": 500, "negative_prob": 0.5}],
    }
    return tmp_path_factory.mktemp("fuzz"), records


def _dump(kind: str, records: list) -> bytes:
    if kind == "kg":
        return (json.dumps(records, indent=2) + "\n").encode()
    if kind == "config":
        return (json.dumps(records[0], indent=2) + "\n").encode()
    return "".join(json.dumps(r) + "\n" for r in records).encode()


def _damage_value(data, record):
    """Swap one value, somewhere inside the record, for one of another type,
    or drop one key; returns the damaged copy."""
    record = copy.deepcopy(record)
    container = record
    while True:
        keys = list(container) if isinstance(container, dict) else list(range(len(container)))
        key = data.draw(st.sampled_from(keys))
        child = container[key]
        if isinstance(child, (dict, list)) and child and data.draw(st.booleans()):
            container = child
            continue
        if isinstance(container, dict) and data.draw(st.booleans()):
            del container[key]
        else:
            container[key] = data.draw(json_values.filter(lambda v: type(v) is not type(child)))
        return record


def _file_name(kind: str) -> str:
    return JSON_KINDS.get(kind, f"{kind}.jsonl")


def _command(command: str, paths: dict[str, str], strategy: str, out: str) -> list[str]:
    config = ["--config", paths["config"], "--out-dir", out]
    if command == "simulate":
        return ["simulate", "--traces", paths["traces"], "--corpus", paths["corpus"],
                "--kg", paths["kg"], "--strategy", strategy, *config]
    if command == "label":
        return ["label", "--traces", paths["traces"], "--corpus", paths["corpus"],
                "--pseudo-gt", paths["pseudo_gt"], *config]
    return ["report", "--baseline", paths["outcomes"], "--strategy", paths["outcomes"],
            "--judgments", paths["judgments"], "--out-dir", out]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_damaged_input_exits_zero_or_two(fuzz_inputs, data):
    base, records = fuzz_inputs
    kind = data.draw(st.sampled_from(sorted(KINDS)), label="kind")
    command = data.draw(st.sampled_from(KINDS[kind]), label="command")
    strategy = data.draw(st.sampled_from(STRATEGIES), label="strategy")
    damage = data.draw(st.sampled_from(["truncate", "value", "bytes"]), label="damage")
    damaged = list(records[kind])
    if damage == "value":
        i = data.draw(st.integers(0, len(damaged) - 1), label="record")
        damaged[i] = _damage_value(data, damaged[i])
    raw_lines = _dump(kind, damaged).splitlines(keepends=True)
    if damage != "value":
        line = data.draw(st.integers(0, len(raw_lines) - 1), label="line")
        text = raw_lines[line].rstrip(b"\n")
        cut = data.draw(st.integers(0, len(text)), label="at")
        if damage == "truncate":
            raw_lines[line] = text[:cut] + b"\n"
        else:
            junk = data.draw(st.sampled_from([b"\xff", b"\xc3", b"\xe2\x82", b"\x80\x80"]))
            raw_lines[line] = text[:cut] + junk + text[cut:] + b"\n"

    with tempfile.TemporaryDirectory(dir=base) as work:
        paths = {}
        for name in KINDS:
            path = Path(work) / _file_name(name)
            path.write_bytes(b"".join(raw_lines) if name == kind else _dump(name, records[name]))
            paths[name] = str(path)
        code, err = run_main(*_command(command, paths, strategy, str(Path(work) / "out")))
    assert code in (0, 2), err
    if damage == "bytes":
        assert f"{paths[kind]}:{line + 1}: not UTF-8" in err


# --- flag values -----------------------------------------------------------
#
# Every integer flag of simulate and label takes any integer, --negative-prob
# any float, and --ratio and --strategy any text, each passed as --flag=value.
# Whatever the values, the CLI exits 0 or 2, and an exit 2 names a flag or a
# file.

def _int_flags(command: str) -> list[str]:
    return [p.opts[0] for p in cli.commands[command].params if isinstance(p.type, IntParamType)]


FLAG_VALUES = {
    "simulate": {**{flag: st.integers() for flag in _int_flags("simulate")},
                 "--ratio": st.one_of(st.text(), st.from_regex(r"\A[0-9]{1,3}:[0-9]{1,3}\Z")),
                 "--strategy": st.one_of(st.text(), st.sampled_from(STRATEGIES))},
    "label": {**{flag: st.integers() for flag in _int_flags("label")},
              "--negative-prob": st.floats()},
}


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_flag_values_exit_zero_or_two(data):
    command = data.draw(st.sampled_from(sorted(FLAG_VALUES)), label="command")
    values = FLAG_VALUES[command]
    flags = data.draw(st.lists(st.sampled_from(sorted(values)), unique=True, max_size=4),
                      label="flags")
    args = [f"{flag}={data.draw(values[flag], label=flag)}" for flag in flags]
    inputs = ["--traces", TRACES, "--corpus", CORPUS]
    if command == "simulate":
        inputs += ["--kg", KG]
    with tempfile.TemporaryDirectory() as work:
        code, err = run_main(command, *inputs, *args, "--out-dir", str(Path(work) / "out"))
    assert code in (0, 2), err
    if code == 2:
        assert any(flag in err for flag in flags) or any(p in err for p in (TRACES, CORPUS, KG)), err
