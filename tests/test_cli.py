from __future__ import annotations

import gc
import hashlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from streamrag import cli as cli_module
from streamrag.cli import DEFAULTS, _check_value, cli, main
from streamrag.core import write_json, write_jsonl, write_traces
from streamrag.synth import FixtureWorld

from paraphrase import paraphrase_batch
from subproc import child_env

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
INPUTS = {
    "simulate": ["--traces", str(FIXTURES / "traces.jsonl"),
                 "--corpus", str(FIXTURES / "corpus.jsonl"), "--kg", str(FIXTURES / "kg.json")],
    "label": ["--traces", str(FIXTURES / "traces.jsonl"),
              "--corpus", str(FIXTURES / "corpus.jsonl")],
}


def run_cli(*args: str, expect: int = 0) -> subprocess.CompletedProcess:
    result = subprocess.run(
        [sys.executable, "-m", "streamrag.cli", *args], capture_output=True, text=True,
        env=child_env(),
    )
    assert result.returncode == expect, (
        f"exit {result.returncode} != {expect}\nstdout: {result.stdout}\nstderr: {result.stderr}"
    )
    return result


@pytest.fixture
def run_main(monkeypatch, capsys):
    """Run the console entry point in-process; returns (exit code, stderr)."""
    monkeypatch.delenv("STREAMRAG_CONFIG", raising=False)

    def run(*args: str) -> tuple[int, str]:
        with pytest.raises(SystemExit) as exit_info:
            main(list(args))
        return exit_info.value.code, capsys.readouterr().err

    return run


def digest_dir(path: Path) -> dict[str, str]:
    return {
        f.name: hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(path.iterdir())
        if f.is_file()
    }


def simulate(out_dir: Path, *extra: str, expect: int = 0) -> subprocess.CompletedProcess:
    return run_cli(
        "simulate",
        "--traces", str(FIXTURES / "traces.jsonl"),
        "--corpus", str(FIXTURES / "corpus.jsonl"),
        "--kg", str(FIXTURES / "kg.json"),
        "--out-dir", str(out_dir),
        *extra,
        expect=expect,
    )


class TestSimulate:
    def test_open_book_latency_table_has_tool_column(self, tmp_path):
        out = tmp_path / "ob"
        simulate(out, "--strategy", "open_book", "--block-ms", "1000")
        rows = json.loads((out / "latency_table.json").read_text())
        p50 = next(r for r in rows if r["stat"] == "p50")
        assert p50["tool_results"] > 0
        assert (out / "latency_table.csv").exists()
        assert (out / "events.jsonl").exists()
        assert (out / "manifest.json").exists()

    def test_model_triggered_keeps_single_thread(self, tmp_path):
        out = tmp_path / "mt"
        simulate(out, "--strategy", "model_triggered", "--block-ms", "500")
        outcomes = [json.loads(line) for line in (out / "outcomes.jsonl").read_text().splitlines()]
        assert all(o["max_parallel_threads"] <= 1 for o in outcomes)

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        simulate(a, "--strategy", "fixed_interval", "--block-ms", "500", "--seed", "11")
        simulate(b, "--strategy", "fixed_interval", "--block-ms", "500", "--seed", "11")
        assert digest_dir(a) == digest_dir(b)

    def test_unknown_strategy_lists_options(self, tmp_path):
        result = simulate(tmp_path / "x", "--strategy", "psychic", expect=2)
        assert "closed_book" in result.stderr and "model_triggered" in result.stderr

    def test_missing_file_is_input_error(self, tmp_path):
        result = run_cli(
            "simulate", "--traces", "/no/such/file.jsonl",
            "--corpus", str(FIXTURES / "corpus.jsonl"),
            "--kg", str(FIXTURES / "kg.json"),
            "--out-dir", str(tmp_path / "x"),
            expect=2,
        )
        assert "file" in result.stderr.lower()

    def test_internal_error_exit_code(self, tmp_path, monkeypatch, run_main):
        def broken_index(corpus):
            raise RuntimeError("injected index fault")

        monkeypatch.setattr(cli_module, "index_documents", broken_index)
        code, err = run_main("simulate", *INPUTS["simulate"], "--out-dir", str(tmp_path / "x"))
        assert code == 3
        line = broken_index.__code__.co_firstlineno + 1
        assert f"internal error: RuntimeError: injected index fault (test_cli.py:{line})" in err

    def test_parse_error_reports_line_number(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"utterance_id": "u", "words": [{"text": "a", "start_ms": 0, '
                       '"end_ms": 100}], "scripted_queries": {}}\nnot json\n')
        result = run_cli(
            "simulate", "--traces", str(bad),
            "--corpus", str(FIXTURES / "corpus.jsonl"),
            "--kg", str(FIXTURES / "kg.json"),
            "--out-dir", str(tmp_path / "x"),
            expect=2,
        )
        assert "bad.jsonl:2" in result.stderr

    def test_duplicate_utterance_id_is_input_error(self, tmp_path):
        lines = (FIXTURES / "traces.jsonl").read_text().splitlines()
        dup = tmp_path / "dup.jsonl"
        dup.write_text("\n".join(lines + lines[:1]) + "\n")
        uid = json.loads(lines[0])["utterance_id"]
        result = run_cli(
            "simulate", "--traces", str(dup),
            "--corpus", str(FIXTURES / "corpus.jsonl"),
            "--kg", str(FIXTURES / "kg.json"),
            "--out-dir", str(tmp_path / "x"),
            expect=2,
        )
        assert f"dup.jsonl:{len(lines) + 1}: duplicate utterance_id {uid!r}" in result.stderr
        assert not (tmp_path / "x").exists()

    def test_negative_word_start_is_input_error(self, tmp_path, run_main):
        lines = (FIXTURES / "traces.jsonl").read_text().splitlines()
        raw = json.loads(lines[1])
        raw["words"][0]["start_ms"] = -2
        traces = tmp_path / "neg.jsonl"
        traces.write_text("\n".join([lines[0], json.dumps(raw)]) + "\n")
        code, err = run_main("simulate", "--traces", str(traces), *INPUTS["simulate"][2:],
                             "--out-dir", str(tmp_path / "x"))
        assert code == 2
        assert "neg.jsonl:2: words[0].start_ms must be at least 0, got -2" in err
        assert not (tmp_path / "x").exists()

    def test_config_file_and_flag_precedence(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"ref_length_tokens": 64, "seed": 5}))
        out_cfg = tmp_path / "cfg"
        simulate(out_cfg, "--strategy", "open_book", "--config", str(config))
        manifest = json.loads((out_cfg / "manifest.json").read_text())
        assert manifest["config"]["ref_length_tokens"] == 64
        assert manifest["seed"] == 5

        out_flag = tmp_path / "flag"
        simulate(out_flag, "--strategy", "open_book", "--config", str(config), "--seed", "9")
        manifest = json.loads((out_flag / "manifest.json").read_text())
        assert manifest["seed"] == 9  # flag wins over config file

    def test_config_via_env_var(self, tmp_path):
        config = tmp_path / "env.json"
        config.write_text(json.dumps({"ref_length_tokens": 48}))
        result = subprocess.run(
            [sys.executable, "-m", "streamrag.cli", "simulate",
             "--traces", str(FIXTURES / "traces.jsonl"),
             "--corpus", str(FIXTURES / "corpus.jsonl"),
             "--kg", str(FIXTURES / "kg.json"),
             "--strategy", "open_book",
             "--out-dir", str(tmp_path / "envout")],
            capture_output=True, text=True,
            env=child_env(STREAMRAG_CONFIG=str(config)),
        )
        assert result.returncode == 0, result.stderr
        manifest = json.loads((tmp_path / "envout" / "manifest.json").read_text())
        assert manifest["config"]["ref_length_tokens"] == 48

    def test_unknown_config_key_rejected(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"no_such_knob": 1}))
        result = simulate(tmp_path / "x", "--config", str(config), expect=2)
        assert "no_such_knob" in result.stderr

    def test_repeated_scripted_block_is_input_error(self, tmp_path):
        lines = (FIXTURES / "traces.jsonl").read_text().splitlines()
        raw = json.loads(lines[0])
        raw["scripted_queries"]["01"] = raw["scripted_queries"]["1"]
        bad = tmp_path / "keys.jsonl"
        bad.write_text("\n".join([*lines[1:], json.dumps(raw)]) + "\n")
        result = run_cli(
            "simulate", "--traces", str(bad),
            "--corpus", str(FIXTURES / "corpus.jsonl"),
            "--kg", str(FIXTURES / "kg.json"),
            "--out-dir", str(tmp_path / "x"),
            expect=2,
        )
        assert f"keys.jsonl:{len(lines)}: scripted_queries key '01' repeats block 1" in result.stderr
        assert not (tmp_path / "x").exists()


class TestValueChecks:
    """Every config value and flag is checked before any work starts."""

    def test_every_default_passes_its_check(self):
        for key, value in DEFAULTS.items():
            _check_value(key, value, key)

    @pytest.mark.parametrize("source", ["--config", "STREAMRAG_CONFIG"])
    @pytest.mark.parametrize("command,values", [
        ("simulate", {"block_ms": "fast"}),
        ("label", {"negative_prob": "high"}),
        ("simulate", {"strategy": "bogus"}),
        ("simulate", {"web_kg_ratio": 5}),
        ("simulate", {"reflect_ordered": "no"}),
        ("simulate", {"top_docs": True}),  # JSON true is an int in Python
        ("simulate", {"seed": 1.5}),
        ("simulate", {"web_kg_ratio": "1_0:1"}),
        ("label", {"block_ms": 0}),  # 0 is not "unset": only null is
        ("simulate", {"web_kg_ratio": "0:0"}),  # no share to divide the budget by
    ])
    def test_bad_config_value_is_input_error(self, tmp_path, monkeypatch, run_main, source,
                                             command, values):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(values))
        args = [command, *INPUTS[command], "--out-dir", str(tmp_path / "out")]
        if source == "--config":
            args += ["--config", str(config)]
        else:
            monkeypatch.setenv("STREAMRAG_CONFIG", str(config))
        code, err = run_main(*args)
        (key,) = values
        assert code == 2
        assert f"input error: {config}: config key {key!r} must be " in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,flag,value", [
        ("simulate", "--query-gen-ms", "-5"),
        ("simulate", "--web-fetch-ms", "-1"),
        ("simulate", "--chunk-rerank-ms", "-1"),
        ("simulate", "--kg-lookup-ms", "-1"),
        ("simulate", "--response-gen-ms", "-1"),
        ("simulate", "--response-tail-ms", "-1"),
        ("label", "--block-ms", "-5"),
        ("simulate", "--block-ms", "0"),
        ("label", "--block-ms", "0"),
        ("label", "--top-docs", "0"),
        ("label", "--reflect-top-k", "0"),
    ])
    def test_out_of_range_flag_is_input_error(self, tmp_path, run_main, command, flag, value):
        code, err = run_main(command, *INPUTS[command], flag, value,
                             "--out-dir", str(tmp_path / "out"))
        assert code == 2
        assert f"input error: {flag} must be " in err and f"got {value}" in err
        assert not (tmp_path / "out").exists()


def label(out_dir: Path, *extra: str, expect: int = 0) -> subprocess.CompletedProcess:
    return run_cli(
        "label",
        "--traces", str(FIXTURES / "traces.jsonl"),
        "--corpus", str(FIXTURES / "corpus.jsonl"),
        "--out-dir", str(out_dir),
        *extra,
        expect=expect,
    )


class TestLabel:
    def test_zero_negative_prob(self, tmp_path):
        out = tmp_path / "lab"
        label(out, "--negative-prob", "0")
        summary = json.loads((out / "summary.json").read_text())
        assert summary["negatives"] == 0
        assert summary["steps"] > 0

    @pytest.mark.parametrize("prob", ["1.5", "-0.1"])
    def test_negative_prob_out_of_range_is_input_error(self, tmp_path, prob):
        result = label(tmp_path / "lab", "--negative-prob", prob, expect=2)
        assert f"--negative-prob must be in [0, 1], got {float(prob)}" in result.stderr
        assert "internal error" not in result.stderr
        assert not (tmp_path / "lab").exists()

    def test_walkthrough_rows_in_training_file(self, tmp_path):
        out = tmp_path / "lab"
        label(out, "--negative-prob", "0")
        rows = [json.loads(line) for line in (out / "training.jsonl").read_text().splitlines()]
        brand_web = [r["label"] for r in rows
                     if r["utterance_id"] == "brand-founder" and r["tool"] == "web"]
        assert brand_web == [
            "Who founded what", "Red Bull founder", "Who founded Rare Beauty",
            "NO_QUERY", "NO_QUERY",
        ]

    def test_determinism(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        label(a, "--negative-prob", "0.2", "--seed", "7")
        label(b, "--negative-prob", "0.2", "--seed", "7")
        assert digest_dir(a) == digest_dir(b)

    def test_manifest_records_the_web_match_mode(self, tmp_path):
        manifests = {}
        for mode in ("set", "ordered"):
            label(tmp_path / mode, "--web-match", mode)
            manifests[mode] = json.loads((tmp_path / mode / "manifest.json").read_text())
        assert manifests["set"] != manifests["ordered"]
        assert manifests["set"]["config"]["reflect_ordered"] is False
        assert manifests["ordered"]["config"]["reflect_ordered"] is True

    @pytest.mark.parametrize("source", ["--config", "STREAMRAG_CONFIG"])
    @pytest.mark.parametrize("config_ordered,flag,expected", [
        (None, None, False),  # label's own default, not simulate's
        (True, None, True),
        (False, None, False),
        (True, "set", False),
        (False, "ordered", True),
    ])
    def test_web_match_resolves_flag_then_config_then_set(self, tmp_path, monkeypatch, source,
                                                          config_ordered, flag, expected):
        monkeypatch.delenv("STREAMRAG_CONFIG", raising=False)
        modes = []
        assign = cli_module.assign_streaming_labels

        def recording_assign(trace, block_ms, ctx, overrides):
            modes.append(ctx.ordered)
            return assign(trace, block_ms, ctx, overrides)

        monkeypatch.setattr(cli_module, "assign_streaming_labels", recording_assign)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {} if config_ordered is None else {"reflect_ordered": config_ordered}))
        args = ["label", *INPUTS["label"], "--out-dir", str(tmp_path / "out")]
        if source == "--config":
            args += ["--config", str(config)]
        else:
            monkeypatch.setenv("STREAMRAG_CONFIG", str(config))
        if flag:
            args += ["--web-match", flag]
        cli.main(args=args, standalone_mode=False)
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["config"]["reflect_ordered"] is expected
        assert modes and set(modes) == {expected}

    def test_show_labels_prints_block_table(self, tmp_path):
        result = label(tmp_path / "lab", "--negative-prob", "0", "--show-labels")
        assert 'block  3 web "Who founded Rare Beauty"' in result.stdout
        assert 'block  4 web "NO_QUERY"' in result.stdout

    def test_external_pseudo_gt_alignment_error(self, tmp_path):
        gt = tmp_path / "gt.jsonl"
        gt.write_text(json.dumps(
            {"utterance_id": "nobody", "block": 1, "web": "x", "kg": {"domain": "other"}}
        ) + "\n")
        result = label(tmp_path / "lab", "--pseudo-gt", str(gt), expect=2)
        assert "nobody" in result.stderr

    def test_duplicate_pseudo_gt_record_is_input_error(self, tmp_path):
        gt = tmp_path / "gt.jsonl"
        records = [
            {"utterance_id": "brand-founder", "block": 1, "web": web,
             "kg": {"domain": "other", "main_entity": "Who"}}
            for web in ("Who founded what", "Red Bull founder")
        ]
        gt.write_text("".join(json.dumps(r) + "\n" for r in records))
        result = label(tmp_path / "lab", "--pseudo-gt", str(gt), expect=2)
        assert ("gt.jsonl:2: duplicate reference query for utterance 'brand-founder' block 1"
                in result.stderr)
        assert not (tmp_path / "lab").exists()

    @pytest.mark.parametrize("side, value", [("kg", None), ("web", "NO_QUERY")])
    def test_no_query_pseudo_gt_side_is_rejected_at_its_line(self, tmp_path, side, value):
        """A reference names what a tool should ask, never NO_QUERY; the fault
        is reported where the record is, as a scripted one is in a trace."""
        trace = json.loads((FIXTURES / "traces.jsonl").read_text().splitlines()[0])
        records = [{"utterance_id": trace["utterance_id"], "block": int(block), **entry}
                   for block, entry in trace["scripted_queries"].items()]
        records[3][side] = value
        gt = tmp_path / "pgt.jsonl"
        gt.write_text("".join(json.dumps(r) + "\n" for r in records))
        result = label(tmp_path / "lab", "--pseudo-gt", str(gt), expect=2)
        if value is None:  # the schema's: a kg query is an object
            assert f"{gt}:4: kg must be an object, got None" in result.stderr
        else:
            assert (f"{gt}:4: brand-founder: reference query for block {records[3]['block']}/"
                    f"{side} must be a real query") in result.stderr
        assert not (tmp_path / "lab").exists()


@pytest.fixture(scope="module")
def paraphrase_inputs(tmp_path_factory) -> list[str]:
    """Traces whose early web queries share the final one's top 5, with the
    world's corpus and KG: the trace, corpus and kg flags."""
    world = FixtureWorld()
    out = tmp_path_factory.mktemp("paraphrase")
    write_traces(paraphrase_batch(world, 60, seed=5, block_ms=500), str(out / "traces.jsonl"))
    write_jsonl(out / "corpus.jsonl", world.corpus)
    write_json(out / "kg.json", world.kg_records)
    return ["--traces", str(out / "traces.jsonl"), "--corpus", str(out / "corpus.jsonl"),
            "--kg", str(out / "kg.json")]


class TestTriggerReplaysLabels:
    """model_triggered fires exactly where ``label`` writes a fire label, and
    with its query, whichever web-match mode the config or --web-match sets."""

    @pytest.mark.parametrize("flag", [None, "set", "ordered"], ids=lambda f: f"flag-{f}")
    @pytest.mark.parametrize("config_ordered", [None, True, False], ids=lambda c: f"config-{c}")
    def test_labels_equal_model_triggered_events(self, tmp_path, monkeypatch, paraphrase_inputs,
                                                 config_ordered, flag):
        monkeypatch.delenv("STREAMRAG_CONFIG", raising=False)
        ordered = {"set": False, "ordered": True}.get(flag, config_ordered)

        def config(ordered: bool | None) -> str:
            path = tmp_path / f"config-{ordered}.json"
            path.write_text(json.dumps({} if ordered is None else {"reflect_ordered": ordered}))
            return str(path)

        label_args = ["label", *paraphrase_inputs[:4], "--negative-prob", "0",
                      "--config", config(config_ordered), "--out-dir", str(tmp_path / "lab")]
        cli.main(args=label_args + (["--web-match", flag] if flag else []),
                 standalone_mode=False)
        cli.main(args=["simulate", *paraphrase_inputs, "--strategy", "model_triggered",
                       "--config", config(ordered), "--out-dir", str(tmp_path / "sim")],
                 standalone_mode=False)

        def rows(path: Path) -> list[dict]:
            return [json.loads(line) for line in path.read_text().splitlines()]

        labels = {(r["utterance_id"], r["block"], r["tool"]): r["label"]
                  for r in rows(tmp_path / "lab" / "training.jsonl")}
        decisions = {(e["utterance_id"], e["block"], e["tool"]):
                     e["detail"]["query"] if e["type"] == "query_fired" else "NO_QUERY"
                     for e in rows(tmp_path / "sim" / "events.jsonl")
                     if e["type"] in ("query_fired", "no_query")}
        assert len(labels) == len(rows(tmp_path / "lab" / "training.jsonl"))
        assert decisions == labels
        manifests = [json.loads((tmp_path / d / "manifest.json").read_text())["config"]
                     for d in ("lab", "sim")]
        assert [m["reflect_ordered"] for m in manifests] == [bool(ordered)] * 2


class TestReport:
    @pytest.fixture()
    def outcome_dirs(self, tmp_path):
        ob, mt = tmp_path / "ob", tmp_path / "mt"
        simulate(ob, "--strategy", "open_book")
        simulate(mt, "--strategy", "model_triggered", "--block-ms", "500")
        return ob, mt

    def test_identical_inputs_zero_savings(self, tmp_path, outcome_dirs):
        ob, _ = outcome_dirs
        out = tmp_path / "rep"
        run_cli("report", "--baseline", str(ob / "outcomes.jsonl"),
                "--strategy", str(ob / "outcomes.jsonl"), "--out-dir", str(out))
        rows = json.loads((out / "savings.json").read_text())
        assert all(r["mean_savings_pct"] == 0.0 for r in rows)
        assert all(r["pct_queries_benefiting"] == 0.0 for r in rows)

    def test_streaming_report_shape(self, tmp_path, outcome_dirs):
        ob, mt = outcome_dirs
        out = tmp_path / "rep"
        result = run_cli(
            "report", "--baseline", str(ob / "outcomes.jsonl"),
            "--strategy", str(mt / "outcomes.jsonl"),
            "--judgments", str(FIXTURES / "judgments.jsonl"),
            "--out-dir", str(out),
        )
        rows = json.loads((out / "savings.json").read_text())
        assert {r["basis"] for r in rows} == {"mean", "p50"}
        assert all(r["max_parallel_threads"] == 1 for r in rows)
        assert all(r["mean_savings_pct"] > 0 for r in rows)
        scores = json.loads((out / "scores.json").read_text())
        assert scores["truthfulness_score"] == pytest.approx(15.0 - 28.1)
        per_utterance = (out / "savings_per_utterance.csv").read_text().splitlines()
        assert len(per_utterance) == 12  # header + 11 traces

    def test_missing_judgments_notice(self, tmp_path, outcome_dirs):
        ob, mt = outcome_dirs
        out = tmp_path / "rep"
        result = run_cli("report", "--baseline", str(ob / "outcomes.jsonl"),
                         "--strategy", str(mt / "outcomes.jsonl"), "--out-dir", str(out))
        assert "scores skipped" in result.stderr
        assert not (out / "scores.json").exists()

    def test_unpaired_outcomes_enumerated(self, tmp_path, outcome_dirs):
        ob, mt = outcome_dirs
        truncated = tmp_path / "short.jsonl"
        lines = (mt / "outcomes.jsonl").read_text().splitlines()
        truncated.write_text("\n".join(lines[:-1]) + "\n")
        result = run_cli("report", "--baseline", str(ob / "outcomes.jsonl"),
                         "--strategy", str(truncated), "--out-dir", str(tmp_path / "rep"),
                         expect=2)
        assert "pair" in result.stderr

    def test_duplicate_outcome_is_input_error(self, tmp_path, outcome_dirs):
        ob, mt = outcome_dirs
        lines = (ob / "outcomes.jsonl").read_text().splitlines()
        doubled = tmp_path / "doubled.jsonl"
        doubled.write_text("\n".join(lines + lines[-1:]) + "\n")
        uid = json.loads(lines[-1])["utterance_id"]
        result = run_cli("report", "--baseline", str(doubled),
                         "--strategy", str(mt / "outcomes.jsonl"), "--out-dir", str(tmp_path / "rep"),
                         expect=2)
        assert f"doubled.jsonl:{len(lines) + 1}: duplicate utterance_id {uid!r}" in result.stderr

    def test_zero_latency_baseline_is_input_error(self, tmp_path, outcome_dirs):
        _, mt = outcome_dirs
        cb = tmp_path / "cb"
        simulate(cb, "--strategy", "closed_book")
        baseline = cb / "outcomes.jsonl"
        result = run_cli("report", "--baseline", str(baseline),
                         "--strategy", str(mt / "outcomes.jsonl"), "--out-dir", str(tmp_path / "rep"),
                         expect=2)
        assert f"input error: {baseline}: baseline tool-use latency is zero" in result.stderr
        assert not (tmp_path / "rep").exists()


class TestEntryPoint:
    def test_version_flag(self):
        result = run_cli("--version")
        assert "streamrag" in result.stdout

    def test_in_process_runs_release_their_streams(self, tmp_path):
        # each CliRunner run swaps in its own sys.stdout/sys.stderr; the CLI's
        # messages must not keep them (and the output they hold) alive
        def live_streams() -> int:
            gc.collect()
            return sum(1 for o in gc.get_objects() if isinstance(o, io.TextIOWrapper)
                       and getattr(o, "name", None) in ("<stdout>", "<stderr>"))

        runner = CliRunner(env={"STREAMRAG_CONFIG": None})
        before = live_streams()
        for i in range(3):
            out = tmp_path / str(i)
            result = runner.invoke(cli, [
                "simulate", "--traces", str(FIXTURES / "traces.jsonl"),
                "--corpus", str(FIXTURES / "corpus.jsonl"), "--kg", str(FIXTURES / "kg.json"),
                "--strategy", "open_book", "--out-dir", str(out / "ob")])
            assert result.exit_code == 0, result.output
            outcomes = str(out / "ob" / "outcomes.jsonl")
            result = runner.invoke(cli, ["report", "--baseline", outcomes, "--strategy", outcomes,
                                         "--out-dir", str(out / "rep")])
            assert result.exit_code == 0, result.output
            assert "scores skipped" in result.output
        assert live_streams() == before
