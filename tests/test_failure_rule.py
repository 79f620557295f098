"""One failure rule: a ``SimulatedFault`` is the only failure the simulation
models, and any other exception ends the command.

A backend raises ``SimulatedFault`` for a failed tool call, a query generator
for a step with no query. Everything else a session raises is either an
``InputError``, which exits 2 naming the file, or a bug, which exits 3. Each
case below exited 0 once, its fault turned into a simulated outcome or a
warning, and wrote outcomes for a program that did not run as written.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest

import streamrag
from streamrag import cli as cli_module
from streamrag import orchestrator, reflector, retrieval
from streamrag.cli import main
from streamrag.errors import SimulatedFault

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
TRACES, CORPUS, KG = (str(FIXTURES / name) for name in ("traces.jsonl", "corpus.jsonl", "kg.json"))
SRC = Path(streamrag.__file__).resolve().parent
BROAD = {"Exception", "BaseException"}


def handlers(source: str, names: set[str]) -> list[tuple[str, int]]:
    """Each handler that catches an exception of one of ``names`` (a bare
    ``except:``, or one naming it, alone or in a tuple, as ``Name`` or
    ``module.Name``), as (the dotted names of the classes and functions
    around it, line), in source order."""
    found = []

    def walk(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ExceptHandler):
                caught = child.type.elts if isinstance(child.type, ast.Tuple) else [child.type]
                if any(t is None or isinstance(t, ast.Name) and t.id in names
                       or isinstance(t, ast.Attribute) and t.attr in names for t in caught):
                    found.append((scope, child.lineno))
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            walk(child, f"{scope}.{child.name}".lstrip(".") if named else scope)

    walk(ast.parse(source), "")
    return found


def handlers_in_src(names: set[str]) -> list[tuple[str, str]]:
    return [(str(path.relative_to(SRC)), scope)
            for path in sorted(SRC.rglob("*.py"))
            for scope, _ in handlers(path.read_text(encoding="utf-8"), names)]


def test_broad_handlers_are_found():
    source = """
def f():
    try: pass
    except: pass
    try: pass
    except (ValueError, BaseException): pass
    try: pass
    except ValueError: pass
def g():
    try: pass
    except Exception as exc: pass
class C:
    def m(self):
        try: pass
        except errors.SimulatedFault: pass
"""
    assert handlers(source, BROAD) == [("f", 4), ("f", 6), ("g", 11)]
    assert handlers(source, {"SimulatedFault"}) == [("f", 4), ("C.m", 15)]


def test_only_the_entry_point_catches_every_exception():
    """cli.main maps what nothing else handled to exit 3; no other code may
    turn an arbitrary exception into a result."""
    assert handlers_in_src(BROAD) == [("cli.py", "main")]


def test_a_simulated_fault_is_caught_in_two_places():
    """A tool call's backend fault becomes a failed call in ``_Session.spawn``,
    a generator's becomes NO_QUERY in ``model_trigger_step``; a third handler
    would model a fault somewhere new."""
    assert handlers_in_src({"SimulatedFault"}) == [("orchestrator.py", "_Session.spawn"),
                                                    ("triggers.py", "model_trigger_step")]


def run_main(capsys, *args: str) -> tuple[int, str]:
    with pytest.raises(SystemExit) as exit_info:
        main(list(args))
    return exit_info.value.code, capsys.readouterr().err


@pytest.fixture(autouse=True)
def no_env_config(monkeypatch):
    monkeypatch.delenv("STREAMRAG_CONFIG", raising=False)


def simulate(capsys, out: Path, *args: str, traces: str = TRACES) -> tuple[int, str]:
    return run_main(capsys, "simulate", "--traces", traces, "--corpus", CORPUS, "--kg", KG,
                    "--out-dir", str(out), *args)


def test_a_search_that_raises_exits_three(tmp_path, monkeypatch, capsys):
    def ranking(self, query_text, k):
        raise ZeroDivisionError("injected ranking fault")

    monkeypatch.setattr(retrieval.DocIndex, "ranking", ranking)
    code, err = simulate(capsys, tmp_path / "out", "--strategy", "open_book")
    assert code == 3, err
    line = ranking.__code__.co_firstlineno + 1
    assert ("internal error: ZeroDivisionError: injected ranking fault "
            f"(test_failure_rule.py:{line})") in err
    assert not (tmp_path / "out" / "outcomes.jsonl").exists()


def test_a_similarity_check_that_raises_exits_three(tmp_path, monkeypatch, capsys):
    calls = []
    similarity_f = cli_module.similarity_f

    def every_seventh(current, prev, ctx):
        calls.append(current)
        if len(calls) % 7 == 0:
            raise RuntimeError(f"similarity call {len(calls)} failed")
        return similarity_f(current, prev, ctx)

    monkeypatch.setattr(cli_module, "similarity_f", every_seventh)
    code, err = simulate(capsys, tmp_path / "out", "--strategy", "model_triggered")
    assert code == 3, err
    line = every_seventh.__code__.co_firstlineno + 3
    assert ("internal error: RuntimeError: similarity call 7 failed "
            f"(test_failure_rule.py:{line})") in err
    assert "warning" not in err
    assert not (tmp_path / "out" / "outcomes.jsonl").exists()


def test_a_session_that_raises_exits_three(tmp_path, monkeypatch, capsys):
    run_session = orchestrator.run_session

    def failing_for_jump_shots(trace, *args):
        if trace.utterance_id == "jump-shots":
            raise KeyError("jump-shots")
        return run_session(trace, *args)

    monkeypatch.setattr(orchestrator, "run_session", failing_for_jump_shots)
    code, err = simulate(capsys, tmp_path / "out")
    assert code == 3, err
    line = failing_for_jump_shots.__code__.co_firstlineno + 2
    assert f"internal error: KeyError: 'jump-shots' (test_failure_rule.py:{line})" in err
    assert not (tmp_path / "out" / "outcomes.jsonl").exists()


def test_a_fault_in_the_reflector_is_not_modelled(tmp_path, monkeypatch, capsys):
    """A SimulatedFault is modelled only where a tool call's backend or a
    generator step raises it; the fixed_interval reflector's search is
    neither, so its fault ends the command as a bug does."""
    def top_docs_match(*args):
        raise SimulatedFault("injected reflector fault")

    monkeypatch.setattr(reflector, "top_docs_match", top_docs_match)
    code, err = simulate(capsys, tmp_path / "out", "--strategy", "fixed_interval",
                         "--block-ms", "500")
    assert code == 3, err
    line = top_docs_match.__code__.co_firstlineno + 1
    assert ("internal error: SimulatedFault: injected reflector fault "
            f"(test_failure_rule.py:{line})") in err
    assert not (tmp_path / "out" / "outcomes.jsonl").exists()


@pytest.mark.parametrize("command", ["open_book", "fixed_interval", "model_triggered", "label"])
def test_a_script_that_does_not_fit_exits_two_as_label_does(tmp_path, capsys, command):
    lines = []
    for line in Path(TRACES).read_text(encoding="utf-8").splitlines():
        trace = json.loads(line)
        if trace["utterance_id"] == "jump-shots":
            trace["scripted_queries"] = {}
        lines.append(json.dumps(trace))
    traces = tmp_path / "traces.jsonl"
    traces.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    if command == "label":
        code, err = run_main(capsys, "label", "--traces", str(traces), "--corpus", CORPUS,
                             "--out-dir", str(out))
    else:
        code, err = simulate(capsys, out, "--strategy", command, "--block-ms", "500",
                             traces=str(traces))
    assert code == 2, err
    assert f"input error: {traces}: jump-shots: " in err
    assert not (out / "outcomes.jsonl").exists() and not (out / "training.jsonl").exists()
