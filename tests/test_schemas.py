"""The committed schema files must describe what the tool reads and writes."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from jsonschema import Draft202012Validator
from referencing import Registry, Resource

ROOT = Path(__file__).resolve().parent.parent
SCHEMAS = ROOT / "schemas"
FIXTURES = ROOT / "fixtures"


def _validator(name: str) -> Draft202012Validator:
    resources = []
    for path in SCHEMAS.glob("*.schema.json"):
        schema = json.loads(path.read_text())
        resources.append((schema["$id"], Resource.from_contents(schema)))
        resources.append((path.name, Resource.from_contents(schema)))
    registry = Registry().with_resources(resources)
    schema = json.loads((SCHEMAS / name).read_text())
    return Draft202012Validator(schema, registry=registry)


def _jsonl(path: Path):
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def test_fixture_corpus_matches_schema():
    validator = _validator("corpus_doc.schema.json")
    for record in _jsonl(FIXTURES / "corpus.jsonl"):
        validator.validate(record)


def test_fixture_kg_matches_schema():
    validator = _validator("kg_fixture.schema.json")
    validator.validate(json.loads((FIXTURES / "kg.json").read_text()))


def test_fixture_traces_match_schema():
    validator = _validator("trace.schema.json")
    for record in _jsonl(FIXTURES / "traces.jsonl"):
        validator.validate(record)


def test_fixture_judgments_match_schema():
    validator = _validator("judgment.schema.json")
    for record in _jsonl(FIXTURES / "judgments.jsonl"):
        validator.validate(record)


def test_simulator_outputs_match_schemas(tmp_path, world, index, kg_store, backends,
                                         headline_latency):
    from streamrag.core import Strategy
    from streamrag.orchestrator import run_session
    from streamrag.synth import brand_founder_trace
    from streamrag.triggers import ScriptedQueryGenerator

    from conftest import session_config

    trace = brand_founder_trace()
    outcome = run_session(
        trace, session_config(Strategy.FIXED_INTERVAL), ScriptedQueryGenerator(trace, 500),
        backends, headline_latency,
    )
    _validator("outcome.schema.json").validate(outcome.to_dict(include_events=True))
    event_validator = _validator("event.schema.json")
    for event in outcome.event_log:
        row = {"utterance_id": outcome.utterance_id}
        row.update(event.to_dict())
        event_validator.validate(row)


@pytest.mark.parametrize("strategy", ["closed_book", "open_book", "fixed_interval",
                                      "model_triggered"])
def test_written_event_lines_match_schema(tmp_path, strategy):
    """Every line ``simulate`` writes to ``events.jsonl``."""
    from click.testing import CliRunner

    from streamrag.cli import cli

    out = tmp_path / "out"
    result = CliRunner(env={"STREAMRAG_CONFIG": None}).invoke(cli, [
        "simulate", "--traces", str(FIXTURES / "traces.jsonl"),
        "--corpus", str(FIXTURES / "corpus.jsonl"), "--kg", str(FIXTURES / "kg.json"),
        "--strategy", strategy, "--block-ms", "500", "--out-dir", str(out)])
    assert result.exit_code == 0, result.output
    rows = _jsonl(out / "events.jsonl")
    assert rows
    validator = _validator("event.schema.json")
    for row in rows:
        validator.validate(row)


def test_training_records_match_schema(world, similarity_ctx, tmp_path):
    """The lines ``export_training_set`` writes, negative samples among them."""
    from streamrag.labeling import (
        assign_streaming_labels,
        build_negative_pool,
        export_training_set,
        inject_negative_samples,
    )
    from streamrag.synth import random_batch

    steps = []
    for trace in random_batch(world, 4, seed=31, block_ms=500):
        steps.extend(assign_streaming_labels(trace, 500, similarity_ctx))
    labeled = inject_negative_samples(steps, 0.5, 3, build_negative_pool(steps))
    path = tmp_path / "training.jsonl"
    export_training_set(labeled, str(path))
    rows = _jsonl(path)
    assert len(rows) == len(labeled)
    assert {row["is_negative_sample"] for row in rows} == {True, False}
    validator = _validator("training_record.schema.json")
    for row in rows:
        validator.validate(row)
