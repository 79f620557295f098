"""The committed schema files must describe what the tool reads and writes,
and the checks the readers compile from them must accept what JSON Schema
accepts."""

from __future__ import annotations

import copy
import json
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jsonschema import Draft202012Validator
from referencing import Registry, Resource

from streamrag.errors import InputError
from streamrag.schema import checker

ROOT = Path(__file__).resolve().parent.parent
SCHEMAS = ROOT / "src" / "streamrag" / "schemas"
FIXTURES = ROOT / "fixtures"
NAMES = sorted(path.name for path in SCHEMAS.glob("*.schema.json"))


@cache
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


# --- the compiled checks against jsonschema --------------------------------
#
# Valid instances of every schema, one value inside damaged at a time: swapped
# for another JSON value, dropped, or joined by a key. The compiled check must
# accept exactly what jsonschema's Draft 2020-12 validator accepts, but for
# the one integer rule the readers keep: jsonschema takes 2.0 as an integer
# and 1.0 as equal to 1, and the checks take neither.

_KEYS = sorted({key for name in NAMES for key in json.loads((SCHEMAS / name).read_text())
                .get("properties", {})} | {"start_ms", "text", "web", "kg", "domain", "block"})
_edges = st.sampled_from([None, True, False, -1, 0, 1, -1.0, 0.0, 1.0, 2.5, "", "x", [], {}])
_scalars = st.one_of(
    _edges, _edges, st.integers(), st.text(max_size=3), st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(["NO_QUERY", "music", "kg", "accurate", "open_book", "reflected"]))
_values = st.recursive(_scalars, lambda inner: st.one_of(
    st.lists(inner, max_size=3),
    st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=3), inner, max_size=3)),
    max_leaves=6)


@pytest.fixture(scope="module")
def examples(world, backends, headline_latency, similarity_ctx, tmp_path_factory) -> dict:
    """Valid instances of each schema, read from the fixtures and the outputs."""
    from streamrag.core import Strategy
    from streamrag.labeling import (
        assign_streaming_labels,
        build_negative_pool,
        export_training_set,
        inject_negative_samples,
    )
    from streamrag.orchestrator import run_session
    from streamrag.synth import brand_founder_trace, random_batch
    from streamrag.triggers import ScriptedQueryGenerator

    from conftest import session_config

    trace = brand_founder_trace()
    outcome = run_session(trace, session_config(Strategy.FIXED_INTERVAL),
                          ScriptedQueryGenerator(trace, 500), backends, headline_latency)
    steps = []
    for labeled in random_batch(world, 3, seed=31, block_ms=500):
        steps.extend(assign_streaming_labels(labeled, 500, similarity_ctx))
    path = tmp_path_factory.mktemp("schemas") / "training.jsonl"
    export_training_set(inject_negative_samples(steps, 0.5, 3, build_negative_pool(steps)),
                        str(path))
    traces = _jsonl(FIXTURES / "traces.jsonl")
    kg = json.loads((FIXTURES / "kg.json").read_text())
    return {
        "corpus_doc.schema.json": _jsonl(FIXTURES / "corpus.jsonl")[:5],
        "event.schema.json": [{"utterance_id": outcome.utterance_id, **event.to_dict()}
                              for event in outcome.event_log],
        "judgment.schema.json": _jsonl(FIXTURES / "judgments.jsonl"),
        "kg_fixture.schema.json": [kg[:3]],
        "kg_query.schema.json": [record["query"] for record in kg],
        "outcome.schema.json": [outcome.to_dict(), outcome.to_dict(include_events=True)],
        "pseudo_gt.schema.json": [{"utterance_id": t["utterance_id"], "block": int(b), **entry}
                                  for t in traces for b, entry in t["scripted_queries"].items()],
        "trace.schema.json": traces,
        "training_record.schema.json": _jsonl(path),
    }


def _slots(value) -> list:
    """Every (container, key) pair inside ``value``."""
    items = value.items() if isinstance(value, dict) else enumerate(value) \
        if isinstance(value, list) else ()
    return [slot for key, child in list(items) for slot in [(value, key), *_slots(child)]]


def _near(value) -> list:
    """Values next to ``value``, where a bound or the integer rule decides."""
    if isinstance(value, bool):
        return [not value, int(value), None]
    if isinstance(value, int):
        return [-1, 0, 1, value - 1, value + 1, float(value), True, str(value)]
    if isinstance(value, str):
        return ["", value + "x", None, 0]
    return [[], {}, None, ""]


def _damage(data, value):
    """``value`` with one value inside it swapped, nudged, dropped or joined
    by a key; now and then the whole of it swapped."""
    slots = _slots(value)
    if not slots or data.draw(st.integers(0, 9)) == 0:
        return data.draw(_values)
    container, key = slots[data.draw(st.integers(0, len(slots) - 1))]
    damage = data.draw(st.sampled_from(["swap", "nudge", "drop", "add"]))
    if damage == "drop":
        del container[key]
    elif damage == "add" and isinstance(container, dict):
        container[data.draw(st.sampled_from(_KEYS) | st.text(max_size=3))] = data.draw(_values)
    elif damage == "nudge":
        container[key] = data.draw(st.sampled_from(_near(container[key])))
    else:
        container[key] = data.draw(_values)
    return value


def _integral_float(value) -> bool:
    if isinstance(value, float):
        return value.is_integer()
    children = value.values() if isinstance(value, dict) else value if isinstance(value, list) else ()
    return any(map(_integral_float, children))


def _accepts(ref: str, value, skip: str = "") -> bool:
    try:
        checker(ref, skip)(value, "value")
    except InputError:
        return False
    return True


def test_every_schema_has_examples(examples):
    assert sorted(examples) == NAMES and all(examples.values())


def _agree(name: str, value) -> None:
    ours, theirs = _accepts(name, value), _validator(name).is_valid(value)
    if ours != theirs:  # the integer rule, and nothing else
        assert theirs and _integral_float(value), (value, ours, theirs)


@pytest.mark.parametrize("name", NAMES)
def test_compiled_check_agrees_with_jsonschema_one_edit_from_each_example(examples, name):
    """Every value of every example swapped for each value next to it, or
    dropped, and every object joined by a key no schema names."""
    for example in examples[name][:4]:
        _agree(name, example)
        for index in range(len(_slots(example))):
            container, key = _slots(example)[index]
            edits = [*_near(container[key]), "drop"] + (["add"] if isinstance(container, dict) else [])
            for edit in edits:
                value = copy.deepcopy(example)
                container, key = _slots(value)[index]
                if edit == "drop":
                    del container[key]
                elif edit == "add":
                    container["note"] = 1
                else:
                    container[key] = edit
                _agree(name, value)


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_compiled_check_accepts_what_jsonschema_accepts(examples, name, data):
    value = copy.deepcopy(data.draw(st.sampled_from(examples[name]), label="example"))
    for _ in range(data.draw(st.integers(0, 3), label="damages")):
        value = _damage(data, value)
    _agree(name, value)
    ours = _accepts(name, value)
    if name == "trace.schema.json":
        # read_traces checks a trace but its scripted entries, then each entry
        entry = "/properties/scripted_queries/additionalProperties"
        entries = value.get("scripted_queries") if isinstance(value, dict) else None
        assert ours == (_accepts(name, value, entry) and all(
            _accepts(f"{name}#{entry}", e) for e in (entries.values() if isinstance(entries, dict)
                                                     else ())))
