"""Command-line entry point: simulate sessions, build labels, emit reports.

Config precedence is flags > config file > built-in defaults; point
STREAMRAG_CONFIG at a JSON file (or pass --config) to change the defaults of
simulate and label. All outputs are deterministic for a given seed and
inputs, and every command writes a manifest recording the settings it reads,
input digests, and outputs so a run can be reproduced byte for byte. Exit
codes: 0 success, 2 input error, 3 internal error.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import sys
import traceback
from dataclasses import fields
from pathlib import Path
from typing import Any, Callable, NamedTuple

import click

from . import __version__
from .core import (
    ScriptedQueries,
    SessionConfig,
    Strategy,
    default_block_ms,
    is_digits,
    is_int,
    make_out_dir,
    read_json,
    read_jsonl,
    read_traces,
    write_atomic,
    write_json,
    write_jsonl,
)
from .errors import AlignmentError, InputError
from .labeling import (
    SimilarityContext,
    assign_streaming_labels,
    build_negative_pool,
    check_reference,
    export_training_set,
    inject_negative_samples,
    similarity_f,
)
from .metrics import (
    SavingsBasis,
    aggregate_latency,
    per_pair_savings_rows,
    read_judgments,
    savings_report,
    score_responses,
)
from .orchestrator import (
    STAGES,
    Backends,
    GeneratorFactory,
    LatencyModel,
    event_lines,
    outcome_from_dict,
    run_batch,
)
from .retrieval import DocIndex, KgStore, index_documents
from .triggers import (
    FinalQueryGenerator,
    ScriptedQueryGenerator,
    StreamingScriptedGenerator,
)

_STRATEGIES = [s.value for s in Strategy]


def _positive(value: Any) -> bool:
    return is_int(value) and value >= 1


def _non_negative(value: Any) -> bool:
    return is_int(value) and value >= 0


def _stage(value: Any) -> bool:
    """A latency stage: a constant, or an empirical sample list."""
    if isinstance(value, list):
        return bool(value) and all(map(_non_negative, value))
    return _non_negative(value)


def _parse_ratio(raw: str) -> tuple[int, int] | None:
    """web:kg in plain ASCII digits, not both 0, as in '2:1'; None otherwise."""
    web, _, kg = raw.partition(":")
    if not (is_digits(web) and is_digits(kg)):
        return None
    try:
        ratio = int(web), int(kg)
    except ValueError:  # more digits than int() reads
        return None
    return ratio if any(ratio) else None


class Setting(NamedTuple):
    default: Any
    accepts: Callable[[Any], bool]
    expected: str  # what ``accepts`` takes, for error messages


_SESSION_DEFAULTS = {f.name: f.default for f in fields(SessionConfig)}
_LATENCY_DEFAULTS = {f.name: f.default for f in fields(LatencyModel)}

# Every setting of simulate and label, as a config file and the flags name it:
# its default, read from SessionConfig and LatencyModel but for negative_prob,
# and what it accepts, from flags and config files alike.
SETTINGS: dict[str, Setting] = {
    "strategy": Setting(_SESSION_DEFAULTS["strategy"].value, lambda v: v in _STRATEGIES,
                        f"one of {_STRATEGIES}"),
    "block_ms": Setting(_SESSION_DEFAULTS["block_ms"], lambda v: v is None or _positive(v),
                        "a positive integer"),
    "ref_length_tokens": Setting(_SESSION_DEFAULTS["ref_length_tokens"], _non_negative,
                                 "a non-negative integer"),
    "web_kg_ratio": Setting("%d:%d" % _SESSION_DEFAULTS["web_kg_ratio"],
                            lambda v: isinstance(v, str) and _parse_ratio(v) is not None,
                            "web:kg in ASCII digits, not both 0, like '2:1'"),
    "top_docs": Setting(_SESSION_DEFAULTS["top_docs"], _positive, "a positive integer"),
    "reflect_top_k": Setting(_SESSION_DEFAULTS["reflect_top_k"], _positive, "a positive integer"),
    "chunk_tokens": Setting(_SESSION_DEFAULTS["chunk_tokens"], _positive, "a positive integer"),
    "reflect_ordered": Setting(_SESSION_DEFAULTS["reflect_ordered"],
                               lambda v: v is None or isinstance(v, bool), "true or false"),
    "negative_prob": Setting(0.1, lambda v: (is_int(v) or isinstance(v, float)) and 0 <= v <= 1,
                             "in [0, 1]"),
    "endpoint_delay_ms": Setting(_SESSION_DEFAULTS["endpoint_delay_ms"], _non_negative,
                                 "a non-negative integer"),
    "seed": Setting(_SESSION_DEFAULTS["rng_seed"], is_int, "an integer"),
    **{f"{stage}_ms": Setting(_LATENCY_DEFAULTS[stage], _stage,
                              "a non-negative integer, or a non-empty list of them")
       for stage in STAGES},
}
DEFAULTS: dict[str, Any] = {key: setting.default for key, setting in SETTINGS.items()}


def _check_value(key: str, value: Any, name: str) -> None:
    setting = SETTINGS[key]
    if not setting.accepts(value):
        raise InputError(f"{name} must be {setting.expected}, got {value!r}")


def _echo(message: str, err: bool = False) -> None:
    """click.echo to the current sys.stdout or sys.stderr.

    Naming the stream skips click's default-stream cache, which keeps every
    stream it has seen alive; each in-process run (click's CliRunner swaps in
    fresh streams) would otherwise leak its captured output.
    """
    click.echo(message, file=sys.stderr if err else sys.stdout)


def _load_config_file(explicit_path: str | None) -> dict[str, Any]:
    path = explicit_path or os.environ.get("STREAMRAG_CONFIG")
    if not path:
        return {}
    raw = read_json(path)
    if not isinstance(raw, dict):
        raise InputError(f"{path}: config must be a JSON object")
    unknown = sorted(set(raw) - set(DEFAULTS))
    if unknown:
        raise InputError(f"{path}: unknown config keys {unknown}; valid: {sorted(DEFAULTS)}")
    for key, value in raw.items():
        _check_value(key, value, f"{path}: config key {key!r}")
    return raw


def _resolve(flags: dict[str, Any], config_path: str | None,
             keys: tuple[str, ...]) -> dict[str, Any]:
    """The settings ``keys`` that a command reads: defaults, then the config
    file, then the flags given. Flags are keyed by parameter name; an error
    names the flag or the config key. The config file is checked whole,
    since commands share it."""
    config = _load_config_file(config_path)
    resolved = {key: config.get(key, DEFAULTS[key]) for key in keys}
    options = {p.name: p.opts[0] for p in click.get_current_context().command.params}
    for key, value in flags.items():
        if value is not None:
            _check_value(key, value, options[key])
            resolved[key] = value
    return resolved


# The settings each command reads, and so records in its manifest.
_SIMULATE_KEYS = tuple(key for key in DEFAULTS if key != "negative_prob")
_LABEL_KEYS = ("block_ms", "negative_prob", "seed", "top_docs", "reflect_top_k",
               "reflect_ordered")


def _session_config(cfg: dict[str, Any], strategy: Strategy) -> SessionConfig:
    """The session config of the settings ``cfg`` holds, the rest at their
    defaults. ``cfg`` then records the block size and web-match mode that
    run, which default by strategy."""
    given = {key: cfg[key] for key in cfg.keys() & (_SESSION_DEFAULTS.keys() - {"strategy"})}
    if "web_kg_ratio" in given:
        given["web_kg_ratio"] = _parse_ratio(given["web_kg_ratio"])
    config = SessionConfig(strategy=strategy, rng_seed=cfg["seed"], **given)
    cfg["block_ms"], cfg["reflect_ordered"] = config.block_ms, config.reflect_ordered
    return config


def _sha256(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _write_csv(path: Path, rows: list[dict], columns: list[str]) -> None:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    write_atomic(path, [buf.getvalue()])


def _write_table(out: Path, name: str, rows: list[dict], out_format: str,
                 columns: list[str]) -> list[str]:
    """Write ``rows`` as ``name``.json, .csv or both, as ``out_format``
    says; returns the names of the files written."""
    written = []
    if out_format in ("json", "both"):
        write_json(out / f"{name}.json", rows)
        written.append(f"{name}.json")
    if out_format in ("csv", "both"):
        _write_csv(out / f"{name}.csv", rows, columns)
        written.append(f"{name}.csv")
    return written


def _write_manifest(out_dir: Path, command: str, config: dict, inputs: dict[str, str],
                    outputs: list[str], seed: int) -> None:
    manifest = {
        "tool": "streamrag",
        "version": __version__,
        "command": command,
        "seed": seed,
        "config": {k: config[k] for k in sorted(config)},
        "inputs": {name: _sha256(path) for name, path in sorted(inputs.items())},
        "outputs": sorted(outputs),
    }
    write_json(out_dir / "manifest.json", manifest)


def _read_corpus(path: str) -> list[dict]:
    return read_jsonl(path, lambda doc: doc, "corpus record", schema="corpus_doc.schema.json",
                      key=lambda doc: f"doc_id {doc['doc_id']!r}")


def _read_outcomes(path: str):
    return read_jsonl(path, outcome_from_dict, "outcome", schema="outcome.schema.json",
                      key=lambda outcome: f"utterance_id {outcome.utterance_id!r}")


@click.group()
@click.version_option(version=__version__, prog_name="streamrag")
def cli() -> None:
    """Streaming tool-query session simulator, labeler, and report builder."""


@cli.command()
@click.option("--traces", "traces_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--corpus", "corpus_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--kg", "kg_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--strategy", type=click.Choice(_STRATEGIES), default=None,
              help=f"Defaults to {DEFAULTS['strategy']}.")
@click.option("--block-ms", type=int, default=None)
@click.option("--ref-tokens", "ref_length_tokens", type=int, default=None)
@click.option("--ratio", "web_kg_ratio", default=None, help="web:kg reference ratio, e.g. 2:1")
@click.option("--top-docs", type=int, default=None)
@click.option("--reflect-top-k", type=int, default=None)
@click.option("--chunk-tokens", type=int, default=None)
@click.option("--endpoint-delay-ms", type=int, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--query-gen-ms", type=int, default=None)
@click.option("--web-fetch-ms", type=int, default=None)
@click.option("--chunk-rerank-ms", type=int, default=None)
@click.option("--kg-lookup-ms", type=int, default=None)
@click.option("--response-gen-ms", type=int, default=None)
@click.option("--response-tail-ms", type=int, default=None)
@click.option("--out-dir", required=True, type=click.Path(file_okay=False))
@click.option("--format", "out_format", type=click.Choice(["json", "csv", "both"]), default="both",
              show_default=True, help="Latency table format.")
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), default=None)
def simulate(traces_path, corpus_path, kg_path, out_dir, out_format, config_path,
             **flags) -> None:
    """Run sessions for every trace and write outcomes, event logs, and a latency table."""
    cfg = _resolve(flags, config_path, _SIMULATE_KEYS)
    session_config = _session_config(cfg, Strategy(cfg["strategy"]))
    latency = LatencyModel(seed=cfg["seed"], **{stage: cfg[f"{stage}_ms"] for stage in STAGES})

    backends = Backends(index=index_documents(_read_corpus(corpus_path)),
                        kg_store=KgStore.from_records(read_json(kg_path), source=kg_path))
    traces = read_traces(traces_path)

    factory = generator_factory(session_config, backends.index)
    try:
        outcomes, _ = run_batch(traces, session_config, factory, backends, latency)
    except InputError as exc:  # a trace's script does not fit the run
        raise InputError(f"{traces_path}: {exc}") from exc

    out = make_out_dir(out_dir)
    outputs = ["outcomes.jsonl", "events.jsonl"]
    write_jsonl(out / "outcomes.jsonl", (o.to_dict() for o in outcomes))
    write_atomic(out / "events.jsonl", event_lines(outcomes))

    outputs += _write_table(out, "latency_table", aggregate_latency(outcomes).rows(), out_format,
                            ["strategy", "stat", "query_gen", "tool_results", "response_gen",
                             "total"])
    _write_manifest(out, "simulate", cfg,
                    {"traces": traces_path, "corpus": corpus_path, "kg": kg_path},
                    outputs, seed=cfg["seed"])
    _echo(f"simulated {len(outcomes)} sessions ({session_config.strategy.value}) -> {out}")


def generator_factory(config: SessionConfig, index: DocIndex) -> GeneratorFactory:
    """The scripted query generator of ``config.strategy``, per trace.

    The model-triggered generator replays the fire/NO_QUERY labels that
    ``label`` builds under the same config.
    """
    if config.strategy is Strategy.CLOSED_BOOK:
        return lambda trace: None
    if config.strategy is Strategy.OPEN_BOOK:
        return lambda trace: FinalQueryGenerator(trace)
    if config.strategy is Strategy.FIXED_INTERVAL:
        return lambda trace: ScriptedQueryGenerator(trace, config.block_ms)
    ctx = SimilarityContext.from_config(index, config)
    similar = lambda current, prev: similarity_f(current, prev, ctx)
    return lambda trace: StreamingScriptedGenerator(trace, config.block_ms, similar)


@cli.command()
@click.option("--traces", "traces_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--corpus", "corpus_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--pseudo-gt", "pseudo_gt_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="External reference queries; defaults to the traces' scripted ones.")
@click.option("--block-ms", type=int, default=None,
              help=f"Defaults to {default_block_ms(Strategy.MODEL_TRIGGERED)}.")
@click.option("--negative-prob", type=float, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--top-docs", type=int, default=None)
@click.option("--reflect-top-k", type=int, default=None)
@click.option("--web-match", "reflect_ordered", type=click.Choice(["set", "ordered"]),
              callback=lambda ctx, param, mode: None if mode is None else mode == "ordered",
              help="Top-document comparison mode for web equivalence; defaults to the "
                   "config's reflect_ordered, else set, as model_triggered's.")
@click.option("--show-labels", is_flag=True, help="Echo the per-block label table per utterance.")
@click.option("--out-dir", required=True, type=click.Path(file_okay=False))
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), default=None)
def label(traces_path, corpus_path, pseudo_gt_path, show_labels, out_dir,
          config_path, **flags) -> None:
    """Build a streaming-trigger training set (fire vs NO_QUERY) with negatives."""
    cfg = _resolve(flags, config_path, _LABEL_KEYS)
    config = _session_config(cfg, Strategy.MODEL_TRIGGERED)

    traces = read_traces(traces_path)
    ctx = SimilarityContext.from_config(index_documents(_read_corpus(corpus_path)), config)

    pseudo_gt = _read_pseudo_gt(pseudo_gt_path, traces) if pseudo_gt_path else {}

    all_steps = []
    for trace in traces:
        overrides = pseudo_gt.get(trace.utterance_id)
        try:
            steps = assign_streaming_labels(trace, config.block_ms, ctx, overrides)
        except InputError as exc:  # the references fall short
            raise InputError(f"{pseudo_gt_path if overrides else traces_path}: {exc}") from exc
        all_steps.extend(steps)
        if show_labels:
            _echo(f"{trace.utterance_id}:")
            for step in steps:
                label_text = json.dumps(step.label.to_wire())
                _echo(f"  block {step.block:2d} {step.tool.value:3s} {label_text}")
    pool = build_negative_pool(all_steps)
    labeled = inject_negative_samples(all_steps, cfg["negative_prob"], cfg["seed"], pool)

    out = make_out_dir(out_dir)
    export_training_set(labeled, str(out / "training.jsonl"))

    fires = sum(1 for s in labeled if not s.label.is_no_query)
    summary = {
        "steps": len(labeled),
        "fires": fires,
        "no_query": len(labeled) - fires,
        "negatives": sum(1 for s in labeled if s.is_negative_sample),
        "utterances": len(traces),
        "block_ms": config.block_ms,
    }
    write_json(out / "summary.json", summary)
    inputs = {"traces": traces_path, "corpus": corpus_path}
    if pseudo_gt_path:
        inputs["pseudo_gt"] = pseudo_gt_path
    _write_manifest(out, "label", cfg, inputs, ["training.jsonl", "summary.json"], seed=cfg["seed"])
    _echo(
        f"labeled {summary['steps']} steps: {summary['fires']} fire, "
        f"{summary['no_query']} NO_QUERY, {summary['negatives']} negatives -> {out}"
    )


def _read_pseudo_gt(path: str, traces) -> dict[str, dict]:
    def parse(r: dict) -> tuple[str, int, ScriptedQueries]:
        entry = ScriptedQueries.from_wire(r)
        check_reference(r["utterance_id"], r["block"], entry)
        return r["utterance_id"], r["block"], entry

    records = read_jsonl(
        path, parse, "reference query", empty_ok=True, schema="pseudo_gt.schema.json",
        key=lambda r: f"reference query for utterance {r[0]!r} block {r[1]}")
    unknown = {uid for uid, _, _ in records} - {t.utterance_id for t in traces}
    if unknown:
        raise AlignmentError(f"{path}: reference queries for unknown utterances: {sorted(unknown)}")
    per_utterance: dict[str, dict] = {}
    for uid, block, entry in records:
        per_utterance.setdefault(uid, {})[block] = entry
    return per_utterance


@cli.command()
@click.option("--baseline", "baseline_path", required=True,
              type=click.Path(exists=True, dir_okay=False), help="Baseline outcomes JSONL.")
@click.option("--strategy", "strategy_path", required=True,
              type=click.Path(exists=True, dir_okay=False), help="Strategy outcomes JSONL.")
@click.option("--judgments", "judgments_path", type=click.Path(exists=True, dir_okay=False),
              default=None)
@click.option("--out-dir", required=True, type=click.Path(file_okay=False))
@click.option("--format", "out_format", type=click.Choice(["json", "csv", "both"]),
              default="both", show_default=True)
@click.option("--seed", type=int, default=DEFAULTS["seed"], show_default=True,
              help="Recorded in the manifest; no output depends on it.")
def report(baseline_path, strategy_path, judgments_path, out_dir, out_format, seed) -> None:
    """Compare paired outcome sets: latency savings, plus scores when judged.

    No setting reaches report, so it reads no config file.
    """
    baseline = _read_outcomes(baseline_path)
    strategy = _read_outcomes(strategy_path)
    scores = score_responses(read_judgments(judgments_path)) if judgments_path else None

    try:
        reports = [savings_report(baseline, strategy, basis) for basis in
                   (SavingsBasis.MEAN, SavingsBasis.P50)]
    except AlignmentError as exc:
        raise AlignmentError(f"{baseline_path} and {strategy_path}: {exc}") from exc
    except InputError as exc:  # a closed_book baseline: no tool-use latency
        raise InputError(f"{baseline_path}: {exc}") from exc
    pair_rows = per_pair_savings_rows(baseline, strategy)

    out = make_out_dir(out_dir)
    outputs = _write_table(out, "savings", [r.to_dict() for r in reports], out_format,
                           ["basis", "tool_use_latency_base_s", "mean_savings_pct",
                            "pct_queries_benefiting", "max_parallel_threads", "n_pairs"])
    _write_csv(out / "savings_per_utterance.csv", pair_rows,
               ["utterance_id", "baseline_tool_results_s", "strategy_tool_results_s",
                "saving_s", "baseline_first_token_s", "strategy_first_token_s"])
    outputs.append("savings_per_utterance.csv")

    inputs = {"baseline": baseline_path, "strategy": strategy_path}
    if scores is not None:
        write_json(out / "scores.json", scores)
        outputs.append("scores.json")
        inputs["judgments"] = judgments_path
    else:
        _echo("no judgments file given; scores skipped", err=True)

    _write_manifest(out, "report", {}, inputs, outputs, seed=seed)
    _echo(f"report written -> {out}")


def main(argv: list[str] | None = None) -> None:
    """Console entry point with explicit exit codes (0 ok, 2 input, 3 internal)."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        sys.exit(exc.exit_code)
    except click.Abort:
        sys.exit(130)
    except click.UsageError as exc:
        _echo(f"error: {exc.format_message()}", err=True)
        sys.exit(2)
    except InputError as exc:
        _echo(f"input error: {exc}", err=True)
        sys.exit(2)
    except Exception as exc:  # noqa: BLE001 - last-resort internal error mapping
        where = traceback.extract_tb(exc.__traceback__)[-1]  # the innermost frame
        _echo(f"internal error: {type(exc).__name__}: {exc} "
              f"({Path(where.filename).name}:{where.lineno})", err=True)
        sys.exit(3)
    sys.exit(0)


if __name__ == "__main__":
    main()
