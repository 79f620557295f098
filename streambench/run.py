#!/usr/bin/env python3
"""streamrag end-to-end benchmark.

Usage, from the root of a checkout:

    python3 streambench/run.py --workload stream-2k --seed 1 --seconds 20 --trace 0

Builds the workload's inputs from --seed, sets up the index, then runs
rounds of the workload for about --seconds seconds and prints, as its last
line, one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones (each step's median time in
reference seconds, corrected for the host's speed; see clock.py); with
--trace 1 they are per-layer calls and self times from spans around the
calls between layers. The line before it holds the run's details: the
environment, the outputs digest and the failures, if any.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from checks import Ledger, check_repeat
from clock import REFERENCE_PROBE_S
from tracing import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
MIN_ROUNDS = 5
MIN_TRACED_ROUNDS = 3

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sessions_per_s.open_book", "1/s"),
    ("sessions_per_s.fixed_interval", "1/s"),
    ("sessions_per_s.model_triggered", "1/s"),
    ("label_steps_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]
# Simulated results: exact for a seed, guarded by the outputs digest, and
# printed in the details line rather than bounded as host metrics.
SIMULATED = [
    ("sim_saving_pct.fixed_interval", "%"),
    ("sim_saving_pct.model_triggered", "%"),
    ("sim_first_token_s.p90.model_triggered", "s"),
]

LAYERS = [
    "retrieval.index_documents",
    "retrieval.score_all",
    "retrieval.web_search",
    "retrieval.chunk_and_rerank",
    "retrieval.kg_lookup",
    "retrieval.assemble_references",
    "triggers.fixed_interval_step",
    "triggers.model_trigger_step",
    "triggers.similarity",
    "reflector.select_earliest_joint",
    "reflector.top_docs_match",
    "orchestrator.run_batch",
    "orchestrator.run_session",
    "labeling.assign_streaming_labels",
    "labeling.inject_negative_samples",
    "labeling.export_training_set",
    "metrics.aggregate_latency",
    "metrics.savings_report",
    "cli.simulate",
    "cli.label",
    "cli.report",
]
STRATEGIES = ("open_book", "fixed_interval", "model_triggered")
REASONS = ("identical_query", "top5_match", "kg_result_match", "insufficient")

PER_LAYER = (
    [(f"{layer}.calls", "count") for layer in LAYERS]
    + [(f"{layer}.self_ms", "ms") for layer in LAYERS]
    + [("retrieval.web_search.distinct_queries", "count"), ("retrieval.search_useful_ratio", "ratio")]
    + [(f"retrieval.{what}_per_session.{s}", "count")
       for what in ("web_search.calls", "web_search.distinct", "score_all.calls")
       for s in STRATEGIES]
    + [(f"reflector.reason.{r}", "count") for r in REASONS]
    + [("orchestrator.threads_spawned", "count"), ("orchestrator.threads_cancelled", "count"),
       ("orchestrator.events", "count"), ("orchestrator.threads_useful_ratio", "ratio"),
       ("labeling.steps", "count"), ("bench.self_ms", "ms"), ("trace.wall_ms", "ms"),
       ("trace.overhead_pct", "%")]
)


class GuardError(Exception):
    pass


def import_streamrag(root: Path):
    """Import streamrag from root/src, refusing any other copy."""
    src = (root / "src").resolve()
    if not (src / "streamrag" / "__init__.py").is_file():
        raise GuardError(f"no streamrag package under {src}; run from a streamrag checkout")
    sys.path.insert(0, str(src))
    import streamrag

    found = Path(streamrag.__file__).resolve()
    if not found.is_relative_to(src):
        raise GuardError(f"streamrag imports from {found}, outside {src}; "
                         "uninstall the other copy")
    return streamrag


def git_sha(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(streamrag) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "git_sha": git_sha(ROOT),
        # streamrag may drop this attribute when it loses the compiled kernel
        "retrieval_backend": getattr(streamrag.retrieval, "KERNEL_BACKEND", None),
        "streamrag": str(Path(streamrag.__file__).resolve().parent.relative_to(ROOT)),
    }


def run_rounds(run, seconds: float, tracer, setups: list | None = None) -> tuple[list, list]:
    """Rounds until the time is used up; traced runs alternate plain and
    traced rounds so that the two walls give the tracing overhead. With
    ``setups``, the index is rebuilt and timed before every round, so
    set-up samples spread over the whole run like the rounds do."""
    plain, traced = [], []
    spent = []
    deadline = time.perf_counter() + seconds
    while True:
        started = time.perf_counter()
        if setups is not None:
            setups.append(run.setup(probing=True))
        use_tracer = tracer is not None and len(traced) < len(plain)
        result = run.round(tracer if use_tracer else None)
        spent.append(time.perf_counter() - started)
        if plain:
            check_repeat(run.ledger, plain[0].digest, result.digest, "outputs digest")
            check_repeat(run.ledger, plain[0].sim, result.sim, "simulated metrics")
        if use_tracer and traced:
            check_repeat(run.ledger, counts(traced[0].trace), counts(result.trace), "span counts")
        (traced if use_tracer else plain).append(result)
        enough = (len(traced) >= MIN_TRACED_ROUNDS if tracer is not None
                  else len(plain) >= MIN_ROUNDS)
        if enough and time.perf_counter() + statistics.median(spent) > deadline:
            return plain, traced


def counts(summary) -> tuple:
    return (
        sorted((name, calls) for name, (calls, _) in summary.layers.items()),
        sorted(summary.calls_by_tag.items()),
        sorted(summary.distinct_by_tag.items()),
        sorted(summary.distinct.items()),
    )


def step_seconds(clocks: list, step: str) -> float:
    """A step's median time over ``clocks`` (rounds or set-ups), in
    reference seconds: each sample is divided by the host speed probe next
    to it and multiplied by the probe's reference time (see clock.py)."""
    return statistics.median(c.seconds[step] / c.probes[step] for c in clocks) * REFERENCE_PROBE_S


def end_to_end(run, setups: list, rounds: list) -> dict[str, float]:
    """Host timings, set-up included, are medians of speed-corrected steps.
    A step is one session of one strategy, one trace's labels, the rest of
    the label pipeline, or the report (one CLI command in pipeline-cli);
    ``wall_s`` sums every step of a round."""
    n = len(run.traces)
    spent = {step: step_seconds(rounds, step) for step in rounds[0].seconds}
    values = {
        "setup_s": step_seconds(setups, "setup"),
        "wall_s": sum(spent.values()),
        "label_steps_per_s": rounds[0].label_steps / sum(
            t for step, t in spent.items() if step.split()[0] == "label"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for strategy in STRATEGIES:
        values[f"sessions_per_s.{strategy}"] = n / sum(
            t for step, t in spent.items() if step.split()[0] == strategy)
    return values


def per_layer(run, setup, plain: list, traced: list) -> dict[str, float]:
    """Per-layer values for one set-up plus one (mean) round. Counts repeat
    exactly across rounds, which run_rounds checks."""
    k = len(traced)
    values: dict[str, float] = {}
    for layer in LAYERS:
        values[f"{layer}.calls"] = setup.layers.get(layer, (0, 0.0))[0] + \
            traced[0].trace.layers.get(layer, (0, 0.0))[0]
        values[f"{layer}.self_ms"] = 1000.0 * (
            setup.layers.get(layer, (0, 0.0))[1]
            + sum(r.trace.layers.get(layer, (0, 0.0))[1] for r in traced) / k)
    values["bench.self_ms"] = 1000.0 * (
        setup.layers["setup"][1] + sum(r.trace.layers["bench"][1] for r in traced) / k)
    values["trace.wall_ms"] = 1000.0 * (setup.wall_s + sum(r.trace.wall_s for r in traced) / k)
    plain_wall = min(r.wall_s for r in plain)
    traced_wall = min(r.wall_s for r in traced)
    values["trace.overhead_pct"] = 100.0 * (traced_wall - plain_wall) / plain_wall

    first = traced[0]
    summary = first.trace
    searches = summary.layers.get("retrieval.web_search", (0, 0.0))[0]
    values["retrieval.web_search.distinct_queries"] = summary.distinct.get("retrieval.web_search", 0)
    values["retrieval.search_useful_ratio"] = (
        values["retrieval.web_search.distinct_queries"] / searches if searches else 1.0)
    n = len(run.traces)
    for strategy in STRATEGIES:
        values[f"retrieval.web_search.calls_per_session.{strategy}"] = \
            summary.calls_by_tag.get(("retrieval.web_search", strategy), 0) / n
        values[f"retrieval.web_search.distinct_per_session.{strategy}"] = \
            summary.distinct_by_tag.get(("retrieval.web_search", strategy), 0) / n
        values[f"retrieval.score_all.calls_per_session.{strategy}"] = \
            summary.calls_by_tag.get(("retrieval.score_all", strategy), 0) / n

    reasons = dict.fromkeys(REASONS, 0)
    fired_tools = set()
    n_events = 0
    for strategy, rows in first.events.items():
        n_events += len(rows)
        for row in rows:
            if row["type"] == "reflected":
                for tool in ("web", "kg"):
                    reason = row.get("detail", {}).get(tool)
                    if reason in reasons:
                        reasons[reason] += 1
            elif row["type"] == "query_fired":
                fired_tools.add((strategy, row["utterance_id"], row["tool"]))
    for reason in REASONS:
        values[f"reflector.reason.{reason}"] = reasons[reason]
    spawned = sum(o.threads_spawned for found in first.outcomes.values() for o in found)
    values["orchestrator.threads_spawned"] = spawned
    values["orchestrator.threads_cancelled"] = sum(
        o.threads_cancelled for found in first.outcomes.values() for o in found)
    values["orchestrator.events"] = n_events
    # a session awaits one call per tool it queried; every other call is waste
    values["orchestrator.threads_useful_ratio"] = len(fired_tools) / spawned if spawned else 1.0
    values["labeling.steps"] = first.label_steps
    return values


def drop_missing(values: dict[str, float], missing: set[str]) -> dict[str, float]:
    """Leave out every metric of a layer with a wrap target that no longer
    resolves: its spans would undercount, and a zero would read as a gain."""
    gone = {name for name in values
            if any(name.startswith(layer + ".") for layer in missing)}
    if "retrieval.web_search" in missing:
        gone.add("retrieval.search_useful_ratio")
    return {name: value for name, value in values.items() if name not in gone}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="streamrag end-to-end benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        streamrag = import_streamrag(ROOT)
    except GuardError as exc:
        print(f"streambench: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, Run, targets

    if args.workload not in WORKLOADS:
        print(f"streambench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    work_dir = BENCH_DIR / f".work-{args.workload}-{os.getpid()}"
    ledger = Ledger()
    try:
        run = Run(WORKLOADS[args.workload], args.seed, work_dir, ledger)
        if args.trace:
            tracer = Tracer()
            with tracer.patched(targets(run.workload)), tracer.span("setup"):
                run.setup()
            setup_summary = tracer.summary()
            tracer.clear()
            plain, traced = run_rounds(run, args.seconds, tracer)
            values = drop_missing(per_layer(run, setup_summary, plain, traced),
                                  set(tracer.missing))
            units = dict(PER_LAYER)
            for layer, where in sorted(tracer.missing.items()):
                print(f"streambench: {layer} not measured: {', '.join(sorted(where))} "
                      "no longer exists", file=sys.stderr)
        else:
            setups: list = []
            plain, _ = run_rounds(run, args.seconds, None, setups)
            values = end_to_end(run, setups, plain)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for message in ledger.failures[:20]:
        print(f"streambench: check failed: {message}", file=sys.stderr)
    probes = [p for r in plain for p in r.probes.values()]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "traces": len(run.traces),
        "rounds": len(plain) + (len(traced) if args.trace else 0),
        "digest": plain[0].digest,
        "round_walls_s": [r.wall_s for r in plain],
        # the host's speed over the run: how long the probe took
        "probe_ms": {"fastest": 1000.0 * min(probes), "median": 1000.0 * statistics.median(probes)},
        "simulated": {name: {"value": plain[0].sim[name], "unit": unit} for name, unit in SIMULATED},
        "error_rate": len(ledger.failures) / max(1, ledger.attempted),
        "env": environment(streamrag),
        "missing_layers": ({layer: sorted(where) for layer, where in tracer.missing.items()}
                           if args.trace else {}),
        "failures": ledger.failures[:20],
    }
    print(json.dumps(detail, sort_keys=True))
    result = {
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items() if name in values},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
