"""The benchmark's workloads: inputs made from a seed, and one measured round.

A round is everything a user of streamrag waits for on one input set: the
three strategies over the same traces, the latency table and savings
report, and the training-label pipeline. ``stream-*`` workloads call the
public API; ``pipeline-cli`` runs the click commands in-process on files
written at set-up. Only public streamrag functions are called, with their
default arguments, so internal refactors need no edit here.
"""

from __future__ import annotations

import gc
import itertools
import json
import random
import sys
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

from click.testing import CliRunner

from streamrag import orchestrator, reflector, retrieval
from streamrag import cli as cli_module
from streamrag.core import (
    SessionConfig,
    Strategy,
    ToolQuery,
    UtteranceTrace,
    iter_jsonl,
    write_traces,
)
from streamrag.labeling import (
    SimilarityContext,
    assign_streaming_labels,
    build_negative_pool,
    export_training_set,
    inject_negative_samples,
    similarity_f,
)
from streamrag.metrics import SavingsBasis, aggregate_latency, savings_report
from streamrag.orchestrator import Backends, LatencyModel, outcome_from_dict, run_batch
from streamrag.retrieval import DocIndex, KgStore, index_documents
from streamrag.synth import FixtureWorld, random_trace
from streamrag.triggers import (
    FinalQueryGenerator,
    ScriptedQueryGenerator,
    StreamingScriptedGenerator,
)

from checks import Ledger, check_outcomes, digest
from clock import Clock
from tracing import Summary, Target, Tracer

BLOCK_MS = 500
# The CLI workload writes its traces in files of this many, and runs
# simulate and report once per file, so that each command is a short step.
TRACES_PER_FILE = 10
NEGATIVE_PROB = 0.1
STRATEGIES = ("open_book", "fixed_interval", "model_triggered")
STREAMING = ("fixed_interval", "model_triggered")

# Stage delays (ms) sampled per call, so the order of RNG draws shows in
# the outcomes digest.
SAMPLED_STAGES = {
    "query_gen": (450, 520, 590, 660, 730),
    "web_fetch": (1900, 2200, 2500, 2800, 3100),
    "chunk_rerank": (200, 280, 360),
    "kg_lookup": (150, 200, 250),
    "response_gen": (2300, 2520, 2740),
    "response_tail": (0, 400, 800),
}

# A trace's shape is (blocks, settle block): from the settle block on, its
# script repeats the final queries. A session's work follows its shape: for
# shape (n, s), fixed_interval scores the corpus n + 2(s - 1) times and
# model_triggered about 3s - 2 times. Left to chance, shapes make that work
# per session spread by 15-17% between seeds at 10 traces and by 9-19% at
# 30 (IQR / median over ten seeds). So each workload draws a stratified
# sample of random_batch's traffic instead: random_batch picks the block
# count uniformly from 3 to 7 and then the settle block uniformly, so every
# block count gets the same number of traces, and their settle blocks are
# the midpoints of equal slices of that uniform draw. The seed still varies
# everything else: entities, decoys, words, timings.
BLOCK_COUNTS = range(3, 8)


def settle_blocks(n: int, m: int) -> list[int]:
    """``m`` settle blocks for ``n``-block traces: the midpoints of ``m``
    equal slices of a uniform draw over blocks 1..n, mirrored so that their
    mean is random_batch's mean, (n + 1) / 2. Halves round to even, which
    keeps the mean over all block counts exact when ``m`` is odd."""
    low = [round(0.5 + (j + 0.5) * n / m) for j in range(m // 2)]
    middle = [round((n + 1) / 2)] if m % 2 else []
    return low + middle + [n + 1 - s for s in reversed(low)]


@dataclass(frozen=True)
class Workload:
    name: str
    n_docs: int
    per_block_count: int  # traces for each block count 3..7
    via_cli: bool = False

    @property
    def shapes(self) -> list[tuple[int, int]]:
        return [(n, s) for n in BLOCK_COUNTS for s in settle_blocks(n, self.per_block_count)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("stream-2k", 2000, 2),
        Workload("pipeline-cli", 200, 20, via_cli=True),
    )
}


def trace_shape(trace: UtteranceTrace) -> tuple[int, int]:
    """(number of blocks, first block from which the script no longer changes)."""
    blocks = sorted(trace.scripted_queries)
    final = trace.scripted_queries[blocks[-1]]
    settle = blocks[-1]
    for block in reversed(blocks):
        if trace.scripted_queries[block] != final:
            break
        settle = block
    return len(blocks), settle


def batch_traces(world: FixtureWorld, seed: int) -> Iterator[UtteranceTrace]:
    """random_batch(world, count, seed, BLOCK_MS) without a count: the same
    traces, made one at a time."""
    rng = random.Random(seed)
    for i in itertools.count():
        yield random_trace(world, f"synth-{seed}-{i:04d}", rng, BLOCK_MS)


def shaped_traces(world: FixtureWorld, shapes: list[tuple[int, int]], seed: int
                  ) -> list[UtteranceTrace]:
    """The first random_batch traces of each wanted shape, in batch order."""
    wanted = Counter(shapes)
    picked = []
    for trace in batch_traces(world, seed):
        shape = trace_shape(trace)
        if wanted[shape] > 0:
            wanted[shape] -= 1
            picked.append(trace)
            if not +wanted:
                return picked


def query_key(*args: Any, **kwargs: Any) -> str | None:
    """The query text of a search call, for distinct-query counts."""
    for arg in (*args, *kwargs.values()):
        if isinstance(arg, str):
            return arg
        if isinstance(arg, ToolQuery):
            return arg.web_text
    return None


def targets(workload: Workload) -> list[Target]:
    """Layer boundaries, named after the layer, wrapped where they are called.

    The workload is driven by streamrag.cli for the CLI workload and by this
    module for the others.
    """
    caller = cli_module if workload.via_cli else sys.modules[__name__]
    return [
        (caller, "index_documents", "retrieval.index_documents", None),
        (caller, "run_batch", "orchestrator.run_batch", None),
        (caller, "similarity_f", "triggers.similarity", None),
        (caller, "aggregate_latency", "metrics.aggregate_latency", None),
        (caller, "savings_report", "metrics.savings_report", None),
        (caller, "assign_streaming_labels", "labeling.assign_streaming_labels", None),
        (caller, "inject_negative_samples", "labeling.inject_negative_samples", None),
        (caller, "export_training_set", "labeling.export_training_set", None),
        (orchestrator, "run_session", "orchestrator.run_session", None),
        (orchestrator, "fixed_interval_step", "triggers.fixed_interval_step", None),
        (orchestrator, "model_trigger_step", "triggers.model_trigger_step", None),
        (orchestrator, "select_earliest_joint", "reflector.select_earliest_joint", None),
        (orchestrator, "web_search", "retrieval.web_search", query_key),
        (orchestrator, "chunk_and_rerank", "retrieval.chunk_and_rerank", None),
        (orchestrator, "kg_lookup", "retrieval.kg_lookup", None),
        (orchestrator, "assemble_references", "retrieval.assemble_references", None),
        (reflector, "top_docs_match", "reflector.top_docs_match", None),
        (reflector, "kg_lookup", "retrieval.kg_lookup", None),
        (retrieval, "web_search", "retrieval.web_search", query_key),
        (DocIndex, "score_all", "retrieval.score_all", query_key),
    ]


@dataclass
class Round:
    """One pass of a workload: host times, simulated results, and what to check."""

    wall_s: float  # probes left out
    # per step: "<strategy> <utterance id>", "label <utterance id>" (a
    # trace's labels), "label" (negatives and export) and "report"; in the
    # CLI workload, "<strategy> <trace file>", "label" (the command) and
    # "report <strategy> <trace file>"
    seconds: dict[str, float]
    probes: dict[str, float]  # the host speed probe next to each step, plain rounds only
    label_steps: int
    sim: dict[str, float]
    outcomes: dict[str, list]  # per strategy; kept for traced rounds only
    events: dict[str, list[dict]]  # event-log rows per strategy, traced rounds only
    digest: str
    trace: Summary | None = None


class Run:
    """A workload's inputs for one seed, and its rounds."""

    def __init__(self, workload: Workload, seed: int, work_dir: Path, ledger: Ledger) -> None:
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.ledger = ledger
        self.world = FixtureWorld(workload.n_docs, seed=seed)
        self.traces = shaped_traces(self.world, workload.shapes, seed)
        self.trace_ids = [t.utterance_id for t in self.traces]
        self.trace_files = [self.traces[i:i + TRACES_PER_FILE]
                            for i in range(0, len(self.traces), TRACES_PER_FILE)]
        self.configs = {
            s: SessionConfig(strategy=Strategy(s), block_ms=BLOCK_MS, rng_seed=seed)
            for s in STRATEGIES
        }
        self.latency = LatencyModel(seed=seed, **SAMPLED_STAGES)
        self.backends: Backends | None = None
        self.tracer: Tracer | None = None
        self.clock: Clock | None = None
        self.runner = CliRunner(env={"STREAMRAG_CONFIG": None})
        work_dir.mkdir(parents=True, exist_ok=True)
        if workload.via_cli:
            self._write_inputs()

    # -- set-up ----------------------------------------------------------------

    def setup(self, probing: bool = False) -> Clock:
        """Build the index and KG store; the returned clock holds the time
        it took as step "setup".

        The CLI workload builds them from its input files, as each of its
        commands does; the others from the world in memory.
        """
        self.backends = None
        clock = Clock(probing)
        with clock.step("setup"):
            if self.workload.via_cli:
                corpus = [raw for _, raw in iter_jsonl(str(self.work_dir / "corpus.jsonl"))]
                kg_records = json.loads((self.work_dir / "kg.json").read_text(encoding="utf-8"))
            else:
                corpus, kg_records = self.world.corpus, self.world.kg_records
            index = index_documents(corpus)
            kg_store = KgStore.from_records(kg_records)
        self.backends = Backends(index=index, kg_store=kg_store)
        return clock

    def _write_inputs(self) -> None:
        with open(self.work_dir / "corpus.jsonl", "w", encoding="utf-8") as fh:
            for record in self.world.corpus:
                fh.write(json.dumps(record) + "\n")
        with open(self.work_dir / "kg.json", "w", encoding="utf-8") as fh:
            json.dump(self.world.kg_records, fh)
        write_traces(self.traces, str(self.work_dir / "traces.jsonl"))
        for i, traces in enumerate(self.trace_files):
            write_traces(traces, str(self.work_dir / f"traces-{i:02d}.jsonl"))

    # -- rounds ----------------------------------------------------------------

    def round(self, tracer: Tracer | None = None) -> Round:
        # start every round from the same heap, without the previous round's garbage
        gc.collect()
        self.tracer = tracer
        # traced rounds give per-layer times, not step times: no probes
        self.clock = Clock(probing=tracer is None)
        one_round = self._cli_round if self.workload.via_cli else self._api_round
        if tracer is None:
            result = one_round()
        else:
            with tracer.patched(targets(self.workload)):
                result = one_round()
            result.trace = tracer.summary()
            tracer.clear()
        check_outcomes(self.ledger, self.trace_ids, result.outcomes)
        if tracer is None:
            result.outcomes = {}  # only traced rounds' outcomes are read again
        self.tracer = None
        self.clock = None
        return result

    def _span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    def _tag(self, tag: str) -> None:
        if self.tracer is not None:
            self.tracer.tag = tag

    def _factory(self, strategy: str):
        """Scripted generators, built the way the CLI builds them."""
        config = self.configs[strategy]
        if strategy == "open_book":
            return FinalQueryGenerator
        if strategy == "fixed_interval":
            return lambda trace: ScriptedQueryGenerator(trace, config.block_ms)
        ctx = SimilarityContext(index=self.backends.index, compare_k=config.reflect_top_k,
                                retrieve_k=config.top_docs, ordered=False)
        # similarity_f is looked up at call time so a traced run can wrap it
        return lambda trace: StreamingScriptedGenerator(
            trace, config.block_ms, lambda cur, prev: similarity_f(cur, prev, ctx)
        )

    def _api_round(self) -> Round:
        clock = self.clock
        outcomes: dict[str, list] = {}
        with self._span("bench"):
            started = time.perf_counter()
            for strategy in STRATEGIES:
                self._tag(strategy)
                factory = self._factory(strategy)
                outcomes[strategy], errors = [], []
                # one batch per session, so that each session is a short
                # step timed on its own
                for trace in self.traces:
                    with clock.step(f"{strategy} {trace.utterance_id}"):
                        found, failed = run_batch([trace], self.configs[strategy], factory,
                                                  self.backends, self.latency)
                    outcomes[strategy] += found
                    errors += failed
                self._count_errors(strategy, errors)
            self._tag("report")
            with clock.step("report"):
                table = aggregate_latency([o for found in outcomes.values() for o in found])
                saving = {s: savings_report(outcomes["open_book"], outcomes[s], SavingsBasis.MEAN)
                          for s in STREAMING}
            self._tag("label")
            ctx = SimilarityContext(index=self.backends.index)
            steps = []
            for trace in self.traces:
                with clock.step(f"label {trace.utterance_id}"):
                    steps += assign_streaming_labels(trace, BLOCK_MS, ctx)
            with clock.step("label"):
                labeled = inject_negative_samples(steps, NEGATIVE_PROB, self.seed,
                                                  build_negative_pool(steps))
                training = self.work_dir / "training.jsonl"
                export_training_set(labeled, str(training))
            wall = time.perf_counter() - started - clock.probe_s
        self._tag("")

        events = {
            s: [{"utterance_id": o.utterance_id, **e.to_dict()} for o in found for e in o.event_log]
            for s, found in outcomes.items()
        } if self.tracer is not None else {}
        records = [o.to_dict(include_events=True) for found in outcomes.values() for o in found]
        return Round(
            wall_s=wall,
            seconds=clock.seconds,
            probes=clock.probes,
            label_steps=len(labeled),
            sim={
                **{f"sim_saving_pct.{s}": saving[s].mean_savings_pct for s in STREAMING},
                "sim_first_token_s.p90.model_triggered":
                    table.get("model_triggered", "p90")["total"],
            },
            outcomes=outcomes,
            events=events,
            digest=digest(records, self.work_dir, [training]),
        )

    def _count_errors(self, strategy: str, errors: list[tuple[str, str]]) -> None:
        failed = {uid for uid, _ in errors}
        for uid in self.trace_ids:
            self.ledger.check(uid not in failed, f"{strategy} {uid}: session raised")

    def _invoke(self, command: str, *args: str) -> None:
        with self._span(f"cli.{command}"):
            result = self.runner.invoke(cli_module.cli, [command, *args])
        self.ledger.check(
            result.exit_code == 0,
            f"streamrag {command} exited {result.exit_code}: {result.output[-500:]!r} "
            f"{result.exception!r}",
        )

    def _cli_round(self) -> Round:
        """The CLI path: ``simulate`` of each strategy and ``report`` of each
        streaming strategy once per trace file, and ``label`` once over all
        traces. Each command is a step timed on its own, and a short one, so
        that the host's speed seldom changes while it runs and the probes
        on either side of it describe it."""
        work = self.work_dir
        corpus = ["--corpus", str(work / "corpus.jsonl")]
        seed = str(self.seed)
        files = [f"{i:02d}" for i in range(len(self.trace_files))]
        clock = self.clock

        def step(name: str, command: str, *args: str) -> None:
            with clock.step(name):
                self._invoke(command, *args)

        with self._span("bench"):
            started = time.perf_counter()
            for strategy in STRATEGIES:
                self._tag(strategy)
                for f in files:
                    step(f"{strategy} {f}", "simulate", "--traces", str(work / f"traces-{f}.jsonl"),
                         *corpus, "--kg", str(work / "kg.json"), "--strategy", strategy,
                         "--block-ms", str(BLOCK_MS), "--seed", seed,
                         "--out-dir", str(work / strategy / f))
            self._tag("label")
            step("label", "label", "--traces", str(work / "traces.jsonl"), *corpus,
                 "--block-ms", str(BLOCK_MS), "--negative-prob", str(NEGATIVE_PROB),
                 "--seed", seed, "--out-dir", str(work / "label"))
            self._tag("report")
            for strategy in STREAMING:
                for f in files:
                    step(f"report {strategy} {f}", "report",
                         "--baseline", str(work / "open_book" / f / "outcomes.jsonl"),
                         "--strategy", str(work / strategy / f / "outcomes.jsonl"),
                         "--seed", seed, "--out-dir", str(work / f"report-{strategy}" / f))
            wall = time.perf_counter() - started - clock.probe_s
        self._tag("")

        def rows(strategy: str, name: str) -> list[dict]:
            return [row for f in files for row in _jsonl(work / strategy / f / name)]

        outcomes = {s: [outcome_from_dict(r) for r in rows(s, "outcomes.jsonl")]
                    for s in STRATEGIES}
        events = ({s: rows(s, "events.jsonl") for s in STRATEGIES}
                  if self.tracer is not None else {})
        summary = json.loads((work / "label" / "summary.json").read_text(encoding="utf-8"))
        # over all traces: the reports above cover one trace file each
        table = aggregate_latency(outcomes["model_triggered"])
        sim = {f"sim_saving_pct.{s}": savings_report(outcomes["open_book"], outcomes[s],
                                                     SavingsBasis.MEAN).mean_savings_pct
               for s in STREAMING}
        sim["sim_first_token_s.p90.model_triggered"] = table.get("model_triggered", "p90")["total"]
        outputs = sorted(p for d in (*STRATEGIES, "label", *(f"report-{s}" for s in STREAMING))
                         for p in (work / d).rglob("*") if p.is_file())
        return Round(
            wall_s=wall,
            seconds=clock.seconds,
            probes=clock.probes,
            label_steps=int(summary["steps"]),
            sim=sim,
            outcomes=outcomes,
            events=events,
            digest=digest([], work, outputs),
        )


def _jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]
