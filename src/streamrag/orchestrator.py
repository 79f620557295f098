"""The streaming session engine.

Runs one utterance through a strategy as one timeline in integer
milliseconds: ingests transcript blocks, spawns (and preempts) simulated
tool calls, selects which results feed the response, and records the full
event log plus a first-token latency decomposition.

Every time a session needs is known when its call is spawned. A block fires
at its boundary, the last block when the last word ends. A tool call
finishes at its start plus query-generation time plus tool time (web fetch
and chunk rerank, or KG lookup). Under model_triggered, the tool's next fire
cancels a call that finishes at or after it: a block wins a tie. Under
fixed_interval, the reflector cancels calls at utterance end. So each log
record is appended with a ``(t_ms, seq)`` key and the log is sorted once.
``seq`` orders the records of one millisecond by their cause: the blocks
come first, in block order; every other cause (a spawned call's completion,
utterance end, references_ready, first_token, last_token) takes the next
number as it arises.

Calls for different tools run in parallel, so the session waits on the
slowest one. Response generation starts once the utterance is over and the
awaited results are in; first-token latency is measured from utterance end.
In the reported decomposition, query generation is charged at its full
per-fire cost (even when it overlapped speech) and the tool-results figure
absorbs the overlap credit, so streaming components do not generally sum to
the total.

A backend's ``SimulatedFault`` is a failed call only inside a tool call; one
raised by the reflector's own searches ends the command (exit 3).
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field
from itertools import count
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence

from .core import (
    NO_QUERY,
    BlockIndex,
    ScriptedQueries,
    SessionConfig,
    Strategy,
    Tool,
    ToolQuery,
    UtteranceTrace,
    blocks_of,
    substream_rng,
)
from .errors import SimulatedFault
from .reflector import (
    CallStatus,
    SimilarityContext,
    ToolCall,
    cancel_after,
    select_earliest_joint,
)
from .retrieval import (
    DocIndex,
    KgStore,
    ReferenceBundle,
    WebResult,
    assemble_references,
    chunk_and_rerank,
    kg_lookup,
    web_search,
)
from .triggers import QueryGenerator, fixed_interval_step, model_trigger_step

SCHEMA_VERSION = 1

StageSpec = int | Sequence[int]


def _validate_stage(name: str, spec: StageSpec) -> None:
    values = [spec] if isinstance(spec, int) else list(spec)
    if not values:
        raise ValueError(f"latency stage {name} has no samples")
    if any(v < 0 for v in values):
        raise ValueError(f"latency stage {name} has negative delays")


def _draw(spec: StageSpec, rng: random.Random) -> int:
    return spec if isinstance(spec, int) else rng.choice(spec)


# The latency stages, each a field of LatencyModel.
STAGES = ("query_gen", "web_fetch", "chunk_rerank", "kg_lookup", "response_gen", "response_tail")


@dataclass(frozen=True)
class LatencyModel:
    """Per-stage delays in ms: a constant, or an empirical list sampled uniformly.

    Sampling is deterministic given the seed and draw order; the per-session
    RNG substream is derived from (config seed, this seed, utterance id).
    """

    query_gen: StageSpec = 590
    web_fetch: StageSpec = 2500
    chunk_rerank: StageSpec = 280
    kg_lookup: StageSpec = 200
    response_gen: StageSpec = 2520
    response_tail: StageSpec = 0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in STAGES:
            _validate_stage(name, getattr(self, name))


class LogEvent(NamedTuple):
    t_ms: int
    type: str
    tool: str | None = None
    block: BlockIndex | None = None
    detail: dict | None = None

    def to_dict(self) -> dict:
        out: dict[str, Any] = {"t_ms": self.t_ms, "type": self.type}
        if self.tool is not None:
            out["tool"] = self.tool
        if self.block is not None:
            out["block"] = self.block
        if self.detail is not None:
            out["detail"] = self.detail
        return out


@dataclass
class LatencyBreakdown:
    query_gen_ms: int
    tool_results_ms: int
    response_gen_ms: int
    first_token_ms: int
    last_token_ms: int

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class SessionOutcome:
    utterance_id: str
    strategy: Strategy
    event_log: list[LogEvent] = field(default_factory=list)
    selected_block: BlockIndex | None = None
    references: ReferenceBundle = ReferenceBundle((), (), 0)
    latency: LatencyBreakdown | None = None
    threads_spawned: int = 0
    threads_cancelled: int = 0
    max_parallel_threads: int = 0
    degraded: bool = False
    response_text: str | None = None

    def to_dict(self, include_events: bool = False) -> dict:
        out = {
            "schema_version": SCHEMA_VERSION,
            "utterance_id": self.utterance_id,
            "strategy": self.strategy.value,
            "selected_block": self.selected_block,
            "degraded": self.degraded,
            "threads_spawned": self.threads_spawned,
            "threads_cancelled": self.threads_cancelled,
            "max_parallel_threads": self.max_parallel_threads,
            "latency": self.latency.to_dict() if self.latency else None,
            "references": {
                "web_chunks": list(self.references.web_chunks),
                "kg_answers": list(self.references.kg_answers),
                "total_tokens": self.references.total_tokens,
            },
            "response_text": self.response_text,
        }
        if include_events:
            out["event_log"] = [e.to_dict() for e in self.event_log]
        return out


_DONE = {"status": "done"}


def event_lines(outcomes: Iterable[SessionOutcome]) -> Iterator[str]:
    """The ``events.jsonl`` line of each event of each outcome, in order:
    ``json.dumps`` of the event's ``to_dict()`` with the outcome's
    ``utterance_id`` first, and a newline.

    Each line is built from fragments, byte for byte as ``json.dumps``
    writes it: the id is encoded once per outcome, the times and blocks are
    written as integers, and each distinct ``type`` and ``tool`` is encoded
    once per call. A detail of exactly one key is written from its value:
    a ``query`` that is a string or a map of strings is encoded once per
    distinct query per call, a ``prefix`` on its own, and ``{"status":
    "done"}`` as it stands. Any other detail goes through ``json.dumps``.
    """
    dumps = json.dumps
    names: dict[str, str] = {}
    queries: dict[str | tuple, str] = {}

    def name(text: str) -> str:
        encoded = names.get(text)
        if encoded is None:
            encoded = names[text] = dumps(text)
        return encoded

    def query(wire: Any) -> str:
        # only strings key the memo: 1, True and 1.0 are equal keys that
        # json.dumps writes apart
        if isinstance(wire, str):
            key: str | tuple = wire
        elif isinstance(wire, dict) and all(isinstance(k, str) and isinstance(v, str)
                                            for k, v in wire.items()):
            key = tuple(wire.items())  # json.dumps keeps the map's order
        else:
            return f'{{"query": {dumps(wire)}}}'
        encoded = queries.get(key)
        if encoded is None:
            encoded = queries[key] = f'{{"query": {dumps(wire)}}}'
        return encoded

    for outcome in outcomes:
        head = f'{{"utterance_id": {dumps(outcome.utterance_id)}, "t_ms": '
        for t_ms, type_, tool, block, detail in outcome.event_log:
            line = f'{head}{t_ms:d}, "type": {name(type_)}'
            if tool is not None:
                line += f', "tool": {name(tool)}'
            if block is not None:
                line += f', "block": {block:d}'
            if detail is None:
                yield line + "}\n"
                continue
            if len(detail) != 1:
                encoded = dumps(detail)
            elif detail == _DONE:
                encoded = '{"status": "done"}'
            elif "query" in detail:
                encoded = query(detail["query"])
            elif "prefix" in detail:
                encoded = f'{{"prefix": {dumps(detail["prefix"])}}}'
            else:
                encoded = dumps(detail)
            yield f'{line}, "detail": {encoded}}}\n'


@dataclass(frozen=True)
class Backends:
    index: DocIndex
    kg_store: KgStore


_KEY = itemgetter(0, 1)


class _Session:
    """One run's timeline: the tool calls it spawned and its keyed log.

    ``now`` and ``seq`` are the time and order key of the records being
    logged (see ``at``). The tool calls in ``calls``, per tool in block
    order, are the session's only record of what ran: previous queries,
    pending calls, completions and the reported counts are read from them.
    A call stays PENDING until the session settles it, so whether it is
    still running at ``now`` is read from its finish time.
    """

    def __init__(
        self,
        trace: UtteranceTrace,
        config: SessionConfig,
        gen: QueryGenerator | None,
        backends: Backends,
        latency: LatencyModel,
    ) -> None:
        self.config = config
        self.gen = gen
        self.backends = backends
        self.latency = latency
        self.rng = substream_rng(config.rng_seed, latency.seed, trace.utterance_id)
        self.records: list[tuple[int, int, LogEvent]] = []
        self.calls: dict[Tool, list[ToolCall]] = {Tool.WEB: [], Tool.KG: []}
        self.max_parallel = 0
        self.seqs = count()
        self.now = self.seq = 0

    def at(self, t_ms: int, seq: int | None = None) -> None:
        """Log what follows at ``t_ms``, ordered by ``seq``: by default the
        next free number, which also goes to each call spawned."""
        self.now, self.seq = t_ms, next(self.seqs) if seq is None else seq

    def log(self, type_: str, tool: Tool | None = None, block: BlockIndex | None = None,
            detail: dict | None = None) -> None:
        now = self.now
        self.records.append((now, self.seq, LogEvent(now, type_, tool.value if tool else None,
                                                     block, detail)))

    # -- call lifecycle ------------------------------------------------------

    def spawn(self, tool: Tool, block: BlockIndex, query: ToolQuery) -> None:
        latency, rng, now = self.latency, self.rng, self.now
        query_gen_ms = _draw(latency.query_gen, rng)
        if tool is Tool.WEB:
            tool_ms = _draw(latency.web_fetch, rng) + _draw(latency.chunk_rerank, rng)
        else:
            tool_ms = _draw(latency.kg_lookup, rng)

        call = ToolCall(tool, block, query, now, query_gen_ms, tool_ms, seq=next(self.seqs))
        # Content is computed eagerly and deterministically; the timeline only
        # controls when it counts.
        try:
            if tool is Tool.WEB:
                call.result = web_search(self.backends.index, query, self.config.search_depth)
            else:
                call.result = kg_lookup(self.backends.kg_store, query)
        except SimulatedFault as exc:
            call.error = str(exc)

        calls = self.calls[tool]
        calls.append(call)
        pending = sum(c.status is CallStatus.PENDING and c.finishes_ms >= now for c in calls)
        self.max_parallel = max(self.max_parallel, pending)
        self.log("query_fired", tool, block, {"query": query.to_wire()})

    def cancel(self, call: ToolCall) -> None:
        call.status = CallStatus.CANCELLED
        call.result = None
        self.log("thread_cancelled", call.tool, call.block)

    def settle(self, until_ms: int | None = None) -> None:
        """Mark every uncancelled call that finishes by ``until_ms`` (all of
        them when None) done, or failed when its backend raised."""
        for call in (*self.calls[Tool.WEB], *self.calls[Tool.KG]):
            if call.status is CallStatus.PENDING and (until_ms is None
                                                       or call.finishes_ms <= until_ms):
                call.status = CallStatus.DONE if call.error is None else CallStatus.FAILED

    def latest(self, tool: Tool) -> ToolCall | None:
        calls = self.calls[tool]
        return calls[-1] if calls else None

    def prev_query(self, tool: Tool) -> ToolQuery:
        """The query of the tool's latest call that had one."""
        for call in reversed(self.calls[tool]):
            if not call.query.is_no_query:
                return call.query
        return NO_QUERY

    def event_log(self) -> list[LogEvent]:
        """The log in time order: the completion of each spawned call that was
        not cancelled joins the records, which are then sorted once by key."""
        records = self.records
        for call in (*self.calls[Tool.WEB], *self.calls[Tool.KG]):
            if (seq := call.seq) is not None and call.status is not CallStatus.CANCELLED:
                detail = ({"status": "done"} if call.error is None
                          else {"status": "failed", "error": call.error})
                t_ms = call.finishes_ms
                records.append((t_ms, seq, LogEvent(t_ms, "thread_done", call.tool.value,
                                                    call.block, detail)))
        records.sort(key=_KEY)
        return [record[2] for record in records]

    # -- blocks ----------------------------------------------------------------

    def on_block(self, block: BlockIndex, prefix: str) -> None:
        self.log("block_ingested", block=block, detail={"prefix": prefix})
        if self.config.strategy is Strategy.FIXED_INTERVAL:
            queries = fixed_interval_step(self.gen, prefix, block)
        else:
            queries = model_trigger_step(
                self.gen, prefix, self.prev_query(Tool.WEB), self.prev_query(Tool.KG), block
            )
        self.apply_queries(queries, block)

    def apply_queries(self, queries: ScriptedQueries, block: BlockIndex) -> None:
        """Fire each tool's real query. Under model_triggered a fire first
        cancels the tool's latest call if it has not finished before now, and
        a NO_QUERY keeps it running; under the other strategies a NO_QUERY
        means the query never materialized, and is recorded as a failed call."""
        triggered = self.config.strategy is Strategy.MODEL_TRIGGERED
        for tool in (Tool.WEB, Tool.KG):
            query = queries.for_tool(tool)
            if not query.is_no_query:
                # each fire cancels the call before it, so only the tool's
                # latest call can still be pending
                if (triggered and (running := self.latest(tool)) is not None
                        and running.status is CallStatus.PENDING
                        and running.finishes_ms >= self.now):
                    self.cancel(running)
                self.spawn(tool, block, query)
            elif triggered:
                self.log("no_query", tool, block)
            else:
                self.calls[tool].append(ToolCall(tool, block, NO_QUERY, started_ms=self.now,
                                                 status=CallStatus.FAILED))
                self.log("thread_done", tool, block,
                         {"status": "failed", "error": "query generation failed"})


def run_session(
    trace: UtteranceTrace,
    config: SessionConfig,
    gen: QueryGenerator | None,
    backends: Backends,
    latency: LatencyModel,
) -> SessionOutcome:
    """Simulate one utterance under the configured strategy."""
    strategy = config.strategy
    session = _Session(trace, config, gen, backends, latency)
    utterance_end = trace.end_ms + config.endpoint_delay_ms
    if gen is None and strategy is not Strategy.CLOSED_BOOK:
        raise ValueError(f"strategy {strategy.value} needs a query generator")

    if strategy in (Strategy.FIXED_INTERVAL, Strategy.MODEL_TRIGGERED):
        # interior blocks fire at their boundary, the final block when the
        # last word completes
        blocks = blocks_of(trace, config.block_ms)
        session.seqs = count(len(blocks))
        for block, prefix in blocks:
            session.at(block * config.block_ms if block < len(blocks) else trace.end_ms,
                       block - 1)
            session.on_block(block, prefix)

    # utterance end: calls that finish by now are done before anything here
    session.at(utterance_end)
    if strategy is Strategy.OPEN_BOOK:
        session.apply_queries(fixed_interval_step(session.gen, trace.transcript(), 1), 1)
    web_calls, kg_calls = session.calls[Tool.WEB], session.calls[Tool.KG]
    calls = web_calls + kg_calls  # complete: nothing fires after this

    rerank_text: str | None = None  # None: rerank with the web result's own query
    selected: BlockIndex | None = None
    if strategy is Strategy.FIXED_INTERVAL:
        session.settle(utterance_end)
        final_web, final_kg = session.prev_query(Tool.WEB), session.prev_query(Tool.KG)
        ctx = SimilarityContext.from_config(backends.index, config, backends.kg_store)
        selected, scan_log = select_earliest_joint(web_calls, kg_calls, final_web, final_kg, ctx)
        for record in scan_log:
            session.log("reflected", block=record["block"], detail=record)
        session.log("reflected", detail={"selected_block": selected})
        if selected is not None:  # no call comes after the last block
            for call in cancel_after(calls, selected):
                session.cancel(call)
        rerank_text = final_web.web_text
    if selected is None:
        web_call, kg_call = session.latest(Tool.WEB), session.latest(Tool.KG)
    else:  # fixed_interval makes one call per tool and block, block b's at index b - 1
        web_call, kg_call = web_calls[selected - 1], kg_calls[selected - 1]

    awaited = [call for call in (web_call, kg_call)
               if call is not None and call.status is not CallStatus.CANCELLED]
    ready_ms = max([utterance_end] + [call.finishes_ms for call in awaited])
    # the awaited calls finish by ready_ms; stragglers after it change nothing
    session.settle()

    web_result: WebResult | None = None
    kg_answer: str | None = None
    if web_call is not None and web_call.status is CallStatus.DONE:
        web_result = web_call.result
    if kg_call is not None and kg_call.status is CallStatus.DONE:
        kg_answer = kg_call.result

    references = ReferenceBundle((), (), 0)
    if web_result is not None or kg_answer is not None:
        chunks = [] if web_result is None else chunk_and_rerank(
            backends.index, web_result, rerank_text or web_result.query_text, config.chunk_tokens)
        references = assemble_references(
            chunks, kg_answer, config.ref_length_tokens, config.web_kg_ratio
        )

    tools_expected = strategy is not Strategy.CLOSED_BOOK
    degraded = tools_expected and web_result is None and kg_answer is None

    session.at(ready_ms)
    session.log("references_ready", detail={"total_tokens": references.total_tokens})

    response_gen_ms = _draw(latency.response_gen, session.rng)
    response_tail_ms = _draw(latency.response_tail, session.rng)
    first_token_abs = ready_ms + response_gen_ms
    last_token_abs = first_token_abs + response_tail_ms
    session.at(first_token_abs)
    session.log("first_token")
    session.at(last_token_abs)
    session.log("last_token")

    query_gen_charge = max((call.query_gen_ms for call in awaited), default=0)
    first_token_ms = first_token_abs - utterance_end
    latency_breakdown = LatencyBreakdown(
        query_gen_ms=query_gen_charge,
        tool_results_ms=max(0, first_token_ms - response_gen_ms - query_gen_charge),
        response_gen_ms=response_gen_ms,
        first_token_ms=first_token_ms,
        last_token_ms=last_token_abs - utterance_end,
    )

    return SessionOutcome(
        utterance_id=trace.utterance_id,
        strategy=strategy,
        event_log=session.event_log(),
        selected_block=selected,
        references=references,
        latency=latency_breakdown,
        threads_spawned=sum(call.seq is not None for call in calls),
        threads_cancelled=sum(call.status is CallStatus.CANCELLED for call in calls),
        max_parallel_threads=session.max_parallel,
        degraded=degraded,
        response_text=trace.final_answer_ref,
    )


def outcome_from_dict(raw: dict) -> SessionOutcome:
    """Rebuild an outcome from its exported form (events are not restored),
    one that ``outcome.schema.json`` accepts: no value is converted."""
    refs = raw["references"]
    return SessionOutcome(
        utterance_id=raw["utterance_id"],
        strategy=Strategy(raw["strategy"]),
        selected_block=raw.get("selected_block"),
        references=ReferenceBundle(tuple(refs["web_chunks"]), tuple(refs["kg_answers"]),
                                   refs["total_tokens"]),
        latency=LatencyBreakdown(**raw["latency"]),
        threads_spawned=raw.get("threads_spawned", 0),
        threads_cancelled=raw.get("threads_cancelled", 0),
        max_parallel_threads=raw.get("max_parallel_threads", 0),
        degraded=raw.get("degraded", False),
        response_text=raw.get("response_text"),
    )


GeneratorFactory = Callable[[UtteranceTrace], QueryGenerator | None]


def run_batch(
    traces: Sequence[UtteranceTrace],
    config: SessionConfig,
    gen_factory: GeneratorFactory,
    backends: Backends,
    latency: LatencyModel,
) -> tuple[list[SessionOutcome], list[tuple[str, str]]]:
    """Run many utterances in input order; a session that raises ends the batch.

    Every session draws from an RNG substream keyed by its utterance id, so
    batch order never changes results. The error list returned second is
    always empty; it stays until its callers stop unpacking it.
    """
    if not traces:
        raise ValueError("run_batch needs at least one trace")
    return [run_session(trace, config, gen_factory(trace), backends, latency)
            for trace in traces], []
