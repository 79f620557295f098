"""The streaming session engine.

Runs one utterance through a strategy on a deterministic virtual clock:
ingests transcript blocks, spawns (and preempts) simulated tool-call
threads, selects which results feed the response, and records the full
event log plus a first-token latency decomposition.

Timing model per tool-call thread: query generation runs first, then the
tool itself (web fetch + chunk rerank, or KG lookup). Threads for different
tools run in parallel, so the session waits on the slowest one. Response
generation starts once the utterance is over and the awaited results are in;
first-token latency is measured from utterance end. In the reported
decomposition, query generation is charged at its full per-fire cost (even
when it overlapped speech) and the tool-results figure absorbs the overlap
credit, so streaming components do not generally sum to the total.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Sequence

from .core import (
    NO_QUERY,
    BlockIndex,
    SessionConfig,
    SimClock,
    Strategy,
    Tool,
    ToolQuery,
    UtteranceTrace,
    blocks_of,
)
from .errors import IncompleteSessionError
from .reflector import (
    CallStatus,
    QueryCache,
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
from .triggers import (
    QueryGenerator,
    TriggerAction,
    TriggerDecision,
    fixed_interval_step,
    model_trigger_step,
)

SCHEMA_VERSION = 1

StageSpec = int | Sequence[int]


def _validate_stage(name: str, spec: StageSpec) -> None:
    values = [spec] if isinstance(spec, int) else list(spec)
    if not values:
        raise ValueError(f"latency stage {name} has no samples")
    if any(v < 0 for v in values):
        raise ValueError(f"latency stage {name} has negative delays")


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
        for name in ("query_gen", "web_fetch", "chunk_rerank", "kg_lookup", "response_gen", "response_tail"):
            _validate_stage(name, getattr(self, name))

    def sample(self, stage: str, rng: random.Random) -> int:
        spec = getattr(self, stage)
        if isinstance(spec, int):
            return spec
        return spec[rng.randrange(len(spec))]


def substream_rng(*parts: Any) -> random.Random:
    """Independent deterministic RNG derived from hashable key parts."""
    key = "\x1f".join(str(p) for p in parts).encode("utf-8")
    seed = int.from_bytes(hashlib.sha256(key).digest()[:8], "big")
    return random.Random(seed)


@dataclass(frozen=True)
class LogEvent:
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
        return {
            "query_gen_ms": self.query_gen_ms,
            "tool_results_ms": self.tool_results_ms,
            "response_gen_ms": self.response_gen_ms,
            "first_token_ms": self.first_token_ms,
            "last_token_ms": self.last_token_ms,
        }


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


@dataclass(frozen=True)
class Backends:
    index: DocIndex
    kg_store: KgStore


# clock payloads
@dataclass(frozen=True)
class _BlockDue:
    block: BlockIndex
    prefix: str


@dataclass(frozen=True)
class _ThreadDue:
    call: ToolCall


@dataclass(frozen=True)
class _Marker:
    kind: str
    detail: dict | None = None


class _Session:
    """Mutable state for one run; mutated only by the event loop."""

    def __init__(
        self,
        trace: UtteranceTrace,
        config: SessionConfig,
        gen: QueryGenerator | None,
        backends: Backends,
        latency: LatencyModel,
    ) -> None:
        self.trace = trace
        self.config = config
        self.gen = gen
        self.backends = backends
        self.latency = latency
        self.rng = substream_rng(config.rng_seed, latency.seed, trace.utterance_id)
        self.clock = SimClock()
        self.events: list[LogEvent] = []
        self.cache = QueryCache()  # every tool call, per tool in block order
        self.threads_spawned = 0
        self.prev_fired: dict[Tool, ToolQuery] = {Tool.WEB: NO_QUERY, Tool.KG: NO_QUERY}
        self.pending_count: dict[Tool, int] = {Tool.WEB: 0, Tool.KG: 0}
        self.max_parallel = 0
        self.threads_cancelled = 0
        self.selected_block: BlockIndex | None = None
        self.utterance_end_ms = trace.end_ms + config.endpoint_delay_ms

    # -- event log ---------------------------------------------------------

    def log(self, type_: str, tool: Tool | None = None, block: BlockIndex | None = None,
            detail: dict | None = None, t_ms: int | None = None) -> None:
        self.events.append(
            LogEvent(
                t_ms=self.clock.now_ms if t_ms is None else t_ms,
                type=type_,
                tool=tool.value if tool else None,
                block=block,
                detail=detail,
            )
        )

    # -- thread lifecycle ----------------------------------------------------

    def spawn_thread(self, tool: Tool, block: BlockIndex, query: ToolQuery,
                     declared_latency_ms: int | None) -> ToolCall:
        now = self.clock.now_ms
        query_gen_ms = (
            declared_latency_ms
            if declared_latency_ms is not None
            else self.latency.sample("query_gen", self.rng)
        )
        if tool is Tool.WEB:
            tool_ms = self.latency.sample("web_fetch", self.rng) + self.latency.sample(
                "chunk_rerank", self.rng
            )
        else:
            tool_ms = self.latency.sample("kg_lookup", self.rng)

        call = ToolCall(
            tool=tool, block=block, query=query, started_ms=now,
            query_gen_ms=query_gen_ms, tool_ms=tool_ms,
        )
        # Content is computed eagerly and deterministically; the simulated
        # clock only controls when it becomes visible.
        try:
            if tool is Tool.WEB:
                call.result = web_search(self.backends.index, query, self.config.top_docs)
            else:
                call.result = kg_lookup(self.backends.kg_store, query)
        except Exception as exc:  # noqa: BLE001 - backend failure becomes a failed thread
            call.error = str(exc)

        self.cache.add(call)
        self.threads_spawned += 1
        self.pending_count[tool] += 1
        self.max_parallel = max(self.max_parallel, self.pending_count[tool])
        self.prev_fired[tool] = query
        self.clock.schedule(call.finishes_ms, _ThreadDue(call))
        self.log("query_fired", tool=tool, block=block, detail={"query": query.to_wire()})
        return call

    def cancel_thread(self, call: ToolCall) -> None:
        if call.status is not CallStatus.PENDING:
            return
        call.status = CallStatus.CANCELLED
        call.result = None
        self.pending_count[call.tool] -= 1
        self.threads_cancelled += 1
        self.log("thread_cancelled", tool=call.tool, block=call.block)

    def finish_thread(self, call: ToolCall) -> None:
        if call.status is not CallStatus.PENDING:
            return  # cancelled before completion
        self.pending_count[call.tool] -= 1
        if call.error is not None:
            call.status = CallStatus.FAILED
            self.log("thread_done", tool=call.tool, block=call.block,
                     detail={"status": "failed", "error": call.error})
        else:
            call.status = CallStatus.DONE
            self.log("thread_done", tool=call.tool, block=call.block,
                     detail={"status": "done"})

    def pending_thread(self, tool: Tool) -> ToolCall | None:
        for call in reversed(self.cache.calls(tool)):
            if call.status is CallStatus.PENDING:
                return call
        return None

    def latest_thread(self, tool: Tool) -> ToolCall | None:
        calls = self.cache.calls(tool)
        return calls[-1] if calls else None

    def thread_at(self, tool: Tool, block: BlockIndex) -> ToolCall | None:
        for call in self.cache.calls(tool):
            if call.block == block:
                return call
        return None

    # -- main loop -----------------------------------------------------------

    def pump_until(self, until_ms: int) -> None:
        """Process every due event in time order, then land on until_ms."""
        while True:
            payload = self.clock.pop_due(until_ms)
            if payload is None:
                break
            self.handle(payload)
        self.clock.advance(until_ms)

    def handle(self, payload: Any) -> None:
        if isinstance(payload, _ThreadDue):
            self.finish_thread(payload.call)
        elif isinstance(payload, _BlockDue):
            self.on_block(payload.block, payload.prefix)
        elif isinstance(payload, _Marker):
            self.log(payload.kind, detail=payload.detail)

    def on_block(self, block: BlockIndex, prefix: str) -> None:
        self.log("block_ingested", block=block, detail={"prefix": prefix})
        strategy = self.config.strategy
        if strategy is Strategy.FIXED_INTERVAL:
            decision = fixed_interval_step(self.gen, prefix, block, self.clock.now_ms)
            self.apply_decision(decision, preempt=False)
        elif strategy is Strategy.MODEL_TRIGGERED:
            decision = model_trigger_step(
                self.gen, prefix, self.prev_fired[Tool.WEB], self.prev_fired[Tool.KG],
                block, self.clock.now_ms,
            )
            self.apply_decision(decision, preempt=True)

    def apply_decision(self, decision: TriggerDecision, preempt: bool) -> None:
        for tool in (Tool.WEB, Tool.KG):
            tool_decision = decision.for_tool(tool)
            if tool_decision.action is TriggerAction.FIRE:
                if preempt:
                    running = self.pending_thread(tool)
                    if running is not None:
                        self.cancel_thread(running)
                self.spawn_thread(tool, decision.block, tool_decision.query,
                                  decision.declared_latency_ms)
            elif tool_decision.action is TriggerAction.NO_QUERY:
                self.log("no_query", tool=tool, block=decision.block)
            else:  # FAILED: the query never materialized; record a failed call
                self.cache.add(ToolCall(tool, decision.block, NO_QUERY,
                                        started_ms=self.clock.now_ms, status=CallStatus.FAILED))
                self.log("thread_done", tool=tool, block=decision.block,
                         detail={"status": "failed", "error": "query generation failed"})


def _block_fire_times(trace: UtteranceTrace, block_ms: int) -> list[tuple[BlockIndex, str, int]]:
    """(block, prefix, fire time): interior blocks fire at their boundary, the
    final block when the last word completes."""
    blocks = blocks_of(trace, block_ms)
    last_end = trace.end_ms
    out = []
    for b, prefix in blocks:
        fire_at = b * block_ms if b < len(blocks) else last_end
        out.append((b, prefix, fire_at))
    return out


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
    if gen is None and strategy is not Strategy.CLOSED_BOOK:
        raise ValueError(f"strategy {strategy.value} needs a query generator")

    utterance_end = session.utterance_end_ms

    if strategy in (Strategy.FIXED_INTERVAL, Strategy.MODEL_TRIGGERED):
        for block, prefix, fire_at in _block_fire_times(trace, config.block_ms):
            session.clock.schedule(fire_at, _BlockDue(block, prefix))
    session.pump_until(utterance_end)

    awaited: dict[Tool, ToolCall | None] = {Tool.WEB: None, Tool.KG: None}
    rerank_query: dict[Tool, ToolQuery] = {Tool.WEB: NO_QUERY, Tool.KG: NO_QUERY}

    if strategy is Strategy.OPEN_BOOK:
        final_prefix = trace.transcript()
        decision = fixed_interval_step(session.gen, final_prefix, 1, session.clock.now_ms)
        session.apply_decision(decision, preempt=False)
        awaited[Tool.WEB] = session.latest_thread(Tool.WEB)
        awaited[Tool.KG] = session.latest_thread(Tool.KG)
        rerank_query[Tool.WEB] = decision.web.query

    elif strategy is Strategy.FIXED_INTERVAL:
        final_web = session.prev_fired[Tool.WEB]
        final_kg = session.prev_fired[Tool.KG]
        ctx = SimilarityContext(
            index=backends.index,
            compare_k=config.reflect_top_k,
            retrieve_k=config.top_docs,
            ordered=config.reflect_ordered,
            kg_store=backends.kg_store,
        )
        selected, scan_log = select_earliest_joint(session.cache, final_web, final_kg, ctx)
        for record in scan_log:
            session.log("reflected", block=record["block"], detail=record)
        session.log("reflected", detail={"selected_block": selected})

        blocks_present = sorted({e.block for e in session.cache.web} | {e.block for e in session.cache.kg})
        effective = selected if selected is not None else (blocks_present[-1] if blocks_present else 0)
        for call in cancel_after(session.cache, effective):
            session.cancel_thread(call)
        session.selected_block = selected
        awaited[Tool.WEB] = session.thread_at(Tool.WEB, effective)
        awaited[Tool.KG] = session.thread_at(Tool.KG, effective)
        rerank_query[Tool.WEB] = final_web

    elif strategy is Strategy.MODEL_TRIGGERED:
        awaited[Tool.WEB] = session.latest_thread(Tool.WEB)
        awaited[Tool.KG] = session.latest_thread(Tool.KG)
        if awaited[Tool.WEB] is not None:
            rerank_query[Tool.WEB] = awaited[Tool.WEB].query

    ready_ms = utterance_end
    for call in awaited.values():
        if call is not None and call.status is not CallStatus.CANCELLED:
            ready_ms = max(ready_ms, call.finishes_ms)
    session.pump_until(ready_ms)

    web_result: WebResult | None = None
    kg_answer: str | None = None
    web_call = awaited[Tool.WEB]
    kg_call = awaited[Tool.KG]
    if web_call is not None and web_call.status is CallStatus.DONE:
        web_result = web_call.result
    if kg_call is not None and kg_call.status is CallStatus.DONE:
        kg_answer = kg_call.result

    references = ReferenceBundle((), (), 0)
    if web_result is not None or kg_answer is not None:
        chunked = None
        if web_result is not None:
            query_text = rerank_query[Tool.WEB]
            text = query_text.web_text if query_text.tool is Tool.WEB else web_result.query_text
            trimmed = replace(
                web_result,
                ranked_doc_ids=web_result.ranked_doc_ids[: config.reflect_top_k],
                doc_scores=web_result.doc_scores[: config.reflect_top_k],
            )
            chunked = chunk_and_rerank(backends.index, trimmed, text, config.chunk_tokens)
        references = assemble_references(
            chunked, kg_answer, config.ref_length_tokens, config.web_kg_ratio
        )

    tools_expected = strategy is not Strategy.CLOSED_BOOK
    degraded = tools_expected and web_result is None and kg_answer is None

    session.log("references_ready", detail={"total_tokens": references.total_tokens})

    response_gen_ms = session.latency.sample("response_gen", session.rng)
    response_tail_ms = session.latency.sample("response_tail", session.rng)
    first_token_abs = ready_ms + response_gen_ms
    last_token_abs = first_token_abs + response_tail_ms
    session.clock.schedule(first_token_abs, _Marker("first_token"))
    session.clock.schedule(last_token_abs, _Marker("last_token"))

    # let stragglers (threads before the selected block) run to completion
    session.pump_until(last_token_abs)
    while session.clock.peek_next_ms() is not None:
        session.pump_until(session.clock.peek_next_ms())

    query_gen_charge = 0
    for call in awaited.values():
        if call is not None and call.status is not CallStatus.CANCELLED:
            query_gen_charge = max(query_gen_charge, call.query_gen_ms)

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
        event_log=session.events,
        selected_block=session.selected_block,
        references=references,
        latency=latency_breakdown,
        threads_spawned=session.threads_spawned,
        threads_cancelled=session.threads_cancelled,
        max_parallel_threads=session.max_parallel,
        degraded=degraded,
        response_text=trace.final_answer_ref,
    )


def outcome_from_dict(raw: dict) -> SessionOutcome:
    """Rebuild an outcome from its exported form (events are not restored)."""
    lat = raw.get("latency")
    refs = raw.get("references") or {}
    return SessionOutcome(
        utterance_id=str(raw["utterance_id"]),
        strategy=Strategy(raw["strategy"]),
        selected_block=raw.get("selected_block"),
        references=ReferenceBundle(
            tuple(refs.get("web_chunks", ())),
            tuple(refs.get("kg_answers", ())),
            int(refs.get("total_tokens", 0)),
        ),
        latency=LatencyBreakdown(**lat) if lat else None,
        threads_spawned=int(raw.get("threads_spawned", 0)),
        threads_cancelled=int(raw.get("threads_cancelled", 0)),
        max_parallel_threads=int(raw.get("max_parallel_threads", 0)),
        degraded=bool(raw.get("degraded", False)),
        response_text=raw.get("response_text"),
    )


def first_token_latency(outcome: SessionOutcome) -> dict[str, int]:
    """First-token latency decomposition of a completed session, in ms."""
    if outcome.latency is None:
        raise IncompleteSessionError(f"{outcome.utterance_id}: session has no latency record")
    lat = outcome.latency
    return {
        "query_gen_ms": lat.query_gen_ms,
        "tool_results_ms": lat.tool_results_ms,
        "response_gen_ms": lat.response_gen_ms,
        "total_ms": lat.first_token_ms,
    }


GeneratorFactory = Callable[[UtteranceTrace], QueryGenerator | None]


def run_batch(
    traces: Sequence[UtteranceTrace],
    config: SessionConfig,
    gen_factory: GeneratorFactory,
    backends: Backends,
    latency: LatencyModel,
) -> tuple[list[SessionOutcome], list[tuple[str, str]]]:
    """Run many utterances; per-trace failures are collected, not raised.

    Every session draws from an RNG substream keyed by its utterance id, so
    batch order never changes results. Outcomes keep input order; errors are
    (utterance_id, message) pairs.
    """
    if not traces:
        raise ValueError("run_batch needs at least one trace")
    outcomes: list[SessionOutcome] = []
    errors: list[tuple[str, str]] = []
    for trace in traces:
        try:
            outcomes.append(run_session(trace, config, gen_factory(trace), backends, latency))
        except Exception as exc:  # noqa: BLE001 - collected per the batch contract
            errors.append((trace.utterance_id, str(exc)))
    return outcomes, errors
