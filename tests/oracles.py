"""Independent brute-force oracles used to freeze expected test values.

These reimplement contracts directly from their definitions, sharing no code
with the library paths they check.
"""

from __future__ import annotations

import heapq
import math
import random
import string
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Any

from streamrag.core import NO_QUERY, Strategy, Tool, blocks_of
from streamrag.errors import SimulatedFault
from streamrag.orchestrator import LatencyBreakdown, SessionOutcome, substream_rng
from streamrag.reflector import (
    CallStatus,
    SimilarityContext,
    ToolCall,
    cancel_after,
    select_earliest_joint,
)
from streamrag.retrieval import (
    ReferenceBundle,
    assemble_references,
    chunk_and_rerank,
    kg_lookup,
    web_search,
)
from streamrag.triggers import fixed_interval_step, model_trigger_step

_PUNCT = str.maketrans({c: " " for c in string.punctuation})


def oracle_tokens(text: str) -> list[str]:
    return text.lower().translate(_PUNCT).split()


def oracle_rank_docs(corpus: list[dict], query: str) -> list[tuple[str, float]]:
    """Exhaustive tf-idf cosine ranking computed from raw corpus records."""
    n = len(corpus)
    df: dict[str, int] = {}
    doc_counts = []
    for record in corpus:
        counts: dict[str, int] = {}
        for token in oracle_tokens(record["text"]):
            counts[token] = counts.get(token, 0) + 1
        doc_counts.append(counts)
        for token in counts:
            df[token] = df.get(token, 0) + 1

    def idf(token: str) -> float:
        return math.log((1.0 + n) / (1.0 + df.get(token, 0))) + 1.0

    q_counts: dict[str, int] = {}
    for token in oracle_tokens(query):
        q_counts[token] = q_counts.get(token, 0) + 1
    q_weights = {t: c * idf(t) for t, c in q_counts.items()}
    q_norm = math.sqrt(sum(w * w for w in q_weights.values()))

    scored = []
    for record, counts in zip(corpus, doc_counts):
        weights = {t: c * idf(t) for t, c in counts.items()}
        norm = math.sqrt(sum(w * w for w in weights.values()))
        dot = sum(q_weights[t] * weights[t] for t in q_weights if t in weights)
        score = dot / (norm * q_norm) if dot and norm and q_norm else 0.0
        scored.append((record["doc_id"], score))
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored


def oracle_top_ids(corpus: list[dict], query: str, k: int) -> list[str]:
    return [doc_id for doc_id, _ in oracle_rank_docs(corpus, query)[:k]]


class OracleDenseIndex:
    """Reference scorer: the dense-query walk over doc-major CSR rows.

    Built from raw ``{doc_id, text}`` records. Every document row is walked
    in full against a vocabulary-sized query vector, summing products in
    ascending term id, and the whole corpus is sorted by ``(-score, doc_id)``.
    A search that visits only the query's postings must reproduce these
    scores bit for bit.
    """

    def __init__(self, corpus: list[dict]) -> None:
        self.doc_ids = [record["doc_id"] for record in corpus]
        self.vocab: dict[str, int] = {}
        doc_counts = []
        df: list[int] = []
        for record in corpus:
            counts: dict[int, int] = {}
            for token in oracle_tokens(record["text"]):
                tid = self.vocab.setdefault(token, len(self.vocab))
                counts[tid] = counts.get(tid, 0) + 1
            doc_counts.append(counts)
            df.extend([0] * (len(self.vocab) - len(df)))
            for tid in counts:
                df[tid] += 1
        n = len(corpus)
        self.idf = [math.log((1.0 + n) / (1.0 + f)) + 1.0 for f in df]
        self.default_idf = math.log((1.0 + n) / 1.0) + 1.0

        self.offsets = [0]
        self.tids: list[int] = []
        self.counts: list[int] = []
        self.weights: list[float] = []
        self.norms: list[float] = []
        for counts in doc_counts:
            sq = 0.0
            for tid in sorted(counts):
                w = counts[tid] * self.idf[tid]
                self.tids.append(tid)
                self.counts.append(counts[tid])
                self.weights.append(w)
                sq += w * w
            self.offsets.append(len(self.tids))
            self.norms.append(math.sqrt(sq))

    def postings(self) -> tuple[list[list[int]], list[list[int]]]:
        """Per term, the documents whose rows hold it, ascending, and its
        count in each: the rows read column by column."""
        docs: list[list[int]] = [[] for _ in self.vocab]
        counts: list[list[int]] = [[] for _ in self.vocab]
        for d in range(len(self.norms)):
            for j in range(self.offsets[d], self.offsets[d + 1]):
                docs[self.tids[j]].append(d)
                counts[self.tids[j]].append(self.counts[j])
        return docs, counts

    def query_vector(self, query: str) -> tuple[list[float], float]:
        counts: dict[str, int] = {}
        for token in oracle_tokens(query):
            counts[token] = counts.get(token, 0) + 1
        qvec = [0.0] * len(self.vocab)
        sq = 0.0
        for token in sorted(counts):
            tid = self.vocab.get(token)
            w = counts[token] * (self.idf[tid] if tid is not None else self.default_idf)
            sq += w * w
            if tid is not None:
                qvec[tid] = w
        return qvec, math.sqrt(sq)

    @staticmethod
    def _walk(offsets, tids, weights, norms, qvec, qnorm) -> list[float]:
        scores = [0.0] * (len(offsets) - 1)
        if qnorm == 0.0:
            return scores
        for d in range(len(scores)):
            dot = 0.0
            for j in range(offsets[d], offsets[d + 1]):
                dot += qvec[tids[j]] * weights[j]
            if dot != 0.0:
                scores[d] = dot / (norms[d] * qnorm)
        return scores

    def scores(self, query: str) -> list[float]:
        """Cosine score of every document, in index order."""
        qvec, qnorm = self.query_vector(query)
        return self._walk(self.offsets, self.tids, self.weights, self.norms, qvec, qnorm)

    def ranking(self, query: str) -> list[tuple[str, float]]:
        """Every document as (doc_id, score), sorted by (-score, doc_id)."""
        scored = zip(self.doc_ids, self.scores(query))
        return sorted(scored, key=lambda pair: (-pair[1], pair[0]))

    def score_texts(self, query: str, texts: list[str]) -> list[float]:
        """Texts scored as extra CSR rows; their out-of-vocabulary tokens add
        to the row norm at the unseen-term idf."""
        offsets, tids, weights, norms = [0], [], [], []
        for text in texts:
            counts: dict[int, int] = {}
            sq = 0.0
            for token in oracle_tokens(text):
                tid = self.vocab.get(token)
                if tid is None:
                    sq += self.default_idf * self.default_idf
                else:
                    counts[tid] = counts.get(tid, 0) + 1
            for tid in sorted(counts):
                w = counts[tid] * self.idf[tid]
                tids.append(tid)
                weights.append(w)
                sq += w * w
            offsets.append(len(tids))
            norms.append(math.sqrt(sq))
        qvec, qnorm = self.query_vector(query)
        return self._walk(offsets, tids, weights, norms, qvec, qnorm)


def oracle_docs_with_phrase(corpus: list[dict], phrase: str) -> list[str]:
    """Linear scan for substring containment."""
    return [record["doc_id"] for record in corpus if phrase in record["text"]]


def oracle_greedy_fill(
    chunks: list[str], kg_answer: str | None, budget: int, ratio: tuple[int, int]
) -> tuple[list[str], list[str], int]:
    """Reference assembly by the stated greedy rule."""
    web_share, kg_share = ratio
    kg_budget = budget * kg_share // (web_share + kg_share) if (web_share + kg_share) else 0
    kg_out: list[str] = []
    used = 0
    if kg_answer is not None and len(kg_answer.split()) <= kg_budget:
        kg_out.append(kg_answer)
        used = len(kg_answer.split())
    web_out: list[str] = []
    remaining = budget - used
    for chunk in chunks:
        if remaining <= 0:
            break
        n = len(chunk.split())
        if n <= remaining:
            web_out.append(chunk)
            remaining -= n
        else:
            web_out.append(" ".join(chunk.split()[:remaining]))
            remaining = 0
            break
    total = sum(len(t.split()) for t in kg_out) + sum(len(t.split()) for t in web_out)
    return web_out, kg_out, total


def oracle_bundle_tokens(bundle: ReferenceBundle) -> int:
    """A bundle's tokens recounted from its texts, as ``assemble_references``
    once counted them."""
    return (sum(len(t.split()) for t in bundle.kg_answers)
            + sum(len(t.split()) for t in bundle.web_chunks))


def oracle_binomial_999_interval(n: int, p: float) -> tuple[int, int]:
    """Central 99.9% interval of Binomial(n, p) by direct pmf summation."""
    # cumulative pmf via logs to avoid overflow
    log_fact = [0.0] * (n + 1)
    for i in range(1, n + 1):
        log_fact[i] = log_fact[i - 1] + math.log(i)

    def pmf(k: int) -> float:
        log_c = log_fact[n] - log_fact[k] - log_fact[n - k]
        return math.exp(log_c + k * math.log(p) + (n - k) * math.log(1 - p))

    lo = 0
    acc = 0.0
    while acc + pmf(lo) < 0.0005:
        acc += pmf(lo)
        lo += 1
    hi = n
    acc = 0.0
    while acc + pmf(hi) < 0.0005:
        acc += pmf(hi)
        hi -= 1
    return lo, hi


def step_to_dict(step) -> dict:
    """A training step as a record, as ``export_training_set`` writes it:
    ``json.dumps`` of this dict is the step's line."""
    out = {
        "utterance_id": step.utterance_id,
        "block": step.block,
        "tool": step.tool.value,
        "prefix_text": step.prefix,
        "prev_query": step.training_prev.to_wire(),
        "label": step.label.to_wire(),
        "pseudo_gt": step.pseudo_gt.to_wire(),
        "is_negative_sample": step.is_negative_sample,
    }
    if step.is_negative_sample:
        out["original_prev"] = step.prev_query.to_wire()
    return out



def event_rows(outcomes) -> list[dict]:
    """Each event of each outcome as its ``events.jsonl`` record, as
    ``simulate`` writes it: ``json.dumps`` of each row is its line."""
    return [{"utterance_id": outcome.utterance_id, **event.to_dict()}
            for outcome in outcomes for event in outcome.event_log]


# --- reference session engine ----------------------------------------------
#
# The session engine as it ran on a general discrete-event clock: every block
# and every call's completion is a callable on a heap ordered by (time,
# insertion order), and the log is written as the heap is pumped. A session
# computed as one timeline must reproduce its outcome and event log exactly,
# errors included.

@dataclass(order=True)
class _Scheduled:
    fire_at_ms: int
    seq: int
    event: Any = field(compare=False)


class OracleClock:
    """Events fire in nondecreasing time; ties break by insertion order."""

    def __init__(self) -> None:
        self.now_ms = 0
        self._queue: list[_Scheduled] = []
        self._next_seq = 0

    def schedule(self, fire_at_ms: int, event: Any) -> None:
        if fire_at_ms < self.now_ms:
            raise ValueError("cannot schedule in the past")
        heapq.heappush(self._queue, _Scheduled(fire_at_ms, self._next_seq, event))
        self._next_seq += 1

    def pump_until(self, until_ms: int) -> None:
        """Run every due event in time order, then land on until_ms."""
        while self._queue and self._queue[0].fire_at_ms <= until_ms:
            item = heapq.heappop(self._queue)
            self.now_ms = max(self.now_ms, item.fire_at_ms)
            item.event()
        self.now_ms = until_ms


@dataclass(frozen=True)
class _OracleEvent:
    t_ms: int
    type: str
    tool: str | None = None
    block: int | None = None
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


def _sample(latency, stage: str, rng: random.Random) -> int:
    spec = getattr(latency, stage)
    if isinstance(spec, int):
        return spec
    return spec[rng.randrange(len(spec))]


class _OracleSession:
    def __init__(self, trace, config, gen, backends, latency) -> None:
        self.trace = trace
        self.config = config
        self.gen = gen
        self.backends = backends
        self.latency = latency
        self.rng = substream_rng(config.rng_seed, latency.seed, trace.utterance_id)
        self.clock = OracleClock()
        self.events: list[_OracleEvent] = []
        self.calls = {Tool.WEB: [], Tool.KG: []}
        self.max_parallel = 0
        self.selected_block: int | None = None
        self.utterance_end_ms = trace.end_ms + config.endpoint_delay_ms

    def log(self, type_, tool=None, block=None, detail=None) -> None:
        self.events.append(_OracleEvent(self.clock.now_ms, type_,
                                        tool.value if tool else None, block, detail))

    def spawn_thread(self, tool, block, query) -> None:
        query_gen_ms = _sample(self.latency, "query_gen", self.rng)
        if tool is Tool.WEB:
            tool_ms = (_sample(self.latency, "web_fetch", self.rng)
                       + _sample(self.latency, "chunk_rerank", self.rng))
        else:
            tool_ms = _sample(self.latency, "kg_lookup", self.rng)
        call = ToolCall(tool=tool, block=block, query=query, started_ms=self.clock.now_ms,
                        query_gen_ms=query_gen_ms, tool_ms=tool_ms)
        try:
            if tool is Tool.WEB:
                call.result = web_search(self.backends.index, query, self.config.top_docs)
            else:
                call.result = kg_lookup(self.backends.kg_store, query)
        except SimulatedFault as exc:
            call.error = str(exc)
        self.calls[tool].append(call)
        pending = sum(c.status is CallStatus.PENDING for c in self.calls[tool])
        self.max_parallel = max(self.max_parallel, pending)
        self.clock.schedule(call.finishes_ms, partial(self.finish_thread, call))
        self.log("query_fired", tool, block, {"query": query.to_wire()})

    def cancel_thread(self, call) -> None:
        if call.status is not CallStatus.PENDING:
            return
        call.status = CallStatus.CANCELLED
        call.result = None
        self.log("thread_cancelled", call.tool, call.block)

    def finish_thread(self, call) -> None:
        if call.status is not CallStatus.PENDING:
            return
        if call.error is not None:
            call.status = CallStatus.FAILED
            self.log("thread_done", call.tool, call.block,
                     {"status": "failed", "error": call.error})
        else:
            call.status = CallStatus.DONE
            self.log("thread_done", call.tool, call.block, {"status": "done"})

    def latest_thread(self, tool):
        calls = self.calls[tool]
        return calls[-1] if calls else None

    def thread_at(self, tool, block):
        for call in self.calls[tool]:
            if call.block == block:
                return call
        return None

    def prev_query(self, tool):
        for call in reversed(self.calls[tool]):
            if not call.query.is_no_query:
                return call.query
        return NO_QUERY

    def on_block(self, block, prefix) -> None:
        self.log("block_ingested", block=block, detail={"prefix": prefix})
        if self.config.strategy is Strategy.FIXED_INTERVAL:
            queries = fixed_interval_step(self.gen, prefix, block)
        else:
            queries = model_trigger_step(self.gen, prefix, self.prev_query(Tool.WEB),
                                         self.prev_query(Tool.KG), block)
        self.apply_queries(queries, block)

    def apply_queries(self, queries, block) -> None:
        triggered = self.config.strategy is Strategy.MODEL_TRIGGERED
        for tool in (Tool.WEB, Tool.KG):
            query = queries.for_tool(tool)
            if not query.is_no_query:
                if triggered and (running := self.latest_thread(tool)) is not None:
                    self.cancel_thread(running)
                self.spawn_thread(tool, block, query)
            elif triggered:
                self.log("no_query", tool, block)
            else:
                self.calls[tool].append(ToolCall(tool, block, NO_QUERY,
                                                 started_ms=self.clock.now_ms,
                                                 status=CallStatus.FAILED))
                self.log("thread_done", tool, block,
                         {"status": "failed", "error": "query generation failed"})


def oracle_run_session(trace, config, gen, backends, latency) -> SessionOutcome:
    """Simulate one utterance by pumping a heap of timed callables."""
    strategy = config.strategy
    session = _OracleSession(trace, config, gen, backends, latency)
    if gen is None and strategy is not Strategy.CLOSED_BOOK:
        raise ValueError(f"strategy {strategy.value} needs a query generator")
    utterance_end = session.utterance_end_ms
    clock = session.clock

    if strategy in (Strategy.FIXED_INTERVAL, Strategy.MODEL_TRIGGERED):
        blocks = blocks_of(trace, config.block_ms)
        for block, prefix in blocks:
            fire_at = block * config.block_ms if block < len(blocks) else trace.end_ms
            clock.schedule(fire_at, partial(session.on_block, block, prefix))
    clock.pump_until(utterance_end)

    if strategy is Strategy.OPEN_BOOK:
        session.apply_queries(fixed_interval_step(session.gen, trace.transcript(), 1), 1)
    web_calls, kg_calls = session.calls[Tool.WEB], session.calls[Tool.KG]
    calls = web_calls + kg_calls

    rerank_text = None
    if strategy is Strategy.FIXED_INTERVAL:
        final_web = session.prev_query(Tool.WEB)
        final_kg = session.prev_query(Tool.KG)
        ctx = SimilarityContext(index=backends.index, compare_k=config.reflect_top_k,
                                retrieve_k=config.top_docs, ordered=config.reflect_ordered,
                                kg_store=backends.kg_store)
        selected, scan_log = select_earliest_joint(web_calls, kg_calls, final_web, final_kg,
                                                   ctx)
        for record in scan_log:
            session.log("reflected", block=record["block"], detail=record)
        session.log("reflected", detail={"selected_block": selected})
        last_block = max((call.block for call in calls), default=0)
        effective = selected if selected is not None else last_block
        for call in cancel_after(calls, effective):
            session.cancel_thread(call)
        session.selected_block = selected
        web_call = session.thread_at(Tool.WEB, effective)
        kg_call = session.thread_at(Tool.KG, effective)
        rerank_text = final_web.web_text
    else:
        web_call = session.latest_thread(Tool.WEB)
        kg_call = session.latest_thread(Tool.KG)

    awaited = [call for call in (web_call, kg_call)
               if call is not None and call.status is not CallStatus.CANCELLED]
    ready_ms = max([utterance_end] + [call.finishes_ms for call in awaited])
    clock.pump_until(ready_ms)

    web_result = None
    kg_answer = None
    if web_call is not None and web_call.status is CallStatus.DONE:
        web_result = web_call.result
    if kg_call is not None and kg_call.status is CallStatus.DONE:
        kg_answer = kg_call.result

    references = ReferenceBundle((), (), 0)
    if web_result is not None or kg_answer is not None:
        chunked = ()
        if web_result is not None:
            trimmed = replace(web_result,
                              ranked_doc_ids=web_result.ranked_doc_ids[: config.reflect_top_k],
                              doc_scores=web_result.doc_scores[: config.reflect_top_k])
            chunked = chunk_and_rerank(backends.index, trimmed,
                                       rerank_text or web_result.query_text, config.chunk_tokens)
        references = assemble_references(chunked, kg_answer, config.ref_length_tokens,
                                         config.web_kg_ratio)

    degraded = (strategy is not Strategy.CLOSED_BOOK
                and web_result is None and kg_answer is None)
    session.log("references_ready", detail={"total_tokens": references.total_tokens})

    response_gen_ms = _sample(latency, "response_gen", session.rng)
    response_tail_ms = _sample(latency, "response_tail", session.rng)
    first_token_abs = ready_ms + response_gen_ms
    last_token_abs = first_token_abs + response_tail_ms
    clock.schedule(first_token_abs, partial(session.log, "first_token"))
    clock.schedule(last_token_abs, partial(session.log, "last_token"))
    clock.pump_until(max([last_token_abs] + [call.finishes_ms for call in calls]))

    query_gen_charge = max((call.query_gen_ms for call in awaited), default=0)
    first_token_ms = first_token_abs - utterance_end
    return SessionOutcome(
        utterance_id=trace.utterance_id,
        strategy=strategy,
        event_log=session.events,
        selected_block=session.selected_block,
        references=references,
        latency=LatencyBreakdown(
            query_gen_ms=query_gen_charge,
            tool_results_ms=max(0, first_token_ms - response_gen_ms - query_gen_charge),
            response_gen_ms=response_gen_ms,
            first_token_ms=first_token_ms,
            last_token_ms=last_token_abs - utterance_end,
        ),
        threads_spawned=sum(not call.query.is_no_query for call in calls),
        threads_cancelled=sum(call.status is CallStatus.CANCELLED for call in calls),
        max_parallel_threads=session.max_parallel,
        degraded=degraded,
        response_text=trace.final_answer_ref,
    )
