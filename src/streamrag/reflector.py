"""Query equivalence, sufficiency of intermediate tool calls, and cancellation.

Once the utterance is complete, the session knows the final query per tool.
An intermediate call is sufficient when it would have produced the same
results as the final call: for web queries, the leading ``compare_k`` ranked
document ids match; for KG queries, the store returns the same answer. The
earliest sufficient block wins and every still-pending call after it is
cancelled. A failed call is never sufficient.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .core import BlockIndex, SessionConfig, Tool, ToolQuery
from .errors import WrongToolError
from .retrieval import DocIndex, KgStore, WebResult, kg_lookup, top_docs_match

REASON_IDENTICAL_QUERY = "identical_query"
REASON_TOP5_MATCH = "top5_match"
REASON_KG_RESULT_MATCH = "kg_result_match"
REASON_INSUFFICIENT = "insufficient"


class CallStatus(str, Enum):
    PENDING = "pending"
    DONE = "done"
    CANCELLED = "cancelled"
    FAILED = "failed"


@dataclass
class ToolCall:
    """One tool call of a session: its query, simulated timing and outcome.

    A query that never materialised is recorded as a call with ``NO_QUERY``,
    status FAILED and zero timings. The result is computed when the call is
    spawned; it counts only once the status is DONE.
    """

    tool: Tool
    block: BlockIndex
    query: ToolQuery
    started_ms: int = 0
    query_gen_ms: int = 0
    tool_ms: int = 0
    status: CallStatus = CallStatus.PENDING
    result: WebResult | str | None = None
    error: str | None = None

    @property
    def finishes_ms(self) -> int:
        return self.started_ms + self.query_gen_ms + self.tool_ms


@dataclass
class QueryCache:
    """Per-tool, block-ordered record of every tool call in a session."""

    web: list[ToolCall] = field(default_factory=list)
    kg: list[ToolCall] = field(default_factory=list)

    def calls(self, tool: Tool) -> list[ToolCall]:
        return self.web if tool is Tool.WEB else self.kg

    def add(self, call: ToolCall) -> None:
        calls = self.calls(call.tool)
        if calls and calls[-1].block >= call.block:
            raise ValueError(f"cache blocks must strictly increase per tool ({call.tool.value})")
        calls.append(call)


@dataclass(frozen=True)
class SimilarityContext:
    """Backends and comparison knobs for the query-equivalence check.

    ``ordered`` picks list vs set comparison of the top ``compare_k`` doc ids.
    Without ``kg_store``, kg queries are equivalent only when their canonical
    keys are equal; with it, also when the store gives both the same answer.
    """

    index: DocIndex
    compare_k: int = 5
    retrieve_k: int = 50
    ordered: bool = False
    kg_store: KgStore | None = None

    @classmethod
    def from_config(cls, index: DocIndex, config: SessionConfig,
                    kg_store: KgStore | None = None) -> SimilarityContext:
        """The check a session with ``config`` makes."""
        return cls(index=index, compare_k=config.reflect_top_k, retrieve_k=config.top_docs,
                   ordered=config.reflect_ordered, kg_store=kg_store)


def reflect_with_reason(
    intermediate: ToolQuery, final: ToolQuery, ctx: SimilarityContext
) -> tuple[bool, str]:
    """Would the intermediate query's results stand in for the final ones?

    Returns the verdict and the name of the reason for it.
    """
    if intermediate.is_no_query or final.is_no_query:
        return False, REASON_INSUFFICIENT
    if intermediate.tool != final.tool:
        raise WrongToolError(
            f"cannot compare a {intermediate.tool} query against a {final.tool} query"
        )
    if intermediate.tool is Tool.WEB:
        if intermediate.web_text == final.web_text:
            return True, REASON_IDENTICAL_QUERY
        if top_docs_match(
            ctx.index, intermediate, final, ctx.compare_k, ctx.retrieve_k, ctx.ordered
        ):
            return True, REASON_TOP5_MATCH
        return False, REASON_INSUFFICIENT
    # KG: compare lookup results, not query text
    if intermediate.kg_query.canonical_key() == final.kg_query.canonical_key():
        return True, REASON_IDENTICAL_QUERY
    if ctx.kg_store is not None and (
        kg_lookup(ctx.kg_store, intermediate) == kg_lookup(ctx.kg_store, final)
    ):
        return True, REASON_KG_RESULT_MATCH
    return False, REASON_INSUFFICIENT


def select_earliest_joint(
    cache: QueryCache, final_web: ToolQuery, final_kg: ToolQuery, ctx: SimilarityContext
) -> tuple[BlockIndex | None, list[dict]]:
    """Earliest block at which BOTH tools' intermediate calls are sufficient.

    The session uses one cut point for cancellation and reference assembly,
    so a block qualifies only when its web and kg calls both pass. Returns
    the block (None if none qualifies) plus one reason record per scanned
    block for the event log.
    """
    web_by_block = {e.block: e for e in cache.web}
    kg_by_block = {e.block: e for e in cache.kg}
    blocks = sorted(set(web_by_block) | set(kg_by_block))
    if not blocks:
        return None, []
    final_block = blocks[-1]
    scan_log: list[dict] = []
    selected: BlockIndex | None = None
    for block in blocks:
        if block >= final_block:
            break

        def check(call: ToolCall | None, final: ToolQuery) -> tuple[bool, str]:
            if call is None or call.status in (CallStatus.FAILED, CallStatus.CANCELLED):
                return False, REASON_INSUFFICIENT
            return reflect_with_reason(call.query, final, ctx)

        web_ok, web_reason = check(web_by_block.get(block), final_web)
        kg_ok, kg_reason = check(kg_by_block.get(block), final_kg)
        sufficient = web_ok and kg_ok
        scan_log.append(
            {"block": block, "web": web_reason, "kg": kg_reason, "sufficient": sufficient}
        )
        if sufficient:
            selected = block
            break
    return selected, scan_log


def cancel_after(cache: QueryCache, selected_block: BlockIndex) -> list[ToolCall]:
    """The still-pending calls after the selected block: the ones to cancel.

    Web calls come first, then kg calls, each in block order. Completed calls
    keep their results (they are simply unused). The cache is not changed;
    the session cancels each call it is given.
    """
    return [
        call
        for tool in (Tool.WEB, Tool.KG)
        for call in cache.calls(tool)
        if call.block > selected_block and call.status is CallStatus.PENDING
    ]
