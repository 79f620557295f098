"""Query equivalence, sufficiency of intermediate tool calls, and cancellation.

Once the utterance is complete, the session knows the final query per tool.
An intermediate call is sufficient when it would have produced the same
results as the final call: for web queries, the leading ``compare_k`` ranked
document ids match; for KG queries, the store returns the same answer. The
earliest sufficient block wins and every still-pending call after it is
cancelled. A failed call is never sufficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

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
    status FAILED, zero timings and no ``seq``. The result is computed when
    the call is spawned; it counts only once the status is DONE. ``seq``
    orders the call's completion among the session's log records.
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
    seq: int | None = None

    @property
    def finishes_ms(self) -> int:
        return self.started_ms + self.query_gen_ms + self.tool_ms


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
    web_calls: Sequence[ToolCall], kg_calls: Sequence[ToolCall],
    final_web: ToolQuery, final_kg: ToolQuery, ctx: SimilarityContext,
) -> tuple[BlockIndex | None, list[dict]]:
    """Earliest block at which BOTH tools' intermediate calls are sufficient.

    Each list holds one call per block, in block order, the last one the
    final block's, which is not scanned. The session uses one cut point for
    cancellation and reference assembly, so a block qualifies only when its
    web and kg calls both pass. Returns the block (None if none qualifies)
    plus one reason record per scanned block for the event log.
    """

    def check(call: ToolCall, final: ToolQuery) -> tuple[bool, str]:
        if call.status in (CallStatus.FAILED, CallStatus.CANCELLED):
            return False, REASON_INSUFFICIENT
        return reflect_with_reason(call.query, final, ctx)

    scan_log: list[dict] = []
    for web, kg in zip(web_calls[:-1], kg_calls[:-1]):
        web_ok, web_reason = check(web, final_web)
        kg_ok, kg_reason = check(kg, final_kg)
        sufficient = web_ok and kg_ok
        scan_log.append(
            {"block": web.block, "web": web_reason, "kg": kg_reason, "sufficient": sufficient}
        )
        if sufficient:
            return web.block, scan_log
    return None, scan_log


def cancel_after(calls: Iterable[ToolCall], selected_block: BlockIndex) -> list[ToolCall]:
    """The still-pending calls after the selected block: the ones to cancel,
    in the order given (the session gives web calls, then kg calls).

    Completed calls keep their results (they are simply unused). No call is
    changed; the session cancels each call it is given.
    """
    return [call for call in calls
            if call.block > selected_block and call.status is CallStatus.PENDING]
