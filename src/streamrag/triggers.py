"""Streaming query-generation policies.

Two trigger policies ask a query generator for a tool-query pair per
transcript block: the fixed-interval policy asks for a fresh pair on every
block, while the model-triggered policy passes the tools' previous queries,
so the generator may answer NO_QUERY to keep the current tool call running
and fire only when the query actually changes. Each step returns the
generator's ``ScriptedQueries`` as they are. A ``SimulatedFault`` the
generator raises, in its similarity check too, is modelled here alone, as
NO_QUERY for both tools; any other exception propagates. The session alone
decides what a NO_QUERY means under its strategy (see ``orchestrator``).

``QueryGenerator`` is the extension point for a live model adapter: it
returns a ``ScriptedQueries`` pair per prefix, as the scripted generators
here do. The default implementations replay queries scripted on the trace,
keyed by prefix text so identical prefixes always produce identical queries.
A generator's time is not its own: the orchestrator samples the
query-generation stage of its latency model (a constant or an empirical
list) for every fired call.
"""

from __future__ import annotations

import logging
from typing import Callable, Protocol

from .core import (
    NO_QUERY,
    BlockIndex,
    ScriptedQueries,
    ToolQuery,
    UtteranceTrace,
    blocks_of,
)
from .errors import InputError, SimulatedFault

log = logging.getLogger(__name__)


class QueryGenerator(Protocol):
    """Deterministic mapping (prefix, previous queries) -> queries.

    Implementations must be pure: the same prefix and previous queries always
    yield the same result. A NO_QUERY keeps the tool's running call under the
    model-triggered policy; under the other strategies the session records it
    as a failed call.
    """

    def generate(self, prefix: str, prev_web: ToolQuery, prev_kg: ToolQuery) -> ScriptedQueries:
        ...


def _prefix_map(trace: UtteranceTrace, block_ms: int) -> dict[str, ScriptedQueries]:
    """Scripted queries keyed by prefix text, validated against the blocking.

    Every block must be scripted, and blocks that share a prefix (no new word
    completed) must be scripted identically.
    """
    blocks = blocks_of(trace, block_ms, trace.scripted_queries, "scripted queries")
    by_prefix: dict[str, ScriptedQueries] = {}
    for b, prefix in blocks:
        entry = trace.scripted_queries[b]
        known = by_prefix.get(prefix)
        if known is not None and known != entry:
            raise InputError(
                f"{trace.utterance_id}: conflicting scripted queries for identical prefix {prefix!r}"
            )
        by_prefix[prefix] = entry
    return by_prefix


class ScriptedQueryGenerator:
    """Replays the trace's scripted queries verbatim for each prefix."""

    def __init__(self, trace: UtteranceTrace, block_ms: int) -> None:
        self._utterance_id = trace.utterance_id
        self._by_prefix = _prefix_map(trace, block_ms)

    def generate(self, prefix: str, prev_web: ToolQuery, prev_kg: ToolQuery) -> ScriptedQueries:
        entry = self._by_prefix.get(prefix)
        if entry is None:
            raise InputError(f"{self._utterance_id}: no scripted queries for prefix {prefix!r}")
        return entry


class FinalQueryGenerator:
    """Always answers with the queries scripted for the last block.

    Interval-agnostic: used for whole-utterance (non-streaming) runs where
    only the final query matters, regardless of the interval the trace was
    scripted at.
    """

    def __init__(self, trace: UtteranceTrace) -> None:
        if not trace.scripted_queries:
            raise InputError(f"{trace.utterance_id}: trace has no scripted queries")
        final_block = max(trace.scripted_queries)
        self._entry = trace.scripted_queries[final_block]

    def generate(self, prefix: str, prev_web: ToolQuery, prev_kg: ToolQuery) -> ScriptedQueries:
        return self._entry


class StreamingScriptedGenerator:
    """Scripted generator that suppresses redundant queries.

    Emits NO_QUERY for a tool when the scripted query for the current prefix
    is equivalent to the most recent fired query, judged by the supplied
    similarity predicate; this mirrors how the labeling pipeline decides
    NO_QUERY, so simulated behavior and training labels agree.
    """

    def __init__(
        self,
        trace: UtteranceTrace,
        block_ms: int,
        similar: Callable[[ToolQuery, ToolQuery], bool],
    ) -> None:
        self._inner = ScriptedQueryGenerator(trace, block_ms)
        self._similar = similar

    def generate(self, prefix: str, prev_web: ToolQuery, prev_kg: ToolQuery) -> ScriptedQueries:
        raw = self._inner.generate(prefix, prev_web, prev_kg)
        web = NO_QUERY if self._similar(raw.web, prev_web) else raw.web
        kg = NO_QUERY if self._similar(raw.kg, prev_kg) else raw.kg
        return ScriptedQueries(web=web, kg=kg)


def model_trigger_step(
    gen: QueryGenerator,
    prefix: str,
    prev_web: ToolQuery,
    prev_kg: ToolQuery,
    block: BlockIndex,
) -> ScriptedQueries:
    """Ask the generator whether each tool needs a new query given its last one.

    A ``SimulatedFault`` becomes NO_QUERY for both tools, logged once; the
    session decides what a NO_QUERY means under its strategy.
    """
    try:
        return gen.generate(prefix, prev_web, prev_kg)
    except SimulatedFault:
        log.warning("query generator failed at block %d; both tools get NO_QUERY", block)
        return ScriptedQueries(web=NO_QUERY, kg=NO_QUERY)


def fixed_interval_step(gen: QueryGenerator, prefix: str, block: BlockIndex) -> ScriptedQueries:
    """A fresh query pair for this block, ignoring any previous query."""
    return model_trigger_step(gen, prefix, NO_QUERY, NO_QUERY, block)
