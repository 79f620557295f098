from __future__ import annotations

from dataclasses import replace

import pytest

from streamrag import orchestrator
from streamrag.cli import generator_factory
from streamrag.core import NO_QUERY, KgQuery, Strategy, Tool, ToolQuery
from streamrag.errors import WrongToolError
from streamrag.labeling import similarity_f
from streamrag.reflector import (
    REASON_IDENTICAL_QUERY,
    REASON_INSUFFICIENT,
    REASON_KG_RESULT_MATCH,
    REASON_TOP5_MATCH,
    CallStatus,
    SimilarityContext,
    ToolCall,
    cancel_after,
    reflect_with_reason,
    select_earliest_joint,
)
from streamrag.retrieval import web_search
from streamrag.synth import brand_founder_trace, random_batch

from conftest import session_config
from oracles import oracle_top_ids


def _kg(entity: str) -> ToolQuery:
    return ToolQuery.kg(KgQuery.make("other", {"main_entity": entity}))


def _sufficient(intermediate: ToolQuery, final: ToolQuery, ctx) -> bool:
    return reflect_with_reason(intermediate, final, ctx)[0]


class TestReflect:
    def test_identical_web_query_is_sufficient(self, reflect_ctx):
        q = ToolQuery.web("Who founded Rare Beauty")
        ok, reason = reflect_with_reason(q, ToolQuery.web("Who founded Rare Beauty"), reflect_ctx)
        assert ok and reason == REASON_IDENTICAL_QUERY

    def test_kg_queries_identical_up_to_key_order(self, reflect_ctx):
        a = ToolQuery.kg(KgQuery.make("music", {"artist_name": "Red Hot Chili Peppers", "artist_aspect": "member"}))
        b = ToolQuery.kg(KgQuery.make("music", {"artist_aspect": "member", "artist_name": "Red Hot Chili Peppers"}))
        assert _sufficient(a, b, reflect_ctx)

    def test_different_top5_is_insufficient(self, world, index, reflect_ctx):
        a = ToolQuery.web("Who founded what")
        b = ToolQuery.web("Who founded Rare Beauty")
        # oracle: run the search for both and compare the lists
        assert (
            web_search(index, a, 50).ranked_doc_ids[:5] != web_search(index, b, 50).ranked_doc_ids[:5]
        )
        assert oracle_top_ids(world.corpus, a.web_text, 5) != oracle_top_ids(world.corpus, b.web_text, 5)
        assert reflect_with_reason(a, b, reflect_ctx) == (False, REASON_INSUFFICIENT)

    def test_kg_result_match_when_both_miss(self, reflect_ctx):
        ok, reason = reflect_with_reason(_kg("ghost one"), _kg("ghost two"), reflect_ctx)
        assert ok and reason == REASON_KG_RESULT_MATCH

    def test_kg_result_mismatch(self, reflect_ctx):
        ok, reason = reflect_with_reason(_kg("ghost"), _kg("Rare Beauty"), reflect_ctx)
        assert not ok and reason == REASON_INSUFFICIENT

    def test_no_query_intermediate_is_never_sufficient(self, reflect_ctx):
        assert not _sufficient(NO_QUERY, ToolQuery.web("final"), reflect_ctx)

    def test_tool_mismatch_rejected(self, reflect_ctx):
        with pytest.raises(WrongToolError):
            reflect_with_reason(ToolQuery.web("a"), _kg("b"), reflect_ctx)


def test_context_from_config_compares_what_the_session_reads(index, kg_store):
    config = session_config(Strategy.FIXED_INTERVAL, top_docs=3, reflect_top_k=4)
    ctx = SimilarityContext.from_config(index, config, kg_store)
    assert ctx == SimilarityContext(index=index, compare_k=4, retrieve_k=3, ordered=True,
                                    kg_store=kg_store)
    assert SimilarityContext.from_config(index, config).kg_store is None


class TestOneCheck:
    """The labeler's and trigger's similarity_f is the reflector's check run
    without a kg store."""

    @pytest.mark.parametrize("ordered", [True, False])
    def test_similarity_f_agrees_with_reflect_with_reason(self, world, index, kg_store,
                                                          ordered):
        label_ctx = SimilarityContext(index=index, ordered=ordered)
        reflect_ctx = replace(label_ctx, kg_store=kg_store)
        e = world.entities
        rare = ToolQuery.web("Who founded Rare Beauty")
        # (current, prev, reason with a kg store when ordered, when set)
        table = [
            (rare, ToolQuery.web("Who founded Rare Beauty"),
             REASON_IDENTICAL_QUERY, REASON_IDENTICAL_QUERY),
            (ToolQuery.web("Who founded rare beauty in 2019"), rare,
             REASON_INSUFFICIENT, REASON_TOP5_MATCH),
            (ToolQuery.web(f"{e[2]} facts part 2"), world.web_query(e[2]),
             REASON_TOP5_MATCH, REASON_TOP5_MATCH),
            (ToolQuery.web(f"{e[0]} facts part 2"), world.web_query(e[0]),
             REASON_INSUFFICIENT, REASON_TOP5_MATCH),
            (ToolQuery.web("Who founded what"), rare, REASON_INSUFFICIENT, REASON_INSUFFICIENT),
            (rare, NO_QUERY, REASON_INSUFFICIENT, REASON_INSUFFICIENT),
            (world.kg_query(e[0]), _kg(e[0].upper()),
             REASON_IDENTICAL_QUERY, REASON_IDENTICAL_QUERY),
            # entities 3 and 7 are both missing from the KG: the same answer
            (world.kg_query(e[3]), world.kg_query(e[7]),
             REASON_KG_RESULT_MATCH, REASON_KG_RESULT_MATCH),
            (world.kg_query(e[0]), world.kg_query(e[1]),
             REASON_INSUFFICIENT, REASON_INSUFFICIENT),
            (world.kg_query(e[0]), NO_QUERY, REASON_INSUFFICIENT, REASON_INSUFFICIENT),
        ]
        for current, prev, ordered_reason, set_reason in table:
            reason = ordered_reason if ordered else set_reason
            assert reflect_with_reason(current, prev, reflect_ctx) == (
                reason != REASON_INSUFFICIENT, reason
            )
            # without a kg store, only a kg result match turns into a mismatch
            expected = reason in (REASON_IDENTICAL_QUERY, REASON_TOP5_MATCH)
            assert similarity_f(current, prev, label_ctx) is expected
            assert reflect_with_reason(current, prev, label_ctx)[0] is expected


# A kg query that is identical at every block and in the final, so the joint
# selection turns on the web calls alone.
SAME_KG = _kg("Rare Beauty")


Calls = tuple[list[ToolCall], list[ToolCall]]


def _calls(web: list[tuple[int, ToolQuery, CallStatus]],
           kg_status: dict[int, CallStatus] | None = None) -> Calls:
    """Web calls as given, each paired with a SAME_KG call (DONE unless
    kg_status says): the web and kg lists of a session, in block order."""
    web_calls, kg_calls = [], []
    for block, query, status in web:
        web_calls.append(ToolCall(Tool.WEB, block, query, status=status))
        kg = (kg_status or {}).get(block, CallStatus.DONE)
        kg_calls.append(ToolCall(Tool.KG, block, SAME_KG, status=kg))
    return web_calls, kg_calls


def _earliest(calls: Calls, final_web: ToolQuery, ctx) -> int | None:
    selected, _ = select_earliest_joint(*calls, final_web, SAME_KG, ctx)
    return selected


class TestSelectEarliestSufficient:
    """The earliest sufficient block, chosen by select_earliest_joint."""

    def test_all_identical_selects_block_1(self, reflect_ctx):
        final = ToolQuery.web("same query")
        calls = _calls([(b, final, CallStatus.DONE) for b in range(1, 6)])
        assert _earliest(calls, final, reflect_ctx) == 1

    def test_walkthrough_trace_selects_block_3(self, world, index, reflect_ctx):
        trace = brand_founder_trace()
        final = trace.scripted_queries[5].web
        calls = _calls(
            [(b, trace.scripted_queries[b].web, CallStatus.PENDING) for b in range(1, 6)]
        )
        selected = _earliest(calls, final, reflect_ctx)
        # oracle: brute-force reflect over every cached block
        expected = None
        for b in range(1, 5):
            inter = trace.scripted_queries[b].web
            if oracle_top_ids(world.corpus, inter.web_text, 5) == oracle_top_ids(
                world.corpus, final.web_text, 5
            ):
                expected = b
                break
        assert expected == 3
        assert selected == 3

    def test_none_when_no_intermediate_passes(self, reflect_ctx):
        calls = _calls(
            [
                (1, ToolQuery.web("Red Bull founder"), CallStatus.DONE),
                (2, ToolQuery.web("Who founded Rare Beauty"), CallStatus.DONE),
            ]
        )
        assert _earliest(calls, ToolQuery.web("Who founded Rare Beauty"), reflect_ctx) is None

    def test_no_calls_is_none(self, reflect_ctx):
        assert select_earliest_joint([], [], ToolQuery.web("final"), SAME_KG,
                                     reflect_ctx) == (None, [])

    def test_failed_intermediate_never_sufficient(self, reflect_ctx):
        final = ToolQuery.web("the query")
        web = [(b, final, CallStatus.DONE) for b in range(1, 4)]
        failed_web = [(1, final, CallStatus.FAILED), *web[1:]]
        assert _earliest(_calls(failed_web), final, reflect_ctx) == 2
        failed_kg = _calls(web, kg_status={1: CallStatus.FAILED})
        assert _earliest(failed_kg, final, reflect_ctx) == 2
        # a query that never materialised is a failed call too
        no_query = _calls([(1, NO_QUERY, CallStatus.FAILED), *web[1:]])
        assert _earliest(no_query, final, reflect_ctx) == 2

    def test_minimality_exhaustive(self, reflect_ctx):
        trace = brand_founder_trace()
        final = trace.scripted_queries[5].web
        calls = _calls(
            [(b, trace.scripted_queries[b].web, CallStatus.DONE) for b in range(1, 6)]
        )
        selected, scan_log = select_earliest_joint(*calls, final, SAME_KG, reflect_ctx)
        assert selected is not None
        for b in range(1, selected):
            assert not _sufficient(trace.scripted_queries[b].web, final, reflect_ctx)
        assert [r["sufficient"] for r in scan_log] == [False] * (selected - 1) + [True]


class TestSelectEarliestJoint:
    def test_joint_requires_both_tools(self, reflect_ctx):
        trace = brand_founder_trace()
        web = [ToolCall(Tool.WEB, b, trace.scripted_queries[b].web) for b in range(1, 6)]
        kg = [ToolCall(Tool.KG, b, trace.scripted_queries[b].kg) for b in range(1, 6)]
        selected, scan_log = select_earliest_joint(
            web, kg, trace.scripted_queries[5].web, trace.scripted_queries[5].kg, reflect_ctx
        )
        assert selected == 3
        assert [r["block"] for r in scan_log] == [1, 2, 3]
        assert scan_log[-1]["sufficient"] is True


def _statuses(calls: Calls) -> list[tuple[Tool, int, CallStatus]]:
    return [(c.tool, c.block, c.status) for c in (*calls[0], *calls[1])]


class TestCancelAfter:
    """cancel_after names the calls to cancel; it changes nothing itself."""

    def test_selected_1_cancels_four_pending(self):
        calls = _calls([(b, ToolQuery.web("q"), CallStatus.PENDING) for b in range(1, 6)])
        before = _statuses(calls)
        cancelled = cancel_after([*calls[0], *calls[1]], 1)
        assert [(c.tool, c.block) for c in cancelled] == [(Tool.WEB, b) for b in range(2, 6)]
        assert all(c is calls[0][c.block - 1] for c in cancelled)
        assert _statuses(calls) == before

    def test_selected_last_block_cancels_nothing(self):
        calls = _calls([(b, ToolQuery.web("q"), CallStatus.PENDING) for b in range(1, 6)])
        assert cancel_after([*calls[0], *calls[1]], 5) == []

    def test_mixed_statuses_only_pending_cancelled(self):
        q = ToolQuery.web("q")
        entries = [
            (1, q, CallStatus.DONE),
            (2, q, CallStatus.DONE),
            (3, q, CallStatus.PENDING),
            (4, q, CallStatus.DONE),
            (5, q, CallStatus.PENDING),
        ]
        web, kg = _calls(entries)
        # oracle: filter by status and block
        expected = [b for b, _, status in entries if b > 2 and status is CallStatus.PENDING]
        cancelled = cancel_after([*web, *kg], 2)
        assert [c.block for c in cancelled] == expected
        done = [c.block for c in web if c.status is CallStatus.DONE]
        assert done == [1, 2, 4]

    def test_no_pending_beyond_selected_after_cancel(self):
        pending = {b: CallStatus.PENDING for b in range(1, 8)}
        web, kg = _calls([(b, ToolQuery.web("q"), CallStatus.PENDING) for b in range(1, 8)],
                         kg_status=pending)
        cancelled = cancel_after([*web, *kg], 3)
        # all web calls first, then all kg calls, each in block order
        assert [(c.tool, c.block) for c in cancelled] == (
            [(Tool.WEB, b) for b in range(4, 8)] + [(Tool.KG, b) for b in range(4, 8)]
        )
        for call in cancelled:
            call.status = CallStatus.CANCELLED
        assert all(c.status is not CallStatus.PENDING for c in (*web, *kg) if c.block > 3)

    @pytest.mark.parametrize("strategy", [Strategy.FIXED_INTERVAL, Strategy.MODEL_TRIGGERED])
    def test_session_cancels_each_call_once(self, strategy, world, index, backends,
                                            headline_latency, sessions):
        config = session_config(strategy)
        outcomes, errors = orchestrator.run_batch(
            random_batch(world, 30, seed=11, block_ms=500), config,
            generator_factory(config, index), backends, headline_latency,
        )
        assert errors == [] and len(sessions) == len(outcomes)
        total_cancelled = 0
        for outcome, session in zip(outcomes, sessions):
            cancel_events = [(e.tool, e.block) for e in outcome.event_log
                             if e.type == "thread_cancelled"]
            calls = [*session.calls[Tool.WEB], *session.calls[Tool.KG]]
            cancelled = [c for c in calls if c.status is CallStatus.CANCELLED]
            assert all(c.result is None for c in cancelled)
            assert sorted(cancel_events) == sorted((c.tool.value, c.block) for c in cancelled)
            assert outcome.threads_cancelled == len(cancelled)
            assert outcome.threads_spawned == sum(not c.query.is_no_query for c in calls)
            assert not any(c.status is CallStatus.PENDING for c in calls)
            total_cancelled += len(cancelled)
        assert total_cancelled > 0
