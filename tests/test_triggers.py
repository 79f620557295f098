from __future__ import annotations

import pytest

from streamrag.core import NO_QUERY, KgQuery, ScriptedQueries, Tool, ToolQuery, blocks_of
from streamrag.errors import InputError
from streamrag.labeling import similarity_f
from streamrag.synth import brand_founder_trace, jump_shots_trace
from streamrag.triggers import (
    FinalQueryGenerator,
    ScriptedQueryGenerator,
    StreamingScriptedGenerator,
    TriggerAction,
    fixed_interval_step,
    model_trigger_step,
)


class FailingGenerator:
    def generate(self, prefix, prev_web, prev_kg):
        raise RuntimeError("model unavailable")


class NoQueryUnderFixed:
    def generate(self, prefix, prev_web, prev_kg):
        return ScriptedQueries(web=NO_QUERY, kg=NO_QUERY)


def _streaming_gen(trace, similarity_ctx, block_ms=500):
    return StreamingScriptedGenerator(
        trace, block_ms, lambda cur, prev: similarity_f(cur, prev, similarity_ctx)
    )


class TestScriptedGenerator:
    def test_missing_blocks_listed(self):
        trace = brand_founder_trace()
        trace.scripted_queries.pop(4)
        with pytest.raises(InputError, match=r"\[4\]"):
            ScriptedQueryGenerator(trace, 500)
        trace.scripted_queries[4] = trace.scripted_queries[5]

    def test_conflicting_identical_prefixes_rejected(self):
        trace = jump_shots_trace()
        trace.scripted_queries[10] = trace.scripted_queries[1]  # block 10 repeats block 9's prefix
        with pytest.raises(InputError, match="conflicting"):
            ScriptedQueryGenerator(trace, 500)

    def test_unknown_prefix_rejected(self):
        gen = ScriptedQueryGenerator(brand_founder_trace(), 500)
        with pytest.raises(InputError):
            gen.generate("never heard this", NO_QUERY, NO_QUERY)

    def test_identical_prefixes_produce_identical_queries(self):
        trace = jump_shots_trace()
        gen = ScriptedQueryGenerator(trace, 500)
        blocks = dict(blocks_of(trace, 500))
        assert blocks[9] == blocks[10]
        a = gen.generate(blocks[9], NO_QUERY, NO_QUERY)
        b = gen.generate(blocks[10], ToolQuery.web("different prev"), NO_QUERY)
        assert a.web == b.web and a.kg == b.kg


class TestFixedIntervalStep:
    def test_five_block_trace_fires_every_block(self):
        trace = brand_founder_trace()
        gen = ScriptedQueryGenerator(trace, 500)
        decisions = [
            fixed_interval_step(gen, prefix, b) for b, prefix in blocks_of(trace, 500)
        ]
        assert len(decisions) == 5
        assert all(d.web.action is TriggerAction.FIRE for d in decisions)
        assert all(d.kg.action is TriggerAction.FIRE for d in decisions)

    def test_block3_fires_the_settled_query(self):
        trace = brand_founder_trace()
        gen = ScriptedQueryGenerator(trace, 500)
        blocks = dict(blocks_of(trace, 500))
        decision = fixed_interval_step(gen, blocks[3], 3)
        assert decision.web.query == ToolQuery.web("Who founded Rare Beauty")

    def test_generator_failure_becomes_failed_decision(self):
        decision = fixed_interval_step(FailingGenerator(), "prefix", 2)
        assert decision.web.action is TriggerAction.FAILED
        assert decision.kg.action is TriggerAction.FAILED

    def test_no_query_is_illegal_under_fixed_interval(self):
        decision = fixed_interval_step(NoQueryUnderFixed(), "prefix", 1)
        assert decision.web.action is TriggerAction.FAILED


class TestModelTriggerStep:
    def test_repeated_query_is_suppressed(self, similarity_ctx):
        trace = brand_founder_trace()
        gen = _streaming_gen(trace, similarity_ctx)
        blocks = dict(blocks_of(trace, 500))
        prev_web = ToolQuery.web("Who founded Rare Beauty")
        prev_kg = ToolQuery.kg(KgQuery.make("other", {"main_entity": "Rare Beauty"}))
        decision = model_trigger_step(gen, blocks[4], prev_web, prev_kg, 4)
        assert decision.web.action is TriggerAction.NO_QUERY
        assert decision.kg.action is TriggerAction.NO_QUERY

    def test_misfire_recovery_fires_new_query(self, similarity_ctx):
        trace = brand_founder_trace()
        gen = _streaming_gen(trace, similarity_ctx)
        blocks = dict(blocks_of(trace, 500))
        decision = model_trigger_step(
            gen, blocks[2], ToolQuery.web("Who founded what"),
            ToolQuery.kg(KgQuery.make("other", {"main_entity": "Who"})), 2,
        )
        assert decision.web.action is TriggerAction.FIRE
        assert decision.web.query == ToolQuery.web("Red Bull founder")

    def test_first_block_with_no_prev_always_fires(self, similarity_ctx):
        trace = brand_founder_trace()
        gen = _streaming_gen(trace, similarity_ctx)
        blocks = dict(blocks_of(trace, 500))
        decision = model_trigger_step(gen, blocks[1], NO_QUERY, NO_QUERY, 1)
        assert decision.web.action is TriggerAction.FIRE
        assert decision.kg.action is TriggerAction.FIRE

    def test_generator_failure_keeps_running_call(self):
        decision = model_trigger_step(
            FailingGenerator(), "prefix", ToolQuery.web("prev"), NO_QUERY, 3
        )
        assert decision.web.action is TriggerAction.NO_QUERY
        assert decision.kg.action is TriggerAction.NO_QUERY


class TestPolicyInvariants:
    def test_model_triggered_prev_reconstructible_from_decisions(self, similarity_ctx):
        trace = jump_shots_trace()
        gen = _streaming_gen(trace, similarity_ctx)
        prev = {Tool.WEB: NO_QUERY, Tool.KG: NO_QUERY}
        fires: dict[Tool, list[int]] = {Tool.WEB: [], Tool.KG: []}
        decisions = []
        for b, prefix in blocks_of(trace, 500):
            decision = model_trigger_step(gen, prefix, prev[Tool.WEB], prev[Tool.KG], b)
            decisions.append(decision)
            for tool in (Tool.WEB, Tool.KG):
                td = decision.for_tool(tool)
                if td.action is TriggerAction.FIRE:
                    prev[tool] = td.query
                    fires[tool].append(b)
        # between consecutive fires every decision is no_query
        for tool in (Tool.WEB, Tool.KG):
            for earlier, later in zip(fires[tool], fires[tool][1:]):
                between = [d.for_tool(tool).action for d in decisions[earlier:later - 1]]
                assert all(a is TriggerAction.NO_QUERY for a in between)

    def test_replay_is_deterministic(self, similarity_ctx):
        trace = jump_shots_trace()

        def run():
            gen = _streaming_gen(trace, similarity_ctx)
            prev = {Tool.WEB: NO_QUERY, Tool.KG: NO_QUERY}
            log = []
            for b, prefix in blocks_of(trace, 500):
                decision = model_trigger_step(gen, prefix, prev[Tool.WEB], prev[Tool.KG], b)
                for tool in (Tool.WEB, Tool.KG):
                    td = decision.for_tool(tool)
                    log.append((b, tool.value, td.action.value, td.query.to_wire()))
                    if td.action is TriggerAction.FIRE:
                        prev[tool] = td.query
            return log

        assert run() == run()


class TestFinalQueryGenerator:
    def test_returns_last_block_entry_for_any_prefix(self):
        trace = brand_founder_trace()
        gen = FinalQueryGenerator(trace)
        out = gen.generate("whatever", NO_QUERY, NO_QUERY)
        assert out.web == ToolQuery.web("Who founded Rare Beauty")

    def test_requires_scripted_queries(self):
        trace = brand_founder_trace()
        bare = type(trace)(utterance_id="x", words=trace.words, scripted_queries={})
        with pytest.raises(InputError):
            FinalQueryGenerator(bare)
