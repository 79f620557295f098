from __future__ import annotations

import pytest

from streamrag.core import NO_QUERY, KgQuery, ScriptedQueries, Tool, ToolQuery, blocks_of
from streamrag.errors import InputError, SimulatedFault
from streamrag.labeling import similarity_f
from streamrag.synth import brand_founder_trace, jump_shots_trace
from streamrag.triggers import (
    FinalQueryGenerator,
    ScriptedQueryGenerator,
    StreamingScriptedGenerator,
    fixed_interval_step,
    model_trigger_step,
)


class FailingGenerator:
    def generate(self, prefix, prev_web, prev_kg):
        raise SimulatedFault("model unavailable")


class BrokenGenerator:
    def generate(self, prefix, prev_web, prev_kg):
        raise KeyError("a generator's bug")


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
        steps = [fixed_interval_step(gen, prefix, b) for b, prefix in blocks_of(trace, 500)]
        assert len(steps) == 5
        assert not any(q.web.is_no_query or q.kg.is_no_query for q in steps)

    def test_block3_fires_the_settled_query(self):
        trace = brand_founder_trace()
        gen = ScriptedQueryGenerator(trace, 500)
        blocks = dict(blocks_of(trace, 500))
        assert fixed_interval_step(gen, blocks[3], 3).web == ToolQuery.web("Who founded Rare Beauty")

    def test_generator_failure_becomes_no_query_with_one_warning(self, caplog):
        with caplog.at_level("WARNING", logger="streamrag.triggers"):
            queries = fixed_interval_step(FailingGenerator(), "prefix", 2)
        assert queries == ScriptedQueries(NO_QUERY, NO_QUERY)
        assert [r.getMessage() for r in caplog.records] == [
            "query generator failed at block 2; both tools get NO_QUERY"
        ]

    def test_any_other_generator_error_propagates(self, caplog):
        with caplog.at_level("WARNING", logger="streamrag.triggers"), \
                pytest.raises(KeyError, match="a generator's bug"):
            fixed_interval_step(BrokenGenerator(), "prefix", 2)
        assert caplog.records == []


class TestModelTriggerStep:
    def test_repeated_query_is_suppressed(self, similarity_ctx):
        trace = brand_founder_trace()
        gen = _streaming_gen(trace, similarity_ctx)
        blocks = dict(blocks_of(trace, 500))
        prev_web = ToolQuery.web("Who founded Rare Beauty")
        prev_kg = ToolQuery.kg(KgQuery.make("other", {"main_entity": "Rare Beauty"}))
        queries = model_trigger_step(gen, blocks[4], prev_web, prev_kg, 4)
        assert queries.web.is_no_query and queries.kg.is_no_query

    def test_misfire_recovery_fires_new_query(self, similarity_ctx):
        trace = brand_founder_trace()
        gen = _streaming_gen(trace, similarity_ctx)
        blocks = dict(blocks_of(trace, 500))
        queries = model_trigger_step(
            gen, blocks[2], ToolQuery.web("Who founded what"),
            ToolQuery.kg(KgQuery.make("other", {"main_entity": "Who"})), 2,
        )
        assert queries.web == ToolQuery.web("Red Bull founder")

    def test_first_block_with_no_prev_always_fires(self, similarity_ctx):
        trace = brand_founder_trace()
        gen = _streaming_gen(trace, similarity_ctx)
        blocks = dict(blocks_of(trace, 500))
        queries = model_trigger_step(gen, blocks[1], NO_QUERY, NO_QUERY, 1)
        assert not queries.web.is_no_query and not queries.kg.is_no_query

    def test_generator_failure_keeps_running_call(self):
        queries = model_trigger_step(
            FailingGenerator(), "prefix", ToolQuery.web("prev"), NO_QUERY, 3
        )
        assert queries == ScriptedQueries(NO_QUERY, NO_QUERY)


class TestPolicyInvariants:
    def test_model_triggered_prev_reconstructible_from_decisions(self, similarity_ctx):
        trace = jump_shots_trace()
        gen = _streaming_gen(trace, similarity_ctx)
        prev = {Tool.WEB: NO_QUERY, Tool.KG: NO_QUERY}
        fires: dict[Tool, list[int]] = {Tool.WEB: [], Tool.KG: []}
        steps = []
        for b, prefix in blocks_of(trace, 500):
            queries = model_trigger_step(gen, prefix, prev[Tool.WEB], prev[Tool.KG], b)
            steps.append(queries)
            for tool in (Tool.WEB, Tool.KG):
                query = queries.for_tool(tool)
                if not query.is_no_query:
                    prev[tool] = query
                    fires[tool].append(b)
        # between consecutive fires every step is no_query
        for tool in (Tool.WEB, Tool.KG):
            for earlier, later in zip(fires[tool], fires[tool][1:]):
                between = [q.for_tool(tool) for q in steps[earlier:later - 1]]
                assert all(q.is_no_query for q in between)

    def test_replay_is_deterministic(self, similarity_ctx):
        trace = jump_shots_trace()

        def run():
            gen = _streaming_gen(trace, similarity_ctx)
            prev = {Tool.WEB: NO_QUERY, Tool.KG: NO_QUERY}
            log = []
            for b, prefix in blocks_of(trace, 500):
                queries = model_trigger_step(gen, prefix, prev[Tool.WEB], prev[Tool.KG], b)
                for tool in (Tool.WEB, Tool.KG):
                    query = queries.for_tool(tool)
                    log.append((b, tool.value, query.to_wire()))
                    if not query.is_no_query:
                        prev[tool] = query
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
