from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamrag.cli import generator_factory
from streamrag.core import (
    NO_QUERY,
    KgDomain,
    KgQuery,
    Strategy,
    Tool,
    ToolQuery,
    UtteranceTrace,
    Word,
    blocks_of,
)
from streamrag.errors import InputError, WrongToolError
from streamrag.labeling import (
    LabeledStep,
    assign_streaming_labels,
    build_negative_pool,
    export_training_set,
    inject_negative_samples,
    read_training_set,
    similarity_f,
)
from streamrag.orchestrator import substream_rng
from streamrag.reflector import REASON_TOP5_MATCH, SimilarityContext, reflect_with_reason
from streamrag.synth import brand_founder_trace, jump_shots_trace, random_batch
from streamrag.triggers import model_trigger_step
from streamrag.retrieval import web_search

from conftest import session_config
from oracles import oracle_top_ids, step_to_dict
from paraphrase import paraphrase_batch


def _kg(entity: str) -> ToolQuery:
    return ToolQuery.kg(KgQuery.make("other", {"main_entity": entity}))


class TestSimilarity:
    def test_identical_kg_queries_similar(self, similarity_ctx):
        a = _kg("Rare Beauty")
        b = ToolQuery.kg(KgQuery.make("other", {"main_entity": "rare beauty"}))
        assert similarity_f(a, b, similarity_ctx)

    def test_web_queries_sharing_top5_are_similar(self, similarity_ctx, index):
        current = ToolQuery.web("Who founded rare beauty in 2019")
        prev = ToolQuery.web("Who founded Rare Beauty")
        a = set(web_search(index, current, 50).ranked_doc_ids[:5])
        b = set(web_search(index, prev, 50).ranked_doc_ids[:5])
        assert a == b
        assert similarity_f(current, prev, similarity_ctx)

    def test_disjoint_topics_not_similar(self, world, similarity_ctx):
        current = ToolQuery.web("Number of queries on 03/27/2024")
        prev = ToolQuery.web("Derek Jeter jump shots count")
        # oracle: exhaustive top-5 comparison
        assert set(oracle_top_ids(world.corpus, current.web_text, 5)) != set(
            oracle_top_ids(world.corpus, prev.web_text, 5)
        )
        assert not similarity_f(current, prev, similarity_ctx)

    def test_no_prev_is_never_similar(self, similarity_ctx):
        assert not similarity_f(ToolQuery.web("q"), NO_QUERY, similarity_ctx)

    def test_tool_mismatch_rejected(self, similarity_ctx):
        with pytest.raises(WrongToolError):
            similarity_f(ToolQuery.web("q"), _kg("e"), similarity_ctx)

    def test_no_query_current_rejected(self, similarity_ctx):
        with pytest.raises(ValueError):
            similarity_f(NO_QUERY, ToolQuery.web("q"), similarity_ctx)


def _labels(steps: list[LabeledStep], tool: Tool) -> list[str]:
    return [
        "NO_QUERY" if s.label.is_no_query else "fire" for s in steps if s.tool is tool
    ]


class TestAssignStreamingLabels:
    def test_constant_reference_labels_fire_then_quiet(self, world, similarity_ctx):
        entity = world.entities[7]
        scripted = {b: world.scripted(entity) for b in range(1, 5)}
        trace = UtteranceTrace(
            "constant",
            [Word(f"w{i}", i * 500, i * 500 + 300) for i in range(4)],
            scripted,
        )
        steps = assign_streaming_labels(trace, 500, similarity_ctx)
        assert _labels(steps, Tool.WEB) == ["fire", "NO_QUERY", "NO_QUERY", "NO_QUERY"]
        assert _labels(steps, Tool.KG) == ["fire", "NO_QUERY", "NO_QUERY", "NO_QUERY"]

    def test_brand_trace_web_sequence(self, similarity_ctx):
        steps = assign_streaming_labels(brand_founder_trace(), 500, similarity_ctx)
        assert _labels(steps, Tool.WEB) == ["fire", "fire", "fire", "NO_QUERY", "NO_QUERY"]
        assert _labels(steps, Tool.KG) == ["fire", "fire", "fire", "NO_QUERY", "NO_QUERY"]

    def test_sports_trace_kg_sequence_with_late_refire(self, similarity_ctx):
        steps = assign_streaming_labels(jump_shots_trace(), 500, similarity_ctx)
        assert _labels(steps, Tool.KG) == [
            "fire", "fire", "fire", "fire", "fire",
            "NO_QUERY", "NO_QUERY", "fire", "fire", "NO_QUERY", "fire",
        ]
        kg_labels = [s.label for s in steps if s.tool is Tool.KG]
        assert kg_labels[-1].kg_query.attributes == (
            ("datetime", "November 8, 2000"), ("person", "Darius Miles"), ("sport_type", "other"),
        )
        assert _labels(steps, Tool.WEB) == [
            "fire", "fire", "fire", "fire", "fire",
            "fire", "fire", "fire", "fire", "NO_QUERY", "fire",
        ]

    def test_single_block_never_no_query(self, world, similarity_ctx):
        trace = UtteranceTrace(
            "single", [Word("hey", 0, 300)], {1: world.scripted(world.entities[0])}
        )
        steps = assign_streaming_labels(trace, 500, similarity_ctx)
        assert len(steps) == 2
        assert all(not s.label.is_no_query for s in steps)

    def test_missing_reference_blocks_listed(self, world, similarity_ctx):
        trace = UtteranceTrace(
            "gappy",
            [Word(f"w{i}", i * 500, i * 500 + 300) for i in range(3)],
            {1: world.scripted(world.entities[0])},
        )
        with pytest.raises(InputError, match=r"\[2, 3\]"):
            assign_streaming_labels(trace, 500, similarity_ctx)

    @pytest.mark.parametrize("tool", [Tool.WEB, Tool.KG])
    def test_no_query_reference_rejected_for_api_callers(self, similarity_ctx, tool):
        trace = brand_founder_trace()
        references = dict(trace.scripted_queries)
        side = "web" if tool is Tool.WEB else "kg"
        references[4] = replace(references[4], **{side: NO_QUERY})
        with pytest.raises(InputError, match=f"brand-founder: reference query for block 4/{side} "
                                             "must be a real query"):
            assign_streaming_labels(trace, 500, similarity_ctx, references)

    def test_label_similarity_consistency(self, world, similarity_ctx):
        for trace in random_batch(world, 10, seed=13, block_ms=500):
            steps = assign_streaming_labels(trace, 500, similarity_ctx)
            for step in steps:
                if step.label.is_no_query:
                    assert similarity_f(step.pseudo_gt, step.prev_query, similarity_ctx)
                else:
                    assert not similarity_f(step.pseudo_gt, step.prev_query, similarity_ctx)

    @pytest.mark.parametrize("ordered", [False, True], ids=["set", "ordered"])
    def test_trigger_label_agreement(self, world, index, ordered):
        """Replaying a labeled trace through the trigger policy reproduces the
        labels in either web-match mode, on the paraphrase traces whose early
        web queries share the final one's top 5 as well."""
        config = session_config(Strategy.MODEL_TRIGGERED, reflect_ordered=ordered)
        ctx = SimilarityContext(index=index, compare_k=config.reflect_top_k,
                                retrieve_k=config.top_docs, ordered=ordered)
        make = generator_factory(config, index)
        top5_no_query = 0
        for trace in [brand_founder_trace(), jump_shots_trace()] + random_batch(
            world, 8, seed=17, block_ms=500
        ) + paraphrase_batch(world, 60, seed=5, block_ms=500):
            steps = assign_streaming_labels(trace, 500, ctx)
            gen = make(trace)
            prev = {Tool.WEB: NO_QUERY, Tool.KG: NO_QUERY}
            decisions = []
            for b, prefix in blocks_of(trace, 500):
                queries = model_trigger_step(gen, prefix, prev[Tool.WEB], prev[Tool.KG], b)
                for tool in (Tool.WEB, Tool.KG):
                    query = queries.for_tool(tool)
                    decisions.append((b, tool, "NO_QUERY" if query.is_no_query else "fire", query))
                    if not query.is_no_query:
                        prev[tool] = query
            expected = [
                (s.block, s.tool, "NO_QUERY" if s.label.is_no_query else "fire",
                 s.label if not s.label.is_no_query else NO_QUERY)
                for s in steps
            ]
            assert decisions == expected, trace.utterance_id
            top5_no_query += sum(
                reflect_with_reason(s.pseudo_gt, s.prev_query, ctx)[1] == REASON_TOP5_MATCH
                for s in steps if s.label.is_no_query
            )
        assert top5_no_query > 0


class TestInjectNegativeSamples:
    def _steps(self, world, similarity_ctx, n_traces=8, seed=2):
        steps = []
        for trace in random_batch(world, n_traces, seed=seed, block_ms=500):
            steps.extend(assign_streaming_labels(trace, 500, similarity_ctx))
        return steps

    def test_p0_is_identity(self, world, similarity_ctx):
        steps = self._steps(world, similarity_ctx)
        pool = build_negative_pool(steps)
        assert inject_negative_samples(steps, 0.0, 1, pool) == steps

    def test_p1_marks_every_step(self, world, similarity_ctx):
        steps = self._steps(world, similarity_ctx)
        pool = build_negative_pool(steps)
        out = inject_negative_samples(steps, 1.0, 1, pool)
        assert all(s.is_negative_sample for s in out)
        for step in out:
            assert step.label == step.pseudo_gt  # fallback rule
            assert step.negative_prev is not None
            assert step.negative_prev != step.prev_query
            assert step.training_prev == step.negative_prev

    def test_negative_drawn_from_other_utterances(self, world, similarity_ctx):
        steps = self._steps(world, similarity_ctx)
        pool = build_negative_pool(steps)
        by_utterance = {}
        for uid, query in pool[Tool.WEB]:
            by_utterance.setdefault(uid, set()).add(query)
        out = inject_negative_samples(steps, 1.0, 3, pool)
        for step in out:
            if step.tool is Tool.WEB:
                own = by_utterance.get(step.utterance_id, set())
                assert step.negative_prev not in own or any(
                    step.negative_prev in queries
                    for uid, queries in by_utterance.items()
                    if uid != step.utterance_id
                )

    @pytest.mark.parametrize("pool_kind", ["whole", "shrunk", "one utterance"])
    def test_each_draw_picks_from_the_pool_filtered_for_its_step(self, world, similarity_ctx,
                                                                 pool_kind):
        """The same draw from the same substream, read against the pool filtered
        for the step, picks the same query; a step left with no candidate is
        an input error."""
        steps = self._steps(world, similarity_ctx, n_traces=12, seed=4)
        pool = build_negative_pool(steps)
        if pool_kind == "shrunk":  # two utterances, interleaved, one query repeated
            pool = {tool: candidates[:2] + candidates[-2:] + candidates[:1]
                    for tool, candidates in pool.items()}
        elif pool_kind == "one utterance":
            pool = {tool: [c for c in candidates if c[0] == steps[0].utterance_id]
                    for tool, candidates in pool.items()}
        rngs: dict = {}
        expected = []
        for step in steps:
            if step.utterance_id not in rngs:
                rngs[step.utterance_id] = substream_rng(9, "negatives", step.utterance_id)
            rng = rngs[step.utterance_id]
            if rng.random() >= 0.4:
                expected.append(step)
                continue
            candidates = [query for uid, query in pool[step.tool]
                          if uid != step.utterance_id and query != step.prev_query]
            if not candidates:
                assert pool_kind == "one utterance"
                with pytest.raises(InputError, match="no usable negative candidates"):
                    inject_negative_samples(steps, 0.4, 9, pool)
                return
            expected.append(replace(step, label=step.pseudo_gt, is_negative_sample=True,
                                    negative_prev=candidates[rng.randrange(len(candidates))]))
        assert inject_negative_samples(steps, 0.4, 9, pool) == expected
        assert sum(step.is_negative_sample for step in expected) > 20

    def test_empty_pool_with_positive_p_rejected(self, world, similarity_ctx):
        steps = self._steps(world, similarity_ctx)
        with pytest.raises(InputError):
            inject_negative_samples(steps, 0.5, 1, {Tool.WEB: [], Tool.KG: []})

    def test_rate_close_to_p_on_large_set(self, world, similarity_ctx):
        steps = self._steps(world, similarity_ctx, n_traces=60, seed=8)
        pool = build_negative_pool(steps)
        out = inject_negative_samples(steps, 0.1, 42, pool)
        rate = sum(s.is_negative_sample for s in out) / len(out)
        assert 0.05 < rate < 0.15

    def test_batch_order_does_not_change_draws(self, world, similarity_ctx):
        steps = self._steps(world, similarity_ctx)
        pool = build_negative_pool(steps)
        forward = inject_negative_samples(steps, 0.3, 11, pool)
        # permute whole utterances, then restore original order
        utterances = sorted({s.utterance_id for s in steps}, reverse=True)
        permuted = [s for uid in utterances for s in steps if s.utterance_id == uid]
        backward = inject_negative_samples(permuted, 0.3, 11, pool)
        assert sorted(map(repr, forward)) == sorted(map(repr, backward))


class TestTrainingSetIO:
    def test_empty_export_is_valid(self, tmp_path):
        path = tmp_path / "train.jsonl"
        export_training_set([], str(path))
        assert path.read_text() == ""
        assert read_training_set(str(path)) == []

    def test_round_trip_structural_equality(self, world, similarity_ctx, tmp_path):
        steps = []
        for trace in random_batch(world, 5, seed=23, block_ms=500):
            steps.extend(assign_streaming_labels(trace, 500, similarity_ctx))
        pool = build_negative_pool(steps)
        labeled = inject_negative_samples(steps, 0.25, 5, pool)
        path = tmp_path / "train.jsonl"
        export_training_set(labeled, str(path))
        assert read_training_set(str(path)) == labeled

    def test_brand_trace_export_rows(self, similarity_ctx, tmp_path):
        steps = assign_streaming_labels(brand_founder_trace(), 500, similarity_ctx)
        path = tmp_path / "train.jsonl"
        export_training_set(steps, str(path))
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        web_rows = [r for r in rows if r["tool"] == "web"]
        assert [r["label"] for r in web_rows] == [
            "Who founded what", "Red Bull founder", "Who founded Rare Beauty",
            "NO_QUERY", "NO_QUERY",
        ]

    def test_unwritable_path_surfaces_with_context(self, world, similarity_ctx, tmp_path):
        with pytest.raises(InputError, match="no/such/dir"):
            export_training_set([], str(tmp_path / "no" / "such" / "dir" / "x.jsonl"))


# Text that JSON must escape or that is not ASCII: quotes, backslashes,
# control characters, NUL, line separators, accents, CJK and astral emoji.
_AWKWARD = st.text(st.one_of(st.sampled_from('"\\\x00\x01\n\r\t\x1f\x7f\u2028é漢😀/'),
                             st.characters(exclude_categories=("Cs",))), max_size=8)


@st.composite
def _queries(draw, tool: Tool) -> ToolQuery:
    if tool is Tool.WEB:
        return ToolQuery.web(draw(_AWKWARD.filter(lambda t: t and t != "NO_QUERY")))
    names = st.one_of(st.sampled_from(["main_entity", "artist_name", "metric"]),
                      _AWKWARD.filter(lambda name: name != "domain"))
    attributes = draw(st.dictionaries(names, _AWKWARD, max_size=3))
    return ToolQuery.kg(KgQuery.make(draw(st.sampled_from(list(KgDomain))).value, attributes))


@st.composite
def _labeled_steps(draw) -> list[LabeledStep]:
    """Steps drawn from a few utterance ids and queries, so that these recur
    across steps as they do in a real export; positive and negative samples
    alike."""
    utterance_ids = st.sampled_from(draw(st.lists(_AWKWARD, min_size=1, max_size=3)))
    pools = {tool: draw(st.lists(_queries(tool), min_size=1, max_size=3)) for tool in Tool}
    steps = []
    for _ in range(draw(st.integers(0, 8))):
        tool = draw(st.sampled_from(list(Tool)))
        query = st.sampled_from(pools[tool])
        pseudo_gt = draw(query)
        negative = draw(st.booleans())
        steps.append(LabeledStep(
            utterance_id=draw(utterance_ids),
            block=draw(st.integers(1, 10**6)),
            tool=tool,
            prefix=draw(_AWKWARD),
            prev_query=draw(st.one_of(st.just(NO_QUERY), query)),
            pseudo_gt=pseudo_gt,
            label=pseudo_gt if negative else draw(st.sampled_from([NO_QUERY, pseudo_gt])),
            is_negative_sample=negative,
            negative_prev=draw(query) if negative else None,
        ))
    return steps


@pytest.fixture(scope="module")
def export_path(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("export") / "training.jsonl"


@settings(max_examples=100, deadline=None)
@given(steps=_labeled_steps())
def test_export_writes_json_dumps_of_each_record(export_path, steps):
    """The export's bytes equal ``json.dumps`` of the oracle's record per
    step, and reading them back returns the steps unchanged."""
    export_training_set(steps, str(export_path))
    expected = "".join(json.dumps(step_to_dict(step)) + "\n" for step in steps)
    assert export_path.read_bytes() == expected.encode("utf-8")
    assert read_training_set(str(export_path)) == steps
