from __future__ import annotations

import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamrag import orchestrator, reflector, retrieval
from streamrag.cli import generator_factory
from streamrag.core import (
    NO_QUERY,
    KgDomain,
    KgQuery,
    ScriptedQueries,
    SessionConfig,
    Strategy,
    ToolQuery,
    UtteranceTrace,
    Word,
    blocks_of,
)
from streamrag.errors import InputError, SimulatedFault
from streamrag.labeling import SimilarityContext, assign_streaming_labels
from streamrag.orchestrator import (
    Backends,
    LatencyModel,
    LatencyBreakdown,
    LogEvent,
    SessionOutcome,
    event_lines,
    outcome_from_dict,
    run_batch,
    run_session,
    substream_rng,
)
from streamrag.synth import FixtureWorld, brand_founder_trace, early_fire_trace, random_batch
from streamrag.triggers import FinalQueryGenerator, ScriptedQueryGenerator

from checkers import (
    check_conservation,
    check_single_thread_per_tool,
    check_time_ordered,
    max_pending_per_tool,
)
from conftest import session_config
from oracles import event_rows
from paraphrase import paraphrase_batch
from test_labeling import _AWKWARD
from test_pinned_outputs import FlakyGenerator


class FailingGenerator:
    def generate(self, prefix, prev_web, prev_kg):
        raise SimulatedFault("model unavailable")


class EveryNth:
    """Wraps a backend; its ``method`` raises ``fault`` on every ``n``-th call."""

    def __init__(self, inner, method: str, n: int, fault: type[Exception] = SimulatedFault) -> None:
        self._inner = inner
        self._method = method
        self._n = n
        self._fault = fault
        self._calls = 0

    def __getattr__(self, name):
        found = getattr(self._inner, name)
        if name != self._method:
            return found

        def flaky(*args):
            self._calls += 1
            if self._calls % self._n == 0:
                raise self._fault(f"{self._method} call {self._calls} failed")
            return found(*args)
        return flaky


class NoQueryAfter:
    """Answers the trace's final scripted pair on its first ``real`` calls and
    returns NO_QUERY for both tools after them."""

    def __init__(self, trace: UtteranceTrace, real: int) -> None:
        self._final = FinalQueryGenerator(trace)
        self._real = real

    def generate(self, prefix, prev_web, prev_kg):
        self._real -= 1
        if self._real >= 0:
            return self._final.generate(prefix, prev_web, prev_kg)
        return ScriptedQueries(NO_QUERY, NO_QUERY)


def _tool_blocks(outcome, type_: str, detail=None) -> list[tuple[str, int]]:
    return [(e.tool, e.block) for e in outcome.event_log
            if e.type == type_ and (detail is None or e.detail == detail)]


def _uniform_trace(world: FixtureWorld, blocks: int = 3, last_end: int = 1400) -> UtteranceTrace:
    """Every block scripts the identical query pair."""
    entity = world.entities[5]
    scripted = {b: world.scripted(entity) for b in range(1, blocks + 1)}
    words = []
    for b in range(1, blocks + 1):
        end = min(b * 500 - 100, last_end) if b < blocks else last_end
        words.append(Word(f"w{b}", (b - 1) * 500 + 10, end))
    return UtteranceTrace("uniform", words, scripted)


class TestLatencyModel:
    def test_constant_and_empirical_sampling(self, world, backends):
        """A session draws a list stage from its samples and reads a constant
        stage as it is."""
        latency = LatencyModel(query_gen=[100, 200, 300], seed=1)
        config = session_config(Strategy.OPEN_BOOK)
        traces = random_batch(world, 30, seed=1, block_ms=500)
        outcomes, errors = run_batch(traces, config, generator_factory(config, backends.index),
                                     backends, latency)
        assert not errors
        draws = {outcome.latency.query_gen_ms for outcome in outcomes}
        assert draws <= {100, 200, 300} and len(draws) > 1
        assert {outcome.latency.response_gen_ms for outcome in outcomes} == {2520}

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            LatencyModel(query_gen=-1)
        with pytest.raises(ValueError):
            LatencyModel(web_fetch=[])


class TestClosedAndOpenBook:
    def test_closed_book_has_no_tool_latency(self, backends, headline_latency):
        trace = brand_founder_trace()
        outcome = run_session(
            trace, session_config(Strategy.CLOSED_BOOK), None, backends, headline_latency
        )
        assert outcome.latency == LatencyBreakdown(
            query_gen_ms=0, tool_results_ms=0, response_gen_ms=2520,
            first_token_ms=2520, last_token_ms=2520,
        )
        assert outcome.threads_spawned == 0
        assert outcome.references.total_tokens == 0

    def test_open_book_headline_breakdown(self, backends, headline_latency):
        trace = brand_founder_trace()
        outcome = run_session(
            trace, session_config(Strategy.OPEN_BOOK), FinalQueryGenerator(trace),
            backends, headline_latency,
        )
        assert outcome.latency == LatencyBreakdown(
            query_gen_ms=590, tool_results_ms=2780, response_gen_ms=2520,
            first_token_ms=5890, last_token_ms=5890,
        )
        assert outcome.threads_spawned == 2
        assert not outcome.degraded

    def test_open_book_fires_single_pair_at_utterance_end(self, backends, headline_latency):
        trace = brand_founder_trace()
        outcome = run_session(
            trace, session_config(Strategy.OPEN_BOOK), FinalQueryGenerator(trace),
            backends, headline_latency,
        )
        fires = [e for e in outcome.event_log if e.type == "query_fired"]
        assert len(fires) == 2
        assert all(e.t_ms == trace.end_ms for e in fires)


class TestModelTriggered:
    def test_early_fire_overlap_credit(self, world, index, backends, headline_latency):
        trace = early_fire_trace(world)
        config = session_config(Strategy.MODEL_TRIGGERED)
        gen = generator_factory(config, index)(trace)
        outcome = run_session(trace, config, gen, backends, headline_latency)
        # last fire at 1500 ms, utterance ends at 2080 ms: 580 ms of overlap
        assert outcome.latency == LatencyBreakdown(
            query_gen_ms=590, tool_results_ms=2200, response_gen_ms=2520,
            first_token_ms=5310, last_token_ms=5310,
        )
        assert outcome.max_parallel_threads == 1

    def test_event_log_invariants(self, world, index, backends, headline_latency):
        trace = early_fire_trace(world)
        config = session_config(Strategy.MODEL_TRIGGERED)
        gen = generator_factory(config, index)(trace)
        outcome = run_session(trace, config, gen, backends, headline_latency)
        check_time_ordered(outcome.event_log)
        check_single_thread_per_tool(outcome.event_log)
        check_conservation(outcome)

    def test_monotone_savings_with_strictness(self, world, index, backends, headline_latency):
        for trace in random_batch(world, 12, seed=5, block_ms=500, allow_final_refire=False):
            mt_config = session_config(Strategy.MODEL_TRIGGERED)
            mt = run_session(
                trace, mt_config, generator_factory(mt_config, index)(trace),
                backends, headline_latency,
            )
            ob = run_session(
                trace, session_config(Strategy.OPEN_BOOK), FinalQueryGenerator(trace),
                backends, headline_latency,
            )
            fires = [e for e in mt.event_log if e.type == "query_fired"]
            assert mt.latency.first_token_ms <= ob.latency.first_token_ms
            if any(e.t_ms < trace.end_ms for e in fires):
                assert mt.latency.first_token_ms < ob.latency.first_token_ms

    def test_equality_when_last_fire_at_utterance_end(self, world, index, backends, headline_latency):
        entity_a, entity_b = world.entities[3], world.entities[4]
        scripted = {1: world.scripted(entity_a), 2: world.scripted(entity_a),
                    3: world.scripted(entity_b)}
        trace = UtteranceTrace(
            "refire", [Word("a", 0, 400), Word("b", 600, 900), Word("c", 1100, 1300)], scripted
        )
        mt_config = session_config(Strategy.MODEL_TRIGGERED)
        mt = run_session(
            trace, mt_config, generator_factory(mt_config, index)(trace),
            backends, headline_latency,
        )
        ob = run_session(
            trace, session_config(Strategy.OPEN_BOOK), FinalQueryGenerator(trace),
            backends, headline_latency,
        )
        last_fire = max(e.t_ms for e in mt.event_log if e.type == "query_fired")
        assert last_fire == trace.end_ms
        assert mt.latency.first_token_ms == ob.latency.first_token_ms


class TestFixedInterval:
    def test_uniform_queries_select_block_1(self, world, backends, headline_latency):
        trace = _uniform_trace(world)
        config = session_config(Strategy.FIXED_INTERVAL)
        outcome = run_session(
            trace, config, ScriptedQueryGenerator(trace, 500), backends, headline_latency
        )
        assert outcome.selected_block == 1
        # hand-simulated timeline: thread 1 fires at 500, finishes at
        # 500 + 590 + 2780 = 3870; utterance ends at 1400; response 2520
        assert outcome.latency.first_token_ms == (3870 - 1400) + 2520
        assert outcome.latency.tool_results_ms == 2780 - (1400 - 500)
        assert outcome.threads_spawned == 6
        assert outcome.threads_cancelled == 4

    def test_selected_thread_already_done_waits_zero(self, world, backends):
        trace = _uniform_trace(world)
        fast = LatencyModel(query_gen=590, web_fetch=200, chunk_rerank=0, kg_lookup=100,
                            response_gen=2520)
        outcome = run_session(
            trace, session_config(Strategy.FIXED_INTERVAL), ScriptedQueryGenerator(trace, 500),
            backends, fast,
        )
        assert outcome.selected_block == 1
        assert outcome.latency.tool_results_ms == 0
        assert outcome.latency.first_token_ms == 2520

    def test_walkthrough_trace_full_accounting(self, world, index, backends, headline_latency):
        trace = brand_founder_trace()
        config = session_config(Strategy.FIXED_INTERVAL)
        outcome = run_session(
            trace, config, ScriptedQueryGenerator(trace, 500), backends, headline_latency
        )
        assert outcome.selected_block == 3
        assert outcome.threads_spawned == 10  # one pair per block
        cancelled = [e for e in outcome.event_log if e.type == "thread_cancelled"]
        assert len(cancelled) == 4  # blocks 4 and 5, both tools
        assert {e.block for e in cancelled} == {4, 5}
        check_time_ordered(outcome.event_log)
        check_conservation(outcome)
        assert max_pending_per_tool(outcome.event_log) <= 5

    def test_reflector_equivalence_with_open_book_bundle(self, world, index, backends, headline_latency):
        trace = brand_founder_trace()
        fi = run_session(
            trace, session_config(Strategy.FIXED_INTERVAL), ScriptedQueryGenerator(trace, 500),
            backends, headline_latency,
        )
        ob = run_session(
            trace, session_config(Strategy.OPEN_BOOK), FinalQueryGenerator(trace),
            backends, headline_latency,
        )
        assert fi.references.to_canonical_text() == ob.references.to_canonical_text()

    def test_no_sufficient_intermediate_uses_final(self, world, index, backends, headline_latency):
        entities = world.entities
        scripted = {b: world.scripted(entities[b]) for b in range(1, 4)}  # all different
        trace = UtteranceTrace(
            "all-different", [Word("a", 0, 400), Word("b", 600, 900), Word("c", 1100, 1300)],
            scripted,
        )
        outcome = run_session(
            trace, session_config(Strategy.FIXED_INTERVAL), ScriptedQueryGenerator(trace, 500),
            backends, headline_latency,
        )
        assert outcome.selected_block is None
        assert outcome.threads_cancelled == 0
        # final pair fired at utterance end: same wait as open book
        assert outcome.latency.tool_results_ms == 2780

    @pytest.mark.parametrize("case", ["scripted", "failing_generator", "no_query_after",
                                      "failing_calls"])
    def test_each_tool_calls_once_per_block(self, case, world, index, kg_store,
                                            headline_latency, sessions, monkeypatch):
        """Each block makes one call per tool, a real call or a failed NO_QUERY
        placeholder, so a tool's calls have blocks exactly 1..B: the session
        and the reflector read block b's calls at index b - 1."""
        config = session_config(Strategy.FIXED_INTERVAL)
        traces = random_batch(world, 30, seed=11, block_ms=500)
        make = {"failing_generator": lambda trace: FailingGenerator(),
                "no_query_after": lambda trace: NoQueryAfter(trace, 2)}.get(
                    case, generator_factory(config, index))
        backends = Backends(index=index, kg_store=kg_store)
        if case == "failing_calls":
            backends = Backends(index=EveryNth(index, "ranking", 2), kg_store=kg_store)
            # the reflector searches the plain index, so only tool calls fail
            top_docs_match = reflector.top_docs_match
            monkeypatch.setattr(reflector, "top_docs_match",
                                lambda _, *args: top_docs_match(index, *args))
        run_batch(traces, config, make, backends, headline_latency)
        assert len(sessions) == len(traces)
        kinds: Counter = Counter()
        for trace, session in zip(traces, sessions):
            blocks = list(range(1, len(blocks_of(trace, config.block_ms)) + 1))
            for tool, calls in session.calls.items():
                assert [(c.tool, c.block) for c in calls] == [(tool, b) for b in blocks]
                kinds.update("placeholder" if c.seq is None else c.status.value for c in calls)
        # each case makes the calls it is meant to
        assert {"scripted": kinds["placeholder"] == kinds["failed"] == 0,
                "failing_generator": kinds.keys() == {"placeholder"},
                "no_query_after": kinds["placeholder"] > 0 and kinds["failed"] == 0,
                "failing_calls": kinds["failed"] > 0 and kinds["placeholder"] == 0}[case], kinds


class TestFailureHandling:
    @pytest.mark.parametrize("part, method", [("index", "ranking"), ("kg_store", "lookup")])
    def test_any_other_backend_error_propagates(self, index, kg_store, headline_latency, part,
                                                method):
        """Only a SimulatedFault is a failed call; any other error is a bug."""
        trace = brand_founder_trace()
        parts = {"index": index, "kg_store": kg_store}
        parts[part] = EveryNth(parts[part], method, 1, ZeroDivisionError)
        with pytest.raises(ZeroDivisionError, match=f"{method} call 1 failed"):
            run_session(trace, session_config(Strategy.OPEN_BOOK), FinalQueryGenerator(trace),
                        Backends(**parts), headline_latency)

    def test_all_threads_failed_degrades_to_closed_book(self, backends, headline_latency):
        trace = brand_founder_trace()
        outcome = run_session(
            trace, session_config(Strategy.FIXED_INTERVAL), FailingGenerator(),
            backends, headline_latency,
        )
        assert outcome.degraded
        assert outcome.references.total_tokens == 0
        assert outcome.latency.first_token_ms == 2520
        failed = [e for e in outcome.event_log
                  if e.type == "thread_done" and (e.detail or {}).get("status") == "failed"]
        assert len(failed) == 10

    def test_model_triggered_failure_keeps_quiet(self, backends, headline_latency):
        trace = brand_founder_trace()
        outcome = run_session(
            trace, session_config(Strategy.MODEL_TRIGGERED), FailingGenerator(),
            backends, headline_latency,
        )
        assert outcome.degraded
        assert outcome.threads_spawned == 0
        assert all(e.type != "query_fired" for e in outcome.event_log)

    @pytest.mark.parametrize("strategy, blocks", [(Strategy.FIXED_INTERVAL, range(1, 6)),
                                                  (Strategy.OPEN_BOOK, [1])],
                             ids=["fixed_interval", "open_book"])
    def test_returned_no_query_is_a_failed_call(self, backends, headline_latency, strategy,
                                                blocks):
        trace = brand_founder_trace()
        outcome = run_session(trace, session_config(strategy), NoQueryAfter(trace, 0),
                              backends, headline_latency)
        failed = {"status": "failed", "error": "query generation failed"}
        assert _tool_blocks(outcome, "thread_done", failed) == [
            (tool, b) for b in blocks for tool in ("web", "kg")
        ]
        assert _tool_blocks(outcome, "query_fired") == _tool_blocks(outcome, "no_query") == []
        assert outcome.degraded and outcome.threads_spawned == 0

    def test_returned_no_query_keeps_the_running_call_under_model_triggered(
        self, backends, headline_latency
    ):
        trace = brand_founder_trace()
        outcome = run_session(trace, session_config(Strategy.MODEL_TRIGGERED),
                              NoQueryAfter(trace, 1), backends, headline_latency)
        assert _tool_blocks(outcome, "query_fired") == [("web", 1), ("kg", 1)]
        assert _tool_blocks(outcome, "no_query") == [
            (tool, b) for b in range(2, 6) for tool in ("web", "kg")
        ]
        assert _tool_blocks(outcome, "thread_cancelled") == []
        assert _tool_blocks(outcome, "thread_done", {"status": "done"}) == [("web", 1), ("kg", 1)]
        assert not outcome.degraded and outcome.threads_cancelled == 0


class TestRunBatch:
    def test_batch_of_one_equals_run_session(self, world, index, backends, headline_latency):
        trace = brand_founder_trace()
        config = session_config(Strategy.FIXED_INTERVAL)
        single = run_session(
            trace, config, ScriptedQueryGenerator(trace, 500), backends, headline_latency
        )
        batch, errors = run_batch(
            [trace], config, lambda t: ScriptedQueryGenerator(t, 500), backends, headline_latency
        )
        assert errors == []
        assert batch[0].to_dict(include_events=True) == single.to_dict(include_events=True)

    def test_permuted_input_gives_permuted_identical_outcomes(self, world, index, backends, headline_latency):
        traces = random_batch(world, 6, seed=21, block_ms=500)
        config = session_config(Strategy.MODEL_TRIGGERED)
        factory = generator_factory(config, index)
        forward, _ = run_batch(traces, config, factory, backends, headline_latency)
        backward, _ = run_batch(traces[::-1], config, factory, backends, headline_latency)
        by_id = {o.utterance_id: o.to_dict(include_events=True) for o in backward}
        for outcome in forward:
            assert outcome.to_dict(include_events=True) == by_id[outcome.utterance_id]

    def test_thread_count_accounting_over_batch(self, world, index, backends, headline_latency):
        traces = random_batch(world, 100, seed=33, block_ms=1000)
        config = session_config(Strategy.FIXED_INTERVAL, block_ms=1000)
        factory = lambda t: ScriptedQueryGenerator(t, 1000)
        outcomes, errors = run_batch(traces, config, factory, backends, headline_latency)
        assert errors == []
        # oracle: blocks counted directly from the traces' word timings
        expected_pairs = sum(len(blocks_of(t, 1000)) for t in traces)
        assert sum(o.threads_spawned for o in outcomes) == 2 * expected_pairs

    def test_a_trace_that_raises_ends_the_batch(self, backends, headline_latency):
        good = brand_founder_trace()
        bad = UtteranceTrace("no-words", [Word("x", 0, 100)], {})  # no scripted queries
        config = session_config(Strategy.FIXED_INTERVAL)
        with pytest.raises(InputError, match="no-words: no scripted queries for blocks"):
            run_batch([good, bad, good], config, lambda t: ScriptedQueryGenerator(t, 500),
                      backends, headline_latency)

    def test_one_scoring_per_distinct_query_text(self, world, kg_store, headline_latency,
                                                 monkeypatch):
        """Sessions, the reflector, the similarity check and labeling search
        the same texts again and again; a fresh index scores each text once."""
        index = retrieval.index_documents(world.corpus)
        scored: Counter = Counter()
        searched: list[str] = []
        score_all = retrieval.DocIndex.score_all

        def counted_score_all(self, query_text, *args):
            scored[query_text] += 1
            return score_all(self, query_text, *args)

        def recorded(search):
            def web_search(index, query, k):
                searched.append(query.web_text)
                return search(index, query, k)
            return web_search

        monkeypatch.setattr(retrieval.DocIndex, "score_all", counted_score_all)
        monkeypatch.setattr(orchestrator, "web_search", recorded(orchestrator.web_search))
        monkeypatch.setattr(retrieval, "web_search", recorded(retrieval.web_search))

        backends = Backends(index=index, kg_store=kg_store)
        traces = random_batch(world, 40, seed=7, block_ms=500)
        for strategy in (Strategy.OPEN_BOOK, Strategy.FIXED_INTERVAL, Strategy.MODEL_TRIGGERED):
            config = session_config(strategy)
            factory = generator_factory(config, index)
            _, errors = run_batch(traces, config, factory, backends, headline_latency)
            assert errors == []
        ctx = SimilarityContext(index=index, compare_k=5, retrieve_k=50, ordered=False)
        for trace in traces:
            assign_streaming_labels(trace, 500, ctx)

        assert len(searched) > 2 * len(set(searched))  # the same texts, searched again
        assert scored == Counter(set(searched))

    def test_empty_batch_rejected(self, backends, headline_latency):
        with pytest.raises(ValueError):
            run_batch([], session_config(Strategy.OPEN_BOOK), lambda t: None, backends,
                      headline_latency)


class TestEventLogOracle:
    """The counts a session reports, rebuilt from its event log alone."""

    @staticmethod
    def counts_from_events(events) -> tuple[int, int, int]:
        spawned = sum(e.type == "query_fired" for e in events)
        cancelled = sum(e.type == "thread_cancelled" for e in events)
        fired: set[tuple[str, int]] = set()
        pending: Counter = Counter()
        peak = 0
        for e in events:
            if e.type == "query_fired":
                fired.add((e.tool, e.block))
                pending[e.tool] += 1
                peak = max(peak, pending[e.tool])
            # a thread_done with no fire at its (tool, block) is a failed generation
            elif e.type in ("thread_done", "thread_cancelled") and (e.tool, e.block) in fired:
                pending[e.tool] -= 1
        return spawned, cancelled, peak

    @pytest.mark.parametrize("flaky", [False, True], ids=["plain", "flaky"])
    @pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
    def test_reported_counts_match_the_event_log(self, strategy, flaky, world, index, backends):
        config = session_config(strategy)
        latency = LatencyModel(query_gen=(450, 590, 730), web_fetch=(1900, 2500, 3100),
                               chunk_rerank=(200, 280), kg_lookup=(150, 250), seed=5)

        make = generator_factory(config, index)

        def factory(trace):
            gen = make(trace)
            return FlakyGenerator(gen, trace.utterance_id) if flaky and gen else gen

        traces = random_batch(world, 100, seed=13, block_ms=500)
        outcomes, errors = run_batch(traces, config, factory, backends, latency)
        assert errors == [] and len(outcomes) == len(traces)
        for outcome in outcomes:
            reported = (outcome.threads_spawned, outcome.threads_cancelled,
                        outcome.max_parallel_threads)
            assert reported == self.counts_from_events(outcome.event_log), outcome.utterance_id
        if strategy is Strategy.FIXED_INTERVAL:
            assert max(o.max_parallel_threads for o in outcomes) > 1
        if strategy in (Strategy.FIXED_INTERVAL, Strategy.MODEL_TRIGGERED):
            assert sum(o.threads_cancelled for o in outcomes) > 0
        if flaky and strategy is Strategy.FIXED_INTERVAL:
            assert any((e.detail or {}).get("error") == "query generation failed"
                       for o in outcomes for e in o.event_log)


class TestOutcomeSerialization:
    def test_round_trip(self, world, index, backends, headline_latency):
        trace = brand_founder_trace()
        outcome = run_session(
            trace, session_config(Strategy.FIXED_INTERVAL), ScriptedQueryGenerator(trace, 500),
            backends, headline_latency,
        )
        again = outcome_from_dict(outcome.to_dict())
        assert again.utterance_id == outcome.utterance_id
        assert again.latency == outcome.latency
        assert again.references == outcome.references
        assert again.selected_block == outcome.selected_block


class TestDeterminism:
    def test_identical_runs_identical_logs(self, world, index, backends):
        trace = early_fire_trace(world)
        config = session_config(Strategy.MODEL_TRIGGERED, rng_seed=9)
        latency = LatencyModel(
            query_gen=[400, 590, 700], web_fetch=[2000, 2780], chunk_rerank=[0, 50],
            kg_lookup=[100, 2780], response_gen=[2000, 2520], seed=3,
        )
        gen = generator_factory(config, index)(trace)
        a = run_session(trace, config, gen, backends, latency)
        b = run_session(trace, config, gen, backends, latency)
        assert a.to_dict(include_events=True) == b.to_dict(include_events=True)

    def test_substreams_differ_across_utterances(self):
        assert substream_rng(0, 0, "a").random() != substream_rng(0, 0, "b").random()


def _events_at(outcome, t_ms: int) -> list[tuple[str, str | None, int | None]]:
    return [(e.type, e.tool, e.block) for e in outcome.event_log if e.t_ms == t_ms]


class TestTimelineTies:
    """How a session orders things that happen at the same millisecond: a
    block fires before any call that finishes at its time, and calls that
    finish at utterance end do so before fixed_interval's reflector runs."""

    def test_model_triggered_call_finishing_at_the_next_fire_is_cancelled(
        self, world, index, backends
    ):
        a, b = world.scripted(world.entities[3]), world.scripted(world.entities[4])
        trace = UtteranceTrace(
            "tie", [Word("a", 0, 400), Word("b", 600, 900), Word("c", 1100, 1400),
                    Word("d", 1600, 1900)], {1: a, 2: a, 3: b, 4: b})
        config = session_config(Strategy.MODEL_TRIGGERED)
        for kg_ms, finished in ((480, False), (479, True)):
            # the kg call fired at block 1 (500 ms) finishes at 500 + 520 + kg_ms;
            # block 3 fires the next kg query at 1500 ms
            latency = LatencyModel(query_gen=520, web_fetch=2200, chunk_rerank=280,
                                   kg_lookup=kg_ms, response_gen=2520)
            outcome = run_session(trace, config, generator_factory(config, index)(trace),
                                  backends, latency)
            assert _tool_blocks(outcome, "query_fired") == [("web", 1), ("kg", 1),
                                                            ("web", 3), ("kg", 3)]
            kg_1_done = ("kg", 1) in _tool_blocks(outcome, "thread_done")
            kg_1_cancelled = [e.t_ms for e in outcome.event_log
                              if e.type == "thread_cancelled" and e.tool == "kg"]
            assert kg_1_done is finished
            assert kg_1_cancelled == ([] if finished else [1500])

    def test_fixed_interval_call_finishing_at_a_later_block_is_pending_there(
        self, world, backends
    ):
        entry = world.scripted(world.entities[5])
        trace = UtteranceTrace(
            "tie", [Word("a", 0, 400), Word("b", 600, 900), Word("c", 1100, 1500)],
            {1: entry, 2: entry, 3: entry})
        config = session_config(Strategy.FIXED_INTERVAL)
        for tool_ms, peak in ((480, 3), (479, 2)):
            # calls fire at 500, 1000 and 1500 ms and take 520 + tool_ms
            latency = LatencyModel(query_gen=520, web_fetch=tool_ms, chunk_rerank=0,
                                   kg_lookup=tool_ms, response_gen=2520)
            outcome = run_session(trace, config, ScriptedQueryGenerator(trace, 500),
                                  backends, latency)
            assert outcome.max_parallel_threads == peak
            if tool_ms == 480:
                assert _events_at(outcome, 1500)[:5] == [
                    ("block_ingested", None, 3), ("query_fired", "web", 3),
                    ("query_fired", "kg", 3), ("thread_done", "web", 1),
                    ("thread_done", "kg", 1),
                ]

    @pytest.mark.parametrize("strategy", [Strategy.OPEN_BOOK, Strategy.FIXED_INTERVAL,
                                          Strategy.MODEL_TRIGGERED], ids=lambda s: s.value)
    def test_zero_latency_thread_done_follows_its_fire(self, strategy, world, index, backends):
        config = session_config(strategy)
        zero = LatencyModel(query_gen=0, web_fetch=0, chunk_rerank=0, kg_lookup=0,
                            response_gen=0, response_tail=0)
        outcomes, errors = run_batch(random_batch(world, 20, seed=3, block_ms=500), config,
                                     generator_factory(config, index), backends, zero)
        assert errors == []
        for outcome in outcomes:
            fired = {(e.tool, e.block): (i, e.t_ms) for i, e in enumerate(outcome.event_log)
                     if e.type == "query_fired"}
            done = {(e.tool, e.block): (i, e.t_ms) for i, e in enumerate(outcome.event_log)
                    if e.type == "thread_done"}
            assert fired and fired.keys() == done.keys()
            for key, (i, t_ms) in fired.items():
                assert done[key][0] > i and done[key][1] == t_ms

    def test_failing_web_call_pending_at_utterance_end_is_judged_then_yields_nothing(
        self, world, index, kg_store
    ):
        trace = _uniform_trace(world)  # one query pair at every block; ends at 1400 ms
        backends = Backends(index=EveryNth(index, "ranking", 1), kg_store=kg_store)
        config = session_config(Strategy.FIXED_INTERVAL)
        # block 1's web call fires at 500 ms and fails at 500 + 590 + 2780 = 3870
        slow = LatencyModel(query_gen=590, web_fetch=2780, chunk_rerank=0, kg_lookup=100,
                            response_gen=2520)
        outcome = run_session(trace, config, ScriptedQueryGenerator(trace, 500), backends, slow)
        reflected = [e.detail for e in outcome.event_log if e.type == "reflected"]
        assert reflected == [
            {"block": 1, "web": "identical_query", "kg": "identical_query", "sufficient": True},
            {"selected_block": 1},
        ]
        assert outcome.selected_block == 1
        assert _tool_blocks(outcome, "thread_done", {"status": "failed",
                                                     "error": "ranking call 1 failed"}) == [
            ("web", 1)]
        assert [e.t_ms for e in outcome.event_log
                if e.type == "thread_done" and e.tool == "web"] == [3870]
        assert outcome.references.web_chunks == () and outcome.references.kg_answers
        assert not outcome.degraded
        # block 1's web call fails at 1290 ms, before utterance end, so it is
        # insufficient; block 2's fails at 1790 ms and is still pending
        fast = LatencyModel(query_gen=590, web_fetch=200, chunk_rerank=0, kg_lookup=100,
                            response_gen=2520)
        outcome = run_session(trace, config, ScriptedQueryGenerator(trace, 500), backends, fast)
        assert [e.detail["web"] for e in outcome.event_log
                if e.type == "reflected" and "web" in e.detail] == [
            "insufficient", "identical_query"]
        assert outcome.selected_block == 2
        assert outcome.references.web_chunks == ()


_EVENT_TYPES = ["block_ingested", "query_fired", "no_query", "thread_done", "thread_cancelled",
                "reflected", "references_ready", "first_token", "last_token"]


@st.composite
def _kg_wires(draw) -> dict:
    names = _AWKWARD.filter(lambda name: name != "domain")
    attributes = draw(st.dictionaries(names, _AWKWARD, max_size=3))
    domain = draw(st.sampled_from(list(KgDomain))).value
    return ToolQuery.kg(KgQuery.make(domain, attributes)).to_wire()


@st.composite
def _details(draw, wires: list) -> dict | None:
    """A detail of each kind the engine logs, and a few it never does."""
    kind = draw(st.sampled_from(["none", "query", "done", "failed", "prefix", "scan",
                                 "selected", "tokens", "odd"]))
    if kind == "none":
        return None
    if kind == "query":
        return {"query": draw(st.sampled_from(wires))}
    if kind == "done":
        return {"status": "done"}
    if kind == "failed":
        return {"status": "failed", "error": draw(_AWKWARD)}
    if kind == "prefix":
        return {"prefix": draw(_AWKWARD)}
    if kind == "scan":
        reasons = st.sampled_from(["identical_query", "top5_match", "kg_result_match",
                                   "insufficient"])
        return {"block": draw(st.integers(1, 50)), "web": draw(reasons), "kg": draw(reasons),
                "sufficient": draw(st.booleans())}
    if kind == "selected":
        return {"selected_block": draw(st.one_of(st.none(), st.integers(1, 50)))}
    if kind == "tokens":
        return {"total_tokens": draw(st.integers(0, 10**6))}
    # queries that are not a string or a map of strings (1, True and 1.0 are
    # equal keys but encode apart), and details the engine never writes
    return draw(st.sampled_from([
        {"query": {"domain": "music", "rank": 1}}, {"query": {"domain": "music", "rank": True}},
        {"query": {"domain": "music", "rank": 1.0}}, {"query": {1: "a"}}, {"query": {True: "a"}},
        {"query": ["a", "b"]}, {"query": None}, {"query": "a", "note": "b"},
        {"prefix": "p", "block": 1}, {"prefix": 5}, {"status": "doneish"},
        {"status": "done", "error": "x"}, {}]))


@st.composite
def _outcomes(draw) -> list[SessionOutcome]:
    """Outcomes whose events share a few queries, so that a query recurs
    within and across outcomes as in a real batch."""
    wires = draw(st.lists(st.one_of(_AWKWARD.filter(lambda text: text != "NO_QUERY"),
                                    _kg_wires()), min_size=1, max_size=4))
    # an equal map in another order encodes apart
    wires += [dict(reversed(wire.items())) for wire in wires
              if isinstance(wire, dict) and len(wire) > 1]
    names = st.one_of(st.sampled_from(_EVENT_TYPES), _AWKWARD)
    tools = st.one_of(st.sampled_from([None, "web", "kg"]), _AWKWARD)
    outcomes = []
    for _ in range(draw(st.integers(0, 4))):
        events = [LogEvent(draw(st.integers(0, 10**9)), draw(names), draw(tools),
                           draw(st.one_of(st.none(), st.integers(1, 10**6))),
                           draw(_details(wires)))
                  for _ in range(draw(st.integers(0, 8)))]
        outcomes.append(SessionOutcome(draw(_AWKWARD), Strategy.FIXED_INTERVAL,
                                       event_log=events))
    return outcomes


def _expected_lines(outcomes) -> str:
    return "".join(json.dumps(row) + "\n" for row in event_rows(outcomes))


class TestEventLines:
    """``event_lines`` writes ``json.dumps`` of each oracle row, byte for byte."""

    @settings(max_examples=300, deadline=None)
    @given(outcomes=_outcomes())
    def test_each_line_is_json_dumps_of_the_oracle_row(self, outcomes):
        assert "".join(event_lines(outcomes)) == _expected_lines(outcomes)

    def test_explicit_cases(self):
        wire = ToolQuery.kg(KgQuery.make("music", {"artist_name": "Beyoncé \"B\"\\\n"})).to_wire()
        events = [LogEvent(0, "block_ingested", None, 1, {"prefix": "who\x00 \u2028 漢"}),
                  LogEvent(5, "query_fired", "kg", 1, {"query": wire}),
                  LogEvent(9, "thread_done", "kg", 1, {"status": "failed", "error": "boom \x1f"}),
                  LogEvent(9, "reflected", None, None, {"selected_block": None}),
                  LogEvent(9, "first_token")]
        outcomes = [SessionOutcome("u\"1\\ é", Strategy.FIXED_INTERVAL, event_log=events),
                    SessionOutcome("empty", Strategy.OPEN_BOOK),
                    SessionOutcome("u2", Strategy.FIXED_INTERVAL, event_log=events[1:3])]
        assert "".join(event_lines(outcomes)) == _expected_lines(outcomes)
        # equal maps that json.dumps writes apart: keys in another order, and
        # keys or values that are equal but not strings
        queries = [{"domain": "music", "artist_name": "x"}, {"artist_name": "x", "domain": "music"},
                   {1: "a"}, {True: "a"}, {"rank": 1}, {"rank": True}, {"rank": 1.0}]
        outcomes = [SessionOutcome("u", Strategy.MODEL_TRIGGERED, event_log=[
            LogEvent(0, "query_fired", "kg", 1, {"query": query}) for query in queries])]
        assert "".join(event_lines(outcomes)) == _expected_lines(outcomes)
        assert list(event_lines([])) == []
        assert list(event_lines(outcomes[1:2])) == []

    @pytest.mark.parametrize("flaky", [False, True], ids=["plain", "flaky"])
    @pytest.mark.parametrize("batch", [random_batch, paraphrase_batch],
                             ids=["random", "paraphrase"])
    @pytest.mark.parametrize("strategy", [Strategy.OPEN_BOOK, Strategy.FIXED_INTERVAL,
                                          Strategy.MODEL_TRIGGERED], ids=lambda s: s.value)
    def test_real_batches(self, strategy, batch, flaky, world, index, backends, headline_latency):
        config = session_config(strategy)
        make = generator_factory(config, index)

        def factory(trace):
            gen = make(trace)
            return FlakyGenerator(gen, trace.utterance_id) if flaky else gen

        traces = batch(world, 30, seed=17, block_ms=500)
        outcomes, errors = run_batch(traces, config, factory, backends, headline_latency)
        assert errors == [] and outcomes
        assert "".join(event_lines(outcomes)) == _expected_lines(outcomes)
