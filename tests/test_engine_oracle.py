"""The session engine against the reference engine in ``oracles``.

The reference pumps a heap of timed callables; the engine computes each
session as one timeline and sorts its log once. Over drawn traces, block
sizes, endpoint delays, stage delays, generators, failing backends, search
and reflection depths and all four strategies, both must give the same
outcome and event log, or raise the same error. The reference searches
``top_docs`` deep and trims to ``reflect_top_k``; the engine searches only
``min(top_docs, reflect_top_k)`` deep, so the depths are drawn on both sides
of each other. Stage delays are drawn from values whose sums land calls exactly
on block boundaries and on utterance end (520 + 2200 + 280 = 3000 ms,
520 + 480 = 1000 ms), so the tie rules are exercised, not just the common
case.
"""

from __future__ import annotations

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from streamrag.cli import generator_factory
from streamrag.core import Strategy, UtteranceTrace, Word, blocks_of
from streamrag.orchestrator import Backends, LatencyModel, run_session

from conftest import session_config
from oracles import oracle_run_session
from test_orchestrator import EveryNth, FailingGenerator, NoQueryAfter
from test_pinned_outputs import FlakyGenerator

# Millisecond values whose sums tie: 520 + 2200 + 280 = 3000 and
# 520 + 480 = 1000 are multiples of every block size drawn from BLOCK_MS.
TIE_MS = [0, 250, 280, 480, 500, 520, 1000, 2200]
BLOCK_MS = [250, 500, 1000]
DEPTHS = [*range(1, 9), 50]


def mostly(values: list[int], lo: int, hi: int) -> st.SearchStrategy[int]:
    """One of ``values``, or now and then any integer in [lo, hi]."""
    return st.sampled_from([*values, None]).flatmap(
        lambda v: st.integers(lo, hi) if v is None else st.just(v))


DELAY = mostly(TIE_MS, 0, 3000)
STAGE = DELAY | st.lists(DELAY, min_size=1, max_size=4).map(tuple)
# every strategy, the streaming ones more often: their tie rules differ
STRATEGIES = [*Strategy, Strategy.FIXED_INTERVAL, Strategy.MODEL_TRIGGERED,
              Strategy.MODEL_TRIGGERED]
STAGES = ("query_gen", "web_fetch", "chunk_rerank", "kg_lookup", "response_gen",
          "response_tail")


@st.composite
def stage_delays(draw, block_ms: int) -> dict:
    """Each stage's delays, drawn freely; or with no time for a call, so it
    finishes as it fires; or with each tool time topped up so that a call
    takes whole blocks, and finishes as a later block fires."""
    stages = {name: draw(STAGE) for name in STAGES}
    mode = draw(st.sampled_from(["free", "instant", "whole_blocks", "whole_blocks"]))
    if mode == "instant":
        stages.update(query_gen=0, web_fetch=0, chunk_rerank=0, kg_lookup=0)
    elif mode == "whole_blocks":
        query_gen, rerank = draw(st.sampled_from(TIE_MS[:6])), draw(st.sampled_from(TIE_MS[:6]))

        def topped_up(fixed: int) -> tuple[int, ...]:
            blocks = draw(st.lists(st.sampled_from([0, 1, 1, 2, 3]), min_size=1, max_size=3))
            return tuple((-(-fixed // block_ms) + n) * block_ms - fixed for n in blocks)

        stages.update(query_gen=query_gen, chunk_rerank=rerank,
                      web_fetch=topped_up(query_gen + rerank), kg_lookup=topped_up(query_gen))
    return stages


@st.composite
def words(draw, block_ms: int) -> list[Word]:
    """Words drawn freely, mostly on multiples of 250 ms; or one word
    completing in each block, mostly at its boundary, so that every block has
    a new prefix and the utterance mostly ends as its last block does."""
    out, t = [], 0
    per_block = draw(st.sampled_from([True, True, False]))
    for i in range(draw(st.integers(1, 7))):
        if per_block:
            start = t
            end = max(t, (i + 1) * block_ms - draw(st.sampled_from([0, 0, 20])))
        else:
            start = t + draw(mostly([0, 20, 250, 500], 0, 700))
            end = start + draw(mostly([0, 230, 250, 480, 500, 750], 0, 900))
        out.append(Word(f"w{i}", start, end))
        t = end
    return out


def _outcome(run, trace, config, make_gen, backends, latency) -> dict | str:
    try:
        outcome = run(trace, config, make_gen(), backends(), latency)
    except Exception as exc:  # noqa: BLE001 - the error is part of the behaviour
        return f"{type(exc).__name__}: {exc}"
    return json.dumps(outcome.to_dict(include_events=True), sort_keys=True)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(),
       strategy=st.sampled_from(STRATEGIES),
       block_ms=mostly(BLOCK_MS, 100, 1500),
       endpoint_delay_ms=mostly([0, 0, 250, 300, 500], 0, 1200),
       generator=st.sampled_from(["scripted"] * 3 + ["flaky", "no_query", "failing"]),
       failing=st.sampled_from([None, None, ("index", "ranking"), ("kg_store", "lookup")]),
       fail_every=st.integers(1, 5),
       rng_seed=st.integers(0, 3),
       top_docs=st.sampled_from(DEPTHS),
       reflect_top_k=st.sampled_from(DEPTHS))
def test_engine_matches_the_reference_engine(world, index, kg_store, data, strategy, block_ms,
                                             endpoint_delay_ms, generator, failing, fail_every,
                                             rng_seed, top_docs, reflect_top_k):
    trace_words = data.draw(words(block_ms), label="words")
    stages = data.draw(stage_delays(block_ms), label="stages")
    # one entity per distinct prefix, so equal prefixes are scripted alike;
    # a few entities, so queries repeat and the reflector has matches to find
    entities = world.entities[:4]
    probe = UtteranceTrace("drawn", trace_words)
    scripted, by_prefix = {}, {}
    for b, prefix in blocks_of(probe, block_ms) or [(1, "")]:
        if prefix not in by_prefix:
            by_prefix[prefix] = world.scripted(data.draw(st.sampled_from(entities)))
        scripted[b] = by_prefix[prefix]
    trace = UtteranceTrace("drawn", trace_words, scripted, "answer")

    config = session_config(strategy, block_ms=block_ms, endpoint_delay_ms=endpoint_delay_ms,
                            rng_seed=rng_seed, top_docs=top_docs, reflect_top_k=reflect_top_k)
    latency = LatencyModel(**stages, seed=rng_seed)
    make = generator_factory(config, index)
    real = data.draw(st.integers(0, 4), label="real calls before NO_QUERY")

    def make_gen():
        gen = make(trace)
        if gen is None or generator == "scripted":
            return gen
        if generator == "flaky":
            return FlakyGenerator(gen, trace.utterance_id)
        if generator == "no_query":
            return NoQueryAfter(trace, real)
        return FailingGenerator()

    def backends() -> Backends:
        parts = {"index": index, "kg_store": kg_store}
        if failing is not None:
            part, method = failing
            parts[part] = EveryNth(parts[part], method, fail_every)
        return Backends(**parts)

    expected = _outcome(oracle_run_session, trace, config, make_gen, backends, latency)
    assert _outcome(run_session, trace, config, make_gen, backends, latency) == expected
