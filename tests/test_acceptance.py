"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are pinned here and nowhere else.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from streamrag.cli import generator_factory
from streamrag.core import Strategy, Tool, blocks_of
from streamrag.labeling import (
    assign_streaming_labels,
    build_negative_pool,
    inject_negative_samples,
)
from streamrag.orchestrator import run_session
from streamrag.synth import (
    JUDGMENT_ROWS,
    FixtureWorld,
    brand_founder_trace,
    early_fire_trace,
    judgment_fixture,
    jump_shots_trace,
    random_batch,
)
from streamrag.metrics import score_responses
from streamrag.reflector import REASON_TOP5_MATCH
from streamrag.triggers import FinalQueryGenerator, ScriptedQueryGenerator

from checkers import check_single_thread_per_tool
from conftest import session_config
from paraphrase import paraphrase_batch
from subproc import child_env

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@contextmanager
def criterion(number: int, description: str):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"\n[criterion {number}] FAIL: {description}", flush=True)
        raise
    elapsed = time.monotonic() - started
    print(f"\n[criterion {number}] PASS ({elapsed:.2f}s): {description}", flush=True)


def test_criterion_1_latency_breakdown_arithmetic(world, index, backends, headline_latency):
    with criterion(1, "headline latency arithmetic: whole-utterance 5.89s, early fire 5.31s"):
        started = time.monotonic()

        trace = brand_founder_trace()
        open_book = run_session(
            trace, session_config(Strategy.OPEN_BOOK), FinalQueryGenerator(trace),
            backends, headline_latency,
        )
        assert abs(open_book.latency.first_token_ms - 5890) <= 1
        assert open_book.latency.query_gen_ms == 590
        assert open_book.latency.tool_results_ms == 2780
        assert open_book.latency.response_gen_ms == 2520

        early = early_fire_trace(world)
        config = session_config(Strategy.MODEL_TRIGGERED)
        streaming = run_session(
            early, config, generator_factory(config, index)(early),
            backends, headline_latency,
        )
        fires = [e.t_ms for e in streaming.event_log if e.type == "query_fired"]
        assert early.end_ms - max(fires) == 580  # last fire 0.58 s before utterance end
        assert abs(streaming.latency.tool_results_ms - 2200) <= 1
        assert abs(streaming.latency.first_token_ms - 5310) <= 1

        assert time.monotonic() - started < 1.0


def test_criterion_2_truthfulness_scoring():
    with criterion(2, "verdict scoring: score = accuracy - hallucination on all six rows"):
        started = time.monotonic()
        for row in JUDGMENT_ROWS:
            scores = score_responses(judgment_fixture(row))
            assert scores["truthfulness_score"] == pytest.approx(
                scores["accuracy_pct"] - scores["hallucination_pct"]
            )
        first = score_responses(judgment_fixture("text-a"))
        assert round(first["truthfulness_score"], 1) == -13.1
        assert (first["accuracy_pct"], first["hallucination_pct"]) == (15.0, 28.1)
        third = score_responses(judgment_fixture("text-c"))
        assert round(third["truthfulness_score"], 1) == -38.5
        assert (third["accuracy_pct"], third["hallucination_pct"]) == (24.2, 62.7)
        assert time.monotonic() - started < 1.0


def test_criterion_3_label_replay(similarity_ctx):
    with criterion(3, "label replay reproduces both scripted walkthroughs block by block"):
        started = time.monotonic()

        def labels(trace, tool):
            steps = assign_streaming_labels(trace, 500, similarity_ctx)
            return ["NO_QUERY" if s.label.is_no_query else "fire"
                    for s in steps if s.tool is tool]

        brand = brand_founder_trace()
        assert labels(brand, Tool.WEB) == ["fire", "fire", "fire", "NO_QUERY", "NO_QUERY"]
        assert labels(brand, Tool.KG) == ["fire", "fire", "fire", "NO_QUERY", "NO_QUERY"]

        sports = jump_shots_trace()
        assert labels(sports, Tool.WEB) == [
            "fire", "fire", "fire", "fire", "fire", "fire", "fire", "fire", "fire",
            "NO_QUERY", "fire",
        ]
        assert labels(sports, Tool.KG) == [
            "fire", "fire", "fire", "fire", "fire", "NO_QUERY", "NO_QUERY",
            "fire", "fire", "NO_QUERY", "fire",
        ]
        # the late refinement re-fires the KG tool with the full date
        kg_steps = [s for s in assign_streaming_labels(sports, 500, similarity_ctx)
                    if s.tool is Tool.KG]
        final = kg_steps[-1]
        assert not final.label.is_no_query
        assert dict(final.label.kg_query.attributes)["datetime"] == "November 8, 2000"
        assert time.monotonic() - started < 1.0


def test_criterion_4_reflector_quality_guarantee(world, index, backends, headline_latency):
    with criterion(4, "early results match whole-utterance bundle on 200 randomized traces"):
        started = time.monotonic()
        traces = random_batch(world, 200, seed=404, block_ms=1000)
        config_fi = session_config(Strategy.FIXED_INTERVAL, block_ms=1000)
        config_ob = session_config(Strategy.OPEN_BOOK, block_ms=1000)
        selected_count = 0
        for trace in traces:
            early = run_session(
                trace, config_fi, ScriptedQueryGenerator(trace, 1000), backends, headline_latency
            )
            full = run_session(
                trace, config_ob, FinalQueryGenerator(trace), backends, headline_latency
            )
            if early.selected_block is not None:
                selected_count += 1
                assert early.references.to_canonical_text() == full.references.to_canonical_text(), (
                    f"{trace.utterance_id}: bundle from block {early.selected_block} diverged"
                )
        assert selected_count >= 50, "population too thin to exercise the guarantee"
        assert time.monotonic() - started < 30.0


def test_criterion_4_paraphrased_queries_ordered_and_set(world, backends, headline_latency):
    with criterion(4, "paraphrased early queries match by results, ordered and set, same bundle"):
        started = time.monotonic()
        traces = paraphrase_batch(world, 200, seed=414, block_ms=1000)
        config_ob = session_config(Strategy.OPEN_BOOK, block_ms=1000)
        selected: dict[bool, list] = {True: [], False: []}
        top5_matches = {True: 0, False: 0}
        for trace in traces:
            full = run_session(
                trace, config_ob, FinalQueryGenerator(trace), backends, headline_latency
            )
            for ordered in (True, False):
                config_fi = session_config(Strategy.FIXED_INTERVAL, block_ms=1000,
                                           reflect_ordered=ordered)
                early = run_session(
                    trace, config_fi, ScriptedQueryGenerator(trace, 1000), backends,
                    headline_latency,
                )
                selected[ordered].append(early.selected_block)
                top5_matches[ordered] += sum(
                    1 for e in early.event_log
                    if e.type == "reflected" and (e.detail or {}).get("web") == REASON_TOP5_MATCH
                )
                if early.selected_block is not None:
                    assert (early.references.to_canonical_text()
                            == full.references.to_canonical_text()), (
                        f"{trace.utterance_id} (ordered={ordered}): bundle from block "
                        f"{early.selected_block} diverged"
                    )
        assert top5_matches[True] > 0 and top5_matches[False] > 0
        # an ordered match is also a set match, so set mode never selects later
        never = float("inf")
        pairs = [(o or never, s or never) for o, s in zip(selected[True], selected[False])]
        assert all(o >= s for o, s in pairs)
        assert any(o != s for o, s in pairs), "ordered and set modes never disagreed"
        assert time.monotonic() - started < 30.0


def test_criterion_5_single_thread_invariant(world, index, backends, headline_latency):
    with criterion(5, "at most one pending call per tool across 200 randomized sessions"):
        traces = random_batch(world, 200, seed=505, block_ms=500)
        config = session_config(Strategy.MODEL_TRIGGERED)
        for trace in traces:
            outcome = run_session(
                trace, config, generator_factory(config, index)(trace),
                backends, headline_latency,
            )
            check_single_thread_per_tool(outcome.event_log)
            assert outcome.max_parallel_threads <= 1


def test_criterion_6_savings_monotonicity(world, index, backends, headline_latency):
    with criterion(6, "streaming first token never slower; faster when a fire lands early"):
        config_mt = session_config(Strategy.MODEL_TRIGGERED)
        config_ob = session_config(Strategy.OPEN_BOOK)

        # population A: the settling fire precedes utterance end -> strict gain
        for trace in random_batch(world, 120, seed=606, block_ms=500, allow_final_refire=False):
            mt = run_session(
                trace, config_mt, generator_factory(config_mt, index)(trace),
                backends, headline_latency,
            )
            ob = run_session(
                trace, config_ob, FinalQueryGenerator(trace), backends, headline_latency
            )
            fires = [e.t_ms for e in mt.event_log if e.type == "query_fired"]
            assert any(t < trace.end_ms for t in fires)
            assert mt.latency.first_token_ms < ob.latency.first_token_ms

        # population B: re-fires at utterance end allowed -> never slower
        for trace in random_batch(world, 80, seed=607, block_ms=500, allow_final_refire=True):
            mt = run_session(
                trace, config_mt, generator_factory(config_mt, index)(trace),
                backends, headline_latency,
            )
            ob = run_session(
                trace, config_ob, FinalQueryGenerator(trace), backends, headline_latency
            )
            assert mt.latency.first_token_ms <= ob.latency.first_token_ms


def test_criterion_7_negative_sampling_rate(world, similarity_ctx):
    with criterion(7, "negatives on 10k steps at p=0.1 fall in [900, 1100] with GT fallback"):
        steps = []
        batch_seed = 709
        while len(steps) < 10000:
            for trace in random_batch(world, 100, seed=batch_seed, block_ms=500):
                steps.extend(assign_streaming_labels(trace, 500, similarity_ctx))
            batch_seed += 1
        steps = steps[:10000]
        pool = build_negative_pool(steps)
        labeled = inject_negative_samples(steps, 0.1, 7, pool)
        negatives = [s for s in labeled if s.is_negative_sample]
        assert 900 <= len(negatives) <= 1100, f"negative count {len(negatives)} out of interval"
        for step in negatives:
            assert step.label == step.pseudo_gt
            assert step.negative_prev is not None
            assert step.negative_prev != step.prev_query


def _run_cli(*args: str) -> None:
    result = subprocess.run(
        [sys.executable, "-m", "streamrag.cli", *args], capture_output=True, text=True,
        env=child_env(),
    )
    assert result.returncode == 0, result.stderr


def _digest_dir(path: Path) -> dict[str, str]:
    return {
        f.name: hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(path.iterdir()) if f.is_file()
    }


def test_criterion_8_cli_determinism(tmp_path):
    with criterion(8, "simulate/label/report rerun with one seed -> identical digests"):
        base = [
            "--traces", str(FIXTURES / "traces.jsonl"),
            "--corpus", str(FIXTURES / "corpus.jsonl"),
        ]
        for name, args in {
            "simulate": ["simulate", *base, "--kg", str(FIXTURES / "kg.json"),
                         "--strategy", "fixed_interval", "--block-ms", "500", "--seed", "13"],
            "label": ["label", *base, "--negative-prob", "0.1", "--seed", "13"],
        }.items():
            a, b = tmp_path / f"{name}_a", tmp_path / f"{name}_b"
            _run_cli(*args, "--out-dir", str(a))
            _run_cli(*args, "--out-dir", str(b))
            assert _digest_dir(a) == _digest_dir(b), f"{name} outputs diverged"

        sim_a = tmp_path / "simulate_a"
        mt = tmp_path / "mt"
        _run_cli("simulate", *base, "--kg", str(FIXTURES / "kg.json"),
                 "--strategy", "model_triggered", "--block-ms", "500", "--seed", "13",
                 "--out-dir", str(mt))
        for run in ("rep_a", "rep_b"):
            _run_cli("report", "--baseline", str(sim_a / "outcomes.jsonl"),
                     "--strategy", str(mt / "outcomes.jsonl"),
                     "--judgments", str(FIXTURES / "judgments.jsonl"),
                     "--out-dir", str(tmp_path / run))
        assert _digest_dir(tmp_path / "rep_a") == _digest_dir(tmp_path / "rep_b")


def test_criterion_9_fixed_interval_accounting(world, index, backends, headline_latency):
    with criterion(9, "B thread pairs per session; every later pending call cancelled"):
        config = session_config(Strategy.FIXED_INTERVAL, block_ms=1000)
        traces = [brand_founder_trace(), jump_shots_trace()] + random_batch(
            world, 40, seed=909, block_ms=1000
        )
        for trace in traces:
            block_ms = 500 if trace.utterance_id in ("brand-founder", "jump-shots") else 1000
            cfg = session_config(Strategy.FIXED_INTERVAL, block_ms=block_ms)
            outcome = run_session(
                trace, cfg, ScriptedQueryGenerator(trace, block_ms), backends, headline_latency
            )
            total_blocks = len(blocks_of(trace, block_ms))
            assert outcome.threads_spawned == 2 * total_blocks

            cut = outcome.selected_block if outcome.selected_block is not None else total_blocks
            reflected_at = trace.end_ms + cfg.endpoint_delay_ms
            for event in outcome.event_log:
                if event.type == "thread_done" and event.block and event.block > cut:
                    assert event.t_ms <= reflected_at, (
                        f"{trace.utterance_id}: thread {event.tool}/{event.block} survived reflection"
                    )
            fired = {(e.tool, e.block) for e in outcome.event_log if e.type == "query_fired"}
            terminated_late = {
                (e.tool, e.block) for e in outcome.event_log
                if e.type == "thread_cancelled" and e.block > cut
            }
            done_early = {
                (e.tool, e.block) for e in outcome.event_log
                if e.type == "thread_done" and e.block and e.block > cut and e.t_ms <= reflected_at
            }
            late_fired = {(tool, block) for tool, block in fired if block > cut}
            assert late_fired == terminated_late | done_early
