from __future__ import annotations

import pytest

from streamrag.core import Strategy
from streamrag.errors import AlignmentError, InputError
from streamrag.metrics import (
    Judgment,
    SavingsBasis,
    Verdict,
    aggregate_latency,
    nearest_rank,
    pair_by_utterance,
    per_pair_savings_rows,
    read_judgments,
    savings_report,
    score_responses,
)
from streamrag.orchestrator import LatencyBreakdown, SessionOutcome
from streamrag.synth import JUDGMENT_ROWS, judgment_fixture


def _outcome(uid: str, strategy: Strategy, query_gen: int, tool: int, response: int,
             total: int | None = None, max_parallel: int = 1) -> SessionOutcome:
    first = total if total is not None else query_gen + tool + response
    return SessionOutcome(
        utterance_id=uid,
        strategy=strategy,
        latency=LatencyBreakdown(
            query_gen_ms=query_gen, tool_results_ms=tool, response_gen_ms=response,
            first_token_ms=first, last_token_ms=first,
        ),
        max_parallel_threads=max_parallel,
    )


class TestNearestRank:
    def test_sorted_index_oracle(self):
        values = sorted(float(v) for v in range(1, 11))
        # oracle: nearest-rank means index ceil(p/100 * n) in the sorted list
        assert nearest_rank(values, 90) == values[9 - 1] == 9.0
        assert nearest_rank(values, 50) == 5.0
        assert nearest_rank(values, 100) == 10.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            nearest_rank([], 50)


class TestAggregateLatency:
    def test_single_outcome_p50_equals_p90(self):
        table = aggregate_latency([_outcome("u", Strategy.OPEN_BOOK, 590, 2780, 2520)])
        p50 = table.get("open_book", "p50")
        p90 = table.get("open_book", "p90")
        assert p50 == p90
        assert p50["total"] == pytest.approx(5.89)

    def test_headline_distribution_p50_row(self):
        # components take their medians independently, so a distribution can
        # land on {0.59, 2.78, 2.52} with a 5.90 total median
        outcomes = [
            _outcome("a", Strategy.OPEN_BOOK, 590, 2780, 2530, total=5900),
            _outcome("b", Strategy.OPEN_BOOK, 580, 2780, 2520, total=5880),
            _outcome("c", Strategy.OPEN_BOOK, 590, 2790, 2520, total=5900),
        ]
        row = aggregate_latency(outcomes).get("open_book", "p50")
        assert row["query_gen"] == pytest.approx(0.59)
        assert row["tool_results"] == pytest.approx(2.78)
        assert row["response_gen"] == pytest.approx(2.52)
        assert row["total"] == pytest.approx(5.90)

    def test_p90_of_1_to_10(self):
        outcomes = [
            _outcome(f"u{i}", Strategy.OPEN_BOOK, 0, 0, 0, total=i * 1000) for i in range(1, 11)
        ]
        table = aggregate_latency(outcomes)
        assert table.get("open_book", "p90")["total"] == pytest.approx(9.0)

    def test_mean_adds_left_to_right_on_every_python(self):
        # 0.1 added ten times from 0.0 is 0.9999999999999999; Python 3.12's
        # compensated sum() would give 1.0 and a mean of 0.1
        outcomes = [_outcome(f"u{i}", Strategy.OPEN_BOOK, 0, 100, 0) for i in range(10)]
        assert aggregate_latency(outcomes).get("open_book", "mean")["tool_results"] \
            == 0.09999999999999999
        report = savings_report(outcomes, outcomes, SavingsBasis.MEAN)
        assert report.tool_use_latency_base_s == 0.09999999999999999

    def test_p50_never_exceeds_p90(self):
        import random

        rng = random.Random(0)
        outcomes = [
            _outcome(f"u{i}", Strategy.MODEL_TRIGGERED, rng.randint(0, 900),
                     rng.randint(0, 4000), rng.randint(500, 3000))
            for i in range(37)
        ]
        table = aggregate_latency(outcomes)
        for component in ("query_gen", "tool_results", "response_gen", "total"):
            assert (
                table.get("model_triggered", "p50")[component]
                <= table.get("model_triggered", "p90")[component]
            )

    def test_groups_by_strategy_and_rejects_empty(self):
        outcomes = [
            _outcome("a", Strategy.OPEN_BOOK, 590, 2780, 2520),
            _outcome("a", Strategy.CLOSED_BOOK, 0, 0, 1340),
        ]
        table = aggregate_latency(outcomes)
        assert ("open_book", "mean") in table.cells and ("closed_book", "p50") in table.cells
        with pytest.raises(ValueError):
            aggregate_latency([])


class TestSavingsReport:
    def test_identical_outcomes_no_savings(self):
        base = [_outcome(f"u{i}", Strategy.OPEN_BOOK, 590, 2780, 2520) for i in range(3)]
        strat = [_outcome(f"u{i}", Strategy.MODEL_TRIGGERED, 590, 2780, 2520) for i in range(3)]
        report = savings_report(base, strat)
        assert report.mean_savings_pct == 0.0
        assert report.pct_queries_benefiting == 0.0

    def test_every_pair_saves_half(self):
        base = [_outcome(f"u{i}", Strategy.OPEN_BOOK, 0, 3000, 2000) for i in range(4)]
        strat = [_outcome(f"u{i}", Strategy.MODEL_TRIGGERED, 0, 1500, 2000) for i in range(4)]
        report = savings_report(base, strat)
        assert report.mean_savings_pct == pytest.approx(50.0)
        assert report.pct_queries_benefiting == pytest.approx(100.0)

    def test_hand_arithmetic_fixture(self):
        # oracle: savings {0, 0.58, 1.16} s over a 3.37 s base
        # -> mean 0.58/3.37 = 17.21%; 2 of 3 pairs benefit = 66.7%
        base = [
            _outcome("a", Strategy.OPEN_BOOK, 590, 2780, 2520),
            _outcome("b", Strategy.OPEN_BOOK, 590, 2780, 2520),
            _outcome("c", Strategy.OPEN_BOOK, 590, 2780, 2520),
        ]
        strat = [
            _outcome("a", Strategy.MODEL_TRIGGERED, 590, 2780, 2520),
            _outcome("b", Strategy.MODEL_TRIGGERED, 590, 2200, 2520),
            _outcome("c", Strategy.MODEL_TRIGGERED, 590, 1620, 2520),
        ]
        report = savings_report(base, strat, SavingsBasis.MEAN)
        assert report.tool_use_latency_base_s == pytest.approx(3.37)
        expected = (0 / 3.37 + 0.58 / 3.37 + 1.16 / 3.37) / 3 * 100
        assert report.mean_savings_pct == pytest.approx(expected)
        assert round(report.mean_savings_pct, 1) == 17.2
        assert report.pct_queries_benefiting == pytest.approx(200 / 3)

    def test_antisymmetry(self):
        base = [_outcome("a", Strategy.OPEN_BOOK, 500, 3000, 2000),
                _outcome("b", Strategy.OPEN_BOOK, 500, 2600, 2000)]
        strat = [_outcome("a", Strategy.MODEL_TRIGGERED, 500, 2400, 2000),
                 _outcome("b", Strategy.MODEL_TRIGGERED, 500, 2600, 2000)]
        forward = savings_report(base, strat)
        # swapping roles changes the denominator to the strategy side's
        # tool-use latency, so compare raw saved seconds instead
        rows = per_pair_savings_rows(base, strat)
        swapped = per_pair_savings_rows(strat, base)
        assert [r["saving_s"] for r in swapped] == [-r["saving_s"] for r in rows]
        assert forward.mean_savings_pct > 0

    def test_p50_basis_uses_median_denominator(self):
        base = [
            _outcome("a", Strategy.OPEN_BOOK, 0, 1000, 0),
            _outcome("b", Strategy.OPEN_BOOK, 0, 2000, 0),
            _outcome("c", Strategy.OPEN_BOOK, 0, 9000, 0),
        ]
        strat = [_outcome(uid, Strategy.MODEL_TRIGGERED, 0, 500, 0) for uid in "abc"]
        mean_report = savings_report(base, strat, SavingsBasis.MEAN)
        p50_report = savings_report(base, strat, SavingsBasis.P50)
        assert mean_report.tool_use_latency_base_s == pytest.approx(4.0)
        assert p50_report.tool_use_latency_base_s == pytest.approx(2.0)

    def test_unpaired_utterances_listed(self):
        base = [_outcome("a", Strategy.OPEN_BOOK, 0, 100, 0)]
        strat = [_outcome("b", Strategy.MODEL_TRIGGERED, 0, 100, 0)]
        with pytest.raises(AlignmentError, match="'a'.*'b'|\\['b'\\]"):
            savings_report(base, strat)

    def test_max_parallel_threads_from_strategy_outcomes(self):
        base = [_outcome("a", Strategy.OPEN_BOOK, 0, 100, 0, max_parallel=1)]
        strat = [_outcome("a", Strategy.FIXED_INTERVAL, 0, 100, 0, max_parallel=6)]
        assert savings_report(base, strat).max_parallel_threads == 6

    def test_duplicate_utterance_rejected_naming_it(self):
        # two baseline "u1" outcomes must not collapse into one pair
        base = [_outcome("u1", Strategy.OPEN_BOOK, 0, 100, 0),
                _outcome("u1", Strategy.OPEN_BOOK, 0, 900, 0)]
        strat = [_outcome("u1", Strategy.MODEL_TRIGGERED, 0, 50, 0)]
        with pytest.raises(InputError, match="'u1'"):
            pair_by_utterance(base, strat)
        with pytest.raises(InputError, match="'u1'"):
            pair_by_utterance(strat, base)
        with pytest.raises(InputError, match="'u1'"):
            savings_report(base, strat)


class TestScoreResponses:
    def test_first_scored_row_exact(self):
        scores = score_responses(judgment_fixture("text-a"))
        assert scores["accuracy_pct"] == pytest.approx(15.0)
        assert scores["hallucination_pct"] == pytest.approx(28.1)
        assert scores["missing_pct"] == pytest.approx(56.9)
        assert scores["truthfulness_score"] == pytest.approx(15.0 - 28.1)
        assert round(scores["truthfulness_score"], 1) == -13.1

    def test_second_cited_row_exact(self):
        scores = score_responses(judgment_fixture("text-c"))
        assert scores["truthfulness_score"] == pytest.approx(24.2 - 62.7)
        assert round(scores["truthfulness_score"], 1) == -38.5

    def test_all_accurate_scores_100(self):
        judgments = [Judgment(f"u{i}", Verdict.ACCURATE) for i in range(10)]
        assert score_responses(judgments)["truthfulness_score"] == pytest.approx(100.0)

    def test_identity_and_closure_on_all_rows(self):
        for row in JUDGMENT_ROWS:
            scores = score_responses(judgment_fixture(row))
            assert scores["truthfulness_score"] == pytest.approx(
                scores["accuracy_pct"] - scores["hallucination_pct"]
            )
            total = scores["accuracy_pct"] + scores["hallucination_pct"] + scores["missing_pct"]
            assert total == pytest.approx(100.0)

    def test_duplicate_judgment_rejected(self):
        judgments = [Judgment("u", Verdict.ACCURATE), Judgment("u", Verdict.MISSING)]
        with pytest.raises(InputError):
            score_responses(judgments)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            score_responses([])


class TestJudgmentIO:
    def test_read_and_errors(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('{"utterance_id": "u1", "verdict": "accurate"}\n')
        (judgment,) = read_judgments(str(path))
        assert judgment.verdict is Verdict.ACCURATE
        path.write_text('{"utterance_id": "u1", "verdict": "sort-of"}\n')
        with pytest.raises(InputError, match="j.jsonl:1"):
            read_judgments(str(path))
