"""Aggregation of session outcomes into report artifacts.

Latency tables use nearest-rank percentiles computed per component
independently, so a percentile row's components need not sum to its total
column. Savings compare paired baseline/strategy runs as a percentage of the
baseline tool-use latency (query generation plus tool results). Response
scoring weighs accurate/hallucinated/missing verdicts as +1/-1/0.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import Counter
from dataclasses import asdict, dataclass
from enum import Enum
from typing import Iterable, Sequence

from .core import read_jsonl
from .errors import AlignmentError, InputError
from .orchestrator import SessionOutcome

COMPONENTS = ("query_gen", "tool_results", "response_gen", "total")


def nearest_rank(sorted_values: Sequence[float], percentile: float) -> float:
    """Nearest-rank percentile of pre-sorted values (percentile in (0, 100])."""
    if not sorted_values:
        raise ValueError("cannot take a percentile of no values")
    rank = max(1, math.ceil(percentile / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def _mean(values: Sequence[float]) -> float:
    """The values added left to right from 0.0, over their count. ``sum``
    adds floats with compensated summation from Python 3.12 on, so its means
    would differ in the last bits between Python versions."""
    return functools.reduce(operator.add, values, 0.0) / len(values)


def _components_seconds(outcome: SessionOutcome) -> dict[str, float]:
    lat = outcome.latency
    if lat is None:
        raise InputError(f"{outcome.utterance_id}: outcome has no latency record")
    return {
        "query_gen": lat.query_gen_ms / 1000.0,
        "tool_results": lat.tool_results_ms / 1000.0,
        "response_gen": lat.response_gen_ms / 1000.0,
        "total": lat.first_token_ms / 1000.0,
    }


@dataclass(frozen=True)
class LatencyTable:
    """Per (strategy, statistic) latency components in seconds."""

    cells: dict[tuple[str, str], dict[str, float]]

    def get(self, strategy: str, stat: str) -> dict[str, float]:
        return self.cells[(strategy, stat)]

    def rows(self) -> list[dict]:
        out = []
        for (strategy, stat), comps in self.cells.items():
            row = {"strategy": strategy, "stat": stat}
            row.update({c: comps[c] for c in COMPONENTS})
            out.append(row)
        return out


def aggregate_latency(outcomes: Iterable[SessionOutcome]) -> LatencyTable:
    """Percentile/mean table per strategy, per component independently."""
    groups: dict[str, list[dict[str, float]]] = {}
    for outcome in outcomes:
        groups.setdefault(outcome.strategy.value, []).append(_components_seconds(outcome))
    if not groups:
        raise ValueError("aggregate_latency needs at least one outcome")
    cells: dict[tuple[str, str], dict[str, float]] = {}
    for strategy, rows in groups.items():
        per_component = {c: sorted(r[c] for r in rows) for c in COMPONENTS}
        cells[(strategy, "p50")] = {c: nearest_rank(v, 50) for c, v in per_component.items()}
        cells[(strategy, "p90")] = {c: nearest_rank(v, 90) for c, v in per_component.items()}
        cells[(strategy, "mean")] = {c: _mean(v) for c, v in per_component.items()}
    return LatencyTable(cells)


class SavingsBasis(str, Enum):
    MEAN = "mean"
    P50 = "p50"


@dataclass(frozen=True)
class SavingsReport:
    basis: SavingsBasis
    tool_use_latency_base_s: float
    mean_savings_pct: float
    pct_queries_benefiting: float
    max_parallel_threads: int
    n_pairs: int

    def to_dict(self) -> dict:
        return {**asdict(self), "basis": self.basis.value}


def _by_utterance(outcomes: Sequence[SessionOutcome], side: str) -> dict[str, SessionOutcome]:
    by_id: dict[str, SessionOutcome] = {}
    for outcome in outcomes:
        if outcome.utterance_id in by_id:
            raise InputError(f"duplicate {side} outcome for utterance {outcome.utterance_id!r}")
        by_id[outcome.utterance_id] = outcome
    return by_id


def pair_by_utterance(
    baseline: Sequence[SessionOutcome], strategy: Sequence[SessionOutcome]
) -> list[tuple[SessionOutcome, SessionOutcome]]:
    """(baseline, strategy) outcome pairs in utterance_id order; each side must
    hold every id exactly once."""
    base_by_id = _by_utterance(baseline, "baseline")
    strat_by_id = _by_utterance(strategy, "strategy")
    missing_in_strategy = sorted(set(base_by_id) - set(strat_by_id))
    missing_in_baseline = sorted(set(strat_by_id) - set(base_by_id))
    if missing_in_strategy or missing_in_baseline:
        raise AlignmentError(
            "outcomes do not pair by utterance_id: "
            f"missing in strategy: {missing_in_strategy}; missing in baseline: {missing_in_baseline}"
        )
    return [(base_by_id[uid], strat_by_id[uid]) for uid in sorted(base_by_id)]


def savings_report(
    baseline: Sequence[SessionOutcome],
    strategy: Sequence[SessionOutcome],
    basis: SavingsBasis = SavingsBasis.MEAN,
) -> SavingsReport:
    """Tool-results latency saved by the strategy, as % of baseline tool-use latency.

    Per pair: (baseline tool_results - strategy tool_results) divided by the
    baseline tool-use latency (query_gen + tool_results aggregated over the
    whole baseline with the chosen statistic), averaged over pairs. A pair
    benefits when its saving is strictly positive.
    """
    basis = SavingsBasis(basis)
    pairs = pair_by_utterance(baseline, strategy)
    if not pairs:
        raise ValueError("savings_report needs at least one pair")
    tool_use = sorted(
        (o.latency.query_gen_ms + o.latency.tool_results_ms) / 1000.0 for o in baseline
    )
    base_s = (
        _mean(tool_use) if basis is SavingsBasis.MEAN else nearest_rank(tool_use, 50)
    )
    if base_s <= 0:
        raise InputError("baseline tool-use latency is zero; savings are undefined")
    savings_s = [
        (b.latency.tool_results_ms - s.latency.tool_results_ms) / 1000.0 for b, s in pairs
    ]
    mean_pct = _mean([s / base_s * 100.0 for s in savings_s])
    benefiting = 100.0 * sum(1 for s in savings_s if s > 0) / len(savings_s)
    return SavingsReport(
        basis=basis,
        tool_use_latency_base_s=base_s,
        mean_savings_pct=mean_pct,
        pct_queries_benefiting=benefiting,
        max_parallel_threads=max(o.max_parallel_threads for o in strategy),
        n_pairs=len(pairs),
    )


def per_pair_savings_rows(
    baseline: Sequence[SessionOutcome], strategy: Sequence[SessionOutcome]
) -> list[dict]:
    """Plot-ready per-utterance savings in seconds."""
    rows = []
    for base, strat in pair_by_utterance(baseline, strategy):
        rows.append(
            {
                "utterance_id": base.utterance_id,
                "baseline_tool_results_s": base.latency.tool_results_ms / 1000.0,
                "strategy_tool_results_s": strat.latency.tool_results_ms / 1000.0,
                "saving_s": (base.latency.tool_results_ms - strat.latency.tool_results_ms) / 1000.0,
                "baseline_first_token_s": base.latency.first_token_ms / 1000.0,
                "strategy_first_token_s": strat.latency.first_token_ms / 1000.0,
            }
        )
    return rows


class Verdict(str, Enum):
    ACCURATE = "accurate"
    HALLUCINATED = "hallucinated"
    MISSING = "missing"


@dataclass(frozen=True)
class Judgment:
    utterance_id: str
    verdict: Verdict


def score_responses(judgments: Sequence[Judgment]) -> dict[str, float]:
    """Verdict percentages plus truthfulness = accuracy% - hallucination%."""
    if not judgments:
        raise ValueError("score_responses needs at least one judgment")
    seen: set[str] = set()
    for judgment in judgments:
        if judgment.utterance_id in seen:
            raise InputError(f"duplicate judgment for utterance {judgment.utterance_id!r}")
        seen.add(judgment.utterance_id)
    counts = Counter(j.verdict for j in judgments)
    n = len(judgments)
    accuracy = 100.0 * counts[Verdict.ACCURATE] / n
    hallucination = 100.0 * counts[Verdict.HALLUCINATED] / n
    missing = 100.0 * counts[Verdict.MISSING] / n
    return {
        "accuracy_pct": accuracy,
        "hallucination_pct": hallucination,
        "missing_pct": missing,
        "truthfulness_score": accuracy - hallucination,
    }


def read_judgments(path: str) -> list[Judgment]:
    return read_jsonl(path, lambda raw: Judgment(raw["utterance_id"], Verdict(raw["verdict"])),
                      "judgment", schema="judgment.schema.json",
                      key=lambda j: f"judgment for utterance {j.utterance_id!r}")
