#!/usr/bin/env python3
"""Regenerate the committed demo fixtures under fixtures/.

Deterministic: rerunning produces byte-identical files.
"""

from __future__ import annotations

from pathlib import Path

from streamrag.core import write_json, write_jsonl, write_traces
from streamrag.metrics import Judgment
from streamrag.synth import (
    JUDGMENT_ROWS,
    FixtureWorld,
    brand_founder_trace,
    early_fire_trace,
    jump_shots_trace,
    judgment_fixture,
    random_batch,
)

OUT = Path(__file__).resolve().parent.parent / "fixtures"


def main() -> None:
    OUT.mkdir(exist_ok=True)
    world = FixtureWorld()
    write_jsonl(OUT / "corpus.jsonl", world.corpus)
    write_json(OUT / "kg.json", world.kg_records)

    traces = [brand_founder_trace(), jump_shots_trace(), early_fire_trace(world)]
    traces += random_batch(world, count=8, seed=11, block_ms=500)
    write_traces(traces, str(OUT / "traces.jsonl"))

    judgments: list[Judgment] = judgment_fixture("text-a")
    write_jsonl(OUT / "judgments.jsonl",
                ({"utterance_id": j.utterance_id, "verdict": j.verdict.value} for j in judgments))

    print(f"fixtures written to {OUT}")
    print(f"  corpus.jsonl: {len(world.corpus)} docs")
    print(f"  kg.json: {len(world.kg_records)} entries")
    print(f"  traces.jsonl: {len(traces)} traces")
    print(f"  judgments.jsonl: {len(judgments)} judgments (row profile 'text-a')")
    print(f"  judgment row profiles available: {sorted(JUDGMENT_ROWS)}")


if __name__ == "__main__":
    main()
