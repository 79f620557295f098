"""Traces whose early blocks paraphrase the final web query.

``random_batch`` scripts a decoy entity before the settle block, so an early
web query either repeats the final text or names another entity, and the
reflector never has to compare results. Here about half of the pre-settle
blocks instead script a paraphrase of the final entity's web query with its
exact kg query. Every paraphrase retrieves the final query's top 5 as a set;
"X facts part 2" often does so in another order, so ordered and set
comparison select different blocks.
"""

from __future__ import annotations

import random
from dataclasses import replace

from streamrag.core import ScriptedQueries, ToolQuery, UtteranceTrace
from streamrag.synth import FixtureWorld, random_batch

PARAPHRASES = (
    "{} overview",
    "{} facts",
    "tell me about {}",
    "{} profile history",
    "{} facts part 2",
)


def paraphrase_batch(world: FixtureWorld, count: int, seed: int,
                     block_ms: int) -> list[UtteranceTrace]:
    """``random_batch(world, count, seed, block_ms)`` with paraphrased early blocks."""
    rng = random.Random(seed)
    traces = []
    for trace in random_batch(world, count, seed=seed, block_ms=block_ms):
        final = trace.scripted_queries[max(trace.scripted_queries)]
        entity = final.web.web_text.removesuffix(" overview facts")
        scripted = dict(trace.scripted_queries)
        for block, entry in scripted.items():
            if entry != final and rng.random() < 0.5:
                web = ToolQuery.web(rng.choice(PARAPHRASES).format(entity))
                scripted[block] = ScriptedQueries(web=web, kg=final.kg)
        traces.append(replace(trace, scripted_queries=scripted))
    return traces
