"""Training-label construction for the model-triggered policy.

Given per-block reference queries (precomputed offline; this module never
calls a model), each block is labeled either with the reference query (fire)
or with NO_QUERY when the reference query is equivalent to the most recent
fired one, by the reflector's check without a KG store: exact canonical match
for KG queries and same top-document retrieval for web queries.

To teach recovery from early misfires, a fraction of steps get their
previous query swapped for a wrong one drawn from other utterances, with the
label forced back to the reference query.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

from .core import (
    NO_QUERY,
    BlockIndex,
    ScriptedQueries,
    Tool,
    ToolQuery,
    UtteranceTrace,
    blocks_of,
    read_jsonl,
    substream_rng,
    write_atomic,
)
from .errors import InputError
from .reflector import SimilarityContext, reflect_with_reason


def similarity_f(current: ToolQuery, prev: ToolQuery, ctx: SimilarityContext) -> bool:
    """True when firing `current` would be redundant given `prev` already ran."""
    if current.is_no_query:
        raise ValueError("current query must be a real web or kg query")
    return reflect_with_reason(current, prev, ctx)[0]


def check_reference(utterance_id: str, block: BlockIndex, entry: ScriptedQueries) -> None:
    """A reference pair is what each tool should ask, so neither side may be
    NO_QUERY; an InputError names the first that is."""
    if entry.web.is_no_query or entry.kg.is_no_query:
        tool = Tool.WEB if entry.web.is_no_query else Tool.KG
        raise InputError(f"{utterance_id}: reference query for block {block}/{tool.value} "
                         "must be a real query")


@dataclass(frozen=True)
class LabeledStep:
    """One (block, tool) training example.

    ``prev_query`` is the true threading state (most recent fired label);
    for negative samples the exported training input uses ``negative_prev``
    instead while the label falls back to the reference query.
    """

    utterance_id: str
    block: BlockIndex
    tool: Tool
    prefix: str
    prev_query: ToolQuery
    pseudo_gt: ToolQuery
    label: ToolQuery
    is_negative_sample: bool = False
    negative_prev: ToolQuery | None = None

    @property
    def training_prev(self) -> ToolQuery:
        return self.negative_prev if self.is_negative_sample else self.prev_query


def assign_streaming_labels(
    trace: UtteranceTrace,
    block_ms: int,
    ctx: SimilarityContext,
    pseudo_gt: dict[BlockIndex, ScriptedQueries] | None = None,
) -> list[LabeledStep]:
    """Label every (block, tool) of a trace: fire the reference query or NO_QUERY.

    The previous query threads through fired labels exactly as the streaming
    policy would see it, so replaying the labels reproduces the trigger
    decisions. ``pseudo_gt`` defaults to the trace's scripted queries.
    """
    references = pseudo_gt if pseudo_gt is not None else trace.scripted_queries
    blocks = blocks_of(trace, block_ms, references, "reference queries")

    steps: list[LabeledStep] = []
    prev: dict[Tool, ToolQuery] = {Tool.WEB: NO_QUERY, Tool.KG: NO_QUERY}
    for block, prefix in blocks:
        entry = references[block]
        check_reference(trace.utterance_id, block, entry)
        for tool in (Tool.WEB, Tool.KG):
            gt = entry.for_tool(tool)
            label = NO_QUERY if similarity_f(gt, prev[tool], ctx) else gt
            steps.append(
                LabeledStep(
                    utterance_id=trace.utterance_id,
                    block=block,
                    tool=tool,
                    prefix=prefix,
                    prev_query=prev[tool],
                    pseudo_gt=gt,
                    label=label,
                )
            )
            if not label.is_no_query:
                prev[tool] = label
    return steps


def build_negative_pool(
    all_steps: list[LabeledStep],
) -> dict[Tool, list[tuple[str, ToolQuery]]]:
    """Candidate wrong-previous queries per tool: every step's reference query,
    tagged by utterance so a step never draws from its own utterance."""
    pool: dict[Tool, list[tuple[str, ToolQuery]]] = {Tool.WEB: [], Tool.KG: []}
    for step in all_steps:
        pool[step.tool].append((step.utterance_id, step.pseudo_gt))
    return pool


def inject_negative_samples(
    steps: list[LabeledStep],
    p: float,
    seed: int,
    pool: dict[Tool, list[tuple[str, ToolQuery]]],
) -> list[LabeledStep]:
    """Independently turn each step into a negative sample with probability p.

    A selected step gets a wrong previous query (from another utterance,
    never equal to the true previous) and its label forced to the reference
    query. Draws come from an RNG substream per utterance, so batch order
    does not matter.
    """
    if not (0.0 <= p <= 1.0):
        raise ValueError("p must be in [0, 1]")
    if p > 0 and not any(pool.get(tool) for tool in (Tool.WEB, Tool.KG)):
        raise InputError("negative sampling needs a non-empty pool")

    # each tool's pool positions per utterance and per query
    positions: dict[Tool, tuple[dict[str, list[int]], dict[ToolQuery, list[int]]]] = {}
    for tool in (Tool.WEB, Tool.KG) if p > 0 else ():
        by_utterance: dict[str, list[int]] = {}
        by_query: dict[ToolQuery, list[int]] = {}
        for i, (uid, query) in enumerate(pool.get(tool, [])):
            by_utterance.setdefault(uid, []).append(i)
            by_query.setdefault(query, []).append(i)
        positions[tool] = by_utterance, by_query

    out: list[LabeledStep] = []
    rngs: dict[str, object] = {}
    for step in steps:
        rng = rngs.get(step.utterance_id)
        if rng is None:
            rng = substream_rng(seed, "negatives", step.utterance_id)
            rngs[step.utterance_id] = rng
        if p == 0.0 or rng.random() >= p:
            out.append(step)
            continue
        candidates = pool.get(step.tool, [])
        by_utterance, by_query = positions[step.tool]
        excluded = sorted(set(by_utterance.get(step.utterance_id, ())).union(
            by_query.get(step.prev_query, ())))
        if len(excluded) == len(candidates):
            raise InputError(
                f"{step.utterance_id}: no usable negative candidates for tool {step.tool.value}"
            )
        # the drawn index among the usable candidates, as a pool position
        position = rng.randrange(len(candidates) - len(excluded))
        for skipped in excluded:
            if skipped > position:
                break
            position += 1
        negative = candidates[position][1]
        out.append(
            replace(
                step,
                label=step.pseudo_gt,
                is_negative_sample=True,
                negative_prev=negative,
            )
        )
    return out


def step_from_dict(raw: dict) -> LabeledStep:
    """A training record that ``training_record.schema.json`` accepts, with
    queries of its ``tool`` and ``original_prev`` on a negative sample only."""
    tool = Tool(raw["tool"])
    is_negative = raw["is_negative_sample"]
    if ("original_prev" in raw) is not is_negative:
        raise InputError("a negative sample lacks key 'original_prev'" if is_negative
                         else "original_prev is on negative samples only, not on this positive one")

    def query(key: str) -> ToolQuery:
        return ToolQuery.from_wire(raw[key], tool)

    return LabeledStep(
        utterance_id=raw["utterance_id"],
        block=raw["block"],
        tool=tool,
        prefix=raw["prefix_text"],
        prev_query=query("original_prev" if is_negative else "prev_query"),
        pseudo_gt=query("pseudo_gt"),
        label=query("label"),
        is_negative_sample=is_negative,
        negative_prev=query("prev_query") if is_negative else None,
    )


def export_training_set(steps: list[LabeledStep], path: str) -> None:
    """Write one JSON record per step as a JSONL line; an empty step list
    yields a valid empty file.

    The keys are utterance_id, block, tool, prefix_text, prev_query (the
    training input, ``training_prev``), label, pseudo_gt, is_negative_sample
    and, on a negative sample only, original_prev (the true previous query),
    written as ``json.dumps`` writes such a dict: the strings and queries
    through ``json.dumps``, the block, tool and flag as the literals it
    writes for them. A query recurs across steps, so each distinct one is
    encoded once per call.
    """
    encoded: dict[ToolQuery, str] = {}

    def wire(query: ToolQuery) -> str:
        text = encoded.get(query)
        if text is None:
            text = encoded[query] = json.dumps(query.to_wire())
        return text

    def line(step: LabeledStep) -> str:
        head = (f'{{"utterance_id": {json.dumps(step.utterance_id)}, "block": {step.block:d}, '
                f'"tool": "{step.tool.value}", "prefix_text": {json.dumps(step.prefix)}, '
                f'"prev_query": {wire(step.training_prev)}, "label": {wire(step.label)}, '
                f'"pseudo_gt": {wire(step.pseudo_gt)}, "is_negative_sample": ')
        if step.is_negative_sample:
            return f'{head}true, "original_prev": {wire(step.prev_query)}}}\n'
        return head + "false}\n"

    write_atomic(path, map(line, steps))


def read_training_set(path: str) -> list[LabeledStep]:
    return read_jsonl(path, step_from_dict, "training record", empty_ok=True,
                      schema="training_record.schema.json")
