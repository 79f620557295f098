"""Core domain types: utterance traces, tool queries, config, and file I/O.

Time is integer milliseconds from the start of an utterance throughout; each
session lays its events out on one such timeline (see ``orchestrator``). An
utterance is consumed block by block: block ``b`` (1-based) covers the audio
window ``(0, b * block_ms]`` and its prefix transcript contains exactly the
words whose end timestamp falls inside that window. A word still in flight at a
block boundary is excluded until the block in which it completes.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import random
from dataclasses import dataclass, field
from enum import Enum
from itertools import islice
from pathlib import Path
from typing import Any, BinaryIO, Callable, Collection, Hashable, Iterable, Iterator, TypeVar

from .errors import EmptyTraceError, InputError
from .schema import checker

BlockIndex = int
T = TypeVar("T")

NO_QUERY_LITERAL = "NO_QUERY"


class Strategy(str, Enum):
    CLOSED_BOOK = "closed_book"
    OPEN_BOOK = "open_book"
    FIXED_INTERVAL = "fixed_interval"
    MODEL_TRIGGERED = "model_triggered"


class KgDomain(str, Enum):
    FINANCE = "finance"
    SPORTS = "sports"
    MUSIC = "music"
    MOVIE = "movie"
    ENCYCLOPEDIA = "encyclopedia"
    OTHER = "other"


@dataclass(frozen=True)
class KgQuery:
    """Structured knowledge-graph query: a domain plus flat string attributes."""

    domain: KgDomain
    attributes: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        # built once: the equivalence check compares keys again and again;
        # not a field, so equality, hashing and repr are the fields' alone
        object.__setattr__(self, "_key", (self.domain.value,
                                          tuple((k, v.lower()) for k, v in self.attributes)))

    @classmethod
    def make(cls, domain: KgDomain | str, attributes: dict[str, str] | None = None) -> "KgQuery":
        # the enum's own value -> member map; KgDomain() raises for any other domain
        try:
            dom = KgDomain._value2member_map_[domain]
        except (KeyError, TypeError):
            dom = KgDomain(domain)
        for k, v in (attributes or {}).items():
            if not (isinstance(k, str) and isinstance(v, str)):
                raise InputError(f"kg attribute {k!r}: {v!r} is not a pair of strings")
        return cls(domain=dom, attributes=tuple(sorted((attributes or {}).items())))

    def canonical_key(self) -> tuple:
        """Order-insensitive, case-insensitive identity used for lookup and equality."""
        return self._key

    def as_flat_dict(self) -> dict[str, str]:
        out = {"domain": self.domain.value}
        out.update(dict(self.attributes))
        return out

    @classmethod
    def from_flat_dict(cls, raw: dict[str, Any]) -> "KgQuery":
        """A query read from JSON, which ``kg_query.schema.json`` must accept."""
        checker("kg_query.schema.json")(raw, "kg query")
        return cls.make(raw["domain"], {k: v for k, v in raw.items() if k != "domain"})


class Tool(str, Enum):
    WEB = "web"
    KG = "kg"


@dataclass(frozen=True)
class ToolQuery:
    """Tagged union: a web query string, a structured KG query, or NO_QUERY.

    Exactly one of ``web_text`` / ``kg_query`` is set for the web/kg variants;
    both are None for the NO_QUERY sentinel. ``tool`` is the variant's Tool,
    None for NO_QUERY, and ``is_no_query`` says whether it is None.
    """

    web_text: str | None = None
    kg_query: KgQuery | None = None

    def __post_init__(self) -> None:
        if self.web_text is not None and self.kg_query is not None:
            raise ValueError("a ToolQuery holds at most one payload")
        if self.web_text is not None and not self.web_text:
            raise ValueError("web query text must be non-empty")
        # set once: sessions read them again and again; not fields, so
        # equality, hashing, repr and replace are the fields' alone
        tool = Tool.WEB if self.web_text is not None else (
            Tool.KG if self.kg_query is not None else None)
        object.__setattr__(self, "tool", tool)
        object.__setattr__(self, "is_no_query", tool is None)

    @classmethod
    def web(cls, text: str) -> "ToolQuery":
        return cls(web_text=text)

    @classmethod
    def kg(cls, query: KgQuery) -> "ToolQuery":
        return cls(kg_query=query)

    def to_wire(self) -> Any:
        """Serialize for JSON files: plain string (web), flat map (kg), or "NO_QUERY"."""
        if self.web_text is not None:
            return self.web_text
        if self.kg_query is not None:
            return self.kg_query.as_flat_dict()
        return NO_QUERY_LITERAL

    @classmethod
    def from_wire(cls, raw: Any, tool: Tool) -> "ToolQuery":
        if raw == NO_QUERY_LITERAL or raw is None:
            return NO_QUERY
        if tool is Tool.WEB:
            if not isinstance(raw, str) or not raw:
                raise InputError(f"web query must be a non-empty string, got {raw!r}")
            return cls.web(raw)
        return cls.kg(KgQuery.from_flat_dict(raw))


NO_QUERY = ToolQuery()


@dataclass(frozen=True)
class Word:
    text: str
    start_ms: int
    end_ms: int


@dataclass(frozen=True)
class ScriptedQueries:
    """The tool queries scripted for one transcript prefix."""

    web: ToolQuery
    kg: ToolQuery

    def for_tool(self, tool: Tool) -> ToolQuery:
        return self.web if tool is Tool.WEB else self.kg

    def to_wire(self) -> dict[str, Any]:
        return {"web": self.web.to_wire(), "kg": self.kg.to_wire()}

    @classmethod
    def from_wire(cls, raw: dict[str, Any]) -> "ScriptedQueries":
        return cls(web=ToolQuery.from_wire(raw["web"], Tool.WEB),
                   kg=ToolQuery.from_wire(raw["kg"], Tool.KG))


@dataclass
class UtteranceTrace:
    """Word-timestamped transcript plus per-prefix scripted tool queries.

    The scripted queries stand in for live query-generation model output:
    entry ``b`` is the query pair the generator would produce after hearing
    the prefix of block ``b``. Every entry carries both tool queries: a
    script never says NO_QUERY, which only a generator decides.
    """

    utterance_id: str
    words: list[Word]
    scripted_queries: dict[BlockIndex, ScriptedQueries] = field(default_factory=dict)
    final_answer_ref: str | None = None

    def __post_init__(self) -> None:
        prev_start = prev_end = 0
        for w in self.words:
            if w.start_ms < 0:
                raise InputError(f"{self.utterance_id}: word {w.text!r} starts at "
                                 f"{w.start_ms} ms, a negative time")
            if w.end_ms < w.start_ms:
                raise InputError(f"{self.utterance_id}: word {w.text!r} ends before it starts")
            if w.start_ms < prev_start:
                raise InputError(f"{self.utterance_id}: word starts not nondecreasing at {w.text!r}")
            if w.start_ms < prev_end:
                raise InputError(f"{self.utterance_id}: overlapping word intervals at {w.text!r}")
            prev_start, prev_end = w.start_ms, w.end_ms
        for b, entry in self.scripted_queries.items():
            if entry.web.is_no_query or entry.kg.is_no_query:
                raise InputError(f"{self.utterance_id}: scripted entry for block {b} "
                                 "must carry both tool queries")

    @property
    def end_ms(self) -> int:
        if not self.words:
            raise EmptyTraceError(f"{self.utterance_id}: trace has no words")
        return self.words[-1].end_ms

    def transcript(self) -> str:
        return " ".join(w.text for w in self.words)


def blocks_of(trace: UtteranceTrace, block_ms: int, listed: Collection[BlockIndex] | None = None,
              what: str = "queries") -> list[tuple[BlockIndex, str]]:
    """Split a trace into block prefixes: block b holds words with end_ms <= b*block_ms.

    Returns one ``(block_index, prefix_transcript)`` pair per block, for
    blocks 1..B with ``B = ceil(last_end_ms / block_ms)``. The prefix of a
    block may be empty when no word has completed yet.

    ``listed`` must hold exactly blocks 1..B: a block it lacks, or one past
    B, is an InputError naming ``what`` and the first ten such blocks, so a
    script written for another block size is not read at this one. It is
    raised before any prefix is built, after looking at no more blocks than
    ``listed`` holds plus eleven, so a trace far longer than its script
    costs no more than the script.
    """
    if block_ms <= 0:
        raise ValueError("block_ms must be positive")
    total_blocks = -(-trace.end_ms // block_ms)
    if listed is not None:
        missing = list(islice((b for b in range(1, total_blocks + 1) if b not in listed), 11))
        if missing:
            more = f" and more of {total_blocks}" if len(missing) > 10 else ""
            raise InputError(f"{trace.utterance_id}: no {what} for blocks {missing[:10]}{more} "
                             f"at block_ms={block_ms}")
        beyond = sorted(b for b in listed if b > total_blocks)
        if beyond:
            more = f" and {len(beyond) - 10} more" if len(beyond) > 10 else ""
            raise InputError(f"{trace.utterance_id}: {what} for blocks {beyond[:10]}{more} "
                             f"beyond the {total_blocks} blocks at block_ms={block_ms}")
    out: list[tuple[BlockIndex, str]] = []
    texts: list[str] = []
    word_iter = iter(trace.words)
    pending = next(word_iter, None)
    for b in range(1, total_blocks + 1):
        boundary = b * block_ms
        while pending is not None and pending.end_ms <= boundary:
            texts.append(pending.text)
            pending = next(word_iter, None)
        out.append((b, " ".join(texts)))
    return out


@dataclass
class SessionConfig:
    """Knobs for one simulated session; defaults mirror the runtime setup.

    ``block_ms`` defaults by strategy: 1000 for fixed-interval triggering,
    500 for model-triggered. ``web_kg_ratio`` is web:kg within the reference
    budget. ``reflect_ordered`` picks ordered vs set comparison of top doc
    lists when judging web results equivalent; the one mode governs whichever
    of the reflector (fixed-interval) and the trigger runs, and it defaults by
    strategy too: set for model-triggered, whose labels are built in set mode
    by default, ordered otherwise.
    """

    strategy: Strategy = Strategy.OPEN_BOOK
    block_ms: int | None = None  # None = resolve from strategy
    ref_length_tokens: int = 300
    web_kg_ratio: tuple[int, int] = (2, 1)
    top_docs: int = 50
    reflect_top_k: int = 5
    chunk_tokens: int = 128
    reflect_ordered: bool | None = None  # None = resolve from strategy
    endpoint_delay_ms: int = 0
    rng_seed: int = 0

    def __post_init__(self) -> None:
        self.strategy = Strategy(self.strategy)
        if self.block_ms is None:
            self.block_ms = default_block_ms(self.strategy)
        if self.reflect_ordered is None:
            self.reflect_ordered = self.strategy is not Strategy.MODEL_TRIGGERED
        if self.block_ms <= 0:
            raise InputError("block_ms must be positive")
        if self.ref_length_tokens < 0:
            raise InputError("ref_length_tokens must be >= 0")
        if min(self.web_kg_ratio) < 0 or not any(self.web_kg_ratio):
            raise InputError("web_kg_ratio parts must be non-negative and not both 0")
        if self.top_docs < 1 or self.reflect_top_k < 1 or self.chunk_tokens < 1:
            raise InputError("top_docs, reflect_top_k and chunk_tokens must be >= 1")
        if self.endpoint_delay_ms < 0:
            raise InputError("endpoint_delay_ms must be >= 0")

    @property
    def search_depth(self) -> int:
        """How deep a session and its similarity checks search: they read
        only the top ``reflect_top_k`` of the top ``top_docs``."""
        return read_depth(self.top_docs, self.reflect_top_k)


def read_depth(retrieve_k: int, compare_k: int) -> int:
    """How deep to search when only the top ``compare_k`` of the top
    ``retrieve_k`` documents are read. Ranking by ``(-score, doc_id)`` is a
    total order, so the shallower ranking is a prefix of the deeper one."""
    return min(retrieve_k, compare_k)


def default_block_ms(strategy: Strategy) -> int:
    return 500 if strategy is Strategy.MODEL_TRIGGERED else 1000


def substream_rng(*parts: Any) -> random.Random:
    """Independent deterministic RNG derived from hashable key parts."""
    key = "\x1f".join(str(p) for p in parts).encode("utf-8")
    seed = int.from_bytes(hashlib.sha256(key).digest()[:8], "big")
    return random.Random(seed)


# --- file I/O ------------------------------------------------------------
#
# Every input file is read, and every output file written, through these
# functions: a fault in a file is an InputError naming it and, where it can,
# the line or record; an output appears whole or not at all.

def _open(path: str) -> BinaryIO:
    try:
        return open(path, "rb")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _parse_json(data: bytes, path: str, first_line: int = 1) -> Any:
    """Parse UTF-8 JSON that starts on ``first_line`` of ``path``; a fault is
    an InputError at its line."""
    try:
        return json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        cause, line, problem = exc, data.count(b"\n", 0, exc.start), "not UTF-8"
    except (ValueError, RecursionError) as exc:
        cause, line, problem = exc, getattr(exc, "lineno", 1) - 1, "invalid JSON"
    raise InputError(f"{path}:{first_line + line}: {problem}: {cause}") from cause


def iter_jsonl(path: str) -> Iterator[tuple[int, Any]]:
    """Yield (lineno, parsed value) for each non-blank line of a UTF-8 JSONL file."""
    with _open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if line:
                yield lineno, _parse_json(line, path, lineno)


def read_json(path: str) -> Any:
    """Parse a whole-file UTF-8 JSON document."""
    with _open(path) as fh:
        return _parse_json(fh.read(), path)


def is_int(value: Any) -> bool:
    """A JSON integer: not true or false (Python ints), a fraction or a string."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_digits(text: str) -> bool:
    """Plain ASCII decimal digits: no sign, space, ``_`` or other script's digits."""
    return text.isascii() and text.isdigit()


def parse_records(numbered: Iterable[tuple[int, Any]], parse: Callable[[dict], T], what: str,
                  at: str, key: Callable[[T], Hashable] | None = None, schema: str = "") -> list[T]:
    """Parse numbered JSON values into records; ``at`` plus a value's number
    locates it. A value that ``schema`` rejects (without one, ``parse`` checks
    it), an InputError from ``parse``, or a record whose ``key`` repeats, is
    an InputError there; the message shows the key as ``str`` does, so a key
    such as ``"utterance_id 'u1'"`` reads as a description."""
    check = checker(schema) if schema else lambda raw, what: None
    records: list[T] = []
    first: dict[Hashable, int] = {}
    for n, raw in numbered:
        try:
            check(raw, what)
            record = parse(raw)
        except InputError as exc:
            raise InputError(f"{at}{n}: {exc}") from exc
        if key is not None:
            name = key(record)
            if name in first:
                raise InputError(f"{at}{n}: duplicate {name} (first at {at}{first[name]})")
            first[name] = n
        records.append(record)
    return records


def read_jsonl(path: str, parse: Callable[[dict], T], what: str,
               key: Callable[[T], Hashable] | None = None, empty_ok: bool = False,
               schema: str = "") -> list[T]:
    """Parse a JSONL file of ``what`` records, one JSON object per line, as
    ``parse_records`` does; faults are reported at ``path:line``. A file
    without records is an InputError unless ``empty_ok``."""
    records = parse_records(iter_jsonl(path), parse, what, f"{path}:", key, schema)
    if not records and not empty_ok:
        raise InputError(f"{path}: no records (expected one {what} per line)")
    return records


def write_atomic(path: str | Path, chunks: Iterable[str]) -> None:
    """Write text to ``path`` whole or not at all: the chunks go to a
    temporary file beside it, which is then renamed over it."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise InputError(f"cannot write {path}: {exc}") from exc


def write_jsonl(path: str | Path, records: Iterable[Any]) -> None:
    write_atomic(path, (json.dumps(r) + "\n" for r in records))


def write_json(path: str | Path, payload: Any) -> None:
    write_atomic(path, [json.dumps(payload, indent=2) + "\n"])


def make_out_dir(path: str) -> Path:
    """Create an output directory (and its parents) if it does not exist."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot create output directory {out}: {exc}") from exc
    return out


def trace_to_dict(trace: UtteranceTrace) -> dict[str, Any]:
    return {
        "utterance_id": trace.utterance_id,
        "words": [{"text": w.text, "start_ms": w.start_ms, "end_ms": w.end_ms} for w in trace.words],
        "scripted_queries": {str(b): sq.to_wire()
                             for b, sq in sorted(trace.scripted_queries.items())},
        "final_answer_ref": trace.final_answer_ref,
    }


# a scripted entry, which trace_from_dict checks once per memo
_ENTRY = "/properties/scripted_queries/additionalProperties"


def trace_from_dict(raw: Any, memo: dict[tuple, ScriptedQueries] | None = None) -> UtteranceTrace:
    """A trace that ``trace.schema.json`` accepts, its block keys 1-based
    ASCII digits naming each block once; ``UtteranceTrace`` checks the rest.

    ``memo`` maps a scripted entry's ``(web, kg items)`` strings to the pair
    checked and parsed from them, and gains each entry parsed here that holds
    only a string ``web`` and a ``kg`` of strings: they alone decide the
    pair. Without a ``memo`` the trace gets a fresh one.
    """
    memo = {} if memo is None else memo
    checker("trace.schema.json", skip=_ENTRY)(raw, "trace")
    scripted: dict[int, ScriptedQueries] = {}
    for key, entry in raw["scripted_queries"].items():
        try:
            block = int(key) if is_digits(key) else 0
        except ValueError:  # more digits than int() reads
            raise InputError(f"scripted_queries key of {len(key)} digits names no block") from None
        if block < 1:
            raise InputError(f"scripted_queries key {key!r}: blocks are 1-based, in ASCII digits")
        if block in scripted:
            raise InputError(f"scripted_queries key {key!r} repeats block {block}")
        scripted[block] = _scripted_entry(key, entry, memo)
    return UtteranceTrace(raw["utterance_id"], [Word(**w) for w in raw["words"]], scripted,
                          raw.get("final_answer_ref"))


def _scripted_entry(key: str, entry: Any, memo: dict[tuple, ScriptedQueries]) -> ScriptedQueries:
    simple = type(entry) is dict and len(entry) == 2
    web, kg = (entry.get("web"), entry.get("kg")) if simple else (None, None)
    memo_key = None
    if type(web) is str and type(kg) is dict and all(type(v) is str for v in kg.values()):
        memo_key = (web, tuple(kg.items()))
        if memo_key in memo:
            return memo[memo_key]
    checker("trace.schema.json#" + _ENTRY)(entry, "scripted entry", "scripted_queries", key)
    parsed = ScriptedQueries.from_wire(entry)
    if memo_key is not None:
        memo[memo_key] = parsed
    return parsed


def read_traces(path: str) -> list[UtteranceTrace]:
    """Read a JSONL trace file with at least one trace.

    A repeated utterance_id is an error: ids key the latency RNG substreams
    and the outcome pairing, so a duplicate could only be dropped silently.
    Scripted pairs repeat within and across traces, so each distinct pair of
    strings is parsed once per call; nothing outlives it.
    """
    memo: dict[tuple, ScriptedQueries] = {}
    return read_jsonl(path, lambda raw: trace_from_dict(raw, memo), "trace",
                      key=lambda trace: f"utterance_id {trace.utterance_id!r}")


def write_traces(traces: Iterable[UtteranceTrace], path: str) -> None:
    write_jsonl(path, map(trace_to_dict, traces))
