"""Deterministic synthetic fixtures: corpus, KG store, scripted traces.

Everything here is seeded and reproducible. The corpus mixes hand-written
document clusters (supporting the two scripted walkthrough traces) with
generated entity clusters of exactly five documents each, so that a query
naming an entity always fills its top-5 with that entity's own documents.
Every document carries a unique marker token for retrievability checks.
"""

from __future__ import annotations

import random

from .core import (
    KgDomain,
    KgQuery,
    ScriptedQueries,
    ToolQuery,
    UtteranceTrace,
    Word,
)
from .metrics import Judgment, Verdict

_SYLLABLES = ["vor", "zel", "mak", "tri", "lun", "bex", "dai", "rho", "gul", "pex",
              "nim", "sar", "kel", "ost", "fen", "dru", "vel", "tam", "quo", "bri"]


def entity_names(count: int) -> list[str]:
    """Deterministic pronounceable nonsense entities, unique corpus-wide.

    Base-20 digits over the syllable list keep names injective in i.
    """
    base = len(_SYLLABLES)
    if count > base**3:
        raise ValueError(f"at most {base ** 3} entities available")
    names = []
    for i in range(count):
        name = _SYLLABLES[i % base] + _SYLLABLES[(i // base) % base] + _SYLLABLES[(i // base**2) % base]
        names.append(name)
    return names


_BRAND_DOCS = [
    "Rare Beauty was founded by Selena Gomez in 2019 and the rare beauty line quickly grew",
    "The rare beauty brand, founded in 2019, focuses on cosmetics and self acceptance",
    "Selena Gomez founded Rare Beauty in 2019 after years in entertainment",
    "Rare Beauty products launched in 2019; the beauty brand was founded with a mental health mission",
    "A profile of rare beauty: founded 2019, the beauty company champions inclusive shades",
]

_ENERGY_DOCS = [
    "Red Bull founder Dietrich Mateschitz built the energy drink company from a Thai tonic",
    "The red bull story: its founder launched the brand in 1987",
    "Red Bull and its founder funded extreme sports teams around the world",
    "How the red bull founder marketed an energy drink into a global empire",
    "Red bull headquarters profile and notes on the founder's early partnerships",
]

_FOUNDER_DOCS = [
    "Founders digest volume one: who founded what across the technology industry",
    "Who founded what: a directory of companies and what their founders started",
    "Quiz night answers: who founded what, and in what year each firm began",
    "Who founded what in retail: an index of founders and what they created",
    "Encyclopedia of origins: who founded what, from airlines to zipper makers",
]

_QUERY_VOLUME_DOCS = [
    "Search traffic report: number of queries on 03 27 2024 across all regions",
    "Analytics bulletin counting the number of queries on 03 27 2024 by hour",
    "Number of queries on 03 27 2024: dashboard snapshot and methodology",
    "Operations log for 03 27 2024 recording the number of queries served",
    "Capacity review: the number of queries on 03 27 2024 versus forecast",
]

_BASKETBALL_DOCS = [
    "Basketball coaching guide: the number of jump shots in basketball practice drills",
    "How many jump shots in basketball games are attempted per quarter on average",
    "Jump shots in basketball: technique, arc, and the number taken per game",
    "A statistical look at the number of jump shots in basketball this season",
    "Training plan covering jump shots in basketball with rep number targets",
]

_SHORTSTOP_DOCS = [
    "Derek Jeter career statistics count: hits, at bats, and fielding records",
    "Derek Jeter count of postseason appearances and award totals",
    "The Derek Jeter record book: a count of milestones season by season",
    "Derek Jeter by the numbers: a count of his batting achievements",
    "Scouting retrospective on Derek Jeter with a count of defensive plays",
]

_SINGER_DOCS = [
    "Darius Rucker count: song count, album count, chart count",
    "Darius Rucker discography count and tour count",
    "Darius Rucker awards count with single count totals",
]

_PLAYER_COUNT_DOCS = [
    "Darius Miles jump shots count across his rookie campaign",
    "Season ledger: Darius Miles jump shots count and minutes played",
    "Darius Miles jump shots count compared with dunk totals",
]

_PLAYER_GAME_2000_DOCS = [
    "Box score: Darius Miles game on November 8 2000 with jump shots scored listed",
    "Recap of the Darius Miles game on November 8 2000 and the jump shots he scored",
    "Darius Miles scored several jump shots in the game on November 8 2000",
    "Archive film study: Darius Miles, November 8 2000, jump shots scored in the game",
]

_PLAYER_GAME_2001_DOCS = [
    "Box score: Darius Miles game on November 8 2001 with jump shots scored listed",
    "Recap of the Darius Miles game on November 8 2001 and the jump shots he scored",
    "Darius Miles scored several jump shots in the game on November 8 2001",
]

_PLAYER_NOV_2024_DOCS = [
    "Veterans showcase: Darius Miles appearances in November 2024 with points scored",
    "Exhibition notes for November 2024 where Darius Miles scored in charity games",
]

_PLAYER_PREVIEW_DOCS = [
    "November 8 preview: Darius Miles on November 8",
    "November 8 notebook: Darius Miles November 8 matchup",
]

_PLAYER_STAT_DATE_DOCS = [
    "Stat line for 03 27 2024: Darius Miles legacy feature",
    "On 03 27 2024 a Darius Miles retrospective aired",
]

_TARGETED_DOCS = (
    _BRAND_DOCS
    + _ENERGY_DOCS
    + _FOUNDER_DOCS
    + _QUERY_VOLUME_DOCS
    + _BASKETBALL_DOCS
    + _SHORTSTOP_DOCS
    + _SINGER_DOCS
    + _PLAYER_COUNT_DOCS
    + _PLAYER_GAME_2000_DOCS
    + _PLAYER_GAME_2001_DOCS
    + _PLAYER_NOV_2024_DOCS
    + _PLAYER_PREVIEW_DOCS
    + _PLAYER_STAT_DATE_DOCS
)

DOCS_PER_ENTITY = 5


class FixtureWorld:
    """A corpus, its KG records, and the entity pool traces draw from."""

    def __init__(self, n_docs: int = 200, seed: int = 20240327) -> None:
        rng = random.Random(seed)
        remaining = n_docs - len(_TARGETED_DOCS)
        if remaining < DOCS_PER_ENTITY:
            raise ValueError(f"n_docs must be at least {len(_TARGETED_DOCS) + DOCS_PER_ENTITY}")
        n_entities = remaining // DOCS_PER_ENTITY
        self.entities = entity_names(n_entities)

        texts: list[str] = list(_TARGETED_DOCS)
        for entity in self.entities:
            for i in range(DOCS_PER_ENTITY):
                filler = " ".join(rng.choice(_SYLLABLES) for _ in range(4))
                texts.append(
                    f"{entity} overview facts part {i}: synthetic profile of {entity} "
                    f"covering history notes and figures {filler}"
                )
        while len(texts) < n_docs:
            filler = " ".join(rng.choice(_SYLLABLES) for _ in range(8))
            texts.append(f"miscellaneous background reading {filler}")

        self.corpus = [
            {"doc_id": f"d{i:03d}", "text": f"{text} corpus marker qz{i:03d}"}
            for i, text in enumerate(texts)
        ]

        # KG answers exist for most entities so both hit and miss paths occur.
        self.kg_records: list[dict] = [
            {
                "query": {
                    "domain": "music",
                    "artist_name": "Red Hot Chili Peppers",
                    "artist_aspect": "member",
                },
                "answer": "Chad Smith has played drums for the Red Hot Chili Peppers since 1988.",
            },
            {
                "query": {"domain": "other", "main_entity": "Rare Beauty"},
                "answer": "Rare Beauty was founded by Selena Gomez in 2019.",
            },
            {
                "query": {
                    "domain": "sports",
                    "sport_type": "other",
                    "person": "Darius Miles",
                    "datetime": "November 8",
                },
                "answer": "Darius Miles played on November 8 in multiple seasons.",
            },
            {
                "query": {
                    "domain": "sports",
                    "sport_type": "other",
                    "person": "Darius Miles",
                    "datetime": "November 8, 2000",
                },
                "answer": "Darius Miles scored 4 jump shots in the game on November 8, 2000.",
            },
        ]
        for i, entity in enumerate(self.entities):
            if i % 4 != 3:  # leave every fourth entity out of the KG
                self.kg_records.append(
                    {
                        "query": {"domain": "other", "main_entity": entity},
                        "answer": f"{entity} is a synthetic reference entity (fact sheet {i}).",
                    }
                )

    def web_query(self, entity: str) -> ToolQuery:
        return ToolQuery.web(f"{entity} overview facts")

    def kg_query(self, entity: str) -> ToolQuery:
        return ToolQuery.kg(KgQuery.make(KgDomain.OTHER, {"main_entity": entity}))

    def scripted(self, entity: str) -> ScriptedQueries:
        return ScriptedQueries(web=self.web_query(entity), kg=self.kg_query(entity))


def _words_for_blocks(plan: list[list[str]], block_ms: int, last_end_ms: int) -> list[Word]:
    """Place each sub-list of words inside consecutive block windows.

    The final block's last word ends exactly at last_end_ms; empty sub-lists
    leave a silent block (the prefix repeats).
    """
    words: list[Word] = []
    for b, block_words in enumerate(plan, start=1):
        if not block_words:
            continue
        window_start = (b - 1) * block_ms
        window_end = b * block_ms if b < len(plan) else last_end_ms
        span = window_end - window_start
        slot = span // (len(block_words) + 1)
        t = window_start
        for i, text in enumerate(block_words):
            start = t + 10
            end = window_start + slot * (i + 1)
            if b == len(plan) and i == len(block_words) - 1:
                end = last_end_ms
            words.append(Word(text, start, max(start + 1, end)))
            t = end
    return words


def brand_founder_trace() -> UtteranceTrace:
    """Five 500 ms blocks asking who founded a beauty brand.

    The scripted stream starts with two misfires and settles on the right
    query at block 3; blocks 4 and 5 repeat it, so the streaming policy goes
    quiet and the reflector picks block 3.
    """
    kg = lambda entity: ToolQuery.kg(KgQuery.make(KgDomain.OTHER, {"main_entity": entity}))
    scripted = {
        1: ScriptedQueries(ToolQuery.web("Who founded what"), kg("Who")),
        2: ScriptedQueries(ToolQuery.web("Red Bull founder"), kg("Red")),
        3: ScriptedQueries(ToolQuery.web("Who founded Rare Beauty"), kg("Rare Beauty")),
        4: ScriptedQueries(ToolQuery.web("Who founded Rare Beauty"), kg("Rare Beauty")),
        5: ScriptedQueries(ToolQuery.web("Who founded Rare Beauty"), kg("Rare Beauty")),
    }
    words = [
        Word("Who", 0, 200),
        Word("founded", 210, 450),
        Word("rare", 550, 950),
        Word("beauty", 1050, 1450),
        Word("in", 1550, 1900),
        Word("2019?", 2100, 2450),
    ]
    return UtteranceTrace(
        utterance_id="brand-founder",
        words=words,
        scripted_queries=scripted,
        final_answer_ref="Selena Gomez founded Rare Beauty in 2019.",
    )


def jump_shots_trace() -> UtteranceTrace:
    """Eleven 500 ms blocks asking about a player's jump shots in one game.

    Includes a silent block (10) whose prefix repeats block 9, and a late
    block-11 refinement that must re-fire both tools after a NO_QUERY lull.
    """
    sports = lambda person, datetime_: ToolQuery.kg(
        KgQuery.make(
            KgDomain.SPORTS,
            {"sport_type": "other", "person": person, "datetime": datetime_},
        )
    )
    other = lambda entity: ToolQuery.kg(KgQuery.make(KgDomain.OTHER, {"main_entity": entity}))
    scripted = {
        1: ScriptedQueries(ToolQuery.web("Number of queries on 03/27/2024"), other("How many")),
        2: ScriptedQueries(ToolQuery.web("Number of jump shots in basketball"), other("jump shot")),
        3: ScriptedQueries(
            ToolQuery.web("Derek Jeter jump shots count"),
            sports("Dairy", "03/27/2024, 19:52:43 PT"),
        ),
        4: ScriptedQueries(
            ToolQuery.web("Darius jump shots count"),
            sports("Darius", "03/27/2024, 19:52:43 PT"),
        ),
        5: ScriptedQueries(
            ToolQuery.web("Darius Miles jump shots count"),
            sports("Darius Miles", "03/27/2024, 19:52:43 PT"),
        ),
        6: ScriptedQueries(
            ToolQuery.web("Darius Miles jump shots scored"),
            sports("Darius Miles", "03/27/2024, 19:52:43 PT"),
        ),
        7: ScriptedQueries(
            ToolQuery.web("Darius Miles jump shots scored in game on 03/27/2024"),
            sports("Darius Miles", "03/27/2024, 19:52:43 PT"),
        ),
        8: ScriptedQueries(
            ToolQuery.web("Darius Miles jump shots scored in game on November 2024"),
            sports("Darius Miles", "November"),
        ),
        9: ScriptedQueries(
            ToolQuery.web("Darius Miles jump shots scored on November 8"),
            sports("Darius Miles", "November 8"),
        ),
        10: ScriptedQueries(
            ToolQuery.web("Darius Miles jump shots scored on November 8"),
            sports("Darius Miles", "November 8"),
        ),
        11: ScriptedQueries(
            ToolQuery.web("Darius Miles jump shots scored on November 8, 2000"),
            sports("Darius Miles", "November 8, 2000"),
        ),
    }
    words = [
        Word("how", 0, 200),
        Word("many", 220, 430),
        Word("jump", 520, 800),
        Word("shots", 1050, 1300),
        Word("did", 1320, 1480),
        Word("Darius", 1550, 1800),
        Word("miles", 1820, 1980),
        Word("score", 2050, 2400),
        Word("with", 2550, 2750),
        Word("in", 2800, 2950),
        Word("the", 3050, 3150),
        Word("game", 3170, 3380),
        Word("on", 3400, 3480),
        Word("November", 3550, 3950),
        Word("8", 4050, 4300),
        Word("2000", 5050, 5300),
    ]
    return UtteranceTrace(
        utterance_id="jump-shots",
        words=words,
        scripted_queries=scripted,
        final_answer_ref="Darius Miles scored 4 jump shots in that game.",
    )


def early_fire_trace(world: FixtureWorld) -> UtteranceTrace:
    """Model-triggered fixture whose last fire lands 580 ms before utterance end.

    Blocks fire at 500/1000/1500/2000/2080 ms; blocks 4 and 5 repeat block
    3's queries, so the last real fire is at 1500 ms = 2080 - 580.
    """
    e1, e2, e3 = world.entities[0], world.entities[1], world.entities[2]
    scripted = {
        1: world.scripted(e1),
        2: world.scripted(e2),
        3: world.scripted(e3),
        4: world.scripted(e3),
        5: world.scripted(e3),
    }
    words = [
        Word("tell", 0, 300),
        Word("me", 600, 900),
        Word("about", 1100, 1400),
        Word("that", 1600, 1900),
        Word("topic", 1950, 2080),
    ]
    return UtteranceTrace(
        utterance_id="early-fire",
        words=words,
        scripted_queries=scripted,
        final_answer_ref=f"{e3} synthetic answer.",
    )


# random_trace's block counts, drawn uniformly; streambench's BLOCK_COUNTS repeats them.
MIN_BLOCKS, MAX_BLOCKS = 3, 7


def random_trace(
    world: FixtureWorld,
    uid: str,
    rng: random.Random,
    block_ms: int,
    allow_final_refire: bool = True,
) -> UtteranceTrace:
    """A synthetic utterance whose scripted queries settle on a final entity.

    Blocks before the settling point query decoy entities (so equivalence
    checks fail there); from the settling point on, every block scripts the
    final entity's queries verbatim. With allow_final_refire the settling
    point may be the last block itself (a fire at utterance end).
    """
    n_blocks = rng.randint(MIN_BLOCKS, MAX_BLOCKS)
    latest_settle = n_blocks if allow_final_refire else n_blocks - 1
    settle_at = rng.randint(1, max(1, latest_settle))

    final_entity = rng.choice(world.entities)
    decoys = [e for e in world.entities if e != final_entity]
    scripted: dict[int, ScriptedQueries] = {}
    for b in range(1, n_blocks + 1):
        entity = final_entity if b >= settle_at else decoys[rng.randrange(len(decoys))]
        scripted[b] = world.scripted(entity)

    word_pool = ["please", "find", "details", "about", "the", "topic", "for", "me", "now"]
    plan = [[rng.choice(word_pool) for _ in range(rng.randint(1, 3))] for _ in range(n_blocks)]
    last_end = rng.randint((n_blocks - 1) * block_ms + 100, n_blocks * block_ms)
    words = _words_for_blocks(plan, block_ms, last_end)
    return UtteranceTrace(
        utterance_id=uid,
        words=words,
        scripted_queries=scripted,
        final_answer_ref=f"{final_entity} synthetic answer.",
    )


def random_batch(
    world: FixtureWorld,
    count: int,
    seed: int,
    block_ms: int,
    allow_final_refire: bool = True,
) -> list[UtteranceTrace]:
    rng = random.Random(seed)
    return [
        random_trace(world, f"synth-{seed}-{i:04d}", rng, block_ms,
                     allow_final_refire=allow_final_refire)
        for i in range(count)
    ]


# Verdict counts per 1000 judgments for the six scored system rows. The
# third row group's counts cannot all land on the published tenths at once
# (they must sum to 100%), so the missing share absorbs the remainder.
JUDGMENT_ROWS: dict[str, tuple[int, int, int]] = {
    "text-a": (150, 281, 569),
    "speech-a": (111, 323, 566),
    "text-b": (201, 643, 156),
    "speech-b": (184, 662, 154),
    "text-c": (242, 627, 131),
    "speech-c": (167, 703, 130),
}


def judgment_fixture(row: str) -> list[Judgment]:
    accurate, hallucinated, missing = JUDGMENT_ROWS[row]
    out: list[Judgment] = []
    for i in range(accurate):
        out.append(Judgment(f"{row}-u{i:04d}", Verdict.ACCURATE))
    for i in range(accurate, accurate + hallucinated):
        out.append(Judgment(f"{row}-u{i:04d}", Verdict.HALLUCINATED))
    for i in range(accurate + hallucinated, accurate + hallucinated + missing):
        out.append(Judgment(f"{row}-u{i:04d}", Verdict.MISSING))
    return out
