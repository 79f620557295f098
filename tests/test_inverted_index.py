"""The inverted index holds, scores and ranks exactly as the dense CSR oracle does.

The build must hold the oracle's tables, counts above 1 included, whether a
term repeats in the document that introduces it, in a later one or in two in
a row, and must order the zero fill as the oracle does.

Scores are compared as float hex strings, so any change in summation order or
arithmetic shows up; rankings are compared with the oracle's full
``(-score, doc_id)`` sort of the whole corpus, whether a search stops after
reading its rare terms' postings whole, at the cap on an unseen document's
score, or after walking the long lists; an exact tie at the cap must not stop
it. Memoised rankings must equal a fresh index's, whatever order the depths
are asked in, across evictions and under concurrent searches. Chunk reranks
must equal a fresh index's and the oracle's scoring of the chunk texts,
whatever documents were reranked before and from however many threads; a
document that fits in one chunk, scored from the index's own vector, must
also equal its kept chunk vector's score, and keeps nothing. A rerank of a
searched text takes such a document's score from the ranking memo, never
from the result it is handed, and must equal a fresh index's rerank whether
or not the memo still holds the text.
"""

from __future__ import annotations

import random
import sys
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamrag import retrieval
from streamrag.core import KgQuery, ToolQuery
from streamrag.errors import DuplicateDocIdError, InputError, WrongToolError
from streamrag.retrieval import (
    Chunk,
    DocIndex,
    WebResult,
    chunk_and_rerank,
    index_documents,
    web_search,
)
from streamrag.synth import FixtureWorld

from oracles import OracleDenseIndex

WORDS = ["alpha", "beta", "gamma", "delta", "echo", "fox", "golf", "hotel"]

# Tokens whose lowercasing depends on their neighbours or on the text's ends:
# capital sigma (final "\u03c2" at a word's end, "\u03c3" elsewhere; the corpus
# spells both, a query the final one), a sigma after a soft hyphen, dotted
# capital I (two code points when lowercased) and whitespace-only runs. NUL
# is left out: one in any text sends the whole corpus through per-text
# tokenizing (see test_a_corpus_holding_nul_matches_the_oracle).
TRICKY = ["\u039f\u0394\u039f\u03a3", "\u03bf\u03b4\u03bf\u03c3", "\u03a3",
          "\u00ad\u03a3", "\u0130", "i\u0307", "\t", "\u2028"]
token = st.sampled_from(WORDS + ["Alpha,", "beta.", "-", "!!"] + TRICKY)
# joined without a space, tokens run into each other's casing context
text = st.tuples(st.lists(token, max_size=12), st.sampled_from([" ", " ", ""])).map(
    lambda parts: parts[1].join(parts[0]))
query_text = st.lists(st.sampled_from(WORDS + ["unseen", "words", "ALPHA?", "\u03bf\u03b4\u03bf\u03c2",
                                               "\u0130"]),
                      min_size=1, max_size=6).map(" ".join)
# "d" + number ids: string order differs from index order (d1000 < d999)
doc_ids = st.lists(st.integers(0, 1200).map(lambda i: f"d{i}"), min_size=1, max_size=25,
                   unique=True)


@st.composite
def corpora(draw):
    ids = draw(doc_ids)
    return [{"doc_id": doc_id, "text": draw(text)} for doc_id in ids]


def _hex(scores) -> list[str]:
    return [s.hex() for s in scores]


def assert_index_matches_oracle(index, oracle: OracleDenseIndex) -> None:
    """Vocabulary, postings and counts equal the oracle's rows read column by
    column; idf and every document's norm, touched by a query or not, are the
    same doubles."""
    assert list(index.vocab.items()) == list(oracle.vocab.items())
    docs, counts = oracle.postings()
    assert [list(p) for p in index.postings] == docs
    assert [list(c) for c in index.post_counts] == counts
    assert _hex(index.idf) == _hex(oracle.idf)
    assert index._default_idf.hex() == oracle.default_idf.hex()
    assert _hex(index._norms) == _hex(oracle.norms)
    assert index._min_norm.hex() == min(filter(None, oracle.norms), default=1.0).hex()


def _depths(n: int) -> list[int]:
    return sorted({1, 5, 50, n, n + 7})


def assert_scores_match(index, oracle: OracleDenseIndex, query: str) -> None:
    """At every depth, each document ``score_all`` returns carries the
    oracle's score bit for bit, whether the search read it in a short list or
    in the walk; at ``n_docs`` it returns every document the query touches."""
    expected = oracle.scores(query)
    for k in _depths(index.n_docs):
        scores = index.score_all(query, k)
        assert {d: s.hex() for d, s in scores.items()} == {d: expected[d].hex() for d in scores}, k
    scores = index.score_all(query, index.n_docs)
    assert sorted(scores) == [d for d, s in enumerate(expected) if s != 0.0]
    assert _hex(scores.get(d, 0.0) for d in range(len(expected))) == _hex(expected)


def assert_top_k_match(index, oracle: OracleDenseIndex, query: str) -> None:
    ranking = oracle.ranking(query)
    for k in _depths(len(ranking)):
        result = web_search(index, ToolQuery.web(query), k)
        expected = ranking[:k]
        assert list(result.ranked_doc_ids) == [doc_id for doc_id, _ in expected], k
        assert _hex(result.doc_scores) == _hex(score for _, score in expected), k


@settings(max_examples=150, deadline=None)
@given(corpus=corpora(), queries=st.lists(query_text, min_size=1, max_size=4))
def test_scores_and_top_k_match_oracle_on_generated_corpora(corpus, queries):
    index = index_documents(corpus)
    oracle = OracleDenseIndex(corpus)
    assert_index_matches_oracle(index, oracle)
    for query in queries:
        assert_scores_match(index, oracle, query)
        assert_top_k_match(index, oracle, query)


# Terms that no other text spells, so each repeats only where it is put.
FRESH = ["kilo", "lima", "mike"]
# an empty, a punctuation-only and a NUL-holding text; one NUL sends the
# whole corpus through per-text tokenizing
ODD_TEXTS = ["", "!! - ,", "alpha\x00beta gamma\x00"]


@st.composite
def repeating_corpora(draw):
    """Corpora whose counts are not all 1: a term repeated 2-4 times in the
    document that introduces it, a term repeated in a later document than
    its first, and a term repeated in two documents in a row, among texts
    that may be empty, punctuation-only or hold a NUL."""
    ids = draw(st.lists(st.integers(0, 1200).map(lambda i: f"d{i}"), min_size=3, max_size=12,
                        unique=True))
    texts = [draw(st.one_of(text, st.sampled_from(ODD_TEXTS))) for _ in ids]
    n = len(texts)
    first = draw(st.integers(0, n - 1))
    texts[first] += " " + " ".join([FRESH[0]] * draw(st.integers(2, 4)))
    later = draw(st.integers(1, n - 1))
    texts[draw(st.integers(0, later - 1))] += " " + FRESH[1]
    texts[later] += f" {FRESH[1]} " + FRESH[1]
    row = draw(st.integers(0, n - 2))
    texts[row] += f" {FRESH[2]} {FRESH[2]}"
    texts[row + 1] = f"{FRESH[2]} {texts[row + 1]} {FRESH[2]}"
    return [{"doc_id": doc_id, "text": t} for doc_id, t in zip(ids, texts)]


@settings(max_examples=150, deadline=None)
@given(corpus=repeating_corpora(), queries=st.lists(query_text, min_size=1, max_size=3))
def test_repeated_terms_build_and_rank_as_the_oracle(corpus, queries):
    """Counts above 1, in the document that introduces a term, in a later
    one and in two in a row, with empty, punctuation-only and NUL-holding
    texts, from records handed over one at a time by a generator."""
    index = index_documents(record for record in corpus)
    oracle = OracleDenseIndex(corpus)
    assert_index_matches_oracle(index, oracle)
    assert any(count > 1 for counts in index.post_counts for count in counts)
    for query in queries + ["mike lima kilo"]:
        assert_scores_match(index, oracle, query)
        assert_top_k_match(index, oracle, query)
    # the zero fill's doc_id order is sorted on the first fill, not in the build
    fresh = index_documents(corpus)
    assert fresh._by_doc_id is None
    ranked = web_search(fresh, ToolQuery.web("kilo"), fresh.n_docs + 7).ranked_doc_ids
    assert list(ranked) == [doc_id for doc_id, _ in oracle.ranking("kilo")]
    assert [fresh.doc_ids[d] for d in fresh._by_doc_id] == sorted(oracle.doc_ids)


def test_a_corpus_of_tokenless_texts_has_no_norm_and_ranks_by_doc_id():
    corpus = [{"doc_id": doc_id, "text": text}
              for doc_id, text in zip(["d999", "d1000", "d2"], ["", "!! -", " \t"])]
    index = index_documents(corpus)
    oracle = OracleDenseIndex(corpus)
    assert_index_matches_oracle(index, oracle)
    assert index._min_norm == 1.0
    result = web_search(index, ToolQuery.web("alpha"), 5)
    assert result.ranked_doc_ids == ("d1000", "d2", "d999")


@pytest.mark.parametrize("ids, repeated", [(["a", "b", "a"], "a"), (["a", "b", "b", "a"], "b"),
                                           (["x", "y", "z", "y", "x"], "y")])
def test_a_repeated_doc_id_is_named_at_its_first_repeat(ids, repeated):
    with pytest.raises(DuplicateDocIdError) as raised:
        index_documents({"doc_id": doc_id, "text": "alpha"} for doc_id in ids)
    assert str(raised.value) == f"duplicate doc_id {repeated!r}"


@pytest.mark.parametrize("records, bad", [
    ([{"doc_id": "a", "text": "x"}, {"doc_id": "b"}], "{'doc_id': 'b'}"),
    ([{"doc_id": "a", "text": "x"}, ["b", "y"], {"text": "z"}], "['b', 'y']"),
])
def test_a_record_without_doc_id_or_text_is_named(records, bad):
    with pytest.raises(InputError) as raised:
        index_documents(iter(records))
    assert str(raised.value) == f"corpus record must have doc_id and text: {bad}"


@pytest.mark.parametrize("records, bad", [
    ([{"doc_id": "a", "text": "x"}, {"doc_id": 7, "text": 5}], "{'doc_id': 7, 'text': 5}"),
    ([{"doc_id": "a", "text": "x"}, {"doc_id": 7, "text": "y"}], "{'doc_id': 7, 'text': 'y'}"),
    ([{"doc_id": "a", "text": "x"}, {"doc_id": "b", "text": 5}, {"doc_id": 3, "text": "y"}],
     "{'doc_id': 'b', 'text': 5}"),
])
def test_a_value_that_is_not_a_string_is_named(records, bad):
    """No value is converted: str() would index 7 as '7', which a search
    for '5' would rank first."""
    with pytest.raises(InputError) as raised:
        index_documents(records)
    assert str(raised.value) == f"corpus record's doc_id and text must be strings: {bad}"


def _fixture_queries(world) -> list[str]:
    rng = random.Random(3)
    words = [w for record in world.corpus for w in record["text"].split()]
    queries = [world.web_query(entity).web_text for entity in world.entities]
    queries += [" ".join(rng.choice(words) for _ in range(rng.randint(1, 8)))
                for _ in range(30)]
    return queries + [
        "Who founded Rare Beauty",
        "Darius Miles jump shots scored on November 8, 2000",
        "qz042 marker",
        "nothing here overlaps",  # zero overlap: every document scores 0
    ]


def test_scores_and_top_k_match_oracle_on_fixture_corpus(world, index):
    oracle = OracleDenseIndex(world.corpus)
    assert_index_matches_oracle(index, oracle)
    for query in _fixture_queries(world):
        assert_scores_match(index, oracle, query)
        assert_top_k_match(index, oracle, query)


def test_the_build_matches_the_oracle_on_a_2000_doc_corpus():
    world = FixtureWorld(2000)
    assert_index_matches_oracle(index_documents(world.corpus), OracleDenseIndex(world.corpus))


def test_entity_queries_rank_as_the_oracle_on_a_2000_doc_corpus():
    """stream-2k's search shape: an entity's web query ranks its 5 documents
    first, then documents matching only its two common terms, many of them
    tied or nearly so, so the tie-break and the order of the products both
    decide the ranking."""
    world = FixtureWorld(2000)
    index = index_documents(world.corpus)
    oracle = OracleDenseIndex(world.corpus)
    queries = [world.web_query(entity).web_text for entity in world.entities[::6]]
    assert len(queries) >= 50
    for query in queries:
        assert_top_k_match(index, oracle, query)


def test_a_corpus_holding_nul_matches_the_oracle():
    corpus = [{"doc_id": "d1", "text": "alpha\x00beta \u039f\u0394\u039f\u03a3"},
              {"doc_id": "d2", "text": "\u03a3 alpha"}, {"doc_id": "d3", "text": "beta\x00"}]
    index = index_documents(corpus)
    oracle = OracleDenseIndex(corpus)
    assert_index_matches_oracle(index, oracle)
    for query in ["alpha", "alpha\x00beta", "\u03bf\u03b4\u03bf\u03c2 \u03c3", "beta"]:
        assert_scores_match(index, oracle, query)
        assert_top_k_match(index, oracle, query)


def test_short_ranking_fills_with_zero_scores_in_doc_id_string_order():
    corpus = [{"doc_id": f"d{i}", "text": "alpha" if i == 5 else f"filler{i}"}
              for i in (999, 5, 1000, 10, 2)]
    index = index_documents(corpus)
    result = web_search(index, ToolQuery.web("alpha"), 4)
    assert result.ranked_doc_ids == ("d5", "d10", "d1000", "d2")
    assert result.doc_scores[0] > 0.0
    assert result.doc_scores[1:] == (0.0, 0.0, 0.0)


def test_zero_overlap_query_ranks_all_by_doc_id():
    corpus = [{"doc_id": doc_id, "text": "alpha beta"} for doc_id in ("d999", "d1000", "d2")]
    index = index_documents(corpus)
    assert index.score_all("gamma", index.n_docs) == {}
    result = web_search(index, ToolQuery.web("gamma"), 10)
    assert result.ranked_doc_ids == ("d1000", "d2", "d999")
    assert result.doc_scores == (0.0, 0.0, 0.0)


@pytest.mark.parametrize("query", ["unseen words", " ", "!! -"])
def test_out_of_vocabulary_or_tokenless_query_walks_nothing(query):
    corpus = [{"doc_id": doc_id, "text": "alpha beta"} for doc_id in ("d999", "d1000", "d2")]
    index = index_documents(corpus)
    assert index.score_all(query, index.n_docs) == {}
    assert index.score_all(query, 2) == {}
    result = web_search(index, ToolQuery.web(query), 2)
    assert result.ranked_doc_ids == ("d1000", "d2")
    assert result.doc_scores == (0.0, 0.0)


def _tie_corpus(text: str) -> list[dict]:
    # d1000 sorts before d999 but comes later in impact order, where equal
    # impacts keep index order
    return [{"doc_id": "d999", "text": text}, {"doc_id": "d1000", "text": text},
            {"doc_id": "d5", "text": "beta gamma"}, {"doc_id": "d7", "text": "delta echo fox"}]


# When the walk reaches d1000, the bound on its score rounds to exactly the
# k-th score ("alpha") or to one ulp below it ("alpha beta").
@pytest.mark.parametrize("text", ["alpha", "alpha beta"])
def test_a_tie_at_the_kth_score_goes_to_the_smaller_doc_id_seen_later(text):
    corpus = _tie_corpus(text)
    index = index_documents(corpus)
    result = web_search(index, ToolQuery.web("alpha"), 1)
    assert result.ranked_doc_ids == ("d1000",)
    assert_top_k_match(index, OracleDenseIndex(corpus), "alpha")


def test_the_stop_is_strict_without_slack(monkeypatch):
    """Slack aside, a bound equal to the k-th score does not stop the walk."""
    monkeypatch.setattr(retrieval, "_BOUND_SLACK", 1.0)
    index = index_documents(_tie_corpus("alpha"))
    assert web_search(index, ToolQuery.web("alpha"), 1).ranked_doc_ids == ("d1000",)


# How many filler words of each df "d2" holds, beside the rare term "short".
# Found by lattice reduction (LLL) so that d2's norm makes its score the same
# double as the score of "d1", which holds only the long term, and so that
# this score is also exactly the cap on an unseen document's score.
_CAP_TIE_FILLERS = {1: 22, 100: 3, 101: 5, 102: 5, 103: 7, 104: 6, 105: 4, 106: 5, 107: 4,
                    108: 5, 109: 6, 110: 7, 111: 5, 112: 6, 113: 5, 114: 5, 115: 5, 116: 6,
                    117: 5, 118: 6, 119: 7, 120: 4, 121: 4, 122: 7, 123: 5}


def _cap_tie_corpus() -> list[dict]:
    """400 documents: "d1" is "long"; "d2" is "short" and its filler words,
    in an order whose rounding lands the tie; each of the other 398 holds
    "long", its share of the filler words' other postings, dealt round robin,
    and a word of its own. So "long" has the largest df, and d1 the smallest
    norm and the largest count of "long": it reaches the cap."""
    fillers = [(f"w{df}x{i}", df) for df, m in sorted(_CAP_TIE_FILLERS.items()) for i in range(m)]
    random.Random(1).shuffle(fillers)
    others = [["long"] for _ in range(398)]
    dealt = 0
    for word, df in fillers:
        for _ in range(df - 1):
            others[dealt % len(others)].append(word)
            dealt += 1
    return ([{"doc_id": "d1", "text": "long"},
             {"doc_id": "d2", "text": " ".join(["short"] + [word for word, _ in fillers])}]
            + [{"doc_id": f"f{i}", "text": " ".join(words + [f"own{i}"])}
               for i, words in enumerate(others)])


@pytest.mark.parametrize("slack", [retrieval._BOUND_SLACK, 1.0])
def test_an_unseen_document_tying_the_kth_score_at_the_cap_is_searched(monkeypatch, slack):
    """At k = 1 "short" is read whole and scores d2. d1, unseen, ties d2's
    score exactly at the cap, so the cap test must not stop the search: the
    walk over "long" finds d1, whose smaller doc_id takes the tie."""
    monkeypatch.setattr(retrieval, "_BOUND_SLACK", slack)
    corpus = _cap_tie_corpus()
    index = index_documents(corpus)
    scores = index.score_all("short long", index.n_docs)
    terms, qnorm = index._query_terms("short long")
    (long_id, qw), _ = terms
    cap = qw * (max(index.post_counts[long_id]) * index.idf[long_id]) / index._min_norm / qnorm
    assert scores[0] == scores[1] == cap  # d1, d2
    assert web_search(index, ToolQuery.web("short long"), 1).ranked_doc_ids == ("d1",)
    assert_top_k_match(index, OracleDenseIndex(corpus), "short long")


def test_the_cap_holds_a_long_terms_largest_count():
    """d1 repeats "long" and outscores d2, which "short" gives first; a cap
    that counted one "long" per document would fall below d2's score."""
    corpus = [{"doc_id": "d1", "text": "long long"}, {"doc_id": "d2", "text": "short alpha beta"},
              {"doc_id": "d3", "text": "long alpha beta gamma"},
              {"doc_id": "d4", "text": "gamma delta echo"}]
    index = index_documents(corpus)
    assert web_search(index, ToolQuery.web("short long"), 1).ranked_doc_ids == ("d1",)
    assert_top_k_match(index, OracleDenseIndex(corpus), "short long")


@pytest.mark.parametrize("k", [4, 6, 9])
def test_k_at_or_above_the_touched_documents_walks_them_all(k):
    corpus = [{"doc_id": doc_id, "text": text} for doc_id, text in
              [("d999", "alpha beta"), ("d5", "alpha"), ("d1000", "alpha alpha gamma"),
               ("d2", "beta"), ("d30", "gamma delta"), ("d4", "echo")]]
    index = index_documents(corpus)
    assert index.score_all("alpha beta", k) == index.score_all("alpha beta", index.n_docs)
    assert len(index.score_all("alpha beta", index.n_docs)) == 4
    assert_top_k_match(index, OracleDenseIndex(corpus), "alpha beta")
    result = web_search(index, ToolQuery.web("alpha beta"), k)
    assert len(result.doc_scores) == min(k, 6)
    assert result.doc_scores[4:] == (0.0,) * (len(result.doc_scores) - 4)  # the zero fill


def test_an_entity_query_at_k_5_scores_only_its_documents():
    """stream-2k's fresh search: the entity term's 5 postings are read whole,
    and the cap on a document holding only the two common terms stops the
    search there, so no long list is sorted."""
    world = FixtureWorld(2000)
    index = index_documents(world.corpus)
    for entity in world.entities[::20]:
        query = world.web_query(entity).web_text
        entity_docs = index.postings[index.vocab[entity.lower()]]
        assert len(entity_docs) == 5
        assert sorted(index.score_all(query, 5)) == entity_docs
        assert web_search(index, ToolQuery.web(query), 5).doc_scores[-1] > 0.0
    assert index._impact_orders == {}


@pytest.mark.parametrize("k", [3, 50])
def test_an_entity_query_walks_when_its_documents_cannot_fill_k(k):
    """Below k = 5 every list is long, and above it the entity's documents
    are fewer than k: either way the common terms' lists are walked, and the
    ranking is the oracle's."""
    world = FixtureWorld(2000)
    index = index_documents(world.corpus)
    oracle = OracleDenseIndex(world.corpus)
    query = world.web_query(world.entities[0]).web_text
    result = web_search(index, ToolQuery.web(query), k)
    assert {index.vocab["overview"], index.vocab["facts"]} <= set(index._impact_orders)
    expected = oracle.ranking(query)[:k]
    assert list(result.ranked_doc_ids) == [doc_id for doc_id, _ in expected]
    assert _hex(result.doc_scores) == _hex(score for _, score in expected)


def test_a_query_of_common_words_walks_at_k_5():
    """No term of two filler syllables and "overview" has 5 postings or
    fewer, so the cap cannot act: the walk opens every list, stops long
    before the documents the query touches, and ranks as the oracle."""
    world = FixtureWorld(2000)
    index = index_documents(world.corpus)
    oracle = OracleDenseIndex(world.corpus)
    query = "vor zel overview"
    tids = {index.vocab[term] for term in query.split()}
    assert min(len(index.postings[tid]) for tid in tids) > 5
    seen = index.score_all(query, 5)
    assert set(index._impact_orders) == tids
    assert 5 <= len(seen) < len(index.score_all(query, index.n_docs)) // 10
    result = web_search(index, ToolQuery.web(query), 5)
    expected = oracle.ranking(query)[:5]
    assert list(result.ranked_doc_ids) == [doc_id for doc_id, _ in expected]
    assert _hex(result.doc_scores) == _hex(score for _, score in expected)


def test_entity_searches_build_no_count_map_or_impact_order_for_the_common_terms():
    """A search the cap ends reads the common terms' counts by bisection and
    keeps only their largest counts: no count map, no impact order."""
    world = FixtureWorld(2000)
    index = index_documents(world.corpus)
    for entity in world.entities[::20]:
        web_search(index, ToolQuery.web(world.web_query(entity).web_text), 5)
    common = {index.vocab["overview"], index.vocab["facts"]}
    assert min(len(index.postings[tid]) for tid in common) == 1950
    assert set(index._max_counts) == common
    assert index._impact_orders == {}  # a list's count map is kept beside its impact order


def test_a_walk_builds_count_maps_exactly_for_the_lists_it_opens():
    """The common-word query walks all three of its lists, and each gets its
    count map beside its impact order; the largest counts are never taken."""
    world = FixtureWorld(2000)
    index = index_documents(world.corpus)
    query = "vor zel overview"
    index.score_all(query, 5)
    tids = {index.vocab[term] for term in query.split()}
    assert set(index._impact_orders) == tids
    for tid in tids:
        assert index._impact_orders[tid][2] == dict(zip(index.postings[tid],
                                                        index.post_counts[tid]))
    assert index._max_counts == {}


def test_top_k_walk_stops_long_before_the_touched_documents():
    """The 50th-best score for an entity's web query comes from documents
    matching only its two common terms; the walk still stops early."""
    world = FixtureWorld(2000)
    index = index_documents(world.corpus)
    query = world.web_query(world.entities[0]).web_text
    touched = index.score_all(query, index.n_docs)
    seen = index.score_all(query, 50)
    assert len(touched) >= 1900
    assert 50 <= len(seen) <= 200
    assert {d: touched[d] for d in seen} == seen


@settings(max_examples=100, deadline=None)
@given(corpus=corpora(),
       queries=st.lists(query_text, min_size=1, max_size=4, unique=True),
       asks=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 4)), max_size=20),
       memo_size=st.sampled_from([1, 2, 1024]))
def test_memoised_rankings_match_a_fresh_index_and_the_oracle(corpus, queries, asks, memo_size):
    depths = _depths(len(corpus))
    sequence = [(queries[q % len(queries)], depths[d % len(depths)]) for q, d in asks]
    for i, query in enumerate(queries):
        # small then large, then large then small; odd queries start deep
        order = depths if i % 2 == 0 else depths[::-1]
        sequence += [(query, k) for k in order + order[::-1]]
    index = index_documents(corpus)
    oracle = OracleDenseIndex(corpus)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(retrieval, "RANKING_MEMO_SIZE", memo_size)
        for query, k in sequence:
            result = web_search(index, ToolQuery.web(query), k)
            fresh = web_search(index_documents(corpus), ToolQuery.web(query), k)
            expected = oracle.ranking(query)[:k]
            assert result.ranked_doc_ids == fresh.ranked_doc_ids, (query, k)
            assert _hex(result.doc_scores) == _hex(fresh.doc_scores), (query, k)
            assert list(result.ranked_doc_ids) == [doc_id for doc_id, _ in expected], (query, k)
            assert _hex(result.doc_scores) == _hex(score for _, score in expected), (query, k)
            assert len(index._rankings) <= memo_size


def _count_scoring(monkeypatch) -> Counter:
    calls: Counter = Counter()
    score_all = DocIndex.score_all

    def counted(self, query_text, *args):
        calls[query_text] += 1
        return score_all(self, query_text, *args)

    monkeypatch.setattr(DocIndex, "score_all", counted)
    return calls


def test_memo_ranks_again_only_for_a_deeper_k_or_an_evicted_query(world, monkeypatch):
    index = index_documents(world.corpus)
    calls = _count_scoring(monkeypatch)
    monkeypatch.setattr(retrieval, "RANKING_MEMO_SIZE", 2)

    def search(text, k=5):
        return web_search(index, ToolQuery.web(text), k)

    search("alpha", 50)
    search("alpha", 5)  # a prefix of the top 50
    search("alpha", 60)  # deeper: ranked again
    assert calls == {"alpha": 2}
    search("beta")
    search("alpha")  # a hit makes alpha the most recently used
    search("gamma")  # evicts beta, the least recently used
    search("alpha")
    assert calls == {"alpha": 2, "beta": 1, "gamma": 1}
    search("beta")
    assert calls == {"alpha": 2, "beta": 2, "gamma": 1}


def test_input_checks_come_before_the_memo(world, monkeypatch):
    index = index_documents(world.corpus)
    calls = _count_scoring(monkeypatch)
    with pytest.raises(ValueError):
        web_search(index, ToolQuery.web("Rare Beauty"), 0)
    with pytest.raises(WrongToolError):
        web_search(index, ToolQuery.kg(KgQuery.make("other", {"main_entity": "Rare Beauty"})), 5)
    assert calls == {} and not index._rankings


def test_concurrent_searches_with_a_tiny_memo_match_a_sequential_run(world, monkeypatch):
    monkeypatch.setattr(retrieval, "RANKING_MEMO_SIZE", 2)
    # few texts for a memo of two: hits and evictions interleave
    asks = [(query, k) for query in _fixture_queries(world)[:5] for k in (1, 5, 50)]
    sequential = index_documents(world.corpus)
    expected = {ask: web_search(sequential, ToolQuery.web(ask[0]), ask[1]) for ask in asks}
    shared = index_documents(world.corpus)

    def searches(seed):
        order = asks * 20
        random.Random(seed).shuffle(order)
        return [(ask, web_search(shared, ToolQuery.web(ask[0]), ask[1])) for ask in order]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            # re-raises a thread's exception
            runs = list(pool.map(searches, range(4), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for run in runs:
        for ask, result in run:
            assert result == expected[ask], ask
    assert len(shared._rankings) <= 2


CHUNK_SIZES = [1, 3, 128]


# Words whose lowercasing or splitting might differ between a document and
# one of its chunks: final and medial sigmas, NUL, NBSP and "\x1c" (both
# whitespace to str.split), combining marks and punctuation-only words.
CHUNK_EDGE_WORDS = ["\u03a3", "\u039f\u0394\u039f\u03a3", "\u03c2", "\u03a3\u0301", "\u0301",
                    "\u0301\u03a3", "\u00ad\u03a3", "a\x00", "\x00", "\u0130", "--", "!?", "Alpha,"]
edge_text = st.tuples(st.lists(st.sampled_from(CHUNK_EDGE_WORDS), max_size=12),
                      st.sampled_from([" ", "\xa0", "\x1c", ""])).map(
    lambda parts: parts[1].join(parts[0]))


@settings(max_examples=300, deadline=None)
@given(texts=st.lists(edge_text, min_size=1, max_size=6),
       chunk_tokens=st.sampled_from([1, 2, 3, 128]))
def test_every_token_of_a_chunk_is_in_the_vocabulary(texts, chunk_tokens):
    """A chunk is a run of an indexed document's whitespace-split words, so
    its tokens, alone or tokenized with the other chunks, are the index's
    terms: a chunk vector has no out-of-vocabulary weight."""
    corpus = [{"doc_id": f"d{i}", "text": text} for i, text in enumerate(texts)]
    index = index_documents(corpus)
    for record in corpus:
        words = record["text"].split()
        chunks = [" ".join(words[at:at + chunk_tokens])
                  for at in range(0, len(words), chunk_tokens)]
        for tokens in [*map(retrieval.tokenize, chunks), *retrieval.tokenize_all(chunks)]:
            assert set(tokens) <= index.vocab.keys()
        assert [text for _, text, _, _ in index._chunks(record["doc_id"], chunk_tokens)] == chunks


def _chunks(chunks: list[Chunk]) -> list[tuple[str, int, str, str]]:
    return [(c.doc_id, c.offset, c.text, c.score.hex()) for c in chunks]


def _oracle_chunks(corpus, oracle: OracleDenseIndex, query: str, doc_ids, chunk_tokens: int):
    """Chunks by their definition: runs of at most chunk_tokens whitespace
    tokens joined on single spaces, scored by the oracle as texts and sorted by
    (-score, doc_id, offset)."""
    texts = {record["doc_id"]: record["text"] for record in corpus}
    pieces = []
    for doc_id in doc_ids:
        words = texts[doc_id].split()
        pieces += [(doc_id, offset, " ".join(words[offset:offset + chunk_tokens]))
                   for offset in range(0, len(words), chunk_tokens)]
    scores = oracle.score_texts(query, [text for _, _, text in pieces])
    ranked = sorted(zip(pieces, scores), key=lambda p: (-p[1], p[0][0], p[0][1]))
    return [(doc_id, offset, text, score.hex()) for (doc_id, offset, text), score in ranked]


def _rerank(index, query: str, doc_ids, chunk_tokens: int) -> list[Chunk]:
    result = WebResult(query, tuple(doc_ids), (0.0,) * len(doc_ids))
    return chunk_and_rerank(index, result, query, chunk_tokens)


def _table_rerank(index, query: str, doc_ids, chunk_tokens: int):
    """Every document ranked from the chunk vectors ``DocIndex._chunks``
    builds and keeps for it, single-chunk documents included."""
    terms, qnorm = index._query_terms(query)
    ranked = sorted((-index._cosine(terms, qnorm, counts, norm), doc_id, offset, text)
                    for doc_id in doc_ids
                    for offset, text, counts, norm in index._chunks(doc_id, chunk_tokens))
    return [(doc_id, offset, text, (-neg).hex()) for neg, doc_id, offset, text in ranked]


@st.composite
def rerank_calls(draw):
    """A corpus and a sequence of reranks on it: a query, documents drawn
    with repeats, and a chunk size each."""
    corpus = draw(corpora())
    ids = [record["doc_id"] for record in corpus]
    calls = draw(st.lists(st.tuples(query_text, st.lists(st.sampled_from(ids), max_size=6),
                                    st.sampled_from(CHUNK_SIZES)), min_size=1, max_size=8))
    return corpus, calls


@settings(max_examples=100, deadline=None)
@given(rerank_calls())
def test_kept_chunk_vectors_rerank_as_a_fresh_index_and_the_oracle(drawn):
    corpus, calls = drawn
    index = index_documents(corpus)
    oracle = OracleDenseIndex(corpus)
    for query, doc_ids, chunk_tokens in calls:
        ranked = _chunks(_rerank(index, query, doc_ids, chunk_tokens))
        assert ranked == _chunks(_rerank(index_documents(corpus), query, doc_ids, chunk_tokens))
        assert ranked == _oracle_chunks(corpus, oracle, query, doc_ids, chunk_tokens)
        assert ranked == _table_rerank(index_documents(corpus), query, doc_ids, chunk_tokens)


@pytest.mark.parametrize("chunk_tokens", CHUNK_SIZES)
def test_chunks_holding_nul_rerank_as_the_oracle(chunk_tokens):
    """A chunk text holding NUL sends its rerank's texts through per-text
    tokenizing; cold and warm reranks still match the oracle."""
    corpus = [{"doc_id": "d1", "text": "alpha\x00beta \u039f\u0394\u039f\u03a3 gamma"},
              {"doc_id": "d2", "text": "\u03a3 alpha beta"}, {"doc_id": "d3", "text": "beta\x00"}]
    index = index_documents(corpus)
    oracle = OracleDenseIndex(corpus)
    doc_ids = ["d2", "d1", "d3", "d1"]
    for query in ["alpha", "alpha\x00beta", "\u03bf\u03b4\u03bf\u03c2 \u03c3", "beta"]:
        chunks = _rerank(index, query, doc_ids, chunk_tokens)
        assert any("\x00" in chunk.text for chunk in chunks)
        assert _chunks(chunks) == _oracle_chunks(corpus, oracle, query, doc_ids, chunk_tokens)


# At 3 tokens a chunk: d1 and d6 fill one chunk exactly, d2 is one word
# longer, d3 is empty, d4 whitespace only, d5 three punctuation-only words
# (a chunk with no term, norm 0), and d7 a single word.
SINGLE_CHUNK_CORPUS = [
    {"doc_id": "d1", "text": "alpha beta gamma"},
    {"doc_id": "d2", "text": "alpha beta gamma delta"},
    {"doc_id": "d3", "text": ""},
    {"doc_id": "d4", "text": " \t\xa0\x1c "},
    {"doc_id": "d5", "text": "-- !? ..."},
    {"doc_id": "d6", "text": "Beta  beta,\tALPHA"},
    {"doc_id": "d7", "text": "gamma"},
]
SINGLE_CHUNK_IDS = ["d6", "d1", "d3", "d5", "d1", "d2", "d4", "d7", "d6"]  # with repeats


@pytest.mark.parametrize("chunk_tokens", [1, 2, 3, 4, 128])
@pytest.mark.parametrize("query", ["alpha", "beta gamma delta", "Gamma alpha alpha",
                                   "unseen words", "-- ?", ""])
def test_single_chunk_documents_rerank_as_the_chunk_table_and_the_oracle(query, chunk_tokens):
    """A document of at most chunk_tokens words, scored from the index's own
    vector, ranks as its kept chunk vector and as the oracle's scoring of its
    text: at exactly chunk_tokens words and one more, with no term (a zero
    norm), for a query with no in-vocabulary token or none at all, and with
    documents repeated."""
    corpus = SINGLE_CHUNK_CORPUS
    expected = _oracle_chunks(corpus, OracleDenseIndex(corpus), query, SINGLE_CHUNK_IDS,
                              chunk_tokens)
    index = index_documents(corpus)
    assert _chunks(_rerank(index, query, SINGLE_CHUNK_IDS, chunk_tokens)) == expected
    assert _table_rerank(index_documents(corpus), query, SINGLE_CHUNK_IDS, chunk_tokens) \
        == expected
    # warm: the same documents again, and the table the longer ones left
    assert _chunks(_rerank(index, query, SINGLE_CHUNK_IDS, chunk_tokens)) == expected


def test_a_cold_rerank_of_single_chunk_documents_keeps_and_tokenizes_nothing(monkeypatch):
    """Documents that fit one chunk are neither tokenized again nor kept;
    longer ones still fill the chunk table, a document listed twice in one
    rerank tokenized once."""
    index = index_documents(SINGLE_CHUNK_CORPUS)

    def refuse(texts):
        raise AssertionError("a single-chunk rerank tokenized its chunks")

    with monkeypatch.context() as patch:
        patch.setattr(retrieval, "tokenize_all", refuse)
        chunks = _rerank(index, "alpha beta", ["d1", "d3", "d4", "d5", "d6", "d7", "d1"], 3)
    assert sorted((chunk.doc_id, chunk.offset) for chunk in chunks) == [
        ("d1", 0), ("d1", 0), ("d5", 0), ("d6", 0), ("d7", 0)]
    assert index._chunk_vectors == {}
    tokenized = []
    tokenize_all = retrieval.tokenize_all

    def counting(texts):
        tokenized.append(list(texts))
        return tokenize_all(texts)

    with monkeypatch.context() as patch:
        patch.setattr(retrieval, "tokenize_all", counting)
        _rerank(index, "alpha beta", ["d2", "d1", "d2"], 3)
    assert tokenized == [["alpha beta gamma", "delta"]]
    assert list(index._chunk_vectors) == [("d2", 3)]
    assert [offset for offset, *_ in index._chunk_vectors["d2", 3]] == [0, 3]


def test_fixture_reranks_match_the_oracle(world):
    """Chunks of the fixture corpus's documents score as the oracle scores
    their texts and as their kept chunk vectors score, at every chunk size,
    whether the query touches them or not. Every fixture document fits one
    128-token chunk, so none is kept at that size."""
    index = index_documents(world.corpus)
    table = index_documents(world.corpus)
    oracle = OracleDenseIndex(world.corpus)
    doc_ids = [record["doc_id"] for record in world.corpus[:40]]
    for query in _fixture_queries(world)[::5]:
        for chunk_tokens in CHUNK_SIZES:
            ranked = _chunks(_rerank(index, query, doc_ids, chunk_tokens))
            assert ranked == _oracle_chunks(world.corpus, oracle, query, doc_ids, chunk_tokens)
            assert ranked == _table_rerank(table, query, doc_ids, chunk_tokens)
    assert {chunk_tokens for _, chunk_tokens in index._chunk_vectors} == {1, 3}


def test_concurrent_first_reranks_match_a_sequential_run(world, monkeypatch):
    """Four threads rerank on one index whose chunk table starts empty, five
    times over; every result and the table they leave equal a sequential run's.
    Before every second rerank a thread searches its text, into a memo of two
    texts, so a rerank meets its text memoised, evicted by another thread's
    search, or never searched on that index."""
    sequential = index_documents(world.corpus)
    asks = [(query, k, chunk_tokens) for query in _fixture_queries(world)[:6]
            for k in (5, 20) for chunk_tokens in (3, 128)]
    searched = {ask: web_search(sequential, ToolQuery.web(ask[0]), ask[1]) for ask in asks}
    expected = {ask: _chunks(chunk_and_rerank(sequential, searched[ask], ask[0], ask[2]))
                for ask in asks}
    monkeypatch.setattr(retrieval, "RANKING_MEMO_SIZE", 2)

    def reranks(shared, start, seed):
        order = asks * 3
        random.Random(seed).shuffle(order)
        start.wait()  # every thread meets the table empty
        ranked = []
        for i, ask in enumerate(order):
            if i % 2:
                web_search(shared, ToolQuery.web(ask[0]), ask[1])
            ranked.append((ask, chunk_and_rerank(shared, searched[ask], ask[0], ask[2])))
        return ranked

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows
    try:
        for round_ in range(5):
            shared = index_documents(world.corpus)
            start = threading.Barrier(4, timeout=60)
            with ThreadPoolExecutor(max_workers=4) as pool:
                # re-raises a thread's exception
                runs = list(pool.map(reranks, [shared] * 4, [start] * 4,
                                     range(4 * round_, 4 * round_ + 4), timeout=120))
            for run in runs:
                for ask, result in run:
                    assert _chunks(result) == expected[ask], (round_, ask)
            assert shared._chunk_vectors == sequential._chunk_vectors
            assert len(shared._rankings) <= 2
    finally:
        sys.setswitchinterval(interval)


@settings(max_examples=100, deadline=None)
@given(drawn=rerank_calls(), k=st.sampled_from([1, 5, 50]), memo_size=st.sampled_from([1, 1024]))
def test_a_rerank_after_a_search_matches_a_fresh_index_and_the_oracle(drawn, k, memo_size):
    """Each call searches its text on the one index, then reranks that result,
    and a hand-made result of its documents and the drawn ones with every
    score zeroed, for this text and for the previous call's, which a memo of
    one has evicted: each rerank equals a fresh index's and the oracle's, bit
    for bit, at chunk sizes that split some documents and at 128 tokens."""
    corpus, calls = drawn
    index = index_documents(corpus)
    oracle = OracleDenseIndex(corpus)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(retrieval, "RANKING_MEMO_SIZE", memo_size)
        previous = None
        for query, doc_ids, chunk_tokens in calls:
            result = web_search(index, ToolQuery.web(query), k)
            ids = result.ranked_doc_ids + tuple(doc_ids)
            asks = [(result, query, result.ranked_doc_ids),
                    (WebResult(query, ids, (0.0,) * len(ids)), query, ids)]
            if previous is not None:
                asks.append((previous, previous.query_text, previous.ranked_doc_ids))
            for handed, text, ranked_ids in asks:
                ranked = _chunks(chunk_and_rerank(index, handed, text, chunk_tokens))
                assert ranked == _chunks(_rerank(index_documents(corpus), text, ranked_ids,
                                                 chunk_tokens))
                assert ranked == _oracle_chunks(corpus, oracle, text, ranked_ids, chunk_tokens)
            previous = result


def test_a_rerank_of_a_searched_text_reads_its_scores_from_the_memo(world, monkeypatch):
    """Every document of a searched result fits one 128-token chunk and is in
    the memo, so the rerank derives no query terms; a hand-made result with
    zeroed scores still gets the index's."""
    index = index_documents(world.corpus)
    query = world.web_query(world.entities[3]).web_text
    result = web_search(index, ToolQuery.web(query), 5)
    expected = _chunks(chunk_and_rerank(index_documents(world.corpus), result, query, 128))
    assert all(float.fromhex(score) > 0.0 for *_, score in expected)

    def refuse(self, query_text):
        raise AssertionError("a memoised rerank derived its query terms")

    monkeypatch.setattr(DocIndex, "_query_terms", refuse)
    zeroed = WebResult(query, result.ranked_doc_ids, (0.0,) * 5)
    assert _chunks(chunk_and_rerank(index, result, query, 128)) == expected
    assert _chunks(chunk_and_rerank(index, zeroed, query, 128)) == expected
