from __future__ import annotations


import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from streamrag.core import KgQuery, ToolQuery
from streamrag.errors import DuplicateDocIdError, InputError, WrongToolError
from streamrag.retrieval import (
    Chunk,
    DocIndex,
    KgStore,
    assemble_references,
    chunk_and_rerank,
    index_documents,
    kg_lookup,
    tokenize,
    tokenize_all,
    top_docs_match,
    web_search,
)

from oracles import (
    OracleDenseIndex,
    oracle_bundle_tokens,
    oracle_docs_with_phrase,
    oracle_greedy_fill,
    oracle_rank_docs,
    oracle_top_ids,
)


class TestTokenize:
    def test_lowercase_punctuation_whitespace(self):
        assert tokenize("Who founded Rare-Beauty, in 2019?") == [
            "who", "founded", "rare", "beauty", "in", "2019",
        ]

    def test_empty(self):
        assert tokenize("  ...  ") == []


# Characters whose lowercasing or splitting depends on their neighbours or
# on the text's ends: NUL (the batch separator), final sigma, the soft hyphen
# (case-ignorable, so it does not end a sigma's word), dotted capital I
# (lowercases to two code points) and Unicode whitespace.
TRICKY = ["\x00", "\u03a3", "\u03c3", "\u00ad", "\u0130", "A", "b", "'", "-", " ", "\t",
          "\x1c", "\u2028"]
tricky_text = st.lists(st.one_of(st.text(max_size=6), st.sampled_from(TRICKY)),
                       max_size=8).map("".join)


class TestTokenizeAll:
    @settings(max_examples=300, deadline=None)
    @given(texts=st.lists(st.one_of(tricky_text, st.sampled_from(["", " ", "\t\n"])),
                          max_size=8),
           keep_nul=st.booleans())
    def test_equals_tokenize_of_each_text(self, texts, keep_nul):
        if not keep_nul:  # a NUL anywhere sends the whole batch one by one
            texts = [text.replace("\x00", "") for text in texts]
        assert list(tokenize_all(texts)) == [tokenize(text) for text in texts]

    def test_a_text_end_bounds_final_sigma(self):
        texts = ["A\u03a3", "\u03a3b", "A\u03a3\u00ad", "\u00adb"]
        assert list(tokenize_all(texts)) == [["a\u03c2"], ["\u03c3b"], ["a\u03c2\u00ad"],
                                             ["\u00adb"]]

    def test_texts_holding_nul_are_tokenized_one_by_one(self):
        assert list(tokenize_all(["a\x00B", "c"])) == [["a\x00b"], ["c"]]

    def test_no_texts(self):
        assert list(tokenize_all([])) == []


class TestIndexDocuments:
    def test_three_docs_queryable(self):
        index = index_documents(
            [{"doc_id": "a", "text": "alpha"}, {"doc_id": "b", "text": "beta"},
             {"doc_id": "c", "text": "gamma"}]
        )
        result = web_search(index, ToolQuery.web("x"), 3)
        assert set(result.ranked_doc_ids) <= {"a", "b", "c"}

    def test_empty_corpus_rejected(self):
        with pytest.raises(InputError):
            index_documents([])

    def test_duplicate_doc_id_rejected(self):
        with pytest.raises(DuplicateDocIdError):
            index_documents([{"doc_id": "a", "text": "x"}, {"doc_id": "a", "text": "y"}])

    def test_every_fixture_doc_retrievable_by_unique_phrase(self, world, index):
        # oracle: a linear containment scan proves each marker is unique,
        # then the search engine must put that doc first
        for i, record in enumerate(world.corpus):
            marker = f"qz{i:03d}"
            assert oracle_docs_with_phrase(world.corpus, marker) == [record["doc_id"]]
            result = web_search(index, ToolQuery.web(marker), 5)
            assert result.ranked_doc_ids[0] == record["doc_id"]

    def test_rebuild_is_deterministic(self, world):
        a = index_documents(world.corpus)
        b = index_documents(world.corpus)
        qa = web_search(a, ToolQuery.web("synthetic profile history"), 10)
        qb = web_search(b, ToolQuery.web("synthetic profile history"), 10)
        assert qa == qb


class TestWebSearch:
    def test_unique_phrase_ranks_doc_first(self, world, index):
        # oracle: exhaustive scoring of all docs from raw corpus records
        query = "Rare Beauty was founded by Selena Gomez"
        expected = oracle_rank_docs(world.corpus, query)
        result = web_search(index, ToolQuery.web(query), len(world.corpus))
        assert list(result.ranked_doc_ids) == [doc_id for doc_id, _ in expected]
        assert result.ranked_doc_ids[0] == "d000"

    def test_no_overlap_returns_k_zero_scored_by_doc_id(self, index):
        result = web_search(index, ToolQuery.web("xylophone zeppelin quark"), 7)
        assert len(result.ranked_doc_ids) == 7
        assert all(score == 0.0 for score in result.doc_scores)
        assert list(result.ranked_doc_ids) == sorted(result.ranked_doc_ids)

    def test_k50_returns_exactly_50(self, index):
        result = web_search(index, ToolQuery.web("synthetic"), 50)
        assert len(result.ranked_doc_ids) == 50

    def test_k_larger_than_corpus_capped(self):
        index = index_documents([{"doc_id": "a", "text": "one"}, {"doc_id": "b", "text": "two"}])
        assert len(web_search(index, ToolQuery.web("one"), 50).ranked_doc_ids) == 2

    def test_wrong_tool_rejected(self, index):
        with pytest.raises(WrongToolError):
            web_search(index, ToolQuery.kg(KgQuery.make("other", {"main_entity": "x"})), 5)
        from streamrag.core import NO_QUERY

        with pytest.raises(WrongToolError):
            web_search(index, NO_QUERY, 5)

    def test_rank_soundness(self, index):
        for query in ("darius miles november", "synthetic profile", "qz001 marker"):
            result = web_search(index, ToolQuery.web(query), 200)
            for earlier, later in zip(result.doc_scores, result.doc_scores[1:]):
                assert earlier >= later

    def test_doc_containing_exact_query_in_top5(self, world, index):
        # retrieval sanity against the containment oracle
        query = "Darius Rucker discography count and tour count"
        containing = oracle_docs_with_phrase(world.corpus, query)
        assert containing
        top5 = web_search(index, ToolQuery.web(query), 5).ranked_doc_ids
        assert set(containing) <= set(top5)


class TestChunkAndRerank:
    def test_chunk_sizes_4_4_2(self):
        text = " ".join(f"tok{i}" for i in range(10))
        index = index_documents([{"doc_id": "a", "text": text}])
        result = web_search(index, ToolQuery.web("tok0"), 1)
        chunks = chunk_and_rerank(index, result, "tok0", 4)
        sizes = sorted((len(c.text.split()) for c in chunks), reverse=True)
        assert sizes == [4, 4, 2]

    def test_chunk_with_query_terms_outranks_chunk_without(self, index):
        docs = [{"doc_id": "a", "text": "alpha beta gamma delta " + "filler " * 8 + "omega end"}]
        local = index_documents(docs)
        result = web_search(local, ToolQuery.web("alpha beta"), 1)
        chunks = chunk_and_rerank(local, result, "alpha beta", 4)
        # oracle: score the chunks' texts directly
        direct = OracleDenseIndex(docs).score_texts("alpha beta", [c.text for c in chunks])
        assert chunks[0].text.startswith("alpha beta")
        assert [c.score for c in chunks] == direct
        assert direct[0] == max(direct)

    def test_ties_break_by_doc_id_then_offset(self):
        docs = [
            {"doc_id": "b", "text": "same words here same words here"},
            {"doc_id": "a", "text": "same words here same words here"},
        ]
        local = index_documents(docs)
        result = web_search(local, ToolQuery.web("same words"), 2)
        chunks = chunk_and_rerank(local, result, "same words", 3)
        keys = [(c.doc_id, c.offset) for c in chunks]
        assert keys == sorted(keys)

    def test_chunk_tokens_must_be_positive(self, index):
        result = web_search(index, ToolQuery.web("anything"), 1)
        with pytest.raises(ValueError):
            chunk_and_rerank(index, result, "anything", 0)


class TestKgLookup:
    def test_band_member_lookup(self, kg_store):
        query = ToolQuery.kg(
            KgQuery.make(
                "music",
                {"artist_name": "Red Hot Chili Peppers", "artist_aspect": "member"},
            )
        )
        answer = kg_lookup(kg_store, query)
        assert answer is not None and "drums" in answer

    def test_key_order_insensitive(self, kg_store):
        a = ToolQuery.kg(
            KgQuery.make("music", {"artist_aspect": "member", "artist_name": "Red Hot Chili Peppers"})
        )
        b = ToolQuery.kg(
            KgQuery.make("music", {"artist_name": "red hot chili peppers", "artist_aspect": "MEMBER"})
        )
        assert kg_lookup(kg_store, a) == kg_lookup(kg_store, b)

    def test_unknown_entity_is_none(self, kg_store):
        missing = ToolQuery.kg(KgQuery.make("other", {"main_entity": "nobody at all"}))
        assert kg_lookup(kg_store, missing) is None

    def test_wrong_tool_rejected(self, kg_store):
        with pytest.raises(WrongToolError):
            kg_lookup(kg_store, ToolQuery.web("text"))

    def test_from_records_validation(self):
        with pytest.raises(InputError):
            KgStore.from_records([{"answer": "no query"}])


# Texts of words separated, led and trailed by runs of mixed whitespace
# (str.split's: NBSP, "\x1c", NEL and ideographic space among them), empty
# or whitespace-only included.
_WHITESPACE = " \t\n\r\x0b\x0c\x1c\x85\xa0\u2003\u3000"
_spaced_text = st.tuples(
    st.text(_WHITESPACE, max_size=3),
    st.lists(st.tuples(st.sampled_from(["alpha", "\u03a3", "--", "b2", "x\x00y"]),
                       st.text(_WHITESPACE, min_size=1, max_size=3)), max_size=12),
).map(lambda parts: parts[0] + "".join(word + gap for word, gap in parts[1]))


class TestAssembleReferences:
    def test_zero_budget_empty_bundle(self, index):
        chunks = chunk_and_rerank(index, web_search(index, ToolQuery.web("synthetic"), 5), "synthetic", 16)
        bundle = assemble_references(chunks, "an answer", 0, (2, 1))
        assert bundle.total_tokens == 0
        assert bundle.web_chunks == () and bundle.kg_answers == ()

    def test_budget_300_kg50_two_chunks_of_100(self):
        # oracle: greedy fill by the stated rule
        chunks = [" ".join(f"c{i}w{j}" for j in range(100)) for i in range(2)]
        kg_answer = " ".join(f"k{j}" for j in range(50))
        expected = oracle_greedy_fill(chunks, kg_answer, 300, (2, 1))
        assert expected[2] == 250  # KG(50) + 2 web chunks(200)

        docs = [{"doc_id": f"d{i}", "text": chunks[i]} for i in range(2)]
        index = index_documents(docs)
        chunks = chunk_and_rerank(index, web_search(index, ToolQuery.web("c0w0"), 2), "c0w0", 100)
        bundle = assemble_references(chunks, kg_answer, 300, (2, 1))
        assert bundle.kg_answers == (kg_answer,)
        assert len(bundle.web_chunks) == 2
        assert bundle.total_tokens == 250

    def test_no_kg_gives_all_budget_to_web(self, index):
        chunks = chunk_and_rerank(index, web_search(index, ToolQuery.web("synthetic"), 5), "synthetic", 8)
        bundle = assemble_references(chunks, None, 40, (2, 1))
        assert bundle.kg_answers == ()
        assert bundle.total_tokens <= 40
        assert bundle.web_chunks

    def test_final_chunk_truncated_to_exact_budget(self):
        docs = [{"doc_id": "d", "text": " ".join(f"w{i}" for i in range(30))}]
        index = index_documents(docs)
        chunks = chunk_and_rerank(index, web_search(index, ToolQuery.web("w0"), 1), "w0", 30)
        bundle = assemble_references(chunks, None, 12, (2, 1))
        assert bundle.total_tokens == 12
        assert len(bundle.web_chunks[0].split()) == 12

    def test_kg_answer_never_split(self):
        bundle = assemble_references((), " ".join(["long"] * 50), 60, (2, 1))
        # 60-token budget gives KG a 20-token share; a 50-token answer is dropped whole
        assert bundle.kg_answers == ()
        assert bundle.total_tokens == 0

    @given(
        st.lists(st.integers(min_value=1, max_value=40), min_size=0, max_size=8),
        st.one_of(st.none(), st.integers(min_value=1, max_value=40)),
        st.integers(min_value=0, max_value=120),
        st.tuples(st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=5)),
    )
    @settings(max_examples=80, deadline=None)
    def test_budget_safety_property(self, chunk_sizes, kg_size, budget, ratio):
        chunks = [" ".join(f"c{i}w{j}" for j in range(n)) for i, n in enumerate(chunk_sizes)]
        kg_answer = None if kg_size is None else " ".join(f"k{j}" for j in range(kg_size))
        if chunks:
            docs = [{"doc_id": f"d{i:02d}", "text": text} for i, text in enumerate(chunks) if text]
        else:
            docs = []
        if docs:
            index = index_documents(docs)
            result = web_search(index, ToolQuery.web(chunks[0].split()[0]), len(docs))
            # chunk at max size so each doc is one chunk, in rank order
            ranked = chunk_and_rerank(index, result, chunks[0].split()[0], 64)
        else:
            ranked = []
        if ratio == (0, 0):  # no share to divide the budget by
            with pytest.raises(ValueError, match="not both 0"):
                assemble_references(ranked, kg_answer, budget, ratio)
            return
        oracle_web, oracle_kg, oracle_total = oracle_greedy_fill(chunks, kg_answer, budget, ratio)
        bundle = assemble_references(ranked, kg_answer, budget, ratio)
        assert bundle.total_tokens <= budget
        assert bundle.kg_answers == tuple(oracle_kg)

    @given(
        texts=st.lists(_spaced_text, max_size=6),
        kg=st.one_of(st.none(), _spaced_text),
        budget=st.one_of(st.just(0), st.integers(min_value=0, max_value=40)),
        ratio=st.one_of(st.sampled_from([(0, 1), (1, 0)]),
                        st.tuples(st.integers(min_value=1, max_value=3),
                                  st.integers(min_value=1, max_value=3))),
    )
    @example(texts=["a b", "c"], kg="", budget=0, ratio=(0, 1))
    @example(texts=["a  b\tc", "d"], kg="k k", budget=3, ratio=(0, 1))  # the answer fits
    @example(texts=["a b c", ""], kg="k k", budget=3, ratio=(1, 0))  # no KG share: it does not fit
    @example(texts=["", " \xa0", "a b"], kg="", budget=2, ratio=(1, 1))
    @settings(max_examples=300, deadline=None)
    def test_total_tokens_is_the_bundle_recounted(self, texts, kg, budget, ratio):
        """The budget spent, ``total_tokens``, is the bundle's texts counted again,
        and the bundle is the greedy fill's."""
        chunks = [Chunk(f"d{i}", 0, text, 0.0) for i, text in enumerate(texts)]
        bundle = assemble_references(chunks, kg, budget, ratio)
        assert bundle.total_tokens == oracle_bundle_tokens(bundle)
        assert (list(bundle.web_chunks), list(bundle.kg_answers), bundle.total_tokens) \
            == oracle_greedy_fill(texts, kg, budget, ratio)


class TestTopDocsMatch:
    def test_identical_text_short_circuits(self, index):
        q = ToolQuery.web("anything at all")
        assert top_docs_match(index, q, ToolQuery.web("anything at all"), 5, 50)

    def test_ordered_vs_set_mode(self, index):
        a = ToolQuery.web("Who founded Rare Beauty")
        b = ToolQuery.web("Who founded rare beauty in 2019")
        assert top_docs_match(index, a, b, 5, 50, ordered=False)

    def test_disjoint_queries_do_not_match(self, world, index):
        a = ToolQuery.web("Who founded Rare Beauty")
        b = ToolQuery.web("Red Bull founder")
        # oracle: compare the exhaustive top-5 lists directly
        assert oracle_top_ids(world.corpus, a.web_text, 5) != oracle_top_ids(world.corpus, b.web_text, 5)
        assert not top_docs_match(index, a, b, 5, 50, ordered=False)

    def test_wrong_tool_rejected(self, index):
        with pytest.raises(WrongToolError):
            top_docs_match(index, ToolQuery.web("a"), ToolQuery.kg(KgQuery.make("other", {})), 5, 50)
