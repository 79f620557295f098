"""Tool backends: lexical web document index, mock KG store, reference assembly.

The web index scores documents and chunks with a tf-idf-weighted cosine over
lowercased, punctuation-stripped whitespace tokens. Scoring is deliberately
deterministic so that result-equivalence checks (same top-k documents, same
KG answer) can be verified exactly. The embedding re-ranker this stands in
for can be swapped in behind the same functions.

The index is built in one pass over the corpus's tokens (single-pass
in-memory inversion, Heinz & Zobel 2003): the texts are lowercased and
stripped in one call, and each document's tokens, split one document at a
time, assign term ids and append the document to a term's postings at its
first occurrence there. A repeat there is noted as (term id, posting
position) in one flat list of ints, and the counts are 1s with the repeats
added in. idf is computed once per distinct document frequency. The norms
are summed term by term, in ascending id, so each document's squares add in
that order; a term that never repeats adds its idf squared per posting, the
double a count of 1 gives. A posting's weight, count times idf, is computed
where it is read.

Every search is for the top k, and k is always given. It first reads whole
the posting lists of the query's rare terms, those with at most k postings:
reading one costs no more than the k documents any search must score. It
scores each of their documents exactly, in one loop: it finds the document's
count in each query term's postings by bisection, since postings ascend, and
adds the products in ascending term id, as a walk over the document's own
terms would, so its score is the same double bit for bit. An unseen document
then holds only the query's long terms, so its score is at most the cap
(Turtle & Flood, 1995): each long term's query weight times its largest count
times its idf, over the smallest document norm. Once the k-th best score is
strictly above the cap, the search is done without opening a long list.
Otherwise it walks the long lists side by side, each in descending order of
impact (weight / document norm): the threshold algorithm (Fagin, Lotem & Naor,
2001). A document the walk sees first holds none of the rare terms, so it is
scored from the long lists' count maps alone, one dict lookup per term, in the
same order. The walk stops once the k-th best score is strictly above what any
unseen document could reach, the sum of query weight times the next impact of
each long list. Both tests carry a relative slack far above the rounding
error, so a tie that a smaller doc_id would win is never left unseen. One sort
of the documents seen by ``(-score, doc_id)`` then gives the top k; fewer than
k seen means every document sharing a term with the query was seen, and the
rest score 0. At k = ``n_docs`` every list is rare, so all of them are scored.
Each long term's largest count is taken on first use and kept, since the index
is immutable, and so are the impact order and count map of each list that is
walked: a search the cap ends builds neither for its long lists.

Streaming strategies search the same query text many times, so each index
memoises its rankings by query text. The index is immutable and the ranking
order is total, so a memoised ranking is exactly what a fresh search returns.

A chunk rerank scores the chunks of a result's documents with the same
cosine, each chunk as a text of its own. A document that fits in one chunk
is that chunk: whitespace is neither cased nor case-ignorable, so joining its
words on single spaces changes none of its tokens, and its score is the
document's search score, with nothing built or kept. When the ranking memo
holds the rerank's query text and that document, the score is the memo's,
the scorer's own double; otherwise it is scored from the index's postings as
a search scores a rare list's documents. A longer document's chunks get their
term counts and norm the first time it is chunked at that size, its own
chunks tokenized in one call, and are kept on the index. A rerank then adds
the query weight times each chunk weight over the query's terms, in
ascending term id, which are the products a walk over the chunk's own terms
would add, in the same order.
"""

from __future__ import annotations

import heapq
import math
import string
import threading
from array import array
from bisect import bisect_left
from collections import OrderedDict
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

from .core import KgQuery, Tool, ToolQuery, parse_records, read_depth
from .errors import DuplicateDocIdError, InputError, WrongToolError
from .schema import checker

_PUNCT_TO_SPACE = str.maketrans({c: " " for c in string.punctuation})

# Rankings each DocIndex keeps, one per query text, least recently used
# evicted first.
RANKING_MEMO_SIZE = 1024

# Relative slack on the top-k search's stopping bounds: far above a score's
# rounding error (under 1e-15 per query term), so rounding never stops the
# search before a document that ties the k-th best score.
_BOUND_SLACK = 1.0 + 1e-9


def tokenize(text: str) -> list[str]:
    """Lowercase, strip punctuation to spaces, split on whitespace."""
    return text.lower().translate(_PUNCT_TO_SPACE).split()


def tokenize_all(texts: Sequence[str]) -> Iterator[list[str]]:
    """``tokenize`` of each text, lazily, in order.

    The texts are joined on NUL and lowercased and stripped in one call. NUL is
    neither cased nor case-ignorable, so it bounds the final-sigma context as
    a text's ends do, and each part lowercases as its text alone would. Texts
    that themselves hold a NUL, like an empty list, are tokenized one by one.
    """
    joined = "\x00".join(texts)
    if joined.count("\x00") != len(texts) - 1:
        return map(tokenize, texts)
    return (part.split() for part in joined.lower().translate(_PUNCT_TO_SPACE).split("\x00"))


def count_tokens(text: str) -> int:
    """Reference-budget unit: whitespace-delimited words."""
    return len(text.split())


def truncate_tokens(text: str, limit: int) -> str:
    return " ".join(text.split()[:limit])


def _doc_score(d: int, lookups: list[tuple], norms: array, qnorm: float) -> float:
    """Cosine of document ``d`` with a query: one lookup in each given term's
    count map, as (``get``, idf, query weight) in ascending term id, the
    products added in that order, as a walk over the document's own terms
    would add them; 0.0 when they add to 0."""
    dot = 0.0
    for get, idf_t, qw in lookups:
        count = get(d)
        if count is not None:
            dot += qw * (count * idf_t)
    return dot / (norms[d] * qnorm) if dot != 0.0 else 0.0


class Chunk(NamedTuple):
    doc_id: str
    offset: int  # token offset of the chunk within its document
    text: str
    score: float


@dataclass(frozen=True)
class WebResult:
    """The top k documents for one web query and their scores, in
    ``(-score, doc_id)`` order (see ``DocIndex.score_all``)."""

    query_text: str
    ranked_doc_ids: tuple[str, ...]
    doc_scores: tuple[float, ...]


class DocIndex:
    """Immutable lexical index over a document corpus.

    Term ids follow first occurrence in the corpus. ``postings[t]`` holds the
    indices of the documents containing term ``t``, ascending, and
    ``post_counts[t]`` its count in each; a posting's weight is
    ``count * idf[t]``, computed where it is read. One pass over the
    corpus's tokens builds the postings and notes each in-document repeat;
    the counts are 1s with those repeats added in, and the norms come from
    a pass over the postings.
    Rebuilding from the same corpus yields the same index; all lookups are
    pure, so rankings are memoised (see ``ranking``) and the chunk vectors
    of documents longer than one chunk kept (see ``_chunks``).
    """

    def __init__(self, docs: Sequence[tuple[str, str]]) -> None:
        if not docs:
            raise InputError("cannot index an empty corpus")
        n = self.n_docs = len(docs)
        self.doc_ids: list[str] = [doc_id for doc_id, _ in docs]
        # doc_id -> document index
        self._positions = positions = dict(zip(self.doc_ids, range(n)))
        if len(positions) != n:
            first: dict[str, int] = {}
            for d, doc_id in enumerate(self.doc_ids):
                if first.setdefault(doc_id, d) != d:
                    raise DuplicateDocIdError(f"duplicate doc_id {doc_id!r}")
        self._texts: list[str] = [text for _, text in docs]

        vocab: dict[str, int] = {}
        postings: list[list[int]] = []
        repeats: list[int] = []  # (term id, posting position) of each repeat, flat
        for d, tokens in enumerate(tokenize_all(self._texts)):
            for token in tokens:
                tid = vocab.get(token)
                if tid is None:
                    vocab[token] = len(postings)
                    postings.append([d])
                else:
                    term_docs = postings[tid]
                    if term_docs[-1] == d:  # a repeat within this document
                        repeats.append(tid)
                        repeats.append(len(term_docs) - 1)
                    else:
                        term_docs.append(d)
        post_counts = [[1] * len(term_docs) for term_docs in postings]
        pairs = iter(repeats)
        for tid, i in zip(pairs, pairs):
            post_counts[tid][i] += 1

        self.vocab = vocab
        self.postings = postings
        self.post_counts = post_counts
        dfs = list(map(len, postings))
        idf_of_df = {df: math.log((1.0 + n) / (1.0 + df)) + 1.0 for df in set(dfs)}
        self.idf = idf = array("d", map(idf_of_df.__getitem__, dfs))
        self._default_idf = math.log(1.0 + n) + 1.0  # df 0
        # term by term in ascending id, so each document's squares add in that
        # order; a term counted once everywhere adds (1 * idf) ** 2, the same double
        repeated = set(repeats[::2])
        sq = [0.0] * n
        for tid, (term_docs, idf_t) in enumerate(zip(postings, idf)):
            if tid in repeated:
                for d, count in zip(term_docs, post_counts[tid]):
                    w = count * idf_t
                    sq[d] += w * w
            else:
                w2 = idf_t * idf_t
                for d in term_docs:
                    sq[d] += w2
        self._norms = array("d", map(math.sqrt, sq))
        # the smallest nonzero norm: every posted document has one, so no
        # document a search has not seen has a smaller one (see score_all)
        self._min_norm = min(filter(None, self._norms), default=1.0)
        # document indices in doc_id order, sorted on the first zero fill (see _rank)
        self._by_doc_id: array | None = None
        # term id -> its largest count (see _max_count)
        self._max_counts: dict[int, int] = {}
        # term id -> its postings in impact order and its count map (see _impact_order)
        self._impact_orders: dict[int, tuple[list[int], list[float], dict[int, int]]] = {}
        # (doc_id, chunk_tokens) -> a longer document's chunks as vectors (see _chunks)
        self._chunk_vectors: dict[tuple[str, int], tuple] = {}
        # query text -> (largest k asked, doc ids, scores), oldest use first
        self._rankings: OrderedDict[str, tuple] = OrderedDict()
        self._rankings_lock = threading.Lock()

    def _query_terms(self, query_text: str) -> tuple[list[tuple[int, float]], float]:
        """In-vocabulary (term id, weight) pairs in ascending id, and the L2
        norm of the whole query, out-of-vocabulary tokens included."""
        counts: dict[str, int] = {}
        for token in tokenize(query_text):
            counts[token] = counts.get(token, 0) + 1
        terms = []
        sq = 0.0
        for token in sorted(counts):
            tid = self.vocab.get(token)
            w = counts[token] * (self.idf[tid] if tid is not None else self._default_idf)
            sq += w * w
            if tid is not None:
                terms.append((tid, w))
        terms.sort()
        return terms, math.sqrt(sq)

    def score_all(self, query_text: str, k: int) -> dict[int, float]:
        """Cosine scores of the documents a search for the top ``k`` sees,
        keyed by document index; a document sharing no term scores 0.

        The postings of each query term with at most ``k`` of them are read
        whole. The long lists are opened only if the k-th best score does not
        beat the cap on an unseen document's score, and then walked in impact
        order until no unseen document can enter the top k. The documents
        seen hold the top k, each with its exact score, and fewer than k of
        them means every document sharing a term was seen; ``k = n_docs``
        reads every list whole. The rare lists' documents are scored by
        ``_score_docs``, the walk's by ``_doc_score`` from the long lists'
        count maps: a document the walk sees first holds no rare term.
        """
        terms, qnorm = self._query_terms(query_text)
        idf, norms, postings = self.idf, self._norms, self.postings
        seen: dict[int, None] = {}
        long_terms = []
        for tid, qw in terms:
            docs = postings[tid]
            if len(docs) <= k:
                seen.update(dict.fromkeys(docs))
            else:
                long_terms.append((tid, qw))
        scores = self._score_docs(seen, terms, qnorm)
        if not long_terms:
            return scores
        best = sorted(scores.values())[-k:]  # the k best scores seen, smallest first: a heap
        if len(best) == k:
            # an unseen document holds only long terms, each at most its
            # largest count, and has at least the smallest norm
            cap = 0.0
            for tid, qw in long_terms:
                cap += qw * (self._max_count(tid) * idf[tid])
            if best[0] > cap / self._min_norm / qnorm * _BOUND_SLACK:
                return scores
        lookups = []  # in ascending term id, for _doc_score
        walks = []
        for tid, qw in long_terms:
            docs, impacts, counts = self._impact_order(tid)
            lookups.append((counts.get, idf[tid], qw))
            walks.append((qw, docs, impacts))
        # longest list first, so lists drop off the end as the walk exhausts them
        walks.sort(key=lambda walk: len(walk[1]), reverse=True)
        depth = 0
        while walks:
            if len(best) == k:
                # each long list's next impact caps an unseen document's share
                bound = 0.0
                for qw, _, impacts in walks:
                    bound += qw * impacts[depth]
                if best[0] > bound / qnorm * _BOUND_SLACK:
                    break
            for _, docs, _ in walks:
                d = docs[depth]
                if d not in scores:
                    score = scores[d] = _doc_score(d, lookups, norms, qnorm)
                    if len(best) < k:
                        heapq.heappush(best, score)
                    elif score > best[0]:
                        heapq.heapreplace(best, score)
            depth += 1
            while walks and len(walks[-1][1]) == depth:
                walks.pop()
        return scores

    def _score_docs(self, docs: Iterable[int], terms: list[tuple[int, float]],
                    qnorm: float) -> dict[int, float]:
        """Cosine of each document with the query's (term id, weight) pairs,
        keyed by document index: each term's count in the document found by
        bisection on its ascending postings, the products added in ascending
        term id, as a walk over the document's own terms would add them; 0.0
        when they add to 0, as for a document with no terms."""
        idf, norms, postings, post_counts = self.idf, self._norms, self.postings, self.post_counts
        # bisecting below the last posting lands on it when d is past the end
        columns = [(postings[tid], len(postings[tid]) - 1, post_counts[tid], idf[tid], qw)
                   for tid, qw in terms]
        scores = {}
        for d in docs:
            dot = 0.0
            for term_docs, last, counts, idf_t, qw in columns:
                i = bisect_left(term_docs, d, 0, last)
                if term_docs[i] == d:
                    dot += qw * (counts[i] * idf_t)
            scores[d] = dot / (norms[d] * qnorm) if dot != 0.0 else 0.0
        return scores

    def _max_count(self, tid: int) -> int:
        """The largest count of term ``tid`` in a document; taken on first
        use and kept. A concurrent first use takes the same."""
        count = self._max_counts.get(tid)
        if count is None:
            count = self._max_counts[tid] = max(self.post_counts[tid])
        return count

    def _impact_order(self, tid: int) -> tuple[list[int], list[float], dict[int, int]]:
        """The postings of term ``tid`` as (document indices, impacts) in
        descending impact, ties in ascending document index, and its counts
        by document index, for the walk; built on first use and kept. A
        concurrent first use builds the same."""
        order = self._impact_orders.get(tid)
        if order is None:
            docs, counts = self.postings[tid], self.post_counts[tid]
            idf_t, norms = self.idf[tid], self._norms
            impacts = [count * idf_t / norms[d] for d, count in zip(docs, counts)]
            ranked = sorted(range(len(docs)), key=impacts.__getitem__, reverse=True)
            order = self._impact_orders[tid] = ([docs[i] for i in ranked],
                                                [impacts[i] for i in ranked],
                                                dict(zip(docs, counts)))
        return order

    def ranking(self, query_text: str, k: int) -> tuple[tuple[str, ...], tuple[float, ...]]:
        """The top k doc ids and their scores, in ``(-score, doc_id)`` order.

        Each query text keeps the ranking at the largest k asked so far. That
        order is total, so a smaller k is a prefix of it; a larger k ranks
        again and replaces the entry. The memo is read, ranked into and
        written under one lock.
        """
        rankings = self._rankings
        with self._rankings_lock:
            entry = rankings.get(query_text)
            if entry is None or entry[0] < k:
                entry = rankings[query_text] = (k, *self._rank(query_text, k))
            rankings.move_to_end(query_text)
            while len(rankings) > RANKING_MEMO_SIZE:
                rankings.popitem(last=False)
            return entry[1][:k], entry[2][:k]

    def _rank(self, query_text: str, k: int) -> tuple[tuple[str, ...], tuple[float, ...]]:
        """Rank afresh: one sort of the documents ``score_all`` saw by
        ``(-score, doc_id)`` gives the top k. Fewer than k seen means they are
        every document sharing a term with the query, so zero-scored documents
        fill the rest in doc_id order."""
        scores = self.score_all(query_text, k)
        doc_ids = self.doc_ids
        top = sorted(scores, key=lambda d: (-scores[d], doc_ids[d]))[:k]
        ranked = [(d, scores[d]) for d in top]
        if len(ranked) < k:
            by_doc_id = self._by_doc_id
            if by_doc_id is None:  # a concurrent first fill sorts the same
                by_doc_id = self._by_doc_id = array("i", sorted(range(self.n_docs),
                                                                key=doc_ids.__getitem__))
            for d in by_doc_id:
                if d not in scores:
                    ranked.append((d, 0.0))
                    if len(ranked) == k:
                        break
        return tuple(doc_ids[d] for d, _ in ranked), tuple(score for _, score in ranked)

    def _term_vector(self, tokens: Sequence[str]) -> tuple[dict[int, int], float]:
        """Tokens counted by term id, and their L2 norm: each term's squared
        weight added in ascending id. Only chunks of indexed documents come
        here, and every token of those is in the vocabulary."""
        vocab, idf = self.vocab, self.idf
        counts: dict[int, int] = {}
        for token in tokens:
            tid = vocab[token]
            counts[tid] = counts.get(tid, 0) + 1
        sq = 0.0
        for tid in sorted(counts):
            w = counts[tid] * idf[tid]
            sq += w * w
        return counts, math.sqrt(sq)

    def _cosine(self, terms: list[tuple[int, float]], qnorm: float,
                counts: dict[int, int], norm: float) -> float:
        """Cosine of a term vector (see ``_term_vector``) with the query's
        terms, their products added in ascending term id."""
        idf = self.idf
        dot = 0.0
        for tid, qw in terms:
            count = counts.get(tid)
            if count is not None:
                dot += qw * (count * idf[tid])
        return dot / (norm * qnorm) if dot != 0.0 else 0.0

    def _chunks(self, doc_id: str, chunk_tokens: int
                ) -> tuple[tuple[int, str, dict[int, int], float], ...]:
        """The document's chunks as (token offset, text, term counts, norm).

        A chunk is a run of at most ``chunk_tokens`` whitespace tokens of the
        document, joined on single spaces; its counts and norm are its text's
        (see ``_term_vector``). The chunks are built on first use, tokenized
        in one call, and kept, since the index is immutable; a concurrent
        first use builds the same entry. ``rank_chunks`` sends only documents
        of more than one chunk here; one that fits in a chunk is scored from
        the index's own vector.
        """
        key = (doc_id, chunk_tokens)
        chunks = self._chunk_vectors.get(key)
        if chunks is None:
            words = self._texts[self._positions[doc_id]].split()
            offsets = range(0, len(words), chunk_tokens)
            texts = [" ".join(words[offset:offset + chunk_tokens]) for offset in offsets]
            chunks = self._chunk_vectors[key] = tuple(
                (offset, text, *self._term_vector(tokens))
                for offset, text, tokens in zip(offsets, texts, tokenize_all(texts)))
        return chunks

    def rank_chunks(self, query_text: str, doc_ids: Sequence[str], chunk_tokens: int
                    ) -> list[Chunk]:
        """The chunks of the documents (see ``_chunks``), each scored by its
        cosine with the query, in ``(-score, doc_id, offset)`` order.

        A document of 1 to ``chunk_tokens`` whitespace words is its own only
        chunk, at offset 0, and scores its search score: whitespace is
        neither cased nor case-ignorable, so the chunk's tokens, counts and
        norm are the document's own. That score is the ranking memo's when
        the memo holds this query text and this document, and is otherwise
        computed as a search computes it (see ``_score_docs``). Only longer
        documents are chunked and kept; an empty or whitespace-only document
        has no chunk.
        """
        with self._rankings_lock:
            entry = self._rankings.get(query_text)
        memo = {} if entry is None else dict(zip(entry[1], entry[2]))
        positions, texts = self._positions, self._texts
        ranked = []
        unscored = []  # single-chunk documents the memo does not hold, as (index, doc_id, text)
        longer = []  # documents of more than one chunk
        for doc_id in doc_ids:
            d = positions[doc_id]
            words = texts[d].split()
            if len(words) > chunk_tokens:
                longer.append(doc_id)
            elif words:
                score = memo.get(doc_id)
                if score is None:
                    unscored.append((d, doc_id, " ".join(words)))
                else:
                    ranked.append((-score, doc_id, 0, " ".join(words)))
        if unscored or longer:
            terms, qnorm = self._query_terms(query_text)
            scores = self._score_docs([d for d, _, _ in unscored], terms, qnorm)
            ranked += [(-scores[d], doc_id, 0, text) for d, doc_id, text in unscored]
            cosine, chunks = self._cosine, self._chunks
            ranked += [(-cosine(terms, qnorm, counts, norm), doc_id, offset, text)
                       for doc_id in longer
                       for offset, text, counts, norm in chunks(doc_id, chunk_tokens)]
        ranked.sort()  # a tie on (-score, doc_id, offset) is a repeated document's same chunk
        return [Chunk(doc_id, offset, text, -neg) for neg, doc_id, offset, text in ranked]


def index_documents(corpus: Iterable[dict]) -> DocIndex:
    """Build a DocIndex from {doc_id, text} records of strings; their types
    are checked in one pass, and only a corpus that fails it is walked."""
    records = list(corpus)
    try:
        docs = list(map(itemgetter("doc_id", "text"), records))
    except (KeyError, TypeError):
        docs = []
    if len(docs) < len(records) or not set(map(type, chain.from_iterable(docs))) <= {str}:
        for record in records:  # name the first bad record
            try:
                doc_id, text = record["doc_id"], record["text"]
            except (KeyError, TypeError) as exc:
                raise InputError(f"corpus record must have doc_id and text: {record!r}") from exc
            if not (isinstance(doc_id, str) and isinstance(text, str)):
                raise InputError(f"corpus record's doc_id and text must be strings: {record!r}")
    return DocIndex(docs)


def web_search(index: DocIndex, query: ToolQuery, k: int) -> WebResult:
    """The top k documents for a web query, in ``(-score, doc_id)`` order.

    The ranking comes from the index's memo when it holds this query text at
    depth k or more, and from the top-k walk (``DocIndex.ranking``) otherwise.
    Zero-overlap queries still return k documents (all scored 0, ordered by
    doc_id). Kg or NO_QUERY inputs are a caller bug.
    """
    if query.tool is not Tool.WEB:
        raise WrongToolError(f"web_search needs a web query, got {query.tool}")
    if k < 1:
        raise ValueError("k must be >= 1")
    doc_ids, scores = index.ranking(query.web_text, k)
    return WebResult(query_text=query.web_text, ranked_doc_ids=doc_ids, doc_scores=scores)


def chunk_and_rerank(
    index: DocIndex, result: WebResult, query_text: str, chunk_tokens: int
) -> list[Chunk]:
    """Split a result's documents into fixed-size token chunks and rank them.

    Chunks are contiguous runs of at most chunk_tokens whitespace tokens,
    scored against query_text by the index scorer (``DocIndex.rank_chunks``:
    a document that fits in one chunk from the index's own vector, a longer
    one from the chunk vectors the index keeps); ties break by doc_id then
    chunk offset, so the ranking does not depend on document rank order.
    """
    if chunk_tokens < 1:
        raise ValueError("chunk_tokens must be >= 1")
    return index.rank_chunks(query_text, result.ranked_doc_ids, chunk_tokens)


class KgStore:
    """Exact-match mock KG: canonicalized structured query -> answer string."""

    def __init__(self, entries: dict[tuple, str]) -> None:
        self._entries = entries  # KgQuery.canonical_key -> answer

    def lookup(self, query: KgQuery) -> str | None:
        return self._entries.get(query.canonical_key())

    @classmethod
    def from_records(cls, records: list[dict], source: str = "kg") -> "KgStore":
        """Build a store from a list of {"query", "answer"} records. Records
        that ``kg_fixture.schema.json`` rejects, or a canonical query
        (``KgQuery.canonical_key``) that an earlier record holds, are an
        InputError naming ``source`` and the record's index."""
        checker("kg_fixture.schema.json")(records, "KG fixture", source)
        def entry(record: dict) -> tuple[tuple, str]:  # its query is checked above
            query = dict(record["query"])
            return KgQuery.make(query.pop("domain"), query).canonical_key(), record["answer"]
        return cls(dict(parse_records(enumerate(records), entry, "kg record",
                                      f"{source}: record ", key=itemgetter(0))))


def kg_lookup(store: KgStore, query: ToolQuery) -> str | None:
    """Exact-match lookup after canonicalization; a miss is None, not an error."""
    if query.tool is not Tool.KG:
        raise WrongToolError(f"kg_lookup needs a kg query, got {query.tool}")
    return store.lookup(query.kg_query)


@dataclass(frozen=True)
class ReferenceBundle:
    """Budgeted reference context: KG answers first, then web chunks in rank order."""

    web_chunks: tuple[str, ...]
    kg_answers: tuple[str, ...]
    total_tokens: int

    def to_canonical_text(self) -> str:
        """Stable serialization used for exact bundle comparisons."""
        lines = ["# kg"]
        lines.extend(self.kg_answers)
        lines.append("# web")
        lines.extend(self.web_chunks)
        return "\n".join(lines)


def assemble_references(
    chunks: Sequence[Chunk],
    kg: str | None,
    budget_tokens: int,
    ratio: tuple[int, int],
) -> ReferenceBundle:
    """Fill the reference budget: the KG share, ``kg / (web + kg)`` of it,
    first (whole answers only), then the ranked web chunks in order,
    truncating at most the final chunk. ``total_tokens`` is the budget spent:
    each kept text spent its own count, a truncated chunk what was left."""
    if budget_tokens < 0:
        raise ValueError("budget_tokens must be >= 0")
    web_share, kg_share = ratio
    if min(ratio) < 0 or not any(ratio):
        raise ValueError(f"ratio parts must be non-negative and not both 0, got {ratio}")
    kg_budget = (budget_tokens * kg_share) // (web_share + kg_share)

    kg_answers: list[str] = []
    used = 0
    if kg is not None:
        n = count_tokens(kg)
        if n <= kg_budget:
            kg_answers.append(kg)
            used += n

    web_chunks: list[str] = []
    remaining = budget_tokens - used
    for chunk in chunks:
        if remaining <= 0:
            break
        n = count_tokens(chunk.text)
        if n <= remaining:
            web_chunks.append(chunk.text)
            remaining -= n
        else:
            web_chunks.append(truncate_tokens(chunk.text, remaining))
            remaining = 0
            break
    return ReferenceBundle(tuple(web_chunks), tuple(kg_answers), budget_tokens - remaining)


def top_docs_match(
    index: DocIndex,
    first: ToolQuery,
    second: ToolQuery,
    compare_k: int,
    retrieve_k: int,
    ordered: bool = True,
) -> bool:
    """Whether two web queries retrieve the same leading documents.

    ``ordered`` picks list vs set comparison of the top compare_k ids of
    the top retrieve_k; each query is searched only as deep as that reads
    (see ``read_depth``).
    """
    depth = read_depth(retrieve_k, compare_k)
    a = web_search(index, first, depth).ranked_doc_ids
    b = web_search(index, second, depth).ranked_doc_ids
    return a == b if ordered else set(a) == set(b)
