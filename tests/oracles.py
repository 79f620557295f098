"""Independent brute-force oracles used to freeze expected test values.

These reimplement contracts directly from their definitions, sharing no code
with the library paths they check.
"""

from __future__ import annotations

import math
import string

_PUNCT = str.maketrans({c: " " for c in string.punctuation})


def oracle_tokens(text: str) -> list[str]:
    return text.lower().translate(_PUNCT).split()


def oracle_rank_docs(corpus: list[dict], query: str) -> list[tuple[str, float]]:
    """Exhaustive tf-idf cosine ranking computed from raw corpus records."""
    n = len(corpus)
    df: dict[str, int] = {}
    doc_counts = []
    for record in corpus:
        counts: dict[str, int] = {}
        for token in oracle_tokens(record["text"]):
            counts[token] = counts.get(token, 0) + 1
        doc_counts.append(counts)
        for token in counts:
            df[token] = df.get(token, 0) + 1

    def idf(token: str) -> float:
        return math.log((1.0 + n) / (1.0 + df.get(token, 0))) + 1.0

    q_counts: dict[str, int] = {}
    for token in oracle_tokens(query):
        q_counts[token] = q_counts.get(token, 0) + 1
    q_weights = {t: c * idf(t) for t, c in q_counts.items()}
    q_norm = math.sqrt(sum(w * w for w in q_weights.values()))

    scored = []
    for record, counts in zip(corpus, doc_counts):
        weights = {t: c * idf(t) for t, c in counts.items()}
        norm = math.sqrt(sum(w * w for w in weights.values()))
        dot = sum(q_weights[t] * weights[t] for t in q_weights if t in weights)
        score = dot / (norm * q_norm) if dot and norm and q_norm else 0.0
        scored.append((record["doc_id"], score))
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored


def oracle_top_ids(corpus: list[dict], query: str, k: int) -> list[str]:
    return [doc_id for doc_id, _ in oracle_rank_docs(corpus, query)[:k]]


class OracleDenseIndex:
    """Reference scorer: the dense-query walk over doc-major CSR rows.

    Built from raw ``{doc_id, text}`` records. Every document row is walked
    in full against a vocabulary-sized query vector, summing products in
    ascending term id, and the whole corpus is sorted by ``(-score, doc_id)``.
    A search that visits only the query's postings must reproduce these
    scores bit for bit.
    """

    def __init__(self, corpus: list[dict]) -> None:
        self.doc_ids = [record["doc_id"] for record in corpus]
        self.vocab: dict[str, int] = {}
        doc_counts = []
        df: list[int] = []
        for record in corpus:
            counts: dict[int, int] = {}
            for token in oracle_tokens(record["text"]):
                tid = self.vocab.setdefault(token, len(self.vocab))
                counts[tid] = counts.get(tid, 0) + 1
            doc_counts.append(counts)
            df.extend([0] * (len(self.vocab) - len(df)))
            for tid in counts:
                df[tid] += 1
        n = len(corpus)
        self.idf = [math.log((1.0 + n) / (1.0 + f)) + 1.0 for f in df]
        self.default_idf = math.log((1.0 + n) / 1.0) + 1.0

        self.offsets = [0]
        self.tids: list[int] = []
        self.counts: list[int] = []
        self.weights: list[float] = []
        self.norms: list[float] = []
        for counts in doc_counts:
            sq = 0.0
            for tid in sorted(counts):
                w = counts[tid] * self.idf[tid]
                self.tids.append(tid)
                self.counts.append(counts[tid])
                self.weights.append(w)
                sq += w * w
            self.offsets.append(len(self.tids))
            self.norms.append(math.sqrt(sq))

    def postings(self) -> tuple[list[list[int]], list[list[int]]]:
        """Per term, the documents whose rows hold it, ascending, and its
        count in each: the rows read column by column."""
        docs: list[list[int]] = [[] for _ in self.vocab]
        counts: list[list[int]] = [[] for _ in self.vocab]
        for d in range(len(self.norms)):
            for j in range(self.offsets[d], self.offsets[d + 1]):
                docs[self.tids[j]].append(d)
                counts[self.tids[j]].append(self.counts[j])
        return docs, counts

    def query_vector(self, query: str) -> tuple[list[float], float]:
        counts: dict[str, int] = {}
        for token in oracle_tokens(query):
            counts[token] = counts.get(token, 0) + 1
        qvec = [0.0] * len(self.vocab)
        sq = 0.0
        for token in sorted(counts):
            tid = self.vocab.get(token)
            w = counts[token] * (self.idf[tid] if tid is not None else self.default_idf)
            sq += w * w
            if tid is not None:
                qvec[tid] = w
        return qvec, math.sqrt(sq)

    @staticmethod
    def _walk(offsets, tids, weights, norms, qvec, qnorm) -> list[float]:
        scores = [0.0] * (len(offsets) - 1)
        if qnorm == 0.0:
            return scores
        for d in range(len(scores)):
            dot = 0.0
            for j in range(offsets[d], offsets[d + 1]):
                dot += qvec[tids[j]] * weights[j]
            if dot != 0.0:
                scores[d] = dot / (norms[d] * qnorm)
        return scores

    def scores(self, query: str) -> list[float]:
        """Cosine score of every document, in index order."""
        qvec, qnorm = self.query_vector(query)
        return self._walk(self.offsets, self.tids, self.weights, self.norms, qvec, qnorm)

    def ranking(self, query: str) -> list[tuple[str, float]]:
        """Every document as (doc_id, score), sorted by (-score, doc_id)."""
        scored = zip(self.doc_ids, self.scores(query))
        return sorted(scored, key=lambda pair: (-pair[1], pair[0]))

    def score_texts(self, query: str, texts: list[str]) -> list[float]:
        """Texts scored as extra CSR rows; their out-of-vocabulary tokens add
        to the row norm at the unseen-term idf."""
        offsets, tids, weights, norms = [0], [], [], []
        for text in texts:
            counts: dict[int, int] = {}
            sq = 0.0
            for token in oracle_tokens(text):
                tid = self.vocab.get(token)
                if tid is None:
                    sq += self.default_idf * self.default_idf
                else:
                    counts[tid] = counts.get(tid, 0) + 1
            for tid in sorted(counts):
                w = counts[tid] * self.idf[tid]
                tids.append(tid)
                weights.append(w)
                sq += w * w
            offsets.append(len(tids))
            norms.append(math.sqrt(sq))
        qvec, qnorm = self.query_vector(query)
        return self._walk(offsets, tids, weights, norms, qvec, qnorm)


def oracle_docs_with_phrase(corpus: list[dict], phrase: str) -> list[str]:
    """Linear scan for substring containment."""
    return [record["doc_id"] for record in corpus if phrase in record["text"]]


def oracle_greedy_fill(
    chunks: list[str], kg_answer: str | None, budget: int, ratio: tuple[int, int]
) -> tuple[list[str], list[str], int]:
    """Reference assembly by the stated greedy rule."""
    web_share, kg_share = ratio
    kg_budget = budget * kg_share // (web_share + kg_share) if (web_share + kg_share) else 0
    kg_out: list[str] = []
    used = 0
    if kg_answer is not None and len(kg_answer.split()) <= kg_budget:
        kg_out.append(kg_answer)
        used = len(kg_answer.split())
    web_out: list[str] = []
    remaining = budget - used
    for chunk in chunks:
        if remaining <= 0:
            break
        n = len(chunk.split())
        if n <= remaining:
            web_out.append(chunk)
            remaining -= n
        else:
            web_out.append(" ".join(chunk.split()[:remaining]))
            remaining = 0
            break
    total = sum(len(t.split()) for t in kg_out) + sum(len(t.split()) for t in web_out)
    return web_out, kg_out, total


def oracle_binomial_999_interval(n: int, p: float) -> tuple[int, int]:
    """Central 99.9% interval of Binomial(n, p) by direct pmf summation."""
    # cumulative pmf via logs to avoid overflow
    log_fact = [0.0] * (n + 1)
    for i in range(1, n + 1):
        log_fact[i] = log_fact[i - 1] + math.log(i)

    def pmf(k: int) -> float:
        log_c = log_fact[n] - log_fact[k] - log_fact[n - k]
        return math.exp(log_c + k * math.log(p) + (n - k) * math.log(1 - p))

    lo = 0
    acc = 0.0
    while acc + pmf(lo) < 0.0005:
        acc += pmf(lo)
        lo += 1
    hi = n
    acc = 0.0
    while acc + pmf(hi) < 0.0005:
        acc += pmf(hi)
        hi -= 1
    return lo, hi
