"""Dict-based sparse tf.idf vectors: tokenization, fitting, cosine, centroids.

Pure Python, no external dependencies. Every operation here is a pure
function over immutable inputs; fitted models are read-only.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from typing import Iterable, Mapping, Sequence

from .errors import DegenerateLabels

URL_TOKEN = "__url__"
USER_TOKEN = "__user__"

_URL_RE = re.compile(r"(?:https?://|www\.)\S+", re.IGNORECASE)
_MENTION_RE = re.compile(r"@\w+")
_HASHTAG_RE = re.compile(r"#(\w)")
# Numbers (with comma grouping / decimals) survive as single tokens; word
# tokens are letter-or-underscore runs so sentinel and mask tokens stay whole.
_TOKEN_RE = re.compile(r"\d+(?:,\d{3})*(?:\.\d+)?|[^\W\d]+")


def tokenize(text: str) -> list[str]:
    """Lowercase tokens from a short text.

    URLs and @mentions collapse to sentinel tokens, the leading '#' of a
    hashtag is stripped, punctuation separates, numbers are kept whole.
    Empty input yields an empty list.

    ASCII text is lower-cased first, and each rewrite runs only where its
    literal occurs: on ASCII, lower() keeps every character's length and
    class, the URL pattern ignores case and the sentinels are lower-case,
    so the tokens are the same. Other text keeps the general path.
    """
    if text.isascii():
        text = text.lower()
        if "://" in text or "www." in text:
            text = _URL_RE.sub(f" {URL_TOKEN} ", text)
        if "@" in text:
            text = _MENTION_RE.sub(f" {USER_TOKEN} ", text)
        if "#" in text:
            text = _HASHTAG_RE.sub(r"\1", text)
        return _TOKEN_RE.findall(text)
    text = _URL_RE.sub(f" {URL_TOKEN} ", text)
    text = _MENTION_RE.sub(f" {USER_TOKEN} ", text)
    text = _HASHTAG_RE.sub(r"\1", text)
    return [t.lower() for t in _TOKEN_RE.findall(text)]


def token_spans(text: str) -> list[tuple[str, int, int]]:
    """(lowercased token, start, end) over the raw text, offsets unshifted.

    Unlike tokenize() this does no URL/mention rewriting, so spans always
    index into the original string; used by phrase matchers and maskers.
    """
    return [(m.group(0).lower(), m.start(), m.end()) for m in _TOKEN_RE.finditer(text)]


class SparseVector:
    """Immutable term→weight map with a cached Euclidean norm.

    Zero weights are dropped at construction so support checks stay cheap.
    """

    __slots__ = ("entries", "norm")

    def __init__(self, entries: dict[str, float] | None = None):
        self.entries: dict[str, float] = {
            t: float(w) for t, w in (entries or {}).items() if w != 0.0
        }
        self.norm: float = math.sqrt(sum(w * w for w in self.entries.values()))

    def dot(self, other: "SparseVector") -> float:
        a, b = self.entries, other.entries
        if len(a) > len(b):
            a, b = b, a
        return sum(w * b[t] for t, w in a.items() if t in b)

    def __repr__(self) -> str:
        return f"SparseVector({len(self.entries)} terms, norm={self.norm:.4f})"


def cosine(a: SparseVector, b: SparseVector) -> float:
    """Cosine similarity in [0, 1]; 0 when either vector has zero norm."""
    if a.norm == 0.0 or b.norm == 0.0:
        return 0.0
    value = a.dot(b) / (a.norm * b.norm)
    return max(0.0, min(1.0, value))


def centroid(weights: Iterable[Mapping[str, float]]) -> SparseVector:
    """Per-term arithmetic mean of term→weight maps over their count,
    summed in input order."""
    sums: dict[str, float] = {}
    n = 0
    for entries in weights:
        n += 1
        for t, w in entries.items():
            sums[t] = sums.get(t, 0.0) + w
    if not n:
        raise DegenerateLabels("centroid over an empty vector list")
    return SparseVector({t: s / n for t, s in sums.items()})


class TfidfModel:
    """Document frequencies learned from a labeled document collection."""

    def __init__(self, doc_count: int, doc_freq: dict[str, int]):
        self.doc_count = doc_count
        self.doc_freq = doc_freq
        if self.doc_count < 1:
            raise ValueError("doc_count must be positive")
        for term, df in self.doc_freq.items():
            if not 1 <= df <= self.doc_count:
                raise ValueError(f"doc_freq[{term!r}]={df} outside [1, {self.doc_count}]")

        def smoothed(df: int) -> float:
            # Smoothed: never negative, defined for unseen terms (df = 0).
            return math.log((1 + self.doc_count) / (1 + df)) + 1.0

        # idf per fitted term and for unseen terms, computed once per model
        # rather than once per term of every text vectorized with it.
        self._idf = {t: smoothed(df) for t, df in self.doc_freq.items()}
        self._unseen_idf = smoothed(0)

    def idf(self, term: str) -> float:
        return self._idf.get(term, self._unseen_idf)


def fit_tfidf(documents: Sequence[Sequence[str]]) -> TfidfModel:
    """Fit document frequencies from the documents' token lists."""
    if not documents:
        raise DegenerateLabels("fit_tfidf needs at least one document")
    df: Counter[str] = Counter()
    for tokens in documents:
        df.update(set(tokens))
    return TfidfModel(doc_count=len(documents), doc_freq=dict(df))


def term_weights(tokens: Sequence[str], model: TfidfModel) -> dict[str, float]:
    """tf × smoothed-idf weight of each term, in order of first occurrence;
    unseen terms get the df=0 idf. Every weight is positive."""
    idf = model.idf
    return {t: count * idf(t) for t, count in Counter(tokens).items()}


def vectorize(tokens: Sequence[str], model: TfidfModel) -> SparseVector:
    """The tf.idf vector of the tokens: their `term_weights`."""
    return SparseVector(term_weights(tokens, model))


class Centroids(Mapping[str, SparseVector]):
    """Labelled centroids, read-only, indexed once for nearest_centroid:
    the labels in lexicographic order, and per term the (rank, weight) of
    each centroid that holds it."""

    def __init__(self, vectors: Mapping[str, SparseVector]):
        self._vectors = dict(vectors)
        self._ranked = sorted(self._vectors.items())
        self._most_terms = max((len(c.entries) for c in self._vectors.values()), default=0)
        self._postings: dict[str, list[tuple[int, float]]] = {}
        for rank, (_, c) in enumerate(self._ranked):
            for term, weight in c.entries.items():
                self._postings.setdefault(term, []).append((rank, weight))

    def __getitem__(self, label: str) -> SparseVector:
        return self._vectors[label]

    def __iter__(self):
        return iter(self._vectors)

    def __len__(self) -> int:
        return len(self._vectors)


def nearest_centroid(v: SparseVector, centroids: Centroids) -> tuple[str, float]:
    """Label of the most similar centroid by `cosine`; ties go to the first
    label in lexicographic order so results are deterministic.

    One pass over v's terms collects each centroid's products (term-at-a-
    time scoring, Turtle & Flood 1995). `dot` walks the vector with fewer
    terms, so for a centroid with at least as many terms as v these are
    the products it sums, in the same order, and one `sum()` of them gives
    its float; a centroid with fewer terms is scored by `cosine` itself.
    """
    if not centroids:
        raise DegenerateLabels("nearest_centroid against an empty centroid set")
    n = len(v.entries)
    products: list[list[float]] = [[] for _ in centroids._ranked]
    if n <= centroids._most_terms:  # else no centroid reads them
        postings = centroids._postings
        for term, w in v.entries.items():
            for rank, weight in postings.get(term, ()):
                products[rank].append(w * weight)
    best_label = None
    best_sim = -1.0
    for (label, c), terms in zip(centroids._ranked, products):
        if len(c.entries) < n:
            sim = cosine(v, c)
        elif v.norm == 0.0 or c.norm == 0.0:
            sim = 0.0
        else:
            sim = max(0.0, min(1.0, sum(terms) / (v.norm * c.norm)))
        if sim > best_sim:
            best_label, best_sim = label, sim
    assert best_label is not None
    return best_label, best_sim

