"""Numeric-phrase extraction and impact typing.

Finds every number in a report (digits, words, soft quantities), attaches
its surrounding noun-phrase context with a lightweight chunker, and
classifies each phrase as date/time, address, human impact, or financial
impact with a linear one-vs-rest classifier over eight cheap features.
Also detects physical-site nouns.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left, bisect_right
from functools import lru_cache
from operator import itemgetter
from typing import NamedTuple, Optional, Sequence

from .errors import DegenerateLabels
from .linear import (
    LinearModel, SGDConfig, epoch_orders, intern, largest_row_norm, train_binary_hinge,
)
from .scope import _TENS, _UNITS, TextAnalysis, _any_in, _least_keys, fold_key, lexicon
from .spans import select_spans
from .textvec import fit_tfidf, term_weights, tokenize

IMPACT_CLASSES = ("date_time", "address", "human_impact", "financial_impact")

_SCALES = {
    "dozen": 12, "hundred": 100, "thousand": 1000,
    "million": 1_000_000, "billion": 1_000_000_000,
    "lakh": 100_000, "crore": 10_000_000,
}
_NUMBER_WORDS = frozenset(_UNITS) | frozenset(_TENS) | frozenset(_SCALES) | {"and", "a", "an"}

# Joined digit runs ("06:02", "5/20", "07-11") keep their separators so
# timestamp features can see them; plain numerals allow comma grouping.
_JOINED_RUN_RE = re.compile(r"\d+(?:[:/\-]\d+)+")
_DIGIT_RE = re.compile(
    r"(\d{1,3}(?:,\d{3})+(?:\.\d+)?|\d+(?:\.\d+)?)"
    r"(?:\s*(hundred|thousand|million|billion|lakh|crore)s?\b|(k|mm?|bn?)\b)?",
    re.IGNORECASE,
)
_SOFT_RE = re.compile(
    r"\b(several|scores\s+of|dozens\s+of|hundreds(?:\s+of\s+thousands)?|thousands|lakhs?|crores?)\b",
    re.IGNORECASE,
)
_WORD_RUN_RE = re.compile(
    r"\b(?:" + "|".join(sorted(_NUMBER_WORDS - {"and", "a", "an"})) + r")\b",
    re.IGNORECASE,
)
# What may separate two words of one run, and a leading "a"/"an" that
# ends the text before a run.
_RUN_GAP_RE = re.compile(r"[\s\-]+(?:and[\s\-]+)?|[\s\-]*")
_LEAD_ARTICLE_RE = re.compile(r"\b(an?)[\s\-]+$", re.IGNORECASE)

_SUFFIX_SCALE = {"k": 1e3, "m": 1e6, "mm": 1e6, "b": 1e9, "bn": 1e9}
# _SOFT_RE phrases, spaces collapsed, to the magnitude floor they name.
_SOFT_FLOORS = {
    "several": 3.0, "scores of": 20.0, "dozens of": 24.0, "hundreds": 100.0,
    "thousands": 1000.0, "hundreds of thousands": 100000.0, "lakh": 100000.0,
    "lakhs": 100000.0, "crore": 10000000.0, "crores": 10000000.0,
}
# Gates, as scope._FINDERS has: every _SOFT_RE match spells one of
# _SOFT_KEYS, and every _WORD_RUN_RE match one of _RUN_KEYS, in the text
# TextAnalysis.folded reads; _JOINED_RUN_RE and _DIGIT_RE need a digit.
_SOFT_KEYS = ("several", "scores", "dozens", "hundreds", "thousands", "lakh", "crore")
_RUN_KEYS = _least_keys(_NUMBER_WORDS - {"and", "a", "an"})

# Tokens that terminate the noun-phrase chunk around a numeral.
_FUNCTION_WORDS = frozenset(
    """a an the this that these those and or but nor so yet of in on at to for
    from by with about into over under after before between during against
    near off is are was were be been being has have had do does did will
    would can could may might shall should must not no as than then when
    while where which who whom whose it its he she they them his her their
    we our you your i me my""".split()
)


class NumericPhrase(NamedTuple):
    """One numeric expression with its non-empty span, its value (a soft
    quantity's magnitude floor) and its noun-phrase context."""

    span: tuple[int, int]
    raw: str
    value: float
    context_tokens: tuple[str, ...] = ()


class ImpactFeatureRow(NamedTuple):
    """The eight classifier features for one numeric phrase."""

    mixed_alnum: bool = False
    currency_symbol: bool = False
    monetary_suffix: bool = False
    timestamp_symbol: bool = False
    timezone_or_period: bool = False
    human_terms_hits: int = 0
    address_terms_hits: int = 0
    tfidf_triple: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def as_features(self) -> list[tuple[str, float]]:
        """The features whose value is not 0.0, in a fixed order. A 0.0
        feature only adds +-0.0 to a dot product's `sum()` or to a weight,
        so a fit or a score over these is the one over all ten, value for
        value, at a cost per step of the features a phrase has."""
        full = (
            ("mixed_alnum", 1.0 if self.mixed_alnum else 0.0),
            ("currency_symbol", 1.0 if self.currency_symbol else 0.0),
            ("monetary_suffix", 1.0 if self.monetary_suffix else 0.0),
            ("timestamp_symbol", 1.0 if self.timestamp_symbol else 0.0),
            ("timezone_or_period", 1.0 if self.timezone_or_period else 0.0),
            ("human_terms_hits", float(self.human_terms_hits)),
            ("address_terms_hits", float(self.address_terms_hits)),
            ("tfidf_address", self.tfidf_triple[0]),
            ("tfidf_human", self.tfidf_triple[1]),
            ("tfidf_financial", self.tfidf_triple[2]),
        )
        return [(name, value) for name, value in full if value != 0.0]


def parse_word_number(words: Sequence[str]) -> Optional[float]:
    """Value of an English number-word run ('four thousand two hundred six').

    Returns None when the run carries no number words at all.
    """
    total = 0.0
    current = 0.0
    seen = False
    for raw in words:
        w = raw.lower()
        if w in ("and",):
            continue
        if w in ("a", "an"):
            if current == 0.0:
                current = 1.0
            continue
        if w in _UNITS:
            current += _UNITS[w]
            seen = True
        elif w in _TENS:
            current += _TENS[w]
            seen = True
        elif w in _SCALES:
            current = (current if current else 1.0) * _SCALES[w]
            if _SCALES[w] >= 1000:
                total += current
                current = 0.0
            seen = True
        else:
            return None
    return total + current if seen else None


def _word_number_runs(text: str) -> list[tuple[int, int, float]]:
    """Maximal runs of adjacent number words, parsed to values."""
    matches = list(_WORD_RUN_RE.finditer(text))
    runs: list[tuple[int, int, float]] = []
    i = 0
    while i < len(matches):
        j = i
        # Extend while separated only by spaces, hyphens, or "and"/"a".
        while j + 1 < len(matches):
            gap = text[matches[j].end() : matches[j + 1].start()]
            if _RUN_GAP_RE.fullmatch(gap) and len(gap) <= 8:
                j += 1
            else:
                break
        start, end = matches[i].start(), matches[j].end()
        # Include a leading "a"/"an" for "a dozen" style phrases; `$` and
        # `\b` read the text cut at endpos as they would read text[:start].
        lead = _LEAD_ARTICLE_RE.search(text, 0, start)
        words = [fold_key(m.group(), _NUMBER_WORDS) for m in matches[i : j + 1]]
        if lead and words and words[0] in _SCALES:
            start = lead.start(1)
            words.insert(0, lead.group(1).lower())
        value = parse_word_number(words)
        if value is not None:
            runs.append((start, end, value))
        i = j + 1
    return runs


_QUANTITY_STOPS = frozenset(
    "thousands hundreds dozens scores millions billions lakhs crores several".split()
)


def _chunk_stop(tok: str) -> bool:
    return (
        tok in _FUNCTION_WORDS
        or tok in _NUMBER_WORDS
        or tok in _QUANTITY_STOPS
        or tok[0].isdigit()
    )


def _context_tokens(a: TextAnalysis, span: tuple[int, int]) -> tuple[str, ...]:
    """Noun-phrase-ish tokens around the numeral: contiguous non-function
    words (whitespace/hyphen gaps only), up to 2 left and 3 right,
    numerals and quantity words excluded. Token spans are sorted and
    disjoint: only the last 2 ending by the numeral and the first 3
    starting after it can be picked."""
    text, toks = a.text, a.spans
    k = bisect_right(toks, span[0], key=itemgetter(2))
    m = bisect_left(toks, span[1], key=itemgetter(1))
    left, right = toks[max(0, k - 2) : k], toks[m : m + 3]
    picked_left: list[str] = []
    boundary = span[0]
    for tok, start, end in reversed(left):
        gap = text[end:boundary]
        if gap.strip(" -") or _chunk_stop(tok):
            break
        picked_left.append(tok)
        boundary = start
    out = list(reversed(picked_left))
    boundary = span[1]
    for tok, start, end in right:
        gap = text[boundary:start]
        if gap.strip(" -") or _chunk_stop(tok):
            break
        out.append(tok)
        boundary = end
    return tuple(out)


def numeric_phrases(a: TextAnalysis) -> list[NumericPhrase]:
    """All numeric expressions in the text, spans non-overlapping.

    Digits (with comma grouping, decimals, scale suffixes), joined
    timestamp-like runs, English number words, and soft quantities with
    magnitude floors; a value that is not finite is no candidate. Each
    scan runs only where its gate hits.
    """
    text = a.text
    cands: list[tuple[int, int, float]] = []
    if a.digit:
        for m in _JOINED_RUN_RE.finditer(text):
            lead = float(m.group(0).split(":")[0].split("/")[0].split("-")[0])
            cands.append((m.start(), m.end(), lead))
        for m in _DIGIT_RE.finditer(text):
            value = float(m.group(1).replace(",", ""))
            if m.group(2):
                value *= _SCALES[fold_key(m.group(2), _SCALES)]
            elif m.group(3):
                value *= _SUFFIX_SCALE[fold_key(m.group(3), _SUFFIX_SCALE)]
            cands.append((m.start(), m.end(), value))
    if _any_in(a.folded, _SOFT_KEYS):
        for m in _SOFT_RE.finditer(text):
            floor = _SOFT_FLOORS[fold_key(" ".join(m.group(1).split()), _SOFT_FLOORS)]
            cands.append((m.start(), m.end(), floor))
    if _any_in(a.folded, _RUN_KEYS):
        cands += _word_number_runs(text)
    return [
        NumericPhrase(
            span=(start, end),
            raw=text[start:end],
            value=value,
            context_tokens=_context_tokens(a, (start, end)),
        )
        for start, end, value in select_spans([c for c in cands if math.isfinite(c[2])])
    ]


# ---------------------------------------------------------------------------
# feature extraction
# ---------------------------------------------------------------------------

_CURRENCY_CHARS = "$€£¥₹₩₽"
_TZ_PERIOD = frozenset(
    "am pm utc gmt est edt cst cdt mst mdt pst pdt bst ist cet cest jst aest".split()
)
_MIXED_RE = re.compile(r"[^\W\d_]\d|\d[^\W\d_]")
_TS_RE = re.compile(r"\d[:\-/]\d")
_ATTACHED_SUFFIX_RE = re.compile(r"\d\s?(k|mm?|bn?)\b", re.IGNORECASE)


@lru_cache(maxsize=None)
def default_category_tfidf() -> tuple[dict[str, float], ...]:
    """tf.idf weights of the address, human-impact and financial categories,
    in that order. Each category is one document: the words of its shipped
    taxonomy (none for financial) plus common co-occurring vocabulary."""
    address = sorted(t for p in lexicon("address_terms").terms for t in p.split())
    human = sorted(t for p in lexicon("human_impact_terms").terms for t in p.split())
    financial = (
        "damages losses loss cost costs worth estimated million billion dollars "
        "euros insurance economic business property damage payout fund funds"
    ).split()
    docs = {
        "address": address + "street address corner near downtown".split(),
        "human_impact": human + "people persons residents children toll".split(),
        "financial_impact": financial,
    }
    model = fit_tfidf([docs[name] for name in sorted(docs)])
    return tuple(term_weights(tokens, model) for tokens in docs.values())


def _tfidf_triple(tokens: Sequence[str]) -> tuple[float, ...]:
    """Per category, the largest weight a tweet token has in its vector."""
    return tuple(
        max([0.0] + [w.get(tok, 0.0) for tok in tokens]) for w in default_category_tfidf()
    )


def _phrase_row(p: NumericPhrase, text: str, triple: tuple[float, ...]) -> ImpactFeatureRow:
    """The eight classifier features for one phrase in its tweet, given the
    tweet's tf.idf triple."""
    start, end = p.span
    raw = p.raw
    before = text[max(0, start - 2) : start]
    after = text[end : end + 2]
    # a window of its own: tokenizing a substring cuts tokens at its edges
    near = set(tokenize(text[max(0, start - 12) : min(len(text), end + 12)]))
    context = list(p.context_tokens)
    return ImpactFeatureRow(
        mixed_alnum=bool(_MIXED_RE.search(raw)),
        currency_symbol=any(c in _CURRENCY_CHARS for c in before + after + raw),
        monetary_suffix=bool(_ATTACHED_SUFFIX_RE.search(raw)),
        timestamp_symbol=bool(_TS_RE.search(raw)),
        timezone_or_period=bool(near & _TZ_PERIOD),
        human_terms_hits=len(lexicon("human_impact_terms").match(context)),
        address_terms_hits=len(lexicon("address_terms").match(context)),
        tfidf_triple=triple,
    )


# ---------------------------------------------------------------------------
# classifier
# ---------------------------------------------------------------------------

def train_impact_classifier(
    rows: Sequence[tuple[ImpactFeatureRow, str]], config: SGDConfig, seed: int
) -> LinearModel:
    """One binary hinge classifier per class of IMPACT_CLASSES over the
    eight features, rows interned once; class idx visits them in the epoch
    orders of seed * 31 + idx. Deterministic per seed."""
    labels = {label for _, label in rows}
    if len(labels) < 2:
        raise DegenerateLabels("impact training needs at least two classes")
    unknown = labels - set(IMPACT_CLASSES)
    if unknown:
        raise ValueError(f"unknown impact labels: {sorted(unknown)}")
    design, names = intern((row.as_features(), label) for row, label in rows)
    max_row_norm = largest_row_norm(design)  # no objective is read: skip its passes
    weights, bias = {}, {}
    for idx, cls in enumerate(IMPACT_CLASSES):
        binary = [(ids, vals, 1 if label == cls else -1) for ids, vals, label in design]
        orders = epoch_orders(seed * 31 + idx, len(binary), config.epochs)
        weights[cls], bias[cls], _, _ = train_binary_hinge(binary, config, names, orders, max_row_norm)
    return LinearModel(kind="impact", classes=IMPACT_CLASSES, weights=weights, bias=bias)


def impact_labels(
    a: TextAnalysis, phrases: Sequence[NumericPhrase], model: LinearModel
) -> list[str]:
    """Argmax class of each phrase of one text, ties broken by the fixed
    class order; the tf.idf triple is computed once per text."""
    triple = _tfidf_triple(a.tokens) if phrases else None
    return [model.predict(dict(_phrase_row(p, a.text, triple).as_features())) for p in phrases]


# ---------------------------------------------------------------------------
# bootstrap model for pipelines without hand-labeled phrases
# ---------------------------------------------------------------------------

def _canonical_rows() -> list[tuple[ImpactFeatureRow, str]]:
    rows: list[tuple[ImpactFeatureRow, str]] = []
    for tz in (False, True):
        rows.append((ImpactFeatureRow(timestamp_symbol=True, timezone_or_period=tz), "date_time"))
        rows.append((ImpactFeatureRow(timestamp_symbol=True, timezone_or_period=tz, mixed_alnum=True), "date_time"))
    rows.append((ImpactFeatureRow(timezone_or_period=True), "date_time"))
    rows.append((ImpactFeatureRow(), "date_time"))
    for hits in (1, 2):
        for t in (0.6, 1.4):
            rows.append(
                (ImpactFeatureRow(address_terms_hits=hits, mixed_alnum=True,
                                  tfidf_triple=(t, 0.0, 0.0)), "address")
            )
            rows.append(
                (ImpactFeatureRow(address_terms_hits=hits, tfidf_triple=(t, 0.0, 0.0)), "address")
            )
            rows.append(
                (ImpactFeatureRow(human_terms_hits=hits, tfidf_triple=(0.0, t, 0.0)), "human_impact")
            )
            rows.append(
                (ImpactFeatureRow(human_terms_hits=hits + 1, tfidf_triple=(0.0, t, 0.0)), "human_impact")
            )
    rows.append((ImpactFeatureRow(human_terms_hits=1), "human_impact"))
    rows.append((ImpactFeatureRow(human_terms_hits=3, tfidf_triple=(0.0, 2.0, 0.0)), "human_impact"))
    rows.append((ImpactFeatureRow(address_terms_hits=1), "address"))
    for cur in (True, False):
        for mon in (True, False):
            if not cur and not mon:
                continue
            for t in (0.0, 0.8, 1.6):
                rows.append(
                    (ImpactFeatureRow(currency_symbol=cur, monetary_suffix=mon,
                                      mixed_alnum=mon, tfidf_triple=(0.0, 0.0, t)),
                     "financial_impact")
                )
    rows.append((ImpactFeatureRow(tfidf_triple=(0.0, 0.0, 1.2), monetary_suffix=True,
                                  mixed_alnum=True), "financial_impact"))
    rows.append((ImpactFeatureRow(currency_symbol=True, human_terms_hits=1,
                                  tfidf_triple=(0.0, 0.3, 1.0)), "financial_impact"))
    return rows


def bootstrap_impact_model(seed: int) -> LinearModel:
    """Train the default impact model from built-in canonical rows."""
    cfg = SGDConfig(epochs=50, learning_rate=0.01, l2=1e-4)
    return train_impact_classifier(_canonical_rows(), cfg, seed)
