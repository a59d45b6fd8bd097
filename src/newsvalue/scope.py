"""Scope indicators: taxonomy lookups and pattern parsers that quantify how
big a reported incident is (scale adjectives, alarm levels, fire causes,
quake magnitudes, wildfire sizes, vehicle counts, weather scales, hail).

All extractors are pure functions of the raw text. A value that does not
fit a float (a long digit run, or its product with a unit) is no
candidate. When a text carries several candidates for the same
indicator, the largest value wins: these features measure severity
ceilings. TextAnalysis holds the scans of one text that masking, scope,
impact and geo share, and runs each pattern finder only when the text
passes that finder's gate (see _FINDERS).
"""

from __future__ import annotations

import math
import re
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from .spans import PhraseTable, select_spans
from .textvec import token_spans, tokenize

_DATA_DIR = Path(__file__).resolve().parent / "data"

# Bounds for parsed values; out-of-range candidates are ignored.
MAX_ALARM_LEVEL = 20
MAX_QUAKE_MAGNITUDE = 12.0
MAX_EF_LEVEL = 5
MAX_TORRO_LEVEL = 11
MAX_BEAUFORT_LEVEL = 12

ACRES_PER_UNIT = {
    "acre": 1.0,
    "sq_mi": 640.0,
    "sq_km": 247.105,
}


class Taxonomy:
    """Named set of lowercase phrases, each 1-4 tokens long."""

    def __init__(self, name: str, terms: Iterable[str]):
        phrases = {}
        for term in terms:
            toks = tuple(tokenize(term))
            if not toks or len(toks) > 4:
                raise ValueError(f"taxonomy {name!r}: bad phrase {term!r}")
            phrases[toks] = " ".join(toks)
        if not phrases:
            raise ValueError(f"taxonomy {name!r} is empty")
        self.name = name
        self.terms = frozenset(phrases.values())
        self.token_phrases: dict[tuple[str, ...], str] = phrases
        self._table = PhraseTable([phrases])

    def match(self, tokens: Sequence[str]) -> list[str]:
        """Phrases found in tokens by greedy longest match, in order,
        duplicates kept."""
        return [hit for _, _, hit in self._table.matches(tokens)[0]]

    def __repr__(self) -> str:
        return f"Taxonomy({self.name!r}, {len(self.token_phrases)} phrases)"


def load_taxonomy(path) -> Taxonomy:
    """One phrase per line, named by the file stem; blank lines and '#'
    comments are skipped."""
    terms = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line:
                terms.append(line)
    return Taxonomy(Path(path).stem, terms)


def load_scale_table(path) -> dict[str, float]:
    """Two-column 'name,value' file; '#' comments allowed."""
    table = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            name, value = line.rsplit(",", 1)
            table[name.strip().lower()] = float(value)
    return table


def fold_key(raw: str, table) -> str:
    """The key of `table` that `raw`, a case-insensitive regex match, spells
    (`raw.lower()` when it spells none). `re.IGNORECASE` matches ſ, ı, İ
    and K (Kelvin sign) to s, i, i and k; `str.lower()` keeps the first
    two and doubles İ."""
    key = raw.lower()
    if key in table:
        return key
    return next((k for k in table if re.fullmatch(re.escape(k), raw, re.IGNORECASE)), key)


@lru_cache(maxsize=None)
def lexicon(name: str) -> Taxonomy:
    """The shipped taxonomy data/<name>.txt, loaded once."""
    return load_taxonomy(_DATA_DIR / f"{name}.txt")


@lru_cache(maxsize=None)
def default_hail_table() -> dict[str, float]:
    return load_scale_table(_DATA_DIR / "hail_sizes.txt")


class ScopeFeatures(NamedTuple):
    """Composite result of the seven scope indicators; absent slots are None."""

    scale_adjectives: tuple[str, ...] = ()
    alarm_level: int | None = None
    fire_cause: str | None = None
    quake_magnitude: tuple[str, float] | None = None
    wildfire_size_acres: float | None = None
    vehicle_count: int | None = None
    weather_scale: tuple[str, int] | None = None
    hail_size_inches: float | None = None


# ---------------------------------------------------------------------------
# multiple-alarm fires
# ---------------------------------------------------------------------------

_ALARM_RE = re.compile(r"\b(\d{1,2})\s*(?:st|nd|rd|th)?[\s-]*alarm\b", re.IGNORECASE)


def find_alarm_levels(text: str) -> list[tuple[int, int, int]]:
    out = []
    for m in _ALARM_RE.finditer(text):
        level = int(m.group(1))
        if 1 <= level <= MAX_ALARM_LEVEL:
            out.append((m.start(), m.end(), level))
    return out


# ---------------------------------------------------------------------------
# earthquake magnitudes
# ---------------------------------------------------------------------------

_NUM = r"\d{1,2}(?:\.\d+)?"
_RICHTER_RES = (
    re.compile(rf"\bM\s?({_NUM})(?![\d.])"),      # "M5.8", "M 5.8" (uppercase)
    re.compile(rf"\bm({_NUM})(?![\d.])"),          # attached lowercase "m5.8"
    re.compile(rf"\bmag(?:nitude)?\b[\s:\-]*(?:of\s+)?({_NUM})(?![\d.])", re.IGNORECASE),
    re.compile(rf"(?<![\d.])({_NUM})[\s-]*magnitude\b", re.IGNORECASE),
)
_INTENSITY_RES = (
    re.compile(
        r"\b(?:(mercalli|mmi|ems|csis)[\s-]*)?intensity\b[\s:]*(?:of\s+)?([ivx]+|\d{1,2})\b",
        re.IGNORECASE,
    ),
    re.compile(r"\b(mercalli|mmi|ems|csis)[\s-]+([ivx]+|\d{1,2})\b", re.IGNORECASE),
)
_SHINDO_RE = re.compile(r"\b(?:shindo|jma)\b[\s:]*(\d)\s*([+-])?", re.IGNORECASE)

_ROMAN = {
    "i": 1.0, "ii": 2.0, "iii": 3.0, "iv": 4.0, "v": 5.0, "vi": 6.0,
    "vii": 7.0, "viii": 8.0, "ix": 9.0, "x": 10.0, "xi": 11.0, "xii": 12.0,
}
# "" is an intensity with no scale named: Mercalli.
_INTENSITY_TAGS = {
    "": "mercalli", "mmi": "mercalli", "mercalli": "mercalli", "ems": "ems", "csis": "csis",
}


def find_quake_magnitudes(text: str) -> list[tuple[int, int, tuple[str, float]]]:
    """(start, end, (scale, value)) candidates; out-of-range values dropped."""
    cands: list[tuple[int, int, tuple[str, float]]] = []
    for rx in _RICHTER_RES:
        for m in rx.finditer(text):
            value = float(m.group(1))
            if 0.0 <= value <= MAX_QUAKE_MAGNITUDE:
                cands.append((m.start(), m.end(), ("richter", value)))
    for rx in _INTENSITY_RES:
        for m in rx.finditer(text):
            raw = m.group(2)
            value = float(raw) if raw.isdigit() else _ROMAN.get(fold_key(raw, _ROMAN))
            if value is None or not 1.0 <= value <= 12.0:
                continue
            tag = _INTENSITY_TAGS[fold_key(m.group(1) or "", _INTENSITY_TAGS)]
            cands.append((m.start(), m.end(), (tag, value)))
    for m in _SHINDO_RE.finditer(text):
        base = int(m.group(1))
        if 0 <= base <= 7:
            value = base + (0.5 if m.group(2) == "+" else 0.0)
            cands.append((m.start(), m.end(), ("shindo", value)))
    return select_spans(cands)


# ---------------------------------------------------------------------------
# wildfire sizes (normalized to acres)
# ---------------------------------------------------------------------------

_AREA_NUM = r"\d{1,3}(?:,\d{3})+(?:\.\d+)?|\d+(?:\.\d+)?"
_AREA_RE = re.compile(
    rf"(?<![\d.])({_AREA_NUM})[\s-]*"
    r"(acres?|sq\.?\s?mi\.?|square\s+miles?|sq\.?\s?km\.?|square\s+kilomet(?:er|re)s?)\b",
    re.IGNORECASE,
)
_RADIUS_RE = re.compile(
    rf"(?<![\d.])({_AREA_NUM})[\s-]*mile[\s-]+radius", re.IGNORECASE
)


def _area_unit(raw: str) -> str:
    raw = raw.lower()
    if raw.startswith("acre"):
        return "acre"
    if "k" in raw:
        return "sq_km"
    return "sq_mi"


def find_wildfire_sizes(text: str) -> list[tuple[int, int, float]]:
    cands = []
    for m in _AREA_RE.finditer(text):
        value = float(m.group(1).replace(",", ""))
        acres = value * ACRES_PER_UNIT[_area_unit(m.group(2))]
        if 0.0 < acres < math.inf:  # a long digit run or its product overflows
            cands.append((m.start(), m.end(), acres))
    for m in _RADIUS_RE.finditer(text):
        radius = float(m.group(1).replace(",", ""))
        acres = math.pi * radius * radius * ACRES_PER_UNIT["sq_mi"]
        if 0.0 < acres < math.inf:
            cands.append((m.start(), m.end(), acres))
    return select_spans(cands)


# ---------------------------------------------------------------------------
# multi-vehicle crashes
# ---------------------------------------------------------------------------

# English number words (impact parses them); vehicle counts spell out those
# worth 1 to 20.
_UNITS = {
    "zero": 0, "one": 1, "two": 2, "three": 3, "four": 4, "five": 5,
    "six": 6, "seven": 7, "eight": 8, "nine": 9, "ten": 10, "eleven": 11,
    "twelve": 12, "thirteen": 13, "fourteen": 14, "fifteen": 15,
    "sixteen": 16, "seventeen": 17, "eighteen": 18, "nineteen": 19,
}
_TENS = {
    "twenty": 20, "thirty": 30, "forty": 40, "fifty": 50,
    "sixty": 60, "seventy": 70, "eighty": 80, "ninety": 90,
}
WORD_NUMBERS = {w: v for w, v in (_UNITS | _TENS).items() if 1 <= v <= 20}
_COUNT = r"\d{1,2}|" + "|".join(WORD_NUMBERS)
_VEH_NOUNS = ("car", "truck", "vehicle", "van", "bus", "suv", "semi", "motorcycle", "lorry",
              "trailer")
_VEH_NOUN = rf"(?:{'|'.join(_VEH_NOUNS)})s?"
_CRASH = r"(?:crash(?:e[sd])?|collisions?|pile[\s-]?ups?|wrecks?)"
_HYPHEN_FORM_RE = re.compile(
    rf"\b({_COUNT})[\s-]+{_VEH_NOUN}\s+{_CRASH}\b", re.IGNORECASE
)
_VEH_GROUP_RE = re.compile(
    rf"\b({_COUNT})\s+(?:(?!(?:{_COUNT})\b)[^\W\d]+\s+){{0,2}}?{_VEH_NOUN}\b",
    re.IGNORECASE,
)
_CONNECTOR_RE = re.compile(r"^[\s,]*(?:&|and|plus|\+)?[\s,]*$", re.IGNORECASE)


def _count_value(raw: str) -> int:
    return int(raw) if raw.isdecimal() else WORD_NUMBERS[fold_key(raw, WORD_NUMBERS)]


def find_vehicle_counts(text: str) -> list[tuple[int, int, int]]:
    """Candidate spans: 'N-car crash' forms plus additive chains of two or
    more counted vehicle groups ('2 trucks & one vehicle' -> 3)."""
    cands: list[tuple[int, int, int]] = []
    for m in _HYPHEN_FORM_RE.finditer(text):
        value = _count_value(m.group(1))
        if value >= 1:
            cands.append((m.start(), m.end(), value))
    groups = [(m.start(), m.end(), _count_value(m.group(1))) for m in _VEH_GROUP_RE.finditer(text)]
    i = 0
    while i < len(groups):
        j = i
        total = groups[i][2]
        while j + 1 < len(groups) and _CONNECTOR_RE.match(text[groups[j][1] : groups[j + 1][0]]):
            j += 1
            total += groups[j][2]
        if j > i and total >= 1:
            cands.append((groups[i][0], groups[j][1], total))
        i = j + 1
    return select_spans(cands)


# ---------------------------------------------------------------------------
# severe weather scales and hail sizes
# ---------------------------------------------------------------------------

_EF_RE = re.compile(r"\bEF[\s-]?(\d)\b", re.IGNORECASE)
_TORRO_RE = re.compile(r"\bT(\d{1,2})\b")
_TORRO_CONTEXT_RE = re.compile(r"\btorro\b|\btornado", re.IGNORECASE)
_BEAUFORT_RE = re.compile(
    r"\b(?:beaufort(?:\s+(?:scale|force))?|force)\s+(\d{1,2})\b", re.IGNORECASE
)
_HAIL_NUM_RES = (
    re.compile(r"(\d+(?:\.\d+)?)[\s-]*(?:inch(?:es)?|in\.?|\")[\s-]*(?:diameter\s+)?hail", re.IGNORECASE),
    re.compile(r"\bhail\s+(?:of\s+|up\s+to\s+)?(\d+(?:\.\d+)?)[\s-]*inch(?:es)?\b", re.IGNORECASE),
)

_SCALE_BOUNDS = {
    "enhanced_fujita": MAX_EF_LEVEL,
    "torro": MAX_TORRO_LEVEL,
    "beaufort": MAX_BEAUFORT_LEVEL,
}


def find_weather_scales(text: str) -> list[tuple[int, int, tuple[str, int]]]:
    cands: list[tuple[int, int, tuple[str, int]]] = []
    for m in _EF_RE.finditer(text):
        cands.append((m.start(), m.end(), ("enhanced_fujita", int(m.group(1)))))
    if _TORRO_CONTEXT_RE.search(text):
        for m in _TORRO_RE.finditer(text):
            cands.append((m.start(), m.end(), ("torro", int(m.group(1)))))
    for m in _BEAUFORT_RE.finditer(text):
        cands.append((m.start(), m.end(), ("beaufort", int(m.group(1)))))
    cands = [c for c in cands if 0 <= c[2][1] <= _SCALE_BOUNDS[c[2][0]]]
    return select_spans(cands)


@lru_cache(maxsize=None)
def _hail_object_res() -> tuple[re.Pattern, re.Pattern]:
    names = "|".join(re.escape(n) for n in sorted(default_hail_table(), key=len, reverse=True))
    return (
        re.compile(rf"\b({names})[\s-]*(?:sized?)?[\s-]*hail", re.IGNORECASE),
        re.compile(rf"\bhail\s+(?:the\s+)?size\s+of\s+(?:an?\s+)?({names})\b", re.IGNORECASE),
    )


def find_hail_sizes(text: str) -> list[tuple[int, int, float]]:
    table = default_hail_table()
    cands = []
    for rx in _HAIL_NUM_RES:
        for m in rx.finditer(text):
            value = float(m.group(1))
            if 0.0 < value < math.inf:
                cands.append((m.start(), m.end(), value))
    for rx in _hail_object_res():
        for m in rx.finditer(text):
            cands.append((m.start(), m.end(), table[fold_key(m.group(1), table)]))
    return select_spans(cands)


# ---------------------------------------------------------------------------
# composite: one analysis per text
# ---------------------------------------------------------------------------

_DIGIT_RE = re.compile(r"\d")
_RICHTER_GATE_RE = re.compile(r"[Mm]\s?\d")  # case-sensitive, like the M/m patterns
# The non-ASCII characters re.IGNORECASE matches to an ASCII letter (İ,
# dotless ı, long ſ, Kelvin K), each mapped to it: str.lower() keeps ı and ſ
# and makes İ two characters. So every keyword a finder matches
# case-insensitively is a substring of text.translate(_FOLD).lower().
_FOLD = {0x130: "i", 0x131: "i", 0x17F: "s", 0x212A: "k"}


def _least_keys(words: Iterable[str]) -> tuple[str, ...]:
    """The words, sorted, that hold no other of them as a substring
    ("seventeen" holds "seven"): a text holds one of `words` only if it
    holds one of these."""
    words = sorted(words)
    return tuple(w for w in words if not any(v != w and v in w for v in words))


_NUMBER_WORDS = _least_keys(WORD_NUMBERS)


def _any_in(folded: str, words: Iterable[str]) -> bool:
    for word in words:
        if word in folded:
            return True
    return False


def _quake_gate(text: str, folded: str, digit: bool) -> bool:
    return _any_in(folded, ("intensity", "mercalli", "mmi", "ems", "csis")) or digit and (
        _any_in(folded, ("mag", "shindo", "jma")) or _RICHTER_GATE_RE.search(text) is not None
    )


def _vehicle_gate(text: str, folded: str, digit: bool) -> bool:
    return _any_in(folded, _VEH_NOUNS) and (digit or _any_in(folded, _NUMBER_WORDS))


# (feature name, gate, finder). A gate is (text, folded text, has a decimal
# digit) -> bool, and every text its finder can match passes it: each
# finder pattern needs its keywords and, except for intensities, hail and
# vehicle counts written as words, a digit.
_FINDERS = (
    ("scope_alarm_level", lambda t, f, d: d and "alarm" in f, find_alarm_levels),
    ("scope_quake_magnitude", _quake_gate, find_quake_magnitudes),
    ("scope_wildfire_size", lambda t, f, d: d and _any_in(f, ("acre", "sq", "mile")),
     find_wildfire_sizes),
    ("scope_vehicle_count", _vehicle_gate, find_vehicle_counts),
    ("scope_weather_scale",
     lambda t, f, d: d and _any_in(f, ("ef", "force", "beaufort", "torro", "tornado")),
     find_weather_scales),
    ("scope_hail_size", lambda t, f, d: "hail" in f, find_hail_sizes),
)


def _largest(cands: list) -> float | None:
    return max(v for _, _, v in cands) if cands else None


class TextAnalysis:
    """The scans of one text that masking, scope, impact and geo share,
    each run on first use and kept, so none runs twice per text. Two token
    streams stay apart: spans (token_spans, offsets into the raw text) feed
    masking and numeric-phrase context; tokens (tokenize, URLs and mentions
    rewritten) feed taxonomy features, impact tf.idf and the gazetteer.
    The gates of the scope finders and of the numeric-phrase patterns read
    `folded` (each character re.IGNORECASE matches to an ASCII letter
    mapped to it, then lower-cased) and `digit` (the text holds a `\\d`),
    set here: every text is masked, so its finds are always read, and a
    plain attribute costs less than a cached_property's first access.
    """

    def __init__(self, text: str):
        self.text = text
        self.folded = (text if text.isascii() else text.translate(_FOLD)).lower()
        self.digit = _DIGIT_RE.search(text) is not None

    @cached_property
    def spans(self) -> list[tuple[str, int, int]]:
        return token_spans(self.text)

    @cached_property
    def tokens(self) -> list[str]:
        return tokenize(self.text)

    @cached_property
    def finds(self) -> dict[str, list]:
        """Each numeric scope pattern's candidates; [] where the gate misses."""
        t, folded, digit = self.text, self.folded, self.digit
        return {
            name: finder(t) if gate(t, folded, digit) else [] for name, gate, finder in _FINDERS
        }

    @cached_property
    def pattern_spans(self) -> list[tuple[int, int, str]]:
        """Their spans, tagged by feature name: masked, and discarded as
        numeric phrases."""
        return select_spans([(s, e, n) for n, cands in self.finds.items() for s, e, _ in cands])

    def scope(self) -> ScopeFeatures:
        """All seven indicators: Richter magnitudes outrank intensities, the
        highest weather level wins (then the leftmost), else the largest value."""
        alarms, quakes, sizes, vehicles, scales, hails = self.finds.values()
        richter = [c for c in quakes if c[2][0] == "richter"] or quakes
        causes = lexicon("fire_causes").match(self.tokens)
        return ScopeFeatures(
            scale_adjectives=tuple(lexicon("scale_adjectives").match(self.tokens)),
            alarm_level=_largest(alarms),
            fire_cause=causes[0] if causes else None,
            quake_magnitude=max(richter, key=lambda c: (c[2][1], -c[0]))[2] if quakes else None,
            wildfire_size_acres=_largest(sizes),
            vehicle_count=_largest(vehicles),
            weather_scale=max(scales, key=lambda c: (c[2][1], -c[0]))[2] if scales else None,
            hail_size_inches=_largest(hails),
        )
