"""File-backed gazetteer with guided (anchored) lookup and text tagging.

Stands in for live geocoding services: lookups are deterministic, offline,
and disambiguated by population. A guided query resolves a toponym only
inside an anchor region (the anchor's admin chain or country), which is
what the local-focus hit/miss ratio is built on.
"""

from __future__ import annotations

from itertools import islice
from typing import Optional

from .errors import SchemaMismatch
from .records import _COUNTRY_RE, GazetteerEntry, _is_utf8
from .scope import TextAnalysis
from .spans import PhraseTable
from .textvec import _TOKEN_RE, tokenize

class Gazetteer:
    """Entries indexed by the tokens of each name and alias; the entries
    are immutable after load.

    `geocode` stores each place it resolves, or None for a miss, in
    `_resolved`, keyed by (query, anchor). A resolution depends only on
    that key and the entries, so the dict is exact. It lives as long as
    this instance, which the CLI loads once per verb.
    """

    def __init__(self, entries: list[GazetteerEntry]):
        self._resolved: dict[tuple[str, Optional[str]], Optional[GazetteerEntry]] = {}
        self._names: dict[tuple[str, ...], list[GazetteerEntry]] = {}
        for entry in entries:
            for surface in (entry.name, *entry.aliases):
                key = tuple(tokenize(surface))
                if key:
                    self._names.setdefault(key, []).append(entry)
        self._table = PhraseTable([self._names])

    def lookup(self, query: str) -> list[GazetteerEntry]:
        return list(self._names.get(tuple(tokenize(query)), ()))


def _best_entry(cands: list[GazetteerEntry]) -> Optional[GazetteerEntry]:
    """Highest-population entry, deterministic tiebreak."""
    if not cands:
        return None
    return min(cands, key=lambda e: (-(e.population or 0), e.name, e.country_code))


def load_gazetteer(path) -> Gazetteer:
    """Parse the pipe-delimited gazetteer file.

    Columns: name|aliases(;-separated)|lat|lon|country|admin_parent|population.
    Raises SchemaMismatch with the offending line number on any parse failure.
    """
    entries = []
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not _is_utf8(line):
                raise SchemaMismatch(f"line {lineno}: invalid UTF-8")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            parts = line.split("|")
            if len(parts) != 7:
                raise SchemaMismatch(f"line {lineno}: expected 7 columns, got {len(parts)}")
            name, aliases_raw, lat_raw, lon_raw, country, parent, pop_raw = parts
            if not name.strip():
                raise SchemaMismatch(f"line {lineno}: empty name")
            try:
                lat = float(lat_raw)
                lon = float(lon_raw)
            except ValueError:
                raise SchemaMismatch(f"line {lineno}: bad coordinates") from None
            if not -90.0 <= lat <= 90.0 or not -180.0 <= lon <= 180.0:
                raise SchemaMismatch(f"line {lineno}: coordinates out of range")
            country = country.strip()
            if not _COUNTRY_RE.fullmatch(country):
                raise SchemaMismatch(f"line {lineno}: bad country code {country!r}")
            try:
                population = int(pop_raw) if pop_raw.strip() else None
            except ValueError:
                raise SchemaMismatch(f"line {lineno}: bad population") from None
            entries.append(
                GazetteerEntry(
                    name=name.strip(),
                    aliases=tuple(a.strip() for a in aliases_raw.split(";") if a.strip()),
                    lat=lat,
                    lon=lon,
                    country_code=country,
                    admin_parent=parent.strip() or None,
                    population=population,
                )
            )
    return Gazetteer(entries)


def _within(entry: GazetteerEntry, anchor: GazetteerEntry, g: Gazetteer) -> bool:
    """entry is inside anchor: same place, anchor on its admin chain, or a
    country-level anchor sharing the entry's country code. An admin parent
    names the entries lookup finds for it, so a parent with no word token
    names none."""
    if entry == anchor:
        return True
    if anchor.admin_parent is None and entry.country_code == anchor.country_code:
        return True
    seen = set()
    cur = entry
    for _ in range(16):
        parent = cur.admin_parent
        if not parent or parent.lower() in seen:
            break
        named = g.lookup(parent)
        if anchor in named:
            return True
        seen.add(parent.lower())
        nxt = _best_entry(named)
        if nxt is None:
            break
        cur = nxt
    return False


def geocode(query: str, anchor: Optional[str], g: Gazetteer) -> Optional[GazetteerEntry]:
    """Resolve a toponym, optionally only within an anchor region.

    Unanchored: highest-population match. Anchored: the anchor resolves
    first (unanchored); candidates outside it are discarded. A miss is
    None, never an error.
    """
    key = (query, anchor)
    if key in g._resolved:
        return g._resolved[key]
    cands = g.lookup(query) if query else []
    if anchor is not None and cands:
        region = geocode(anchor, None, g)
        cands = [] if region is None else [e for e in cands if _within(e, region, g)]
    entry = g._resolved[key] = _best_entry(cands)
    return entry


def first_location(text: str, g: Gazetteer) -> Optional[tuple[int, int]]:
    """(start, end) of the first gazetteer name in the text, the one
    first_place resolves, or None. The gazetteer walks the lowered tokens
    of one findall; character offsets are found only for the tokens up to
    the end of that name."""
    if text.isascii():
        tokens = _TOKEN_RE.findall(text.lower())
    else:
        tokens = [t.lower() for t in _TOKEN_RE.findall(text)]
    hit = g._table.first(tokens)
    if hit is None:
        return None
    i, j, _ = hit
    found = list(islice(_TOKEN_RE.finditer(text), j))
    return found[i].start(), found[-1].end()


def first_place(a: TextAnalysis, g: Gazetteer) -> Optional[GazetteerEntry]:
    """The highest-population entry of the first gazetteer name (greedy
    longest match) among the text's raw tokens, or None."""
    hit = g._table.first([tok for tok, _, _ in a.spans])
    return None if hit is None else _best_entry(hit[2])
