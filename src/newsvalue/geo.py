"""File-backed gazetteer with guided (anchored) lookup and text tagging.

Stands in for live geocoding services: lookups are deterministic, offline,
and disambiguated by population. A guided query resolves a toponym only
inside an anchor region (the anchor's admin chain or country), which is
what the local-focus hit/miss ratio is built on.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from .errors import SchemaMismatch
from .records import SourceProfile, _is_utf8
from .scope import TextAnalysis
from .spans import PhraseTable
from .textvec import tokenize

_COUNTRY_RE = re.compile(r"^[A-Z]{2}$")


@dataclass(frozen=True)
class GazetteerEntry:
    name: str
    aliases: tuple[str, ...]
    lat: float
    lon: float
    country_code: str
    admin_parent: Optional[str] = None
    population: Optional[int] = None


@dataclass(frozen=True)
class GeoResolution:
    """Outcome of one lookup; hit is True exactly when entry is present."""

    query: str
    anchor: Optional[str]
    hit: bool
    entry: Optional[GazetteerEntry]
    span: Optional[tuple[int, int]] = None


@dataclass(frozen=True)
class LocationFeatures:
    """The four location slots; all absent in the nil case."""

    lat: Optional[float] = None
    lon: Optional[float] = None
    name: Optional[str] = None
    country_code: Optional[str] = None

    @property
    def is_nil(self) -> bool:
        return self.name is None


def _normalize(name: str) -> str:
    return " ".join(tokenize(name))


class Gazetteer:
    """Entries indexed by normalized name and alias; the entries are
    immutable after load.

    `geocode` stores each resolution it computes in `_resolved`, keyed by
    (query, anchor). A resolution depends only on that key and the entries,
    so the dict is exact. It lives as long as this instance, which the CLI
    loads once per verb.
    """

    def __init__(self, entries: list[GazetteerEntry]):
        self.entries = tuple(entries)
        self._resolved: dict[tuple[str, Optional[str]], GeoResolution] = {}
        self._by_name: dict[str, list[GazetteerEntry]] = {}
        phrases: dict[tuple[str, ...], list[GazetteerEntry]] = {}
        for entry in entries:
            for surface in (entry.name, *entry.aliases):
                key = _normalize(surface)
                if not key:
                    continue
                self._by_name.setdefault(key, []).append(entry)
                phrases.setdefault(tuple(key.split()), []).append(entry)
        self._table = PhraseTable([phrases])

    def lookup(self, query: str) -> list[GazetteerEntry]:
        return list(self._by_name.get(_normalize(query), ()))

    def best(self, query: str) -> Optional[GazetteerEntry]:
        """Highest-population entry for a name, deterministic tiebreak."""
        return _best_entry(self.lookup(query))

    def __len__(self) -> int:
        return len(self.entries)


def _best_entry(cands: list[GazetteerEntry]) -> Optional[GazetteerEntry]:
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
            if not _COUNTRY_RE.match(country):
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


def _matches_anchor(name: Optional[str], anchor: GazetteerEntry) -> bool:
    if not name:
        return False
    key = _normalize(name)
    if key == _normalize(anchor.name):
        return True
    return any(key == _normalize(a) for a in anchor.aliases)


def _within(entry: GazetteerEntry, anchor: GazetteerEntry, g: Gazetteer) -> bool:
    """entry is inside anchor: same place, anchor on its admin chain, or a
    country-level anchor sharing the entry's country code."""
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
        if _matches_anchor(parent, anchor):
            return True
        seen.add(parent.lower())
        nxt = g.best(parent)
        if nxt is None:
            break
        cur = nxt
    return False


def geocode(query: str, anchor: Optional[str], g: Gazetteer) -> GeoResolution:
    """Resolve a toponym, optionally only within an anchor region.

    Unanchored: highest-population match. Anchored: the anchor resolves
    first (unanchored); candidates outside it are discarded. A miss is a
    value, never an error.
    """
    key = (query, anchor)
    res = g._resolved.get(key)
    if res is not None:
        return res
    cands = g.lookup(query) if query else []
    if anchor is not None and cands:
        anchor_res = geocode(anchor, None, g)
        if not anchor_res.hit:
            cands = []
        else:
            assert anchor_res.entry is not None
            cands = [e for e in cands if _within(e, anchor_res.entry, g)]
    entry = _best_entry(cands)
    res = g._resolved[key] = GeoResolution(
        query=query, anchor=anchor, hit=entry is not None, entry=entry
    )
    return res


def tag_locations(text: str, g: Gazetteer) -> list[GeoResolution]:
    return tagged_locations(TextAnalysis(text), g)


def tagged_locations(a: TextAnalysis, g: Gazetteer) -> list[GeoResolution]:
    """Greedy longest-match scan of the text's raw tokens against gazetteer
    names and aliases. Each hit carries the span of the matched surface
    text (every name has at least one entry, so every hit resolves).
    """
    return [
        GeoResolution(query=a.text[s:e], anchor=None, hit=True, entry=_best_entry(cands), span=(s, e))
        for s, e, cands in g._table.spans(a.spans)
    ]


def location_of(tagged: list[GeoResolution], source: Optional[SourceProfile]) -> LocationFeatures:
    """First tagged location of the text; else the profile location of a
    locally-focused source; else nil."""
    entry = tagged[0].entry if tagged else None
    if entry is None and source is not None and source.locally_focused:
        entry = source.resolved_location
    if entry is None:
        return LocationFeatures()
    return LocationFeatures(
        lat=entry.lat, lon=entry.lon, name=entry.name, country_code=entry.country_code
    )
