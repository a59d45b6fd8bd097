"""File-backed gazetteer: place lookup, region containment and a text's
first place.

Stands in for live geocoding services: lookups are deterministic, offline,
and disambiguated by population. A text's first place is the first
gazetteer name among its `tokenize` tokens, so no place is read from a URL
or an @mention. Each place's admin chain is resolved once, when the
gazetteer is built; `_within` decides whether a place lies inside a region
(on the place's admin chain, or the region is its country), which is what
the local-focus hit/miss ratio is built on.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .errors import SchemaMismatch
from .records import _COUNTRY_RE, GazetteerEntry, _is_utf8
from .spans import PhraseTable
from .textvec import URL_TOKEN, USER_TOKEN, tokenize

class Gazetteer:
    """Entries indexed by the tokens of each name and alias, each with its
    admin chain; the entries are immutable after load. A name holding a URL
    or a mention names no place, since in a text those are sentinel tokens.

    An entry's admin chain holds the entries its admin parent names, then
    those the parent of that parent's highest-population entry names, and
    so on: at most 16 rungs, ending at a parent with no entry or one already
    walked. A parent names the entries `lookup` finds for it, so a parent
    with no word token names none."""

    def __init__(self, entries: list[GazetteerEntry]):
        self._names: dict[tuple[str, ...], list[GazetteerEntry]] = {}
        for entry in entries:
            for surface in (entry.name, *entry.aliases):
                key = tuple(tokenize(surface))
                if key and URL_TOKEN not in key and USER_TOKEN not in key:
                    self._names.setdefault(key, []).append(entry)
        self._table = PhraseTable([self._names])
        self._chains: dict[GazetteerEntry, frozenset[GazetteerEntry]] = {}
        for entry in entries:
            chain: set[GazetteerEntry] = set()
            seen = set()
            cur = entry
            for _ in range(16):
                parent = cur.admin_parent
                if not parent or parent.lower() in seen:
                    break
                named = self.lookup(parent)
                chain.update(named)
                seen.add(parent.lower())
                cur = _best_entry(named)
                if cur is None:
                    break
            self._chains[entry] = frozenset(chain)

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
    """entry, a place of g, is inside anchor: same place, a country-level
    anchor sharing the entry's country code, or anchor on the entry's admin
    chain."""
    return (
        entry == anchor
        or (anchor.admin_parent is None and entry.country_code == anchor.country_code)
        or anchor in g._chains[entry]
    )


def geocode(query: str, g: Gazetteer) -> Optional[GazetteerEntry]:
    """The highest-population place the query names, or None for a miss,
    never an error."""
    return _best_entry(g.lookup(query))


def first_place(tokens: Sequence[str], g: Gazetteer) -> Sequence[GazetteerEntry]:
    """The entries of the first gazetteer name (greedy longest match)
    among `tokenize` tokens, or () when there is none. URLs and mentions
    are sentinel tokens there, so they name no place."""
    hit = g._table.first(tokens)
    return () if hit is None else hit[2]
