"""Gazetteer loading, guided geocoding, and location tagging."""

from __future__ import annotations

from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newsvalue.errors import SchemaMismatch
from newsvalue.geo import (
    Gazetteer,
    GazetteerEntry,
    _best_entry,
    geocode,
    load_gazetteer,
    location_of,
    tagged_locations,
)
from newsvalue.records import Post, SourceProfile
from newsvalue.scope import TextAnalysis
from newsvalue.textvec import tokenize

FIXTURE = """\
# test gazetteer
France||46.2|2.2|FR||68000000
Japan||36.2|138.3|JP||125000000
United States|usa|39.8|-98.6|US||331000000
Texas||31.0|-100.0|US|United States|29000000
Paris||48.86|2.35|FR|France|2148000
Paris||33.66|-95.56|US|Texas|24839
New York|new york city;nyc|40.71|-74.01|US|United States|8400000
New York City||40.71|-74.01|US|New York|8400000
Jalisco||20.7|-103.3|MX|Mexico|8348151
Mexico||23.6|-102.5|MX||126000000
Tokyo||35.68|139.69|JP|Japan|13960000
"""


@pytest.fixture()
def gaz(tmp_path):
    path = tmp_path / "gaz.txt"
    path.write_text(FIXTURE)
    return load_gazetteer(path)


class TestLoadGazetteer:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        g = load_gazetteer(path)
        assert g.lookup("Paris") == []
        assert geocode("Paris", None, g) is None

    def test_duplicate_names_indexed(self, gaz):
        assert len(gaz.lookup("paris")) == 2

    def test_alias_resolves(self, gaz):
        res = geocode("NYC", None, gaz)
        assert res is not None and res.name == "New York"

    def test_bad_column_count(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("Paris|48.86|2.35\n")
        with pytest.raises(SchemaMismatch, match="line 1: expected 7 columns, got 3"):
            load_gazetteer(path)

    def test_bad_coordinates(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("Paris||999|2.35|FR||1\n")
        with pytest.raises(SchemaMismatch, match="line 1: coordinates out of range"):
            load_gazetteer(path)

    def test_bad_country(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("nowhere||0|0|FRA||\n")
        with pytest.raises(SchemaMismatch, match="line 1: bad country code 'FRA'"):
            load_gazetteer(path)

    def test_line_number_in_error(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("France||46.2|2.2|FR||1\nbroken line\n")
        with pytest.raises(SchemaMismatch, match="line 2: expected 7 columns, got 1"):
            load_gazetteer(path)


class TestGeocode:
    def test_anchored_hit(self, gaz):
        res = geocode("Paris", "France", gaz)
        assert res is not None and res.country_code == "FR"

    def test_anchored_miss(self, gaz):
        assert geocode("Paris", "Japan", gaz) is None

    def test_empty_query(self, gaz):
        assert geocode("", None, gaz) is None

    def test_unanchored_population_disambiguation(self, gaz):
        res = geocode("Paris", None, gaz)
        assert res.country_code == "FR"

    def test_anchor_admin_chain(self, gaz):
        res = geocode("Paris", "Texas", gaz)
        assert res is not None and res.country_code == "US"
        res = geocode("Paris", "United States", gaz)
        assert res is not None and res.country_code == "US"

    def test_unresolvable_anchor_misses(self, gaz):
        assert geocode("Paris", "Atlantis", gaz) is None

    def test_anchoring_only_restricts(self, gaz):
        queries = ["Paris", "Tokyo", "Jalisco", "New York", "nothing"]
        anchors = [None, "France", "Japan", "Texas", "United States", "Mexico"]
        for q in queries:
            for a in anchors:
                if a is None:
                    continue
                anchored = geocode(q, a, gaz)
                if anchored is not None:
                    assert geocode(q, None, gaz) is not None

    def test_anchored_results_within_anchor(self, gaz):
        for q in ("Paris", "Tokyo", "New York"):
            res = geocode(q, "United States", gaz)
            if res is not None:
                assert res.country_code == "US"

    def test_tokenless_parent_matches_no_anchor(self, tmp_path):
        # The anchor resolves through its alias; its name and the town's
        # admin parent hold no word token, so they name no place.
        path = tmp_path / "gaz.txt"
        path.write_text("***|Star City|10.0|10.0|US|Texas|100\nTown||20.0|20.0|MX|!!!|50\n")
        g = load_gazetteer(path)
        assert geocode("Star City", None, g).name == "***"
        assert geocode("Town", "Star City", g) is None


def _reference_within(entry, anchor, g) -> bool:
    """Uncached copy of geo._within as it stood before geocode was memoized,
    with its name rule written out: a parent names the anchor when both
    have the same word tokens, and there is at least one."""
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
        key = tokenize(parent)
        if key and any(key == tokenize(s) for s in (anchor.name, *anchor.aliases)):
            return True
        seen.add(parent.lower())
        nxt = _best_entry(g.lookup(parent))
        if nxt is None:
            break
        cur = nxt
    return False


def _reference_geocode(query: str, anchor: Optional[str], g) -> Optional[GazetteerEntry]:
    """Uncached copy of geo.geocode as it stood before it was memoized."""
    cands = g.lookup(query) if query else []
    if anchor is not None and cands:
        region = _reference_geocode(anchor, None, g)
        if region is None:
            cands = []
        else:
            cands = [e for e in cands if _reference_within(e, region, g)]
    return _best_entry(cands)


def _entry(name, country, parent=None, population=1, aliases=()):
    return GazetteerEntry(name, tuple(aliases), 0.0, 0.0, country, parent, population)


# Shared names and aliases across countries, a two-place admin cycle, a
# self-parented place, and a 21-rung chain longer than _within's 16 steps.
_PROPERTY_ENTRIES = [
    _entry("United States", "US", aliases=["usa"], population=331),
    _entry("Georgia", "US", "United States", 10),
    _entry("Georgia", "GE", aliases=["sakartvelo"], population=4),
    _entry("Athens", "US", "Georgia", 1),
    _entry("Athens", "GR", "Greece", 3),
    _entry("Greece", "GR", population=10),
    _entry("Tbilisi", "GE", "Georgia", 2),
    _entry("Saint Petersburg", "RU", "Russia", 5, ["st petersburg", "spb"]),
    _entry("Saint Petersburg", "US", "Florida", 1, ["st petersburg"]),
    _entry("Florida", "US", "United States", 21),
    _entry("Russia", "RU", population=144),
    _entry("Loopville", "ZZ", "Circleton", 7),
    _entry("Circleton", "ZZ", "Loopville", 6),
    _entry("Elsewhere", "ZZ", "Nowhere Land", 1),
    _entry("Ouroboros", "ZZ", "ouroboros", 1),
    *(_entry(f"Rung {i:02d}", "QQ", f"Rung {i + 1:02d}" if i < 20 else None, 1)
      for i in range(21)),
]
_QUERIES = [
    "Georgia", "georgia", "Athens", "ATHENS", "Tbilisi", "St Petersburg", "spb",
    "Saint Petersburg", "Loopville", "Circleton", "Ouroboros", "Rung 00", "Rung 03",
    "usa", "Atlantis", "", "  ",
]
_ANCHORS = [
    None, "United States", "USA", "Georgia", "sakartvelo", "Greece", "Russia",
    "Florida", "Elsewhere", "Circleton", "Loopville", "Ouroboros", "Rung 16",
    "Rung 17", "Rung 18", "Rung 20", "Atlantis", "",
]


class TestGeocodeMemo:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(_QUERIES), st.sampled_from(_ANCHORS)),
                    max_size=30))
    def test_memo_equals_uncached_reference(self, calls):
        g = Gazetteer(_PROPERTY_ENTRIES)
        reference = Gazetteer(_PROPERTY_ENTRIES)
        for query, anchor in calls + calls:
            assert geocode(query, anchor, g) == _reference_geocode(query, anchor, reference)
        for query, anchor in calls:
            assert geocode(query, anchor, g) is geocode(query, anchor, g)

    def test_guards_are_exercised(self):
        g = Gazetteer(_PROPERTY_ENTRIES)
        assert geocode("Loopville", "Elsewhere", g) is None  # cycle: `seen` guard
        assert geocode("Ouroboros", "Elsewhere", g) is None
        assert geocode("Rung 00", "Rung 16", g) is not None  # 16th step reaches it
        assert geocode("Rung 00", "Rung 17", g) is None  # past the 16-step guard
        assert geocode("Rung 00", "Rung 20", g) is not None  # country-level anchor
        assert geocode("spb", "Russia", g).country_code == "RU"
        assert geocode("st petersburg", "Florida", g).country_code == "US"
        assert geocode("Athens", "Georgia", g).country_code == "US"

    def test_instances_do_not_share_resolutions(self, tmp_path):
        first = tmp_path / "first.txt"
        second = tmp_path / "second.txt"
        first.write_text("France||46.2|2.2|FR||68000000\nParis||48.86|2.35|FR|France|2148000\n")
        second.write_text("Texas||31.0|-100.0|US||29000000\nParis||33.66|-95.56|US|Texas|24839\n")
        g1, g2 = load_gazetteer(first), load_gazetteer(second)
        assert geocode("Paris", None, g1).country_code == "FR"
        assert geocode("Paris", "France", g1) is not None
        assert geocode("Paris", "Texas", g1) is None
        assert geocode("Paris", None, g2).country_code == "US"
        assert geocode("Paris", "France", g2) is None
        assert geocode("Paris", "Texas", g2) is not None
        assert geocode("Paris", None, g1).country_code == "FR"


class TestTagLocations:
    def test_jalisco_mexico(self, gaz):
        hits = tagged_locations(TextAnalysis("earthquake off the coast of Jalisco, Mexico"), gaz)
        assert [entry.name for _, _, entry in hits] == ["Jalisco", "Mexico"]

    def test_no_locations(self, gaz):
        assert tagged_locations(TextAnalysis("all quiet"), gaz) == []

    def test_longest_match_wins(self, gaz):
        text = "New York City on alert"
        hits = tagged_locations(TextAnalysis(text), gaz)
        assert len(hits) == 1
        start, end, _ = hits[0]
        assert text[start:end] == "New York City"

    def test_spans_exact_and_disjoint(self, gaz):
        text = "From Paris to Tokyo and New York City, then Jalisco"
        hits = tagged_locations(TextAnalysis(text), gaz)
        last = -1
        for start, end, entry in hits:
            assert start >= last
            assert entry in gaz.lookup(text[start:end]), text[start:end]
            last = end

    def test_total_on_arbitrary_text(self, gaz):
        for text in ("", "\x00\x01", "🌍🌋", "a" * 500):
            tagged_locations(TextAnalysis(text), gaz)  # must not raise


class TestLocationFeatures:
    def _profile(self, locally_focused, gaz):
        entry = geocode("Tokyo", None, gaz)
        return SourceProfile(
            "u1", profile_location="Tokyo",
            resolved_location=entry, locally_focused=locally_focused,
        )

    def test_text_location_wins(self, gaz):
        post = Post("p", "u1", 0, "tremor felt in Jalisco this morning")
        feats = location_of(tagged_locations(TextAnalysis(post.text), gaz), self._profile(True, gaz))
        assert feats.name == "Jalisco"
        assert feats.country_code == "MX"
        assert feats.lat == pytest.approx(20.7)

    def test_fallback_to_local_source(self, gaz):
        post = Post("p", "u1", 0, "strong shaking reported")
        feats = location_of(tagged_locations(TextAnalysis(post.text), gaz), self._profile(True, gaz))
        assert feats.name == "Tokyo"

    def test_non_local_source_gives_nil(self, gaz):
        post = Post("p", "u1", 0, "strong shaking reported")
        feats = location_of(tagged_locations(TextAnalysis(post.text), gaz), self._profile(False, gaz))
        assert feats is None

    def test_no_source_gives_nil(self, gaz):
        post = Post("p", "u1", 0, "strong shaking reported")
        assert location_of(tagged_locations(TextAnalysis(post.text), gaz), None) is None

    def test_total_and_deterministic(self, gaz):
        post = Post("p", "u1", 0, "Paris Paris Tokyo " + chr(0) + " weird ⚡ text")
        a = location_of(tagged_locations(TextAnalysis(post.text), gaz), None)
        b = location_of(tagged_locations(TextAnalysis(post.text), gaz), None)
        assert a == b
