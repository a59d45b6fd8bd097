"""Gazetteer loading, place lookup, region containment (`_within`) and a
text's first place."""

from __future__ import annotations

import zlib
from typing import Optional

import pytest
from conftest import GAZETTEER_PATH, tagged_locations
from hypothesis import given, settings
from hypothesis import strategies as st

from newsvalue.errors import SchemaMismatch
from newsvalue.geo import (
    Gazetteer,
    GazetteerEntry,
    _best_entry,
    _within,
    first_place,
    geocode,
    load_gazetteer,
)
from newsvalue.model import NAME_BUCKETS, assemble_features, build_context
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


def inside(query, region, g):
    """The places `query` names that lie inside the place `region` names,
    by `_within`: what curate tests a tweet's first place against (the
    tweet is inside when this is not empty)."""
    anchor = geocode(region, g)
    return [] if anchor is None else [e for e in g.lookup(query) if _within(e, anchor, g)]


class TestLoadGazetteer:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        g = load_gazetteer(path)
        assert g.lookup("Paris") == []
        assert geocode("Paris", g) is None

    def test_duplicate_names_indexed(self, gaz):
        assert len(gaz.lookup("paris")) == 2

    def test_alias_resolves(self, gaz):
        res = geocode("NYC", gaz)
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
        assert [e.country_code for e in inside("Paris", "France", gaz)] == ["FR"]

    def test_anchored_miss(self, gaz):
        assert inside("Paris", "Japan", gaz) == []

    def test_empty_query(self, gaz):
        assert geocode("", gaz) is None
        assert inside("", "France", gaz) == []

    def test_unanchored_population_disambiguation(self, gaz):
        res = geocode("Paris", gaz)
        assert res.country_code == "FR"

    def test_anchor_admin_chain(self, gaz):
        assert [e.country_code for e in inside("Paris", "Texas", gaz)] == ["US"]
        assert [e.country_code for e in inside("Paris", "United States", gaz)] == ["US"]

    def test_unresolvable_anchor_misses(self, gaz):
        assert geocode("Atlantis", gaz) is None
        assert inside("Paris", "Atlantis", gaz) == []

    def test_anchoring_only_restricts(self, gaz):
        queries = ["Paris", "Tokyo", "Jalisco", "New York", "nothing"]
        anchors = ["France", "Japan", "Texas", "United States", "Mexico"]
        for q in queries:
            for a in anchors:
                assert all(e in gaz.lookup(q) for e in inside(q, a, gaz))

    def test_anchored_results_within_anchor(self, gaz):
        for q in ("Paris", "Tokyo", "New York"):
            assert all(e.country_code == "US" for e in inside(q, "United States", gaz))

    def test_tokenless_parent_matches_no_anchor(self, tmp_path):
        # The anchor resolves through its alias; its name and the town's
        # admin parent hold no word token, so they name no place.
        path = tmp_path / "gaz.txt"
        path.write_text("***|Star City|10.0|10.0|US|Texas|100\nTown||20.0|20.0|MX|!!!|50\n")
        g = load_gazetteer(path)
        assert geocode("Star City", g).name == "***"
        assert inside("Town", "Star City", g) == []


def _reference_within(entry, anchor, g) -> bool:
    """Copy of geo._within with its name rule written out: a parent names
    the anchor when both have the same word tokens, and there is at least
    one."""
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
    """The anchored lookup curate made before it tested a name's entries
    with `_within`: the query's highest-population place inside the
    anchor's place, or None."""
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


class TestWithin:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(_QUERIES), st.sampled_from(_ANCHORS)),
                    max_size=30))
    def test_within_equals_reference(self, calls):
        g = Gazetteer(_PROPERTY_ENTRIES)
        for query, anchor in calls:
            if anchor is None:
                assert geocode(query, g) == _reference_geocode(query, None, g)
            else:
                assert _best_entry(inside(query, anchor, g)) == _reference_geocode(query, anchor, g)

    def test_within_equals_reference_on_every_pair(self):
        """Every ordered pair of places, of the property entries (a cycle,
        a self-parented place, a 21-rung chain) and of the shipped
        gazetteer: the chains resolved at load give the walk's answer."""
        shipped = load_gazetteer(GAZETTEER_PATH)
        for g, places in ((Gazetteer(_PROPERTY_ENTRIES), _PROPERTY_ENTRIES),
                          (shipped, list(shipped._chains))):
            assert places
            for entry in places:
                for anchor in places:
                    assert _within(entry, anchor, g) == _reference_within(entry, anchor, g)

    def test_guards_are_exercised(self):
        g = Gazetteer(_PROPERTY_ENTRIES)
        assert inside("Loopville", "Elsewhere", g) == []  # cycle: `seen` guard
        assert inside("Ouroboros", "Elsewhere", g) == []
        assert inside("Rung 00", "Rung 16", g) != []  # 16th step reaches it
        assert inside("Rung 00", "Rung 17", g) == []  # past the 16-step guard
        assert inside("Rung 00", "Rung 20", g) != []  # country-level anchor
        assert [e.country_code for e in inside("spb", "Russia", g)] == ["RU"]
        assert [e.country_code for e in inside("st petersburg", "Florida", g)] == ["US"]
        assert [e.country_code for e in inside("Athens", "Georgia", g)] == ["US"]

    def test_instances_do_not_share_resolutions(self, tmp_path):
        first = tmp_path / "first.txt"
        second = tmp_path / "second.txt"
        first.write_text("France||46.2|2.2|FR||68000000\nParis||48.86|2.35|FR|France|2148000\n")
        second.write_text("Texas||31.0|-100.0|US||29000000\nParis||33.66|-95.56|US|Texas|24839\n")
        g1, g2 = load_gazetteer(first), load_gazetteer(second)
        assert geocode("Paris", g1).country_code == "FR"
        assert inside("Paris", "France", g1) != []
        assert inside("Paris", "Texas", g1) == []
        assert geocode("Paris", g2).country_code == "US"
        assert inside("Paris", "France", g2) == []
        assert inside("Paris", "Texas", g2) != []
        assert geocode("Paris", g1).country_code == "FR"


class TestTagLocations:
    def test_jalisco_mexico(self, gaz):
        text = "earthquake off the coast of Jalisco, Mexico"
        assert first_place(tokenize(text), gaz) == gaz.lookup("Jalisco")
        assert _best_entry(first_place(tokenize(text), gaz)).name == "Jalisco"

    def test_no_locations(self, gaz):
        assert first_place(tokenize("all quiet"), gaz) == ()

    def test_longest_match_wins(self, gaz):
        text = "New York City on alert"
        assert first_place(tokenize(text), gaz) == gaz.lookup("New York City")

    def test_spans_exact_and_disjoint(self, gaz):
        text = "From Paris to Tokyo and New York City, then Jalisco"
        a = TextAnalysis(text)
        hits = tagged_locations(a, gaz)
        last = 0
        for start, end, entry in hits:
            assert last <= start < end
            assert entry in gaz.lookup(" ".join(a.tokens[start:end]))
            last = end
        assert [entry.name for _, _, entry in hits] == ["Paris", "Tokyo", "New York", "Jalisco"]
        paris = _best_entry(gaz.lookup("Paris"))
        assert _best_entry(first_place(a.tokens, gaz)) == hits[0][2] == paris

    def test_a_name_with_a_url_or_a_mention_names_no_place(self):
        g = Gazetteer([_entry("@Base", "US"), _entry("www.paris.fr", "FR"), _entry("Paris", "FR")])
        assert g.lookup("@Base") == g.lookup("www.paris.fr") == []
        assert first_place(tokenize("thanks @Paris, see www.paris.fr"), g) == ()
        assert [e.name for e in first_place(tokenize("@Base Paris"), g)] == ["Paris"]

    def test_total_on_arbitrary_text(self, gaz):
        for text in ("", "\x00\x01", "🌍🌋", "a" * 500):
            first_place(tokenize(text), gaz)  # must not raise


class TestLocationFeatures:
    """The place the loc_* features read: the text's first place, else the
    profile location of a locally-focused source."""

    def _profile(self, locally_focused, gaz):
        entry = geocode("Tokyo", gaz)
        return SourceProfile(
            "u1", profile_location="Tokyo",
            resolved_location=entry, locally_focused=locally_focused,
        )

    def _located(self, post, source, gaz, trbc_model):
        tfidf, centroids = trbc_model
        feats = assemble_features(post, source, build_context(gaz, tfidf, centroids, seed=0))
        return {k: v for k, v in feats.items() if k.startswith("loc_")}

    def test_text_location_wins(self, gaz, trbc_model):
        post = Post("p", "u1", 0, "tremor felt in Jalisco this morning")
        feats = self._located(post, self._profile(True, gaz), gaz, trbc_model)
        assert feats["loc_country_MX"] == 1.0
        assert feats["loc_lat"] == pytest.approx(20.7 / 90.0)
        assert f"loc_name_b{zlib.crc32(b'jalisco') % NAME_BUCKETS}" in feats

    def test_fallback_to_local_source(self, gaz, trbc_model):
        post = Post("p", "u1", 0, "strong shaking reported")
        feats = self._located(post, self._profile(True, gaz), gaz, trbc_model)
        assert f"loc_name_b{zlib.crc32(b'tokyo') % NAME_BUCKETS}" in feats
        assert feats["loc_country_JP"] == 1.0

    def test_non_local_source_gives_nil(self, gaz, trbc_model):
        post = Post("p", "u1", 0, "strong shaking reported")
        assert self._located(post, self._profile(False, gaz), gaz, trbc_model) == {}

    def test_no_source_gives_nil(self, gaz, trbc_model):
        post = Post("p", "u1", 0, "strong shaking reported")
        assert self._located(post, None, gaz, trbc_model) == {}

    def test_total_and_deterministic(self, gaz, trbc_model):
        post = Post("p", "u1", 0, "Paris Paris Tokyo " + chr(0) + " weird ⚡ text")
        a = self._located(post, None, gaz, trbc_model)
        b = self._located(post, None, gaz, trbc_model)
        assert a == b
