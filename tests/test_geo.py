"""Gazetteer loading, guided geocoding, and location tagging."""

from __future__ import annotations

import pytest

from newsvalue.errors import BadGazetteer
from newsvalue.geo import (
    LocationFeatures,
    geocode,
    load_gazetteer,
    location_features,
    tag_locations,
)
from newsvalue.records import Post, SourceProfile

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
        assert len(g) == 0
        assert not geocode("Paris", None, g).hit

    def test_duplicate_names_indexed(self, gaz):
        assert len(gaz.lookup("paris")) == 2

    def test_alias_resolves(self, gaz):
        res = geocode("NYC", None, gaz)
        assert res.hit and res.entry.name == "New York"

    def test_bad_column_count(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("Paris|48.86|2.35\n")
        with pytest.raises(BadGazetteer, match="line 1"):
            load_gazetteer(path)

    def test_bad_coordinates(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("Paris||999|2.35|FR||1\n")
        with pytest.raises(BadGazetteer, match="line 1"):
            load_gazetteer(path)

    def test_bad_country(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("nowhere||0|0|FRA||\n")
        with pytest.raises(BadGazetteer):
            load_gazetteer(path)

    def test_line_number_in_error(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("France||46.2|2.2|FR||1\nbroken line\n")
        with pytest.raises(BadGazetteer, match="line 2"):
            load_gazetteer(path)


class TestGeocode:
    def test_anchored_hit(self, gaz):
        res = geocode("Paris", "France", gaz)
        assert res.hit and res.entry.country_code == "FR"

    def test_anchored_miss(self, gaz):
        assert not geocode("Paris", "Japan", gaz).hit

    def test_empty_query(self, gaz):
        assert not geocode("", None, gaz).hit

    def test_unanchored_population_disambiguation(self, gaz):
        res = geocode("Paris", None, gaz)
        assert res.entry.country_code == "FR"

    def test_anchor_admin_chain(self, gaz):
        res = geocode("Paris", "Texas", gaz)
        assert res.hit and res.entry.country_code == "US"
        res = geocode("Paris", "United States", gaz)
        assert res.hit and res.entry.country_code == "US"

    def test_unresolvable_anchor_misses(self, gaz):
        assert not geocode("Paris", "Atlantis", gaz).hit

    def test_anchoring_only_restricts(self, gaz):
        queries = ["Paris", "Tokyo", "Jalisco", "New York", "nothing"]
        anchors = [None, "France", "Japan", "Texas", "United States", "Mexico"]
        for q in queries:
            for a in anchors:
                if a is None:
                    continue
                anchored = geocode(q, a, gaz)
                if anchored.hit:
                    assert geocode(q, None, gaz).hit

    def test_anchored_results_within_anchor(self, gaz):
        for q in ("Paris", "Tokyo", "New York"):
            res = geocode(q, "United States", gaz)
            if res.hit:
                assert res.entry.country_code == "US"


class TestTagLocations:
    def test_jalisco_mexico(self, gaz):
        hits = tag_locations("earthquake off the coast of Jalisco, Mexico", gaz)
        assert [r.entry.name for r in hits] == ["Jalisco", "Mexico"]

    def test_no_locations(self, gaz):
        assert tag_locations("all quiet", gaz) == []

    def test_longest_match_wins(self, gaz):
        hits = tag_locations("New York City on alert", gaz)
        assert len(hits) == 1
        assert hits[0].query == "New York City"

    def test_spans_exact_and_disjoint(self, gaz):
        from newsvalue.geo import _normalize

        text = "From Paris to Tokyo and New York City, then Jalisco"
        hits = tag_locations(text, gaz)
        last = -1
        for r in hits:
            start, end = r.span
            assert start >= last
            assert text[start:end] == r.query
            assert gaz.lookup(_normalize(r.query)), r.query
            last = end

    def test_total_on_arbitrary_text(self, gaz):
        for text in ("", "\x00\x01", "🌍🌋", "a" * 500):
            tag_locations(text, gaz)  # must not raise


class TestLocationFeatures:
    def _profile(self, locally_focused, gaz):
        entry = geocode("Tokyo", None, gaz).entry
        return SourceProfile(
            "u1", profile_location="Tokyo",
            resolved_location=entry, locally_focused=locally_focused,
        )

    def test_text_location_wins(self, gaz):
        post = Post("p", "u1", 0, "tremor felt in Jalisco this morning")
        feats = location_features(post, self._profile(True, gaz), gaz)
        assert feats.name == "Jalisco"
        assert feats.country_code == "MX"
        assert feats.lat == pytest.approx(20.7)

    def test_fallback_to_local_source(self, gaz):
        post = Post("p", "u1", 0, "strong shaking reported")
        feats = location_features(post, self._profile(True, gaz), gaz)
        assert feats.name == "Tokyo"

    def test_non_local_source_gives_nil(self, gaz):
        post = Post("p", "u1", 0, "strong shaking reported")
        feats = location_features(post, self._profile(False, gaz), gaz)
        assert feats.is_nil
        assert feats == LocationFeatures()

    def test_no_source_gives_nil(self, gaz):
        post = Post("p", "u1", 0, "strong shaking reported")
        assert location_features(post, None, gaz).is_nil

    def test_total_and_deterministic(self, gaz):
        post = Post("p", "u1", 0, "Paris Paris Tokyo " + chr(0) + " weird ⚡ text")
        a = location_features(post, None, gaz)
        b = location_features(post, None, gaz)
        assert a == b
