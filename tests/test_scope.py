"""Scope indicator parsers, including the published literal strings."""

from __future__ import annotations

import random

import pytest

from newsvalue.scope import (
    ACRES_PER_UNIT,
    MAX_ALARM_LEVEL,
    MAX_BEAUFORT_LEVEL,
    MAX_EF_LEVEL,
    MAX_QUAKE_MAGNITUDE,
    MAX_TORRO_LEVEL,
    TextAnalysis,
    default_fire_causes,
    default_scale_lexicon,
    find_alarm_levels,
    find_hail_sizes,
    find_quake_magnitudes,
    find_vehicle_counts,
    find_weather_scales,
    find_wildfire_sizes,
    load_scale_table,
    load_taxonomy,
)
from newsvalue.textvec import tokenize


class TestTaxonomyLoading:
    def test_shipped_lexicon_has_21_adjectives(self):
        assert len(default_scale_lexicon().token_phrases) == 21

    def test_shipped_causes_have_15_terms(self):
        assert len(default_fire_causes().token_phrases) == 15

    def test_comments_and_blanks_skipped(self, tmp_path):
        p = tmp_path / "tax.txt"
        p.write_text("# comment\nalpha\n\nbeta gamma  # trailing\n")
        tax = load_taxonomy(p)
        assert tax.terms == frozenset({"alpha", "beta gamma"})

    def test_scale_table(self, tmp_path):
        p = tmp_path / "table.txt"
        p.write_text("# sizes\ngolf ball,1.75\npea,0.25\n")
        assert load_scale_table(p) == {"golf ball": 1.75, "pea": 0.25}

    def test_empty_taxonomy_rejected(self, tmp_path):
        p = tmp_path / "tax.txt"
        p.write_text("# nothing\n")
        with pytest.raises(ValueError):
            load_taxonomy(p)


class TestScaleAdjectives:
    def test_deadly(self):
        assert default_scale_lexicon().match(tokenize("deadly shooting near Alvin")) == ["deadly"]

    def test_no_match(self):
        assert default_scale_lexicon().match(tokenize("small kitchen issue")) == []

    def test_order_and_duplicates(self):
        toks = tokenize("massive deadly blaze, massive crowds")
        assert default_scale_lexicon().match(toks) == ["massive", "deadly", "massive"]


class TestAlarmLevel:
    def test_hyphen_form(self):
        assert TextAnalysis("3-alarm fire reported").scope().alarm_level == 3

    def test_ordinal_form(self):
        assert TextAnalysis("requesting a 2nd alarm").scope().alarm_level == 2

    def test_bare_alarm_absent(self):
        assert TextAnalysis("fire alarm went off").scope().alarm_level is None

    def test_largest_wins(self):
        assert TextAnalysis("2nd alarm upgraded to 4-alarm").scope().alarm_level == 4

    def test_out_of_range_ignored(self):
        assert TextAnalysis("99-alarm nonsense").scope().alarm_level is None


class TestFireCause:
    def test_gas_leak(self):
        assert TextAnalysis("explosion caused by gas leak").scope().fire_cause == "gas leak"

    def test_absent(self):
        assert TextAnalysis("structure fire downtown").scope().fire_cause is None

    def test_trash_fire(self):
        assert TextAnalysis("trash fire behind mall").scope().fire_cause == "trash fire"

    def test_first_in_text_order(self):
        got = TextAnalysis("lightning then a gas leak").scope().fire_cause
        assert got == "lightning"


class TestQuakeMagnitude:
    def test_prefixed(self):
        assert TextAnalysis(
            "Prelim M5.8 earthquake off the coast of Jalisco"
        ).scope().quake_magnitude == ("richter", 5.8)

    def test_absent(self):
        assert TextAnalysis("no quake here").scope().quake_magnitude is None

    def test_magnitude_word(self):
        assert TextAnalysis("magnitude 6.3 quake").scope().quake_magnitude == ("richter", 6.3)

    def test_suffix_form(self):
        assert TextAnalysis("a 4.5-magnitude tremor").scope().quake_magnitude == ("richter", 4.5)

    def test_richter_preferred_over_intensity(self):
        assert TextAnalysis("intensity VII reported, later M6.1").scope().quake_magnitude == ("richter", 6.1)

    def test_intensity_roman(self):
        assert TextAnalysis("intensity VII reported").scope().quake_magnitude == ("mercalli", 7.0)

    def test_ems_tag(self):
        assert TextAnalysis("EMS intensity VIII observed").scope().quake_magnitude == ("ems", 8.0)

    def test_shindo_plus(self):
        assert TextAnalysis("JMA 6+ recorded").scope().quake_magnitude == ("shindo", 6.5)
        assert TextAnalysis("shindo 5 in Tokyo").scope().quake_magnitude == ("shindo", 5.0)

    def test_malformed_ignored(self):
        assert TextAnalysis("M5.8.3 glitch").scope().quake_magnitude is None

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("cſiſ intensity VII", ("csis", 7.0)),
            ("mercalli intensity VİI", ("mercalli", 7.0)),
            ("EMS intensity ıv", ("ems", 4.0)),
        ],
    )
    def test_intensity_folded_like_the_regex(self, text, expected):
        # re.IGNORECASE matches ſ to s and İ and ı to i; str.lower() does not
        assert [c[2] for c in find_quake_magnitudes(text)] == [expected]

    def test_out_of_range_ignored(self):
        assert TextAnalysis("M55 impossible").scope().quake_magnitude is None


class TestWildfireSize:
    def test_acres_with_comma(self):
        assert TextAnalysis("fire has burned 1,200 acres").scope().wildfire_size_acres == pytest.approx(1200.0)

    def test_square_miles(self):
        assert TextAnalysis("2 square miles scorched").scope().wildfire_size_acres == pytest.approx(1280.0)

    def test_sq_km(self):
        assert TextAnalysis("10 sq km burned").scope().wildfire_size_acres == pytest.approx(2471.05)

    def test_radius(self):
        import math

        got = TextAnalysis("flames within a 2 mile radius").scope().wildfire_size_acres
        assert got == pytest.approx(math.pi * 4 * 640)

    def test_absent(self):
        assert TextAnalysis("windy day").scope().wildfire_size_acres is None

    def test_unit_round_trip(self):
        rng = random.Random(5)
        for _ in range(100):
            x = rng.uniform(0.01, 5000)
            for unit, factor in ACRES_PER_UNIT.items():
                assert (x * factor) / factor == pytest.approx(x, rel=1e-6)


class TestVehicleCount:
    def test_hyphen_crash(self):
        assert TextAnalysis("2-car crash on I-40").scope().vehicle_count == 2

    def test_additive(self):
        assert TextAnalysis("2 commercial trucks & one vehicle").scope().vehicle_count == 3

    def test_no_count(self):
        assert TextAnalysis("car crash reported").scope().vehicle_count is None

    def test_word_number(self):
        assert TextAnalysis("three-vehicle pileup").scope().vehicle_count == 3

    def test_additive_with_and(self):
        assert TextAnalysis("4 cars and 2 trucks collided").scope().vehicle_count == 6

    @pytest.mark.parametrize(
        "text, count",
        [("ſix cars and two trucks", 8), ("FİVE cars and two trucks", 7), ("ſeven-car crash", 7)],
    )
    def test_word_number_folded_like_the_regex(self, text, count):
        # re.IGNORECASE matches ſ to s and İ to i; str.lower() does not
        assert TextAnalysis(text).scope().vehicle_count == count


class TestWeatherScale:
    def test_quarter_sized_hail(self):
        scope = TextAnalysis("quarter sized hail").scope()
        assert scope.weather_scale is None
        assert scope.hail_size_inches == pytest.approx(1.0)

    def test_ef3(self):
        scope = TextAnalysis("EF3 tornado confirmed").scope()
        assert scope.weather_scale == ("enhanced_fujita", 3)
        assert scope.hail_size_inches is None

    def test_absent(self):
        scope = TextAnalysis("sunny skies").scope()
        assert (scope.weather_scale, scope.hail_size_inches) == (None, None)

    def test_ef_hyphen(self):
        assert TextAnalysis("EF-4 damage").scope().weather_scale == ("enhanced_fujita", 4)

    def test_torro_requires_context(self):
        assert TextAnalysis("route T8 closed").scope().weather_scale is None
        assert TextAnalysis("T8 tornado on the TORRO scale").scope().weather_scale == ("torro", 8)

    def test_beaufort(self):
        assert TextAnalysis("winds reached force 10").scope().weather_scale == ("beaufort", 10)

    def test_numeric_hail(self):
        assert TextAnalysis("2 inch hail smashed windows").scope().hail_size_inches == pytest.approx(2.0)

    def test_golf_ball(self):
        assert TextAnalysis("hail the size of a golf ball").scope().hail_size_inches == pytest.approx(1.75)

    @pytest.mark.parametrize(
        "text, inches", [("baſeball hail", 2.75), ("hail the size of a PİNG PONG BALL", 1.5)]
    )
    def test_hail_object_folded_like_the_regex(self, text, inches):
        assert TextAnalysis(text).scope().hail_size_inches == inches

    def test_ef_out_of_range(self):
        assert TextAnalysis("EF9 claim").scope().weather_scale is None


class TestComposite:
    def test_empty_text(self):
        scope = TextAnalysis("").scope()
        assert scope.scale_adjectives == ()
        assert scope.alarm_level is None
        assert scope.fire_cause is None
        assert scope.quake_magnitude is None
        assert scope.wildfire_size_acres is None
        assert scope.vehicle_count is None
        assert scope.weather_scale is None
        assert scope.hail_size_inches is None

    def test_usgs_style_tweet(self):
        scope = TextAnalysis(
            "Prelim M5.8 earthquake off the coast of Jalisco, Mexico May-20 06:02 UTC"
        ).scope()
        assert scope.quake_magnitude == ("richter", 5.8)
        assert scope.scale_adjectives == ()
        assert scope.alarm_level is None
        assert scope.vehicle_count is None
        assert scope.wildfire_size_acres is None

    def test_combined(self):
        scope = TextAnalysis("deadly 3-alarm fire caused by gas leak").scope()
        assert scope.scale_adjectives == ("deadly",)
        assert scope.alarm_level == 3
        assert scope.fire_cause == "gas leak"

    def test_composition_equals_individual_extractors(self):
        texts = [
            "deadly 3-alarm fire caused by gas leak at 5 mile radius",
            "EF3 tornado, quarter sized hail, magnitude 5.0 aftershock",
            "2 commercial trucks & one vehicle, massive pileup, 1,200 acres",
            "",
            "nothing numeric at all",
        ]
        def largest(cands):
            return max((v for _, _, v in cands), default=None)

        def highest_leftmost(cands):
            return max(cands, key=lambda c: (c[2][1], -c[0]))[2] if cands else None

        for text in texts:
            scope = TextAnalysis(text).scope()
            toks = tokenize(text)
            quakes = find_quake_magnitudes(text)
            assert scope == TextAnalysis(text).scope()
            assert scope.scale_adjectives == tuple(default_scale_lexicon().match(toks))
            assert scope.alarm_level == largest(find_alarm_levels(text))
            assert scope.fire_cause == (default_fire_causes().match(toks) or [None])[0]
            assert scope.quake_magnitude == highest_leftmost(
                [c for c in quakes if c[2][0] == "richter"] or quakes
            )
            assert scope.wildfire_size_acres == largest(find_wildfire_sizes(text))
            assert scope.vehicle_count == largest(find_vehicle_counts(text))
            assert scope.weather_scale == highest_leftmost(find_weather_scales(text))
            assert scope.hail_size_inches == largest(find_hail_sizes(text))


def assert_scope_within_bounds(scope):
    if scope.alarm_level is not None:
        assert 1 <= scope.alarm_level <= MAX_ALARM_LEVEL
    if scope.quake_magnitude is not None:
        assert 0.0 <= scope.quake_magnitude[1] <= MAX_QUAKE_MAGNITUDE
    if scope.wildfire_size_acres is not None:
        assert scope.wildfire_size_acres > 0.0
    if scope.vehicle_count is not None:
        assert scope.vehicle_count >= 1
    if scope.weather_scale is not None:
        name, level = scope.weather_scale
        bound = {"enhanced_fujita": MAX_EF_LEVEL, "torro": MAX_TORRO_LEVEL,
                 "beaufort": MAX_BEAUFORT_LEVEL}[name]
        assert 0 <= level <= bound
    if scope.hail_size_inches is not None:
        assert scope.hail_size_inches > 0.0


class TestFuzz:
    def test_fuzzed_numerals_within_bounds(self):
        rng = random.Random(6)
        templates = [
            "{n}-alarm fire", "M{n} quake", "magnitude {n}", "{n} acres burned",
            "{n}-car crash", "EF{n} tornado", "force {n} winds", "{n} inch hail",
            "shindo {n}", "T{n} torro event", "{n} sq mi", "{n} mile radius",
        ]
        for _ in range(500):
            t = rng.choice(templates)
            n = rng.choice(
                [rng.randint(0, 9), rng.randint(0, 99), rng.randint(0, 10**6),
                 round(rng.uniform(0, 99), rng.randint(0, 3))]
            )
            assert_scope_within_bounds(TextAnalysis(t.format(n=n)).scope())

    def test_determinism(self):
        text = "deadly EF3 tornado, 2 inch hail, 3-alarm fire, M5.8"
        assert TextAnalysis(text).scope() == TextAnalysis(text).scope()
