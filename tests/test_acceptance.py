"""Acceptance suite: one test per acceptance criterion, each printing a
pass/fail line with its runtime and asserting its time budget."""

from __future__ import annotations

import math
import random
import time
from contextlib import contextmanager
from datetime import datetime, timezone

import pytest

from conftest import (
    BASE_TS,
    EXPECTED_SURVIVORS,
    curation_fixture,
    match_one,
    propagate,
    write_ndjson_file,
)
from newsvalue.cli import EXIT_OK, main
from newsvalue.curation import curate
from newsvalue.impact import numeric_phrases, train_impact_classifier
from newsvalue.labeling import MATCHED, TARDY, UNMATCHED
from newsvalue.linear import SGDConfig
from newsvalue.model import (
    ablate,
    assemble_features,
    build_context,
    cross_validate,
    prf,
    svm_design,
    train_svm,
)
from newsvalue.rarity import TaggedPost, build_background, grid_cell, rarity
from newsvalue.records import Headline, LabeledExample, Post
from newsvalue.scope import TextAnalysis, lexicon
from newsvalue.textvec import cosine, fit_tfidf, tokenize, vectorize
from test_impact import impact_f1, synthetic_impact_rows
from test_model import separable_examples


@contextmanager
def criterion(name: str, budget_seconds: float):
    start = time.monotonic()
    try:
        yield
    except Exception:
        elapsed = time.monotonic() - start
        print(f"[FAIL] {name} ({elapsed:.2f}s)")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < budget_seconds, f"{name} took {elapsed:.2f}s (budget {budget_seconds}s)"
    print(f"[PASS] {name} ({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# 1. parser suites
# ---------------------------------------------------------------------------

def test_parser_suites():
    with criterion("parser suites (published literals included)", 1.0):
        assert TextAnalysis("3-alarm fire reported").scope().alarm_level == 3
        assert TextAnalysis("requesting a 2nd alarm").scope().alarm_level == 2
        assert TextAnalysis("fire alarm went off").scope().alarm_level is None

        assert TextAnalysis("2-car crash on I-40").scope().vehicle_count == 2
        assert TextAnalysis("2 commercial trucks & one vehicle").scope().vehicle_count == 3
        assert TextAnalysis("car crash reported").scope().vehicle_count is None

        assert TextAnalysis(
            "Prelim M5.8 earthquake off the coast of Jalisco, Mexico May-20 06:02 UTC"
        ).scope().quake_magnitude == ("richter", 5.8)
        assert TextAnalysis("no quake here").scope().quake_magnitude is None
        assert TextAnalysis(
            "intensity VII reported, later M6.1"
        ).scope().quake_magnitude == ("richter", 6.1)

        assert TextAnalysis("quarter sized hail").scope().hail_size_inches == pytest.approx(1.0)
        assert TextAnalysis("EF3 tornado confirmed").scope().weather_scale == (
            "enhanced_fujita", 3,
        )
        sunny = TextAnalysis("sunny skies").scope()
        assert (sunny.weather_scale, sunny.hail_size_inches) == (None, None)

        toks = tokenize("deadly shooting near Alvin")
        assert lexicon("scale_adjectives").match(toks) == ["deadly"]
        assert lexicon("scale_adjectives").match(tokenize("small kitchen issue")) == []
        assert lexicon("scale_adjectives").match(
            tokenize("massive deadly blaze")
        ) == ["massive", "deadly"]

        assert TextAnalysis("explosion caused by gas leak").scope().fire_cause == "gas leak"
        assert TextAnalysis("structure fire downtown").scope().fire_cause is None
        assert TextAnalysis("trash fire behind mall").scope().fire_cause == "trash fire"

        assert TextAnalysis("fire has burned 1,200 acres").scope().wildfire_size_acres == 1200.0
        assert TextAnalysis("2 square miles scorched").scope().wildfire_size_acres == 1280.0
        assert TextAnalysis("windy day").scope().wildfire_size_acres is None

        composite = TextAnalysis("deadly 3-alarm fire caused by gas leak").scope()
        assert composite.scale_adjectives == ("deadly",)
        assert composite.alarm_level == 3
        assert composite.fire_cause == "gas leak"


# ---------------------------------------------------------------------------
# 2. fuzz robustness
# ---------------------------------------------------------------------------

def _random_unicode(rng: random.Random) -> str:
    kind = rng.random()
    if kind < 0.35:
        return "".join(chr(rng.randrange(32, 0x2FFF)) for _ in range(rng.randint(0, 30)))
    if kind < 0.5:
        return "".join(chr(rng.randrange(32, 0x110000)) for _ in range(rng.randint(0, 15)))
    templates = [
        "{n}-alarm", "M{n} quake", "{n} acres", "EF{n}", "force {n}",
        "{n} inch hail", "{n}-car crash", "shindo {n}", "{n} dead", "${n}",
        "{n} sq mi", "{n} mile radius", "intensity {n}", "{w} {n} {w}",
    ]
    t = rng.choice(templates)
    n = rng.choice([rng.randint(-5, 10**9), round(rng.uniform(-1, 10**6), 3)])
    w = "".join(chr(rng.randrange(0x61, 0x7B)) for _ in range(rng.randint(1, 8)))
    return t.format(n=n, w=w)


def test_fuzz_robustness(gazetteer):
    from newsvalue.labeling import mask_taxonomy_tokens
    from newsvalue.geo import first_place
    from test_scope import assert_scope_within_bounds

    with criterion("fuzz: 10,000 arbitrary strings, no exceptions, bounded", 30.0):
        rng = random.Random(0xFACE)
        for i in range(10_000):
            text = _random_unicode(rng)
            toks = tokenize(text)
            assert all(t for t in toks)
            scope = TextAnalysis(text).scope()
            assert_scope_within_bounds(scope)
            for phrase in numeric_phrases(TextAnalysis(text)):
                start, end = phrase.span
                assert 0 <= start < end <= len(text)
                assert text[start:end] == phrase.raw
                assert isinstance(phrase.value, (int, float))
            if i % 5 == 0:
                mask_taxonomy_tokens(text)
                first_place(toks, gazetteer)


# ---------------------------------------------------------------------------
# 3. tf.idf / cosine oracle
# ---------------------------------------------------------------------------

def test_tfidf_cosine_oracle():
    with criterion("tf.idf + cosine vs brute force (100 corpora, 1e-9)", 5.0):
        rng = random.Random(31)
        vocab = [f"w{i}" for i in range(30)]
        for _ in range(100):
            n_docs = rng.randint(1, 20)
            docs = [
                [rng.choice(vocab) for _ in range(rng.randint(1, 25))] for _ in range(n_docs)
            ]
            model = fit_tfidf(docs)
            # independent recount of document frequencies
            df = {}
            for toks in docs:
                for t in set(toks):
                    df[t] = df.get(t, 0) + 1
            queries = [
                [rng.choice(vocab) for _ in range(rng.randint(0, 15))] for _ in range(4)
            ]
            vectors = []
            for q in queries:
                v = vectorize(q, model)
                expected = {}
                for t in set(q):
                    tf = q.count(t)
                    idf = math.log((1 + n_docs) / (1 + df.get(t, 0))) + 1.0
                    expected[t] = tf * idf
                assert set(v.entries) == {t for t, w in expected.items() if w != 0.0}
                for t, w in expected.items():
                    assert abs(v.entries[t] - w) < 1e-9
                norm = math.sqrt(sum(w * w for w in expected.values()))
                assert abs(v.norm - norm) < 1e-9
                vectors.append((v, expected, norm))
            for i in range(len(vectors)):
                for j in range(len(vectors)):
                    va, ea, na = vectors[i]
                    vb, eb, nb = vectors[j]
                    dot = sum(w * eb.get(t, 0.0) for t, w in ea.items())
                    expected_cos = dot / (na * nb) if na and nb else 0.0
                    expected_cos = max(0.0, min(1.0, expected_cos))
                    assert abs(cosine(va, vb) - expected_cos) < 1e-9


# ---------------------------------------------------------------------------
# 4. rarity oracle
# ---------------------------------------------------------------------------

def test_rarity_oracle():
    with criterion("rarity vs brute-force recount (100 backgrounds, 1e-12)", 10.0):
        rng = random.Random(41)
        countries = ["JP", "US", "FR", "MX"]
        topics = ["quake", "fire", "flood", "storm", "crash"]
        coords = [(35.68, 139.69), (34.69, 135.5), (29.76, -95.37), (48.86, 2.35),
                  (20.7, -103.3), (40.71, -74.01)]
        for _ in range(100):
            n = rng.randint(50, 1000)
            posts = []
            for _ in range(n):
                lat, lon = rng.choice(coords)
                posts.append(
                    TaggedPost(rng.randint(0, 99), lat, lon,
                               rng.choice(countries), rng.choice(topics))
                )
            idx = build_background(posts, (0, 100))
            tagged = [(grid_cell(p.lat, p.lon), p.country, p.topic) for p in posts]
            events = set(tagged)
            events.add(("0.0,0.0", "ZZ", "quake"))  # unseen event
            for loc, country, topic in sorted(events):
                loc_total = sum(1 for l, _, _ in tagged if l == loc)
                loc_topic = sum(1 for l, _, t in tagged if l == loc and t == topic)
                c_total = sum(1 for _, c, _ in tagged if c == country)
                c_topic = sum(1 for _, c, t in tagged if c == country and t == topic)
                c_loc = sum(1 for l, c, _ in tagged if c == country and l == loc)
                local = loc_topic / loc_total if loc_total else 0.0
                country_term = c_topic / c_total if c_total else 0.0
                lam = c_loc / c_total if c_total else 0.0
                expected = local + lam * country_term
                score = rarity((loc, country, topic), idx)
                assert abs(score - expected) < 1e-12


# ---------------------------------------------------------------------------
# 5. labeling semantics
# ---------------------------------------------------------------------------

def _utc_date(ts):
    return datetime.fromtimestamp(ts, tz=timezone.utc).date()


def test_labeling_semantics():
    with criterion("labeling window/tardy/propagation vs brute force", 5.0):
        # exact window boundary
        tfidf = fit_tfidf([tokenize("one two three")])
        post = Post("p", "u", 1000, "one two three")
        inside = Headline("one two three", "ap", 1000 + 86400)
        outside = Headline("one two three", "ap", 1000 + 86401)
        earlier = Headline("one two three", "ap", 1000)
        assert match_one(post, [inside], tfidf, 0.5).status == MATCHED
        assert match_one(post, [outside], tfidf, 0.5).status == UNMATCHED
        assert match_one(post, [earlier], tfidf, 0.5).status == TARDY

        # 200-post propagation corpus vs pairwise brute force
        rng = random.Random(51)
        pools = [
            ["storm", "flood", "river", "rain", "levee", "surge"],
            ["fire", "blaze", "smoke", "flames", "crews", "burn"],
            ["quake", "tremor", "shake", "aftershock", "felt", "jolt"],
            ["crash", "pileup", "lanes", "closed", "injury", "traffic"],
            ["garden", "flowers", "bloom", "spring", "plants", "green"],
            ["market", "prices", "shares", "trading", "bank", "rates"],
        ]
        day = 86400
        users = [f"u{i}" for i in range(12)]
        posts = []
        for i in range(200):
            pool = rng.choice(pools)
            words = rng.sample(pool, rng.randint(3, 5))
            ts = BASE_TS + rng.randint(0, 2 * day)
            posts.append(Post(f"p{i:03d}", rng.choice(users), ts, " ".join(words)))
        headlines = [
            Headline(" ".join(pool[:4]), "reuters", BASE_TS + rng.randint(0, 2 * day))
            for pool in pools[:3]
            for _ in range(3)
        ]
        shared = fit_tfidf([tokenize(t.text) for t in (*posts, *headlines)])
        first_pass = [match_one(p, headlines, shared, 0.5) for p in posts]
        got = propagate(first_pass, posts, shared, 0.5, 0.3)

        # brute force: one pass over every (unmatched, matched) pair
        vec = {p.post_id: vectorize(tokenize(p.text), shared) for p in posts}
        by_id = {p.post_id: p for p in posts}
        matched_ids = [r.post_id for r in first_pass if r.status == MATCHED]
        expected_status = {}
        for r in first_pass:
            if r.status == MATCHED:
                expected_status[r.post_id] = MATCHED
                continue
            u = by_id[r.post_id]
            promoted = False
            for mid in matched_ids:
                m = by_id[mid]
                if m.created_at <= u.created_at:
                    continue
                if _utc_date(m.created_at) != _utc_date(u.created_at):
                    continue
                threshold = 0.3 if m.user_id == u.user_id else 0.5
                if cosine(vec[u.post_id], vec[m.post_id]) >= threshold:
                    promoted = True
                    break
            expected_status[r.post_id] = MATCHED if promoted else r.status
        for r in got:
            assert r.status == expected_status[r.post_id], r.post_id
        assert any(r.via_link for r in got), "corpus should exercise propagation"
        assert any(r.status == TARDY for r in first_pass), "corpus should include tardy posts"


# ---------------------------------------------------------------------------
# 6. impact classifier
# ---------------------------------------------------------------------------

def test_impact_classifier_synthetic():
    with criterion("impact classifier: F1 >= 0.95 on 2,000 noiseless rows", 10.0):
        rows = synthetic_impact_rows(2000, seed=61)
        cfg = SGDConfig(epochs=50, learning_rate=0.01, l2=1e-4)
        started = time.monotonic()
        model = train_impact_classifier(rows, cfg, 62)
        train_elapsed = time.monotonic() - started
        assert train_elapsed < 10.0
        macro, micro = impact_f1(model, rows)
        assert macro >= 0.95, (macro, micro)
        assert micro >= 0.95, (macro, micro)
        again = train_impact_classifier(rows, cfg, 62)
        assert again.weights == model.weights
        assert again.bias == model.bias


# ---------------------------------------------------------------------------
# 7. SVM
# ---------------------------------------------------------------------------

def test_svm_acceptance():
    with criterion("SVM: perfect held-out on separable, objective, reproducible", 10.0):
        examples = separable_examples(n=150, seed=71)
        rows, names = design = svm_design(examples)
        [result] = cross_validate(examples, [rows], names, folds=10, seed=72, epochs=100, C=1.0)
        assert prf(result[0]) == (100.0, 100.0, 100.0)
        model = train_svm(design, epochs=100, C=1.0, seed=73)
        assert model.train_meta["objective_last"] < model.train_meta["objective_first"]
        rows, names = svm_design(examples)
        [again] = cross_validate(examples, [rows], names, folds=10, seed=72, epochs=100, C=1.0)
        assert repr(result) == repr(again)


# ---------------------------------------------------------------------------
# 8. ablation ordering
# ---------------------------------------------------------------------------

def _ablation_corpus(gazetteer, trbc_model):
    """End-to-end corpus whose label needs scope+impact AND location.

    A report is newsworthy when its severity clears the bar (magnitude
    >= 5.5 or toll >= 20: scope/impact values, hidden from the text by
    masking) and it comes from the quake-prone region (visible only
    through the locally-focused source fallback, never in the text).
    text+topic sees neither part, scope+impact sees severity only, and
    the full set sees both, so the Table-3-style ordering has real gaps.
    """
    from newsvalue.geo import geocode
    from newsvalue.rarity import TaggedPost, build_background
    from newsvalue.records import SourceProfile

    tfidf, centroids = trbc_model
    background = build_background(
        [TaggedPost(10, 20.7, -103.3, "MX", "earthquakes_seismic")] * 30
        + [TaggedPost(10, 20.7, -103.3, "MX", "disasters_accidents")] * 30
        + [TaggedPost(10, 48.86, 2.35, "FR", "earthquakes_seismic")] * 3
        + [TaggedPost(10, 48.86, 2.35, "FR", "disasters_accidents")] * 3
        + [TaggedPost(10, 48.86, 2.35, "FR", "war_military_conflict")] * 54,
        (0, 100),
    )
    ctx = build_context(gazetteer, tfidf, centroids, background=background, seed=0)
    sources = {
        "jalisco_desk": SourceProfile(
            "jalisco_desk", locally_focused=True,
            resolved_location=geocode("Jalisco", gazetteer),
        ),
        "paris_desk": SourceProfile(
            "paris_desk", locally_focused=True,
            resolved_location=geocode("Paris", gazetteer),
        ),
    }
    rng = random.Random(81)
    examples = []
    for i in range(240):
        user = "jalisco_desk" if rng.random() < 0.8 else "paris_desk"
        if i % 2 == 0:
            mag = round(rng.uniform(4.0, 7.0), 1)
            severe = mag >= 5.5
            text = f"Prelim M{mag} earthquake tremor felt this morning"
        else:
            toll = max(2, int(round(math.exp(rng.uniform(math.log(2), math.log(400))))))
            severe = toll >= 20
            text = f"{toll} dead after crash and collapse downtown"
        label = severe and user == "jalisco_desk"
        post = Post(f"p{i:03d}", user, BASE_TS + i * 60, text)
        features = assemble_features(post, sources[user], ctx)
        examples.append(LabeledExample(post.post_id, features, label))
    return examples


def test_ablation_ordering(gazetteer, trbc_model):
    with criterion("ablation ordering holds on >= 8 of 10 seeds", 60.0):
        examples = _ablation_corpus(gazetteer, trbc_model)
        sets = [
            ("text", "topic"),
            ("text", "topic", "scope", "impact"),
            ("text", "topic", "scope", "impact", "rarity", "location"),
        ]
        wins = 0
        for seed in range(10):
            results = ablate(examples, sets, folds=3, seed=seed, epochs=15, C=1.0)
            f_tt, f_ttsi, f_all = (prf(counts)[2] for _, counts in results)
            if f_all >= f_ttsi >= f_tt:
                wins += 1
        assert wins >= 8, f"ordering held on only {wins}/10 seeds"


# ---------------------------------------------------------------------------
# 9. curation fixture
# ---------------------------------------------------------------------------

def test_curation_fixture_acceptance(gazetteer, trbc_model):
    tfidf, centroids = trbc_model
    profiles, tweets, assignments = curation_fixture()
    with criterion("curation: 12-profile fixture -> the 7 traced survivors", 1.0):
        curated, stages, _ = curate(
            profiles, tweets, assignments, gazetteer, centroids, tfidf,
            seed=7, follower_cap=1_000_000, local_focus_threshold=0.5,
        )
        assert {p.user_id: p.category for p in curated} == EXPECTED_SURVIVORS
        assert stages["curated"] == 7
        by_id = {p.user_id: p for p in curated}
        assert by_id["quakebot"].informativeness == pytest.approx(2.8)
        history = tweets["quakebot"]
        assert len(history) == 1000


# ---------------------------------------------------------------------------
# 10. timeliness arithmetic
# ---------------------------------------------------------------------------

def test_timeliness_acceptance(tmp_path, capsys):
    with criterion("timeliness: +30/-10 -> mean +10, beat 0.5", 1.0):
        feed = tmp_path / "feed.ndjson"
        wire = tmp_path / "wire.ndjson"
        write_ndjson_file(feed, [
            {"event_id": "e1", "first_tweet_at": 0},
            {"event_id": "e2", "first_tweet_at": 600},
        ])
        write_ndjson_file(wire, [
            {"event_id": "e1", "wire_alert_at": 1800},
            {"event_id": "e2", "wire_alert_at": 0},
        ])
        assert main(["timeliness", "--feed", str(feed), "--wire", str(wire)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "mean lead: +10.0 min" in out
        assert "beat fraction: 0.50" in out
