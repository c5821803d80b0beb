import re
from collections import Counter

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import BANK_LANGS, held_out_chunks, training_text
from parcelex.errors import ParcelexError
from parcelex.langid import (
    DEFAULT_NGRAM_ORDERS,
    LanguageProfile,
    ProfileIndex,
    _ngram_counts,
    _rank,
    guess_language,
    load_profile,
    profile_distance,
    save_profile,
    train_language_profile,
)

# Frozen from a one-off measurement on the bank fixtures; any healthy pair of
# profiles sits far above this.
MIN_PAIRWISE_DISTANCE = 50_000


def test_single_char_profile():
    p = train_language_profile("aaaa " * 2500, "aa", k=1, min_chars=100)
    assert p.ngram_ranks == {"a": 1}


def test_training_determinism():
    text = training_text("en")
    a = train_language_profile(text, "en")
    b = train_language_profile(text, "en")
    assert a.ngram_ranks == b.ngram_ranks


def test_insufficient_training_data():
    message = "^need at least 10000 characters of training text for 'en', got 9$"
    with pytest.raises(ParcelexError, match=message):
        train_language_profile("too short", "en")


def test_profiles_pairwise_distinct(language_profiles):
    for i, p in enumerate(language_profiles):
        for q in language_profiles[i + 1 :]:
            assert profile_distance(p.ngram_ranks, q) > MIN_PAIRWISE_DISTANCE


def test_self_match(profile_index):
    for lang in BANK_LANGS:
        guessed, confidence = guess_language(training_text(lang), profile_index)
        assert guessed == lang
        assert confidence > 0


def test_empty_text_rejected(profile_index):
    with pytest.raises(ParcelexError, match="^cannot guess the language of empty text$"):
        guess_language("", profile_index)
    with pytest.raises(ParcelexError, match="^cannot guess the language of empty text$"):
        guess_language("   ", profile_index)


def test_held_out_accuracy(profile_index):
    total = correct = 0
    for lang in BANK_LANGS:
        for chunk in held_out_chunks(lang):
            guessed, _ = guess_language(chunk, profile_index)
            total += 1
            correct += guessed == lang
    assert correct / total >= 0.99


@given(st.randoms(use_true_random=False))
def test_guess_permutation_invariant(language_profiles, profile_index, rnd):
    shuffled = list(language_profiles)
    rnd.shuffle(shuffled)
    text = held_out_chunks("fr", n_chunks=1)[0]
    assert guess_language(text, ProfileIndex(shuffled)) == guess_language(text, profile_index)


def test_single_profile_confidence(language_profiles):
    guessed, confidence = guess_language(
        "the committee shall examine", ProfileIndex(language_profiles[:1])
    )
    assert guessed == language_profiles[0].lang
    assert confidence == 1.0


def test_profile_persistence_round_trip(tmp_path, language_profiles):
    p = language_profiles[0]
    path = tmp_path / f"{p.lang}.profile"
    save_profile(p, path)
    loaded = load_profile(path)
    assert loaded.lang == p.lang
    assert loaded.ngram_ranks == p.ngram_ranks
    lines = path.read_text(encoding="utf-8").splitlines()
    assert [int(l.split("\t")[1]) for l in lines] == list(range(1, len(lines) + 1))


# What the message says after the profile's path, for each fault that ``where`` names.
_PROFILE_FAULTS = {
    ":2:": ":2: expected <ngram><TAB><rank>, got ",
    "1..": r": profile ranks must be 1\.\.2 without gaps$",
    "UTF-8": ": not valid UTF-8 at byte 5$",
}


@pytest.mark.parametrize(
    "text, where",
    [("_a\t1\nb\n", ":2:"), ("_a\t1\nb\tx\n", ":2:"), ("_a\t1\nb\t1\tc\n", ":2:"),
     ("_a\t1\nb\t3\n", "1.."), ("_a\t1\n\udcffb\t2\n", "UTF-8")],
)
def test_malformed_profile_rejected(tmp_path, text, where):
    path = tmp_path / "xx.profile"
    # "\udcff" is written as the invalid byte 0xff.
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    with pytest.raises(ParcelexError, match=f"^{re.escape(str(path))}{_PROFILE_FAULTS[where]}"):
        load_profile(path)


# Naive reference: straightforward loops that the C-level counting, the
# two-pass rank sort and the bound-lookup distance must match exactly.


def _naive_ngram_counts(text, orders=DEFAULT_NGRAM_ORDERS):
    counts = Counter()
    for word in re.split(r"\s+", text.lower().strip()):
        if not word:
            continue
        padded = f"_{word}_"
        size = len(padded)
        for n in orders:
            if n > size:
                continue
            for i in range(size - n + 1):
                counts[padded[i : i + n]] += 1
    return counts


def _naive_rank(counts, k):
    top = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
    return {gram: rank for rank, (gram, _) in enumerate(top, start=1)}


def _naive_distance(text_ranks, profile):
    d = 0
    for gram, rank in text_ranks.items():
        ref = profile.ngram_ranks.get(gram)
        d += abs(rank - ref) if ref is not None else profile.k
    return d


def _naive_guess(text, profiles):
    k = max(p.k for p in profiles)
    text_ranks = _naive_rank(_naive_ngram_counts(text), k)
    scored = sorted((_naive_distance(text_ranks, p), p.lang) for p in profiles)
    best_d, best_lang = scored[0]
    if len(scored) == 1:
        return best_lang, 1.0
    second_d = scored[1][0]
    return best_lang, (second_d - best_d) / second_d if second_d > 0 else 0.0


def _assert_rank_equal(counts, k):
    fast, naive = _rank(counts, k), _naive_rank(counts, k)
    assert list(fast.items()) == list(naive.items())


# Letters that make short words, repeated n-grams and ties; "_" (the padding
# character) inside words; "İ", which lowercases to two characters.
_TEXT = st.text(alphabet="abé_İ \t\n.", max_size=120)


@given(_TEXT, st.integers(min_value=1, max_value=80))
@example("İstanbul İİ _a_ a_b", 3)
@example("ab ba ab ba", 1)
@example("a", 400)
def test_counts_and_ranks_match_naive_reference(text, k):
    counts = _ngram_counts(text)
    assert counts == _naive_ngram_counts(text)
    assert "" not in counts
    _assert_rank_equal(counts, k)


@given(
    st.dictionaries(st.text(alphabet="ab_", min_size=1, max_size=3),
                    st.integers(min_value=1, max_value=3), max_size=20),
    st.integers(min_value=1, max_value=25),
)
def test_rank_ties_and_short_counts_match_naive_reference(counts, k):
    # Few distinct counts over many grams: ties straddle every k, and k often
    # exceeds the number of distinct n-grams.
    _assert_rank_equal(Counter(counts), k)


def test_rank_tie_at_the_k_boundary():
    counts = Counter({"c": 2, "b": 2, "a": 2, "d": 5, "e": 1})
    for k in range(1, 7):
        _assert_rank_equal(counts, k)
    assert _rank(counts, 2) == {"d": 1, "a": 2}


@given(
    _TEXT,
    st.dictionaries(st.text(alphabet="ab_İ", min_size=1, max_size=3),
                    st.integers(min_value=1, max_value=3), max_size=20),
    st.integers(min_value=1, max_value=30),
)
def test_distance_matches_naive_reference(text, profile_counts, k):
    profile_ranks = _naive_rank(Counter(profile_counts), k)
    profile = LanguageProfile("xx", profile_ranks, k=max(k, len(profile_ranks)))
    text_ranks = _rank(_ngram_counts(text), k)
    assert profile_distance(text_ranks, profile) == _naive_distance(text_ranks, profile)


def test_fixture_texts_match_naive_reference(language_profiles, profile_index):
    for lang in BANK_LANGS:
        text = training_text(lang)
        counts = _ngram_counts(text)
        assert counts == _naive_ngram_counts(text)
        _assert_rank_equal(counts, 400)
        profile = train_language_profile(text, lang)
        assert list(profile.ngram_ranks.items()) == list(_naive_rank(counts, 400).items())
        for chunk in held_out_chunks(lang, n_chunks=5):
            chunk_ranks = _rank(_ngram_counts(chunk), 400)
            for p in language_profiles:
                assert profile_distance(chunk_ranks, p) == _naive_distance(chunk_ranks, p)
            guessed, confidence = guess_language(chunk, profile_index)
            naive_guessed, naive_confidence = _naive_guess(chunk, language_profiles)
            assert guessed == naive_guessed
            assert confidence.hex() == naive_confidence.hex()


# The inverted index against the naive per-profile distance.  Profiles of a
# few one- and two-character grams over "ab_" share most grams; the text's
# "c" grams are in no profile.


def _profiles(grams_and_slack):
    return [
        LanguageProfile(f"l{i}", dict(zip(grams, range(1, len(grams) + 1))), k=len(grams) + slack)
        for i, (grams, slack) in enumerate(grams_and_slack)
    ]


@given(
    st.lists(
        st.tuples(
            st.lists(st.text(alphabet="ab_", min_size=1, max_size=2), unique=True, max_size=12),
            st.integers(min_value=1, max_value=6),
        ),
        min_size=1,
        max_size=4,
    ),
    st.lists(st.text(alphabet="abc_", min_size=1, max_size=2), unique=True, max_size=15),
)
@example([(["a", "b"], 1), (["b", "a", "_"], 4), (["_", "a"], 1)], [])  # empty text
@example([(["a"], 1), (["a", "b"], 3)], ["a"])  # one gram, shared by every profile
@example([(["a"], 1), (["b"], 5)], ["c"])  # one gram, shared by none
@example([([], 1), (["ab", "a"], 2)], ["c", "a", "ab", "cc", "_"])  # an empty profile
def test_profile_index_distances_match_profile_distance(grams_and_slack, text_grams):
    profiles = _profiles(grams_and_slack)
    text_ranks = dict(zip(text_grams, range(1, len(text_grams) + 1)))
    index = ProfileIndex(profiles)
    assert index.langs == tuple(p.lang for p in profiles)
    assert index.k == max(p.k for p in profiles)
    assert index.distances(text_ranks) == [profile_distance(text_ranks, p) for p in profiles]


def test_guess_from_an_index_of_one_profile_or_none(language_profiles):
    assert guess_language("the committee", ProfileIndex(language_profiles[:1]))[1] == 1.0
    with pytest.raises(ValueError):
        guess_language("the committee", ProfileIndex([]))
