import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import BANK_LANGS, held_out_chunks, training_text
from parcelex.errors import EmptyTextError, InsufficientTrainingDataError, MalformedProfileError
from parcelex.langid import (
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
    with pytest.raises(InsufficientTrainingDataError):
        train_language_profile("too short", "en")


def test_profiles_pairwise_distinct(language_profiles):
    for i, p in enumerate(language_profiles):
        for q in language_profiles[i + 1 :]:
            assert profile_distance(p.ngram_ranks, q) > MIN_PAIRWISE_DISTANCE


def test_self_match(language_profiles):
    for lang in BANK_LANGS:
        guessed, confidence = guess_language(training_text(lang), language_profiles)
        assert guessed == lang
        assert confidence > 0


def test_empty_text_rejected(language_profiles):
    with pytest.raises(EmptyTextError):
        guess_language("", language_profiles)
    with pytest.raises(EmptyTextError):
        guess_language("   ", language_profiles)


def test_held_out_accuracy(language_profiles):
    total = correct = 0
    for lang in BANK_LANGS:
        for chunk in held_out_chunks(lang):
            guessed, _ = guess_language(chunk, language_profiles)
            total += 1
            correct += guessed == lang
    assert correct / total >= 0.99


@given(st.randoms(use_true_random=False))
def test_guess_permutation_invariant(language_profiles, rnd):
    shuffled = list(language_profiles)
    rnd.shuffle(shuffled)
    text = held_out_chunks("fr", n_chunks=1)[0]
    assert guess_language(text, shuffled) == guess_language(text, language_profiles)


def test_single_profile_confidence(language_profiles):
    guessed, confidence = guess_language("the committee shall examine", language_profiles[:1])
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


@pytest.mark.parametrize(
    "text, where",
    [("_a\t1\nb\n", ":2:"), ("_a\t1\nb\tx\n", ":2:"), ("_a\t1\nb\t1\tc\n", ":2:"),
     ("_a\t1\nb\t3\n", "1..")],
)
def test_malformed_profile_rejected(tmp_path, text, where):
    path = tmp_path / "xx.profile"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(MalformedProfileError, match=where) as info:
        load_profile(path)
    assert str(path) in str(info.value)
