import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parcelex.beads import links_cover
from parcelex.celex import CelexId
from parcelex.errors import ParcelexError
from parcelex.hunalign import (
    HunParams,
    Lexicon,
    align_hunalign,
    build_lexicon,
    identical_word_ratio,
    merge_segments,
    prepare_pair,
    save_lexicon,
    segment_similarity,
    similarity_align,
    tokenize,
)
from parcelex.synth import link_f1, planted_bitext

P = HunParams()


def test_tokenize_extracts_numbers():
    seg = tokenize("du 13 décembre 2003")
    assert seg.number_tokens == {"13", "2003"}
    assert seg.tokens == ("du", "13", "décembre", "2003")


def test_tokenize_plain_words():
    seg = tokenize("abc def")
    assert seg.number_tokens == frozenset()
    assert seg.tokens == ("abc", "def")


def test_tokenize_empty():
    seg = tokenize("")
    assert seg.tokens == () and seg.number_tokens == frozenset() and seg.length == 0


def test_tokenize_lowercases_and_splits_punctuation():
    seg = tokenize("tal-5 ta' Mejju 1960")
    assert "mejju" in seg.tokens
    assert seg.number_tokens == {"5", "1960"}


def test_tokenize_number_with_separators():
    seg = tokenize("price 1.234,56 total")
    assert "1.234,56" in seg.number_tokens


def test_identical_word_ratio_identical():
    s = tokenize("alpha beta gamma")
    assert identical_word_ratio(s, s) == 1.0


def test_identical_word_ratio_half():
    assert identical_word_ratio(tokenize("a b"), tokenize("a c")) == 0.5


def test_identical_word_ratio_disjoint_and_empty():
    assert identical_word_ratio(tokenize("a b"), tokenize("c d")) == 0.0
    assert identical_word_ratio(tokenize(""), tokenize("")) == 0.0


def test_similarity_identical_without_lexicon():
    s = tokenize("the quick brown fox 7")
    assert segment_similarity(s, s, None, P) == pytest.approx(1.0)


def test_similarity_equal_length_disjoint_words():
    s = tokenize("abcd efgh")
    t = tokenize("wxyz qrst")
    # no numbers on either side -> number similarity 1.0; weights renormalized
    scale = P.w_length + P.w_identical + P.w_number
    expected = (P.w_length * 1.0 + P.w_number * 1.0) / scale
    assert segment_similarity(s, t, None, P) == pytest.approx(expected)


def test_similarity_equal_length_disjoint_words_and_numbers():
    s = tokenize("abcd 11")
    t = tokenize("wxyz 99")
    assert s.length == t.length
    # disjoint words and disjoint number sets leave only the length share
    scale = P.w_length + P.w_identical + P.w_number
    assert segment_similarity(s, t, None, P) == pytest.approx(P.w_length / scale)


def test_similarity_symmetric_without_lexicon():
    s = tokenize("alpha beta 1999")
    t = tokenize("gamma delta epsilon 1999")
    assert segment_similarity(s, t, None, P) == pytest.approx(
        segment_similarity(t, s, None, P)
    )


def test_planted_pair_scores_higher_with_lexicon():
    lexicon = Lexicon(
        entries={("kavu", "zain"): 1.0, ("mira", "gorpul"): 0.9},
    )
    s = tokenize("kavu mira")
    t = tokenize("zain gorpul")
    with_lex = segment_similarity(s, t, lexicon, P)
    without = segment_similarity(s, t, None, P)
    # same renormalized base, but the lexicon share is nearly saturated
    assert with_lex > P.w_lexicon * 0.9
    assert with_lex > without * (1 - P.w_lexicon) + P.w_lexicon * 0.9 - 1e-9


def test_merge_segments_concatenation():
    a = tokenize("one two 3")
    b = tokenize("four 5")
    merged = merge_segments([a, b])
    assert merged.tokens == ("one", "two", "3", "four", "5")
    assert merged.number_tokens == {"3", "5"}
    assert merged.length == a.length + b.length + 1


def test_identical_documents_align_one_one():
    pars = ["alpha beta gamma", "delta epsilon", "zeta eta theta iota"]
    alignment = similarity_align(pars, pars, None, P)
    assert [l.arity for l in alignment.links] == [(1, 1)] * 3


def test_one_to_three_split():
    whole = "alpha beta gamma delta epsilon zeta"
    parts = ["alpha beta", "gamma delta", "epsilon zeta"]
    alignment = similarity_align([whole], parts, None, P)
    assert [l.arity for l in alignment.links] == [(1, 3)]
    # brute-force check: enumerate all monotone alignments without 2-2
    best = _brute_force_best([whole], parts, P)
    assert best == [(1, 3)]


def _brute_force_best(src, tgt, params):
    """Enumerate all monotone segmentations (no 2-2) and return the best arities."""
    moves = [(1, 1), (1, 0), (0, 1)]
    for k in range(2, params.max_split + 1):
        moves += [(k, 1), (1, k)]
    n, m = len(src), len(tgt)
    best_score, best_seq = None, None

    def bead(a, b, i, j):
        if a == 0 or b == 0:
            return -params.skip_penalty
        s = tokenize(" ".join(src[i : i + a]))
        t = tokenize(" ".join(tgt[j : j + b]))
        return segment_similarity(s, t, None, params)

    def rec(i, j, seq, score):
        nonlocal best_score, best_seq
        if i == n and j == m:
            if best_score is None or score > best_score:
                best_score, best_seq = score, list(seq)
            return
        for a, b in moves:
            if i + a <= n and j + b <= m:
                rec(i + a, j + b, seq + [(a, b)], score + bead(a, b, i, j))

    rec(0, 0, [], 0.0)
    return best_seq


def test_skips_where_nothing_matches():
    src = ["alpha beta gamma", "orphan sentence 42", "delta epsilon zeta"]
    tgt = ["alpha beta gamma", "delta epsilon zeta"]
    alignment = similarity_align(src, tgt, None, P)
    arities = [l.arity for l in alignment.links]
    assert arities.count((1, 0)) == 1
    assert links_cover(alignment.links, 3, 2)


@settings(max_examples=30, deadline=None)
@given(st.randoms(use_true_random=False))
def test_never_emits_two_two(rnd):
    words = ["alpha", "beta", "gamma", "delta", "42", "epsilon"]
    src = [" ".join(rnd.choices(words, k=rnd.randint(1, 6))) for _ in range(rnd.randint(1, 7))]
    tgt = [" ".join(rnd.choices(words, k=rnd.randint(1, 6))) for _ in range(rnd.randint(1, 7))]
    alignment = similarity_align(src, tgt, None, P)
    assert all(l.arity != (2, 2) for l in alignment.links)
    assert all(min(l.arity) <= 1 for l in alignment.links)
    assert links_cover(alignment.links, len(src), len(tgt))


def _tiny_bitext():
    celex = CelexId(3, 1984, "R", "0001")
    src = {celex: ["aaa bbb", "ccc ddd", "aaa ddd", "bbb ccc", "aaa bbb ccc"]}
    tgt = {celex: ["xxx yyy", "zzz www", "xxx www", "yyy zzz", "xxx yyy zzz"]}
    return celex, src, tgt


def _prepared(src_docs, tgt_docs, params):
    """The pairs ``align_hunalign`` prepares for phase 2: each celex's two sides."""
    return {c: prepare_pair(src_docs[c], tgt_docs[c], params.max_split) for c in src_docs}


def test_build_lexicon_perfect_cooccurrence():
    celex, src, tgt = _tiny_bitext()
    phase1 = [similarity_align(src[celex], tgt[celex], None, P, celex=celex)]
    lexicon = build_lexicon(phase1, _prepared(src, tgt, P), P)
    # "aaa" always co-occurs with "xxx" and nowhere else
    assert lexicon.entries[("aaa", "xxx")] == 1.0


def test_build_lexicon_no_one_to_one():
    with pytest.raises(ParcelexError, match="^phase 1 produced no 1-1 links to sample$"):
        build_lexicon([], {}, P)


def test_build_lexicon_deterministic():
    bt = planted_bitext(n_pairs=120, dict_size=20, seed=5)
    celexes = sorted(bt.src_docs)
    phase1 = [
        similarity_align(bt.src_docs[c], bt.tgt_docs[c], None, P, celex=c) for c in celexes
    ]
    a = build_lexicon(phase1, _prepared(bt.src_docs, bt.tgt_docs, P), P)
    b = build_lexicon(phase1, _prepared(bt.src_docs, bt.tgt_docs, P), P)
    assert a.entries == b.entries


def _sampled_links(phase1, params):
    """The (celex, source n, target n) of the 1-1 links build_lexicon samples, in its order."""
    one_to_one = [
        (a.celex, l.src_pars[0], l.tgt_pars[0]) for a in phase1 for l in a.links if l.arity == (1, 1)
    ]
    return random.Random(params.rng_seed).sample(one_to_one, min(params.sample_size, len(one_to_one)))


def _reference_lexicon(phase1, src_docs, tgt_docs, params, first_n=1):
    """build_lexicon's sample counted naively: tokenize each sampled pair, loop over type pairs."""
    src_counts, tgt_counts, cooc = Counter(), Counter(), Counter()
    for celex, src_n, tgt_n in _sampled_links(phase1, params):
        src_types = set(tokenize(src_docs[celex][src_n - first_n]).tokens)
        tgt_types = set(tokenize(tgt_docs[celex][tgt_n - first_n]).tokens)
        src_counts.update(src_types)
        tgt_counts.update(tgt_types)
        for s in src_types:
            for t in tgt_types:
                cooc[(s, t)] += 1
    return {
        (s, t): min(1.0, c * c / (src_counts[s] * tgt_counts[t]))
        for (s, t), c in cooc.items()
        if c >= params.min_cooc
    }


def test_build_lexicon_same_from_prepared_documents_and_texts():
    bt = planted_bitext(n_pairs=120, dict_size=20, seed=8)
    celexes = sorted(bt.src_docs)
    params = HunParams(min_cooc=1, sample_size=70)
    phase1 = [
        similarity_align(bt.src_docs[c], bt.tgt_docs[c], None, params, celex=c, first_src=2,
                         first_tgt=2)
        for c in celexes
    ]
    from_prepared = build_lexicon(phase1, _prepared(bt.src_docs, bt.tgt_docs, params), params, 2)
    assert from_prepared.entries == _reference_lexicon(phase1, bt.src_docs, bt.tgt_docs, params, 2)


@pytest.mark.parametrize("min_cooc", [1, 2, 3])
def test_build_lexicon_equals_the_count_over_every_type_pair_in_order(min_cooc):
    bt = planted_bitext(n_pairs=120, dict_size=20, seed=8)
    celexes = sorted(bt.src_docs)
    params = HunParams(min_cooc=min_cooc, sample_size=70)
    phase1 = [
        similarity_align(bt.src_docs[c], bt.tgt_docs[c], None, params, celex=c) for c in celexes
    ]
    prepared = {c: prepare_pair(bt.src_docs[c], bt.tgt_docs[c], params.max_split) for c in celexes}
    # Every type pair of each sampled link, counted in build_lexicon's order.
    src_counts, tgt_counts, cooc = Counter(), Counter(), Counter()
    for celex, src_n, tgt_n in _sampled_links(phase1, params):
        src, tgt = prepared[celex]
        src_counts.update(src.types[src_n - 1])
        tgt_counts.update(tgt.types[tgt_n - 1])
        cooc.update(itertools.product(src.types[src_n - 1], tgt.types[tgt_n - 1]))
    want = {
        (s, t): min(1.0, c * c / (src_counts[s] * tgt_counts[t]))
        for (s, t), c in cooc.items()
        if c >= min_cooc
    }
    if min_cooc > 1:  # some types are too rare to pair
        assert min(src_counts.values()) < min_cooc and min(tgt_counts.values()) < min_cooc
    got = build_lexicon(phase1, prepared, params).entries
    assert got == want and list(got) == list(want)


def test_lexicon_weights_in_unit_interval():
    bt = planted_bitext(n_pairs=120, dict_size=20, seed=6)
    alignments, lexicon = align_hunalign(bt.src_docs, bt.tgt_docs, P)
    assert all(0.0 <= w <= 1.0 for w in lexicon.entries.values())
    assert alignments  # three phases ran


def test_driver_equals_phases_run_by_hand():
    bt = planted_bitext(n_pairs=150, dict_size=20, seed=17)
    celexes = sorted(bt.src_docs)
    phase1 = [
        similarity_align(bt.src_docs[c], bt.tgt_docs[c], None, P, celex=c, src_lang="xx",
                         tgt_lang="yy", first_src=2, first_tgt=2)
        for c in celexes
    ]
    lexicon = build_lexicon(phase1, _prepared(bt.src_docs, bt.tgt_docs, P), P, first_n=2)
    phase3 = [
        similarity_align(bt.src_docs[c], bt.tgt_docs[c], lexicon, P, celex=c, src_lang="xx",
                         tgt_lang="yy", first_src=2, first_tgt=2)
        for c in celexes
    ]
    got, got_lexicon = align_hunalign(bt.src_docs, bt.tgt_docs, P, "xx", "yy", first_n=2)

    def links(alignments):
        return [
            (a.celex, a.src_lang, a.tgt_lang,
             [(l.arity, l.src_pars, l.tgt_pars, l.score.hex()) for l in a.links])
            for a in alignments
        ]

    assert lexicon.entries  # the lexicon pass had evidence to add
    assert links(got) == links(phase3)
    assert got_lexicon.entries == lexicon.entries


def test_planted_recovery_small():
    bt = planted_bitext(n_pairs=300, dict_size=30, seed=9)
    _, lexicon = align_hunalign(bt.src_docs, bt.tgt_docs, P)
    recovered = sum(
        1 for s, t in bt.dictionary.items() if lexicon.entries.get((s, t), 0.0) >= 0.5
    )
    assert recovered >= 0.9 * len(bt.dictionary)


def test_phase3_not_worse_than_phase1():
    bt = planted_bitext(n_pairs=400, dict_size=40, seed=13)
    celexes = sorted(bt.src_docs)
    phase1 = [
        similarity_align(bt.src_docs[c], bt.tgt_docs[c], None, P, celex=c) for c in celexes
    ]
    phase3, _ = align_hunalign(bt.src_docs, bt.tgt_docs, P)
    gold = [(c, bt.gold[c]) for c in celexes]
    assert link_f1(phase3, gold) >= link_f1(phase1, gold)


def test_identical_pair_phase3_equals_phase1():
    celex = CelexId(3, 1999, "R", "0042")
    doc = ["alpha beta gamma", "delta epsilon", "zeta eta"]
    docs = {celex: doc}
    phase1 = similarity_align(doc, doc, None, P, celex=celex)
    phase3 = align_hunalign(docs, docs, P)[0][0]
    assert phase3.links == phase1.links
    assert all(l.arity == (1, 1) for l in phase3.links)


def test_empty_collection_surfaces_lexicon_error():
    with pytest.raises(ParcelexError, match="^phase 1 produced no 1-1 links to sample$"):
        align_hunalign({}, {}, P)


def test_lexicon_persistence_round_trip(tmp_path):
    lexicon = Lexicon(
        entries={("a", "x"): 0.123456789, ("b", "y"): 1.0, ("c", "z"): 0.5},
    )
    path = tmp_path / "lex.txt"
    save_lexicon(lexicon, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("b\ty\t")  # heaviest first
    # Every weight is written in full, so reading the lines back gives the same floats.
    read = {}
    for line in lines:
        s, t, w = line.split("\t")
        read[(s, t)] = float(w)
    assert read == lexicon.entries


def test_params_validation():
    with pytest.raises(ValueError):
        HunParams(w_length=0.9)  # weights no longer sum to 1
    with pytest.raises(ValueError):
        HunParams(sample_size=0)
    with pytest.raises(ValueError):
        HunParams(max_split=1)


def _reference_align(src_pars, tgt_pars, lexicon, params):
    """Naive DP: every bead scored by segment_similarity on its merged segments."""
    src = [tokenize(t) for t in src_pars]
    tgt = [tokenize(t) for t in tgt_pars]
    n, m = len(src), len(tgt)
    moves = [(1, 1), (1, 0), (0, 1)]
    for k in range(2, params.max_split + 1):
        moves += [(k, 1), (1, k)]

    def bead(a, b, i, j):
        if a == 0 or b == 0:
            return -params.skip_penalty
        return segment_similarity(
            merge_segments(src[i : i + a]), merge_segments(tgt[j : j + b]), lexicon, params
        )

    score = [[-float("inf")] * (m + 1) for _ in range(n + 1)]
    choice = [[None] * (m + 1) for _ in range(n + 1)]
    score[n][m] = 0.0
    for i in range(n, -1, -1):
        for j in range(m, -1, -1):
            if (i, j) == (n, m):
                continue
            for a, b in moves:
                if i + a <= n and j + b <= m:
                    s = bead(a, b, i, j) + score[i + a][j + b]
                    if s > score[i][j]:
                        score[i][j], choice[i][j] = s, (a, b)
    links = []
    i = j = 0
    while (i, j) != (n, m):
        a, b = choice[i][j]
        links.append(
            ((a, b), tuple(range(1 + i, 1 + i + a)), tuple(range(1 + j, 1 + j + b)),
             bead(a, b, i, j).hex())
        )
        i, j = i + a, j + b
    return links


@pytest.fixture(scope="module")
def reference_lexicons():
    bt = planted_bitext(n_pairs=80, dict_size=12, seed=3, n_function_words=3)
    celexes = sorted(bt.src_docs)
    phase1 = [
        similarity_align(bt.src_docs[c], bt.tgt_docs[c], None, P, celex=c) for c in celexes
    ]
    # min_cooc 1 keeps many weights that are not short binary fractions, so
    # the order in which a bead adds them shows in the bits of its score.
    params = HunParams(min_cooc=1)
    boot = build_lexicon(phase1, _prepared(bt.src_docs, bt.tgt_docs, params), params)
    # "orphan" has translations, but none of them ever occurs on the target side.
    # Of the other entries every third weighs 0.0 and every third -0.0, which
    # Lexicon accepts, so a bead's best translation can weigh a zero of either sign.
    zeroed = {k: (w, 0.0, -0.0)[n % 3] for n, (k, w) in enumerate(sorted(boot.entries.items()))}
    edge = Lexicon(entries={**zeroed, ("orphan", "nowhere"): 0.7, ("orphan", "absent"): 0.2})
    empty = Lexicon(entries={})
    src_words = sorted({w for d in bt.src_docs.values() for p in d for w in p.split()})
    tgt_words = sorted({w for d in bt.tgt_docs.values() for p in d for w in p.split()})
    return (None, empty, boot, edge), src_words + ["orphan"], tgt_words


@pytest.mark.parametrize("case", range(96))
def test_similarity_align_matches_reference_bit_for_bit(case, reference_lexicons):
    """From case 50 on both sides share their words as well as their numbers.

    Then an identical word on both sides must be one bit of the shared
    vocabulary, or its Dice share of the bead score changes.  From case 86
    on only the lexicon weighs and there is none, so every 1-1 and merge
    bead scores 0.0 and the path is chosen by the skip penalty and ties.
    """
    lexicons, src_words, tgt_words = reference_lexicons
    rng = random.Random(case)
    params = HunParams(max_split=(2, 3, 4)[case % 3])
    lexicon = lexicons[case % 4]
    if case >= 86:
        params = HunParams(max_split=params.max_split, w_length=0, w_identical=0, w_number=0,
                           w_lexicon=1)
        lexicon = None
    numbers = ["7", "1984", "12.5", "2003"]
    if case >= 50:
        src_words = tgt_words = rng.sample(src_words, 6) + rng.sample(tgt_words, 6)

    def paragraph(words):
        if rng.random() < 0.15:
            return ""
        pool = rng.sample(words, 8) + numbers[: rng.randint(0, 2)]
        return " ".join(rng.choice(pool) for _ in range(rng.randint(1, 16)))

    src = [paragraph(src_words) for _ in range(rng.randint(0, 9))]
    tgt = [paragraph(tgt_words) for _ in range(rng.randint(0, 9))]
    got = similarity_align(src, tgt, lexicon, params)
    assert [
        (l.arity, l.src_pars, l.tgt_pars, l.score.hex()) for l in got.links
    ] == _reference_align(src, tgt, lexicon, params)


@pytest.mark.parametrize("max_split", [2, 3])
def test_similarity_align_matches_reference_with_several_translations_in_one_paragraph(max_split):
    lexicon = Lexicon(entries={
        ("kavu", "zain"): 0.0, ("kavu", "zorp"): -0.0, ("kavu", "gorp"): 0.4, ("kavu", "blam"): 0.9,
        ("mira", "zain"): -0.0, ("mira", "zorp"): -0.0, ("mira", "gorp"): 0.0,
        ("tel", "gorp"): 0.3, ("tel", "blam"): 0.3, ("tel", "zain"): 0.1,
    })
    src = ["kavu mira tel", "mira mira", "kavu tel 7", "", "tel kavu mira kavu", "mira"]
    tgt = ["zain zorp gorp blam", "zain zorp", "gorp blam 7", "zorp gorp", "", "blam gorp zain"]
    params = HunParams(max_split=max_split)
    got = similarity_align(src, tgt, lexicon, params)
    assert [
        (l.arity, l.src_pars, l.tgt_pars, l.score.hex()) for l in got.links
    ] == _reference_align(src, tgt, lexicon, params)


def test_a_merge_whose_move_index_needs_more_than_a_byte():
    # max_split 130 gives 261 moves, and the 1-130 merge, the last of them, wins.
    src = [" ".join(f"w{k}" for k in range(130))]
    tgt = [f"w{k}" for k in range(130)]
    params = HunParams(max_split=130)
    got = similarity_align(src, tgt, None, params)
    assert [l.arity for l in got.links] == [(1, 130)]
    assert [
        (l.arity, l.src_pars, l.tgt_pars, l.score.hex()) for l in got.links
    ] == _reference_align(src, tgt, None, params)
