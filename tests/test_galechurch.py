import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parcelex import galechurch
from parcelex.beads import links_cover
from parcelex.errors import InstanceTooLargeError, UnsupportedArityError
from parcelex.galechurch import (
    ARITY_PREFERENCE,
    GCParams,
    _match_cost,
    _match_costs,
    align_gale_church,
    alignment_cost,
    bead_cost,
    exhaustive_align,
    length_delta,
    segment_length,
)
from parcelex.params import DEFAULT_PRIORS
from parcelex.synth import corrupted_pair

P = GCParams()


def test_delta_equal_lengths():
    assert length_delta(100, 100, P) == 0.0


def test_delta_direct_arithmetic():
    assert length_delta(100, 120, P) == pytest.approx(20 / math.sqrt(680), abs=1e-9)
    assert length_delta(100, 120, P) == pytest.approx(0.76696, abs=1e-5)


def test_delta_zero_source_floored():
    d = length_delta(0, 50, P)
    assert math.isfinite(d)
    assert d == pytest.approx(50 / math.sqrt(6.8))


def test_equal_length_one_one_cost():
    cost = bead_cost([100], [100], (1, 1), P)
    assert cost == pytest.approx(-math.log(0.89), abs=1e-12)
    assert cost == pytest.approx(0.11653, abs=1e-5)


def test_unsupported_arity():
    with pytest.raises(UnsupportedArityError):
        bead_cost([1, 2, 3], [1, 2, 3], (3, 3), P)


def test_cost_monotone_in_delta():
    costs = [bead_cost([100], [100 + d], (1, 1), P) for d in (0, 10, 40, 90, 200)]
    assert costs == sorted(costs)


def test_skip_cost_finite_and_large():
    cost = bead_cost([100], [], (1, 0), P)
    assert math.isfinite(cost)
    assert cost > bead_cost([100], [100], (1, 1), P)


def test_extreme_delta_finite():
    assert math.isfinite(bead_cost([1], [100000], (1, 1), P))


def test_three_equal_paragraphs():
    pars = ["x" * 80] * 3
    alignment = align_gale_church(pars, pars, P)
    assert [l.arity for l in alignment.links] == [(1, 1)] * 3
    assert alignment.links[0].src_pars == (1,)
    assert alignment.links[2].tgt_pars == (3,)


def test_deletion_found_at_extra_position():
    # The extra paragraph must be long enough that absorbing it into a 2-1
    # bead costs more than the skip prior; short extras get merged instead.
    lengths = [100, 140, 400, 180, 110]
    src = ["x" * n for n in lengths]
    tgt = [src[0], src[1], src[3], src[4]]  # third source paragraph untranslated
    alignment = align_gale_church(src, tgt, P)
    oracle = exhaustive_align(src, tgt, P)
    assert alignment.links == oracle.links
    skips = [l for l in alignment.links if l.arity == (1, 0)]
    assert len(skips) == 1 and skips[0].src_pars == (3,)


def test_split_found():
    src = ["x" * 200]
    tgt = ["y" * 100, "y" * 99]
    alignment = align_gale_church(src, tgt, P)
    oracle = exhaustive_align(src, tgt, P)
    assert alignment.links == oracle.links
    assert [l.arity for l in alignment.links] == [(1, 2)]


def test_empty_target_all_skips():
    src = ["x" * 50, "x" * 60]
    alignment = align_gale_church(src, [], P)
    assert [l.arity for l in alignment.links] == [(1, 0), (1, 0)]
    oracle = exhaustive_align(src, [], P)
    assert oracle.links == alignment.links


def test_both_empty():
    assert align_gale_church([], [], P).links == ()


def test_oracle_rejects_large_instance():
    pars = ["x" * 10] * 13
    with pytest.raises(InstanceTooLargeError):
        exhaustive_align(pars, pars, P)


def test_oracle_equivalence_batch():
    rng = random.Random(193)
    for _ in range(60):
        n, m = rng.randint(0, 10), rng.randint(0, 10)
        if n == 0 and m == 0:
            m = 1
        src = ["x" * rng.randint(10, 250) for _ in range(n)]
        tgt = ["y" * rng.randint(10, 250) for _ in range(m)]
        dp = align_gale_church(src, tgt, P)
        oracle = exhaustive_align(src, tgt, P)
        assert alignment_cost(dp) == alignment_cost(oracle)
        assert dp.links == oracle.links


def test_completeness():
    rng = random.Random(7)
    src = ["x" * rng.randint(20, 200) for _ in range(14)]
    tgt = ["y" * rng.randint(20, 200) for _ in range(11)]
    alignment = align_gale_church(src, tgt, P)
    assert links_cover(alignment.links, 14, 11)


def test_uniform_text_duplication_keeps_structure():
    rng = random.Random(11)
    src = ["x" * rng.randint(40, 120) for _ in range(8)]
    tgt = [s + "y" * rng.randint(0, 6) for s in src]
    base = align_gale_church(src, tgt, P)
    doubled = align_gale_church([s * 2 for s in src], [t * 2 for t in tgt], P)
    assert [l.arity for l in base.links] == [(1, 1)] * 8
    assert [(l.src_pars, l.tgt_pars) for l in base.links] == [
        (l.src_pars, l.tgt_pars) for l in doubled.links
    ]


def test_first_n_offsets():
    pars = ["x" * 90] * 2
    alignment = align_gale_church(pars, pars, P, first_src=2, first_tgt=2)
    assert alignment.links[0].src_pars == (2,)
    assert alignment.links[1].tgt_pars == (3,)


def test_word_length_unit():
    params = GCParams(length_unit="words")
    src = ["one two three", "four five"]
    tgt = ["uno due tre", "quattro cinque"]
    alignment = align_gale_church(src, tgt, params)
    assert [l.arity for l in alignment.links] == [(1, 1), (1, 1)]


@given(st.integers(1, 5), st.integers(1, 5), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_oracle_equivalence_property(n, m, rnd):
    src = ["x" * rnd.randint(5, 300) for _ in range(n)]
    tgt = ["y" * rnd.randint(5, 300) for _ in range(m)]
    dp = align_gale_church(src, tgt, P)
    oracle = exhaustive_align(src, tgt, P)
    assert alignment_cost(dp) == alignment_cost(oracle)


def test_params_validation():
    with pytest.raises(ValueError):
        GCParams(variance=0)
    with pytest.raises(ValueError, match="sum to at most 1"):
        GCParams(arity_priors={**DEFAULT_PRIORS, (1, 1): 1.5})
    with pytest.raises(ValueError):
        GCParams(length_unit="syllables")
    with pytest.raises(ValueError, match="arity prior"):
        GCParams(arity_priors={(1, 1): 0.9, (3, 1): 0.01})


def test_bead_types_are_the_six_priors_in_tie_break_order():
    assert ARITY_PREFERENCE == tuple(DEFAULT_PRIORS)
    assert ARITY_PREFERENCE == ((1, 1), (1, 0), (0, 1), (2, 1), (1, 2), (2, 2))


@pytest.mark.parametrize(
    "priors, named",
    [
        (
            {arity: p for arity, p in DEFAULT_PRIORS.items() if arity != (2, 2)},
            "missing bead types ['2-2']",
        ),
        ({(1, 1): 0.9}, "missing bead types ['1-0', '0-1', '2-1', '1-2', '2-2']"),
        ({**DEFAULT_PRIORS, (3, 1): 0.001}, "unknown [(3, 1)]"),
        ({**DEFAULT_PRIORS, "1-1": 0.001}, "unknown ['1-1']"),
    ],
    ids=["no-2-2", "only-1-1", "3-1", "label-not-tuple"],
)
def test_a_prior_table_that_is_not_the_six_bead_types_is_refused(priors, named):
    with pytest.raises(ValueError) as exc:
        GCParams(arity_priors=priors)
    assert named in str(exc.value)


def test_digest_stable():
    assert GCParams().digest() == GCParams().digest()
    assert GCParams().digest() != GCParams(variance=7.0).digest()


def _reference_block(src_lengths, tgt_lengths, params, first_src, first_tgt):
    """Straightforward DP: ``bead_cost`` priced afresh for every bead of every cell."""
    n, m = len(src_lengths), len(tgt_lengths)

    def bead(a, b, i, j):
        return bead_cost(src_lengths[i : i + a], tgt_lengths[j : j + b], (a, b), params)

    cost = [[math.inf] * (m + 1) for _ in range(n + 1)]
    choice = [[None] * (m + 1) for _ in range(n + 1)]
    cost[n][m] = 0.0
    for i in range(n, -1, -1):
        for j in range(m, -1, -1):
            if (i, j) == (n, m):
                continue
            for a, b in ARITY_PREFERENCE:
                if i + a <= n and j + b <= m:
                    c = bead(a, b, i, j) + cost[i + a][j + b]
                    if c < cost[i][j]:
                        cost[i][j], choice[i][j] = c, (a, b)
    links = []
    i = j = 0
    while (i, j) != (n, m):
        a, b = choice[i][j]
        links.append(
            ((a, b), tuple(range(first_src + i, first_src + i + a)),
             tuple(range(first_tgt + j, first_tgt + j + b)), bead(a, b, i, j).hex())
        )
        i, j = i + a, j + b
    return links


def _reference_align(src, tgt, params, first=1):
    src_lengths = [segment_length(t, params.length_unit) for t in src]
    tgt_lengths = [segment_length(t, params.length_unit) for t in tgt]
    return _reference_block(src_lengths, tgt_lengths, params, first, first)


def _link_bits(alignment):
    return [(l.arity, l.src_pars, l.tgt_pars, l.score.hex()) for l in alignment.links]


REFERENCE_PARAMS = (
    P,
    GCParams(length_unit="words"),
    GCParams(mean_ratio=1.15, variance=3.1, skip_delta=2.5),
    GCParams(
        arity_priors={(1, 1): 0.7, (2, 1): 0.1, (1, 2): 0.08, (1, 0): 0.03, (0, 1): 0.04, (2, 2): 0.05},
        length_unit="words",
    ),
)


@pytest.mark.parametrize("case", range(60))
def test_dp_matches_reference_bit_for_bit(case):
    rng = random.Random(case)
    params = REFERENCE_PARAMS[case % len(REFERENCE_PARAMS)]
    # A few distinct paragraph shapes, so that many beads share length sums.
    shapes = [
        " ".join("w" * rng.randint(1, 9) for _ in range(rng.randint(0, 30)))
        for _ in range(rng.randint(1, 12))
    ]
    n = 0 if rng.random() < 0.1 else rng.randint(1, 16)
    m = 0 if rng.random() < 0.1 else rng.randint(1, 16)
    src = [rng.choice(shapes) for _ in range(n)]
    tgt = [rng.choice(shapes) for _ in range(m)]
    got = align_gale_church(src, tgt, params, first_src=2, first_tgt=2)
    assert _link_bits(got) == _reference_align(src, tgt, params, first=2)


@pytest.mark.parametrize("params", REFERENCE_PARAMS)
def test_batched_length_costs_match_match_cost_bit_for_bit(params):
    l2s = [0, 1, 2, 3, 5, 8, 40, 99, 100, 101, 250, 999, 3000, 5000]
    underflows = 0
    for l1 in (0, 1, 2, 7, 100, 1000, 3000):
        for log_prior in (0.0, math.log(0.89), math.log(0.0445)):
            got = _match_costs(l1, l2s, log_prior, params)
            want = [_match_cost(length_delta(l1, l2, params)) - log_prior for l2 in l2s]
            assert [c.hex() for c in got] == [c.hex() for c in want]
        underflows += sum(
            math.erfc(abs(length_delta(l1, l2, params)) / math.sqrt(2.0)) == 0.0 for l2 in l2s
        )
    assert underflows  # the asymptotic branch is among the costs compared (l1 = 1, l2 = 5000)


@pytest.mark.parametrize("params", REFERENCE_PARAMS)
def test_dp_matches_reference_with_1_and_3000_character_paragraphs(params):
    rng = random.Random(3000)
    shapes = ["w", "w " * 1500, "w" * 3000, "w " * 40]
    src = [rng.choice(shapes) for _ in range(12)]
    tgt = [rng.choice(shapes) for _ in range(11)]
    got = align_gale_church(src, tgt, params, first_src=2, first_tgt=2)
    assert _link_bits(got) == _reference_align(src, tgt, params, first=2)


@pytest.fixture
def fills(monkeypatch):
    """Where row 0's range ends in each band ``_dp_block`` fills (its half-width when
    n >= m), in order; None for a fill of the whole grid."""
    widths = []
    real = galechurch.monotone_dp

    def spy(n, m, moves, row_beads, spans=None):
        widths.append(None if spans is None else spans[0][1])
        return real(n, m, moves, row_beads, spans)

    monkeypatch.setattr(galechurch, "monotone_dp", spy)
    return widths


@pytest.mark.parametrize("case", range(12))
def test_banded_dp_matches_reference_bit_for_bit(case, fills):
    rng = random.Random(1000 + case)
    params = REFERENCE_PARAMS[case % len(REFERENCE_PARAMS)]
    shapes = [" ".join("w" * rng.randint(1, 9) for _ in range(rng.randint(1, 30))) for _ in range(40)]
    n = rng.randint(80, 110)
    src = [rng.choice(shapes) for _ in range(n)]
    tgt = [rng.choice(shapes) for _ in range(n + rng.randint(-12, 12))]
    got = align_gale_church(src, tgt, params, first_src=2, first_tgt=2)
    assert _link_bits(got) == _reference_align(src, tgt, params, first=2)
    assert fills[0] is not None


def test_path_that_leaves_the_first_band_is_found_by_the_second(fills):
    rng = random.Random(40)
    core = ["x" * rng.randint(80, 160) for _ in range(150)]
    # 30 source-only paragraphs first and 30 target-only last pull the path off the diagonal.
    src = ["s" * 400] * 30 + core
    tgt = [p + "y" * rng.randint(0, 9) for p in core] + ["t" * 200] * 30
    got = align_gale_church(src, tgt, P)
    assert _link_bits(got) == _reference_align(src, tgt, P)
    first, second = fills
    assert first == galechurch._FIRST_WIDTH < second < len(src)
    offsets = [l.src_pars[0] - l.tgt_pars[0] for l in got.links if l.arity == (1, 1)]
    assert max(map(abs, offsets)) > first


def test_priors_that_make_shifts_cheap_take_the_whole_grid(fills):
    # u = min(-ln 0.01, -ln 0.05 / 2) = 1.50 and s = -ln 0.15 - u = 0.40 <= u / 2: no band is proven.
    priors = {(1, 1): 0.01, (1, 0): 0.3, (0, 1): 0.3, (2, 1): 0.15, (1, 2): 0.15, (2, 2): 0.05}
    params = GCParams(arity_priors=priors, skip_delta=0.0)
    pair = corrupted_pair(random.Random(3), 100)
    got = align_gale_church(pair.src_pars, pair.tgt_pars, params)
    assert _link_bits(got) == _reference_align(pair.src_pars, pair.tgt_pars, params)
    assert fills == [None]
    align_gale_church(pair.src_pars, pair.tgt_pars, P)
    assert fills[1] is not None


# A first band that would hold more than half the grid is not tried.
@pytest.mark.parametrize(
    "n, m, banded",
    [(0, 0, False), (0, 30, False), (30, 0, False), (1, 1, False), (1, 30, False), (30, 1, False),
     (17, 80, False), (90, 20, False), (20, 20, False), (200, 170, True), (170, 200, True)],
)
def test_empty_single_and_lopsided_documents_match_reference(n, m, banded, fills):
    rng = random.Random(n * 1000 + m)
    src = ["x" * rng.randint(20, 200) for _ in range(n)]
    tgt = ["y" * rng.randint(20, 200) for _ in range(m)]
    got = align_gale_church(src, tgt, P)
    assert _link_bits(got) == _reference_align(src, tgt, P)
    assert (fills[0] is not None) == banded


def test_corrupted_pair_of_300_paragraphs_matches_reference(fills):
    pair = corrupted_pair(random.Random(23), 300)
    got = align_gale_church(pair.src_pars, pair.tgt_pars, P)
    assert _link_bits(got) == _reference_align(pair.src_pars, pair.tgt_pars, P)
    assert None not in fills
