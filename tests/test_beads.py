import random

import pytest

from parcelex.beads import AlignmentLink, links_cover, monotone_dp


def test_skip_links():
    link = AlignmentLink((5,), ())
    assert link.arity_label == "1-0"
    assert link.tgt_pars == ()


def test_links_cover_detects_gaps_and_overlaps():
    ok = [
        AlignmentLink((1,), (1,)),
        AlignmentLink((2, 3), (2,)),
    ]
    assert links_cover(ok, 3, 2)
    assert not links_cover(ok[:1], 3, 2)
    assert not links_cover(ok + [AlignmentLink((4,), (3,))], 3, 2)
    assert not links_cover([ok[1], ok[0]], 3, 2)  # out of order


def test_links_cover_checks_every_paragraph_of_a_run():
    # Each run starts where the one before it ends, so only the runs' insides are wrong.
    gapped = [AlignmentLink((1, 3), (1,)), AlignmentLink((3,), (2,))]
    repeated = [AlignmentLink((1, 1), (1,)), AlignmentLink((3,), (2,))]
    gapped_target = [AlignmentLink((1,), (1, 3)), AlignmentLink((2, 3), (3,))]
    assert links_cover([AlignmentLink((1, 2), (1,)), AlignmentLink((3,), (2,))], 3, 2)
    assert not links_cover(gapped, 3, 2)
    assert not links_cover(repeated, 3, 2)
    assert not links_cover(gapped_target, 3, 3)


def test_links_cover_with_offsets():
    links = [AlignmentLink((2,), (2,)), AlignmentLink((3,), ())]
    assert links_cover(links, 2, 1, first_src=2, first_tgt=2)


def test_score_ignored_in_equality():
    a = AlignmentLink((1,), (1,), score=0.5)
    b = AlignmentLink((1,), (1,), score=0.9)
    assert a == b


MOVES = ((1, 1), (1, 0), (0, 1), (2, 1), (1, 2))


def _random_beads(rng, n, m):
    """``row_beads`` over a fixed random bead grid, with a few ties."""
    grid = {move: [[rng.choice((0.5, 1.0, rng.random())) for _ in range(m + 1)] for _ in range(n + 1)]
            for move in MOVES}

    def row_beads(i, lo, hi):
        return {(a, b): grid[(a, b)][i][lo : min(hi, m - b) + 1] for a, b in MOVES if i + a <= n}

    return row_beads


def _bits(steps):
    return [(move, i, j, bead.hex()) for move, i, j, bead in steps]


def _ranges_around(rng, steps, n, m, slack):
    """Each row's range over the cells of ``steps`` and (n, m), widened by up to ``slack``."""
    lows, highs = [m] * (n + 1), [0] * (n + 1)
    for _, i, j, _ in [*steps, (None, n, m, None)]:
        lows[i], highs[i] = min(lows[i], j), max(highs[i], j)
    ranges = []
    for lo, hi in zip(lows, highs):
        if lo > hi:  # a row the path jumps over
            lo = hi = rng.randint(0, m)
        ranges.append((max(0, lo - rng.randint(0, slack)), min(m, hi + rng.randint(0, slack))))
    return ranges


def _random_path(rng, n, m):
    steps, i, j = [], 0, 0
    while (i, j) != (n, m):
        a, b = rng.choice([(a, b) for a, b in MOVES if i + a <= n and j + b <= m])
        steps.append(((a, b), i, j, None))
        i, j = i + a, j + b
    return steps


@pytest.mark.parametrize("seed", range(20))
def test_ranges_around_the_full_path_give_its_bits_and_others_never_cost_less(seed):
    rng = random.Random(seed)
    n, m = rng.randint(0, 30), rng.randint(0, 30)
    row_beads = _random_beads(rng, n, m)
    steps, cost = monotone_dp(n, m, MOVES, row_beads)
    total = 0.0
    for *_, bead in reversed(steps):
        total = bead + total
    assert total.hex() == cost.hex()
    banded, banded_cost = monotone_dp(n, m, MOVES, row_beads, _ranges_around(rng, steps, n, m, 3))
    assert _bits(banded) == _bits(steps) and banded_cost.hex() == cost.hex()
    # Ranges around another path hold no cheaper one.
    ranges = _ranges_around(rng, _random_path(rng, n, m), n, m, 2)
    other, other_cost = monotone_dp(n, m, MOVES, row_beads, ranges)
    assert other_cost >= cost
    assert all(ranges[i][0] <= j <= ranges[i][1] for _, i, j, _ in other)
