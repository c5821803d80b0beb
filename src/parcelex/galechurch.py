"""Length-based dynamic-programming paragraph aligner.

Each candidate bead (arity 1-1, 1-0, 0-1, 2-1, 1-2 or 2-2) is priced as
the negative log probability of the length discrepancy between its two
sides plus the negative log prior of its arity; the aligner minimizes the
total bead cost over all monotone segmentations.  ``exhaustive_align``
searches the same space by enumeration and serves as an oracle for the
dynamic program.

The dynamic program prices beads from tables built once per document
pair (see ``_dp_block``) and gives every bead exactly the bits that
``bead_cost`` gives it.

It fills only a band around the diagonal, once a lower bound on bead
costs proves that the band holds the cheapest path of the whole grid.
A match bead costs ``-ln erfc(z) - ln p(a, b)``, and ``-ln erfc(z)`` is
never negative (its asymptotic branch is positive), so every bead costs
at least beta(a, b) = -ln p(a, b), plus the fixed skip cost on a 1-0 or
0-1 bead.  Let u = min(beta(1, 1), beta(2, 2) / 2) and, over the shift
moves 1-0, 0-1, 2-1 and 1-2, s = min(beta(a, b) - u * min(a, b)).  A
path with K shift beads covers (n + m - K) / 2 pairs in its min(a, b),
so it costs at least u * (n + m - K) / 2 + K * s, which grows with K
when s > u / 2.  With D = |n - m|, the band of half-width w holds every
cell with min(0, n - m) - w <= i - j <= max(0, n - m) + w, and a path
that leaves it has K >= D + 2 * (w + 1), since a diagonal bead keeps
i - j and a shift bead moves it by one.  So if the band's own optimum C
satisfies C + 1e-9 * (C + 1) < u * (n + m - K) / 2 + K * s at that K,
every path that leaves the band costs more than C, so the whole grid's
cheapest path lies in the band, and ``monotone_dp`` then gives its
steps bit for bit.  The margin covers the few roundings in the bound
and the rounding of a float sum of n + m non-negative beads, at most
(n + m) * 2**-53 of it, while n + m stays below a few million.
"""

from __future__ import annotations

import math
from itertools import accumulate

from .beads import BitextAlignment, monotone_dp, steps_to_alignment
from .celex import CelexId
from .errors import InstanceTooLargeError, UnsupportedArityError
from .params import CHARACTERS, DEFAULT_PRIORS, GCParams

# The six bead types in tie-break order.
ARITY_PREFERENCE = tuple(DEFAULT_PRIORS)

EXHAUSTIVE_MAX_PARS = 20

# Half-width of the first band _dp_block fills around the diagonal: near-parallel
# documents of a few hundred paragraphs are mostly proven in this one pass.
_FIRST_WIDTH = 16

_SQRT2 = math.sqrt(2.0)
_SQRT_PI = math.sqrt(math.pi)


def segment_length(text: str, unit: str = CHARACTERS) -> int:
    return len(text) if unit == CHARACTERS else len(text.split())


def length_delta(l1: float, l2: float, params: GCParams) -> float:
    """Standardized length discrepancy of a target segment against a source one."""
    return (l2 - l1 * params.mean_ratio) / math.sqrt(max(l1, 1) * params.variance)


def _match_cost(delta: float) -> float:
    # -ln 2*(1 - Phi(|delta|)) == -ln erfc(|delta| / sqrt 2), with an
    # asymptotic fallback where erfc underflows.
    z = abs(delta) / _SQRT2
    p = math.erfc(z)
    if p > 0.0:
        return -math.log(p)
    return z * z + math.log(z * _SQRT_PI)


def _match_costs(l1: int, l2s, log_prior: float, params: GCParams) -> list[float]:
    """``_match_cost(length_delta(l1, l2, params)) - log_prior`` for each l2, bit for bit.

    The same expressions on the same floats, batched: one list of z for
    the whole of ``l2s``, then ``erfc`` mapped over it in C.
    """
    shift = l1 * params.mean_ratio
    scale = math.sqrt(max(l1, 1) * params.variance)
    zs = [abs((l2 - shift) / scale) / _SQRT2 for l2 in l2s]
    log = math.log
    return [
        -log(p) - log_prior if p > 0.0 else z * z + log(z * _SQRT_PI) - log_prior
        for z, p in zip(zs, map(math.erfc, zs))
    ]


def bead_cost(src_lengths, tgt_lengths, arity: tuple[int, int], params: GCParams) -> float:
    """Cost of one bead; lower is better and always positive."""
    prior = params.arity_priors.get(tuple(arity))
    if prior is None:
        raise UnsupportedArityError(f"unsupported arity {arity[0]}-{arity[1]}")
    a, b = arity
    if len(src_lengths) != a or len(tgt_lengths) != b:
        raise ValueError("segment counts do not match the arity")
    if a == 0 or b == 0:
        return -math.log(prior) + _match_cost(params.skip_delta)
    delta = length_delta(sum(src_lengths), sum(tgt_lengths), params)
    return _match_cost(delta) - math.log(prior)


def _lengths(paragraphs, params: GCParams) -> list[int]:
    return [segment_length(t, params.length_unit) for t in paragraphs]


def _dp_block(src_lengths, tgt_lengths, params: GCParams):
    """Minimal-cost monotone segmentation of two length sequences, as ``monotone_dp`` steps.

    Beads cost exactly what ``bead_cost`` gives them, priced from tables
    that live as long as this call.  For each target run width b, the
    distinct run lengths are sorted once and every b-run is mapped to its
    index among them.  For each match move and source run length l1, one
    flat list holds ``cost - log prior`` for every distinct b-run length,
    priced in one batch by ``_match_costs``.  A row's beads are then that
    list read at the row's indices, so rows share their floats instead of
    making new ones.

    The fill covers only a band around the diagonal that the bound in the
    module docstring proves to hold the whole grid's cheapest path, so the
    steps and their bits are those of the full fill.  A band of half-width
    ``_FIRST_WIDTH`` is filled first.  If its cost does not prove it, the
    band as wide as that cost requires is filled next; it cannot cost
    more, so its own cost proves it.  The whole grid is filled instead
    where the bound proves nothing (s <= u / 2, which priors can give),
    where the first band would hold more than half the grid's cells, or
    where the band the cost requires is the whole grid.
    """
    n, m = len(src_lengths), len(tgt_lengths)
    moves = [(a, b) for a, b in ARITY_PREFERENCE if a <= n and b <= m]
    log_prior = {move: math.log(params.arity_priors[move]) for move in moves}
    skip = _match_cost(params.skip_delta)
    src_sums = list(accumulate(src_lengths, initial=0))
    tgt_sums = list(accumulate(tgt_lengths, initial=0))
    distinct: dict[int, list[int]] = {}  # b -> sorted distinct lengths of the b-runs
    runs_at: dict[int, list[int]] = {}  # b -> index into distinct[b] of the b-run at each j
    for b in {b for a, b in moves if a and b}:
        runs = [tgt_sums[j + b] - tgt_sums[j] for j in range(m - b + 1)]
        distinct[b] = sorted(set(runs))
        index = {l2: k for k, l2 in enumerate(distinct[b])}
        runs_at[b] = list(map(index.__getitem__, runs))
    tables: dict[tuple, list[float]] = {}  # (move, l1) -> cost of each of distinct[b]

    def row_beads(i, lo, hi):
        beads = {}
        for move in moves:
            a, b = move
            if i + a > n:
                continue
            end = hi + 1 if hi + b <= m else m - b + 1
            if a == 0 or b == 0:
                beads[move] = [-log_prior[move] + skip] * (end - lo)
                continue
            l1 = src_sums[i + a] - src_sums[i]
            costs = tables.get((move, l1))
            if costs is None:
                costs = tables[(move, l1)] = _match_costs(l1, distinct[b], log_prior[move], params)
            beads[move] = list(map(costs.__getitem__, runs_at[b][lo:end]))
        return beads

    d = n - m

    def band(w):
        below, above = min(0, d) - w, max(0, d) + w  # the band's range of i - j
        return [(max(0, i - above), min(m, i - below)) for i in range(n + 1)]

    w = _FIRST_WIDTH
    spans = band(w)
    # The first band is a guess, filled only where it holds at most half the grid's
    # cells: a band that proves nothing costs its cells on top of the next fill.
    # Such a band is narrower than the grid, so n, m > w and every move fits.
    if 2 * sum(hi - lo + 1 for lo, hi in spans) <= (n + 1) * (m + 1):
        # beta of each move: the least its beads can cost (module docstring).
        beta = {(a, b): -log_prior[(a, b)] + (skip if a == 0 or b == 0 else 0.0) for a, b in moves}
        u = min(beta[(1, 1)], beta[(2, 2)] / 2)
        s = min(beta[(a, b)] - u * min(a, b) for a, b in ((1, 0), (0, 1), (2, 1), (1, 2)))
        # Else no band can be proven; priors may sum to 1 + 1e-9, so u may be just below 0.
        while u >= 0.0 and s > u / 2 and w < min(n, m):
            steps, cost = monotone_dp(n, m, moves, row_beads, spans)
            shifts = abs(d) + 2 * (w + 1)  # the fewest shift beads on a path that leaves the band
            margin = 1e-9 * (cost + 1.0)
            if cost + margin < u * (n + m - shifts) / 2 + shifts * s:
                return steps
            # The K past which the bound exceeds cost + margin, and the w that forces it.
            need = (cost + margin - u * (n + m) / 2) / (s - u / 2)
            w = max(w + 1, math.floor((need - abs(d)) / 2))
            spans = band(w)
    return monotone_dp(n, m, moves, row_beads)[0]


def align_gale_church(
    src_pars,
    tgt_pars,
    params: GCParams | None = None,
    celex: CelexId | None = None,
    src_lang: str = "",
    tgt_lang: str = "",
    first_src: int = 1,
    first_tgt: int = 1,
) -> BitextAlignment:
    """Align two paragraph sequences by minimal total bead cost.

    ``first_src``/``first_tgt`` set the document paragraph number of the
    first element of each sequence.
    """
    params = params or GCParams()
    src_lengths = _lengths(src_pars, params)
    tgt_lengths = _lengths(tgt_pars, params)
    return steps_to_alignment(
        _dp_block(src_lengths, tgt_lengths, params), len(src_lengths), len(tgt_lengths),
        celex, src_lang, tgt_lang, first_src, first_tgt,
    )


def alignment_cost(alignment: BitextAlignment) -> float:
    """Exact total bead cost (order-independent float sum)."""
    return math.fsum(l.score for l in alignment.links)


def exhaustive_align(
    src_pars,
    tgt_pars,
    params: GCParams | None = None,
    celex: CelexId | None = None,
    src_lang: str = "",
    tgt_lang: str = "",
    first_src: int = 1,
    first_tgt: int = 1,
) -> BitextAlignment:
    """Minimum-cost alignment by enumerating every monotone segmentation.

    Oracle for align_gale_church on small instances; the search is cut off
    only where a partial path already exceeds the best complete one, which
    cannot exclude an optimum because every bead cost is positive.
    """
    params = params or GCParams()
    src_lengths = _lengths(src_pars, params)
    tgt_lengths = _lengths(tgt_pars, params)
    n, m = len(src_lengths), len(tgt_lengths)
    if n + m > EXHAUSTIVE_MAX_PARS:
        raise InstanceTooLargeError(f"{n}+{m} paragraphs exceed the {EXHAUSTIVE_MAX_PARS} bound")

    best_steps = None
    best_total = math.inf
    path = []

    def explore(i, j, running):
        nonlocal best_steps, best_total
        if running >= best_total + 1e-9:
            return
        if i == n and j == m:
            total = math.fsum(c for _, _, _, c in path)
            if total < best_total:
                best_total = total
                best_steps = list(path)
            return
        for a, b in ARITY_PREFERENCE:
            ii, jj = i + a, j + b
            if ii > n or jj > m:
                continue
            c = bead_cost(src_lengths[i:ii], tgt_lengths[j:jj], (a, b), params)
            path.append(((a, b), i, j, c))
            explore(ii, jj, running + c)
            path.pop()

    explore(0, 0, 0.0)
    return steps_to_alignment(best_steps, n, m, celex, src_lang, tgt_lang, first_src, first_tgt)
