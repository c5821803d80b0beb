"""Alignment beads: links pairing source and target paragraph runs.

A link of arity a-b pairs a contiguous source paragraphs with b contiguous
target paragraphs; 1-0 and 0-1 links carry unmatched paragraphs.  A
document's links are monotone and jointly cover every paragraph of both
sides exactly once.  ``monotone_dp`` finds the cheapest such segmentation
for both aligners.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

from .celex import CelexId


@dataclass(frozen=True)
class AlignmentLink:
    """Two contiguous paragraph runs, not both empty; ``standoff`` checks the links it reads."""

    src_pars: tuple[int, ...]
    tgt_pars: tuple[int, ...]
    score: float | None = field(default=None, compare=False)

    @property
    def arity(self) -> tuple[int, int]:
        return len(self.src_pars), len(self.tgt_pars)

    @property
    def arity_label(self) -> str:
        return f"{len(self.src_pars)}-{len(self.tgt_pars)}"


@dataclass(frozen=True)
class BitextAlignment:
    celex: CelexId | None
    src_lang: str
    tgt_lang: str
    links: tuple[AlignmentLink, ...]


def links_cover(links, n_src: int, n_tgt: int, first_src: int = 1, first_tgt: int = 1) -> bool:
    """True iff links are monotone and cover both sides exactly once.

    Each run of a link must be the paragraphs that follow the run before it
    on its side, counting up by one.
    """
    want_src, want_tgt = first_src, first_tgt
    for link in links:
        src, tgt = link.src_pars, link.tgt_pars
        if src != tuple(range(want_src, want_src + len(src))):
            return False
        if tgt != tuple(range(want_tgt, want_tgt + len(tgt))):
            return False
        want_src += len(src)
        want_tgt += len(tgt)
    return want_src == first_src + n_src and want_tgt == first_tgt + n_tgt


def monotone_dp(n: int, m: int, moves, row_beads, spans=None):
    """Cheapest monotone path of beads from (0, 0) to (n, m): ``(steps, cost)``.

    ``steps`` lists the path as ``(move, i, j, bead)``; ``cost`` is its
    total, the path cost at (0, 0) as the fill sums it.  ``moves`` lists
    the arities ``(a, b)`` in tie-break order: of equally cheap choices the
    earlier move wins.  ``spans`` is None, for the whole grid, or gives
    each row i its target range ``(lo, hi)``; a cell outside its row's
    range costs ``inf``, and the ranges must hold a path from (0, 0) to
    (n, m).  ``row_beads(i, lo, hi)`` maps each move that fits at source
    position i to its bead costs for j = lo .. min(hi, m - b), indexed
    from lo; every cell but (n, m) needs a move that fits.

    Rows are filled from the end, and only the path costs of rows
    i .. i + max a are kept, each as a full-width row that is ``inf``
    outside its range.  Bead lists and path-cost rows are padded with
    ``inf``, so a move that runs past its row's range or past m simply
    never wins a cell and the fill needs no bounds test; a cell looks up
    its bead again only when a move beats the best so far.  For the
    traceback, each row keeps its cells' chosen moves as byte indices into
    ``moves`` and their beads as packed doubles, both only over its range.

    A range never lowers a cell's cost: float addition and ``min`` are
    monotone, so every cell costs at least what the whole grid gives it.
    Where the whole grid's cheapest path lies inside the ranges, every
    cell on it costs the same bits both ways, each earlier move in
    tie-break order still costs more, and so the steps, their beads and
    the cost are the same bits.
    """
    inf = math.inf
    if spans is None:
        spans = [(0, m)] * (n + 1)
    depth = max((a for a, _ in moves), default=0)
    width = m + 1 + max((b for _, b in moves), default=0)
    compact = bytearray if len(moves) <= 256 else list  # a move index fits a byte
    cost: dict[int, list[float]] = {}
    chosen_move = [None] * (n + 1)
    chosen_bead = [None] * (n + 1)
    packers = {}  # row size -> pack of that many doubles
    best_index = best_bead = 0  # a cell no move reaches keeps stale ones; no path visits it
    for i in range(n, -1, -1):
        lo, hi = spans[i]
        size = hi - lo + 1
        row = [inf] * width
        beads = row_beads(i, lo, hi)
        # (bead costs padded to the range, path costs of the row the move lands on, b, move index)
        options = []
        for index, move in enumerate(moves):
            costs = beads.get(move)
            if costs is not None:
                a, b = move
                costs = costs + [inf] * (size - len(costs))
                options.append((costs, cost[i + a] if a else row, b, index))
        # Lists are written faster than compact arrays; each row is packed once it is filled.
        move_row = [0] * size
        bead_row = [0.0] * size
        if i == n:
            row[m] = 0.0
        for j in range(hi - 1 if i == n else hi, lo - 1, -1):
            k = j - lo
            best = inf
            for costs, landing, b, index in options:
                c = costs[k] + landing[j + b]
                if c < best:
                    best, best_index, best_bead = c, index, costs[k]
            row[j], move_row[k], bead_row[k] = best, best_index, best_bead
        cost[i] = row
        cost.pop(i + depth, None)
        chosen_move[i] = compact(move_row)
        pack = packers.get(size)
        if pack is None:
            pack = packers[size] = struct.Struct(f"{size}d").pack
        chosen_bead[i] = pack(*bead_row)

    steps = []
    i = j = 0
    while i < n or j < m:
        k = j - spans[i][0]
        move = moves[chosen_move[i][k]]
        steps.append((move, i, j, struct.unpack_from("d", chosen_bead[i], 8 * k)[0]))
        i, j = i + move[0], j + move[1]
    return steps, row[0]


def steps_to_alignment(
    steps, n: int, m: int, celex: CelexId | None, src_lang: str, tgt_lang: str,
    first_src: int, first_tgt: int,
) -> BitextAlignment:
    """The alignment of ``(move, i, j, score)`` steps over n source and m target paragraphs.

    Paragraphs are numbered from first_src/first_tgt, and the links must
    cover both sides exactly once, in order.
    """
    links = tuple(
        AlignmentLink(
            src_pars=tuple(range(first_src + i, first_src + i + a)),
            tgt_pars=tuple(range(first_tgt + j, first_tgt + j + b)),
            score=score,
        )
        for (a, b), i, j, score in steps
    )
    assert links_cover(links, n, m, first_src, first_tgt)
    return BitextAlignment(celex=celex, src_lang=src_lang, tgt_lang=tgt_lang, links=links)
