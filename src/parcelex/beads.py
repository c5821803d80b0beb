"""Alignment beads: links pairing source and target paragraph runs.

A link of arity a-b pairs a contiguous source paragraphs with b contiguous
target paragraphs; 1-0 and 0-1 links carry unmatched paragraphs.  A
document's links are monotone and jointly cover every paragraph of both
sides exactly once.  ``monotone_dp`` finds the cheapest such segmentation
for both aligners.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .celex import CelexId


@dataclass(frozen=True)
class AlignmentLink:
    arity: tuple[int, int]
    src_pars: tuple[int, ...]
    tgt_pars: tuple[int, ...]
    score: float | None = field(default=None, compare=False)

    def __post_init__(self):
        a, b = self.arity
        if a < 0 or b < 0 or (a, b) == (0, 0):
            raise ValueError(f"bad arity {self.arity}")
        if len(self.src_pars) != a or len(self.tgt_pars) != b:
            raise ValueError(
                f"arity {a}-{b} inconsistent with {self.src_pars}/{self.tgt_pars}"
            )
        for pars in (self.src_pars, self.tgt_pars):
            if any(q != p + 1 for p, q in zip(pars, pars[1:])):
                raise ValueError(f"paragraph numbers must be contiguous: {pars}")

    @property
    def arity_label(self) -> str:
        return f"{self.arity[0]}-{self.arity[1]}"


@dataclass(frozen=True)
class BitextAlignment:
    celex: CelexId | None
    src_lang: str
    tgt_lang: str
    links: tuple[AlignmentLink, ...]


def links_cover(links, n_src: int, n_tgt: int, first_src: int = 1, first_tgt: int = 1) -> bool:
    """True iff links are monotone and cover both sides exactly once."""
    want_src = first_src
    want_tgt = first_tgt
    for link in links:
        for p in link.src_pars:
            if p != want_src:
                return False
            want_src += 1
        for p in link.tgt_pars:
            if p != want_tgt:
                return False
            want_tgt += 1
    return want_src == first_src + n_src and want_tgt == first_tgt + n_tgt


def parse_arity(label: str) -> tuple[int, int]:
    """Parse an ``a-b`` arity label."""
    a, _, b = label.partition("-")
    return int(a), int(b)


def monotone_dp(n: int, m: int, moves, row_beads):
    """Cheapest monotone path of beads from (0, 0) to (n, m), as ``(move, i, j, bead)`` steps.

    ``moves`` lists the arities ``(a, b)`` in tie-break order: of equally
    cheap choices the earlier move wins.  ``row_beads(i)`` maps each move
    that fits at source position i to its bead costs indexed by target
    position j, for j = 0 .. m - b; every cell but (n, m) needs a move that
    fits.  Rows are filled from the end, and only the path costs of rows
    i .. i + max a are kept; each cell's chosen move and bead are kept for
    the traceback.  Bead lists and path-cost rows are padded with ``inf``
    up to j + b, so a move that runs past m simply never wins a cell and
    the fill needs no bounds test; a cell looks up its bead again only
    when a move beats the best so far.
    """
    inf = math.inf
    depth = max((a for a, _ in moves), default=0)
    width = m + 1 + max((b for _, b in moves), default=0)
    cost: dict[int, list[float]] = {}
    chosen_move = [None] * (n + 1)
    chosen_bead = [None] * (n + 1)
    for i in range(n, -1, -1):
        row = [inf] * width
        beads = row_beads(i)
        # (bead costs padded to m + 1, path costs of the row the move lands on, b, move)
        options = [
            (beads[(a, b)] + [inf] * b, cost[i + a] if a else row, b, (a, b))
            for a, b in moves if (a, b) in beads
        ]
        move_row = chosen_move[i] = [None] * (m + 1)
        bead_row = chosen_bead[i] = [None] * (m + 1)
        if i == n:
            row[m] = 0.0
        for j in range(m - 1 if i == n else m, -1, -1):
            best, best_move = inf, None
            for costs, landing, b, move in options:
                c = costs[j] + landing[j + b]
                if c < best:
                    best, best_move, best_bead = c, move, costs[j]
            row[j], move_row[j], bead_row[j] = best, best_move, best_bead
        cost[i] = row
        cost.pop(i + depth, None)

    steps = []
    i = j = 0
    while i < n or j < m:
        move = chosen_move[i][j]
        steps.append((move, i, j, chosen_bead[i][j]))
        i, j = i + move[0], j + move[1]
    return steps


def steps_to_links(steps, first_src: int, first_tgt: int) -> list[AlignmentLink]:
    """Links of ``(move, i, j, score)`` steps, numbering paragraphs from first_src/first_tgt."""
    return [
        AlignmentLink(
            arity=(a, b),
            src_pars=tuple(range(first_src + i, first_src + i + a)),
            tgt_pars=tuple(range(first_tgt + j, first_tgt + j + b)),
            score=score,
        )
        for (a, b), i, j, score in steps
    ]
