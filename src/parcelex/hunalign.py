"""Similarity-driven paragraph aligner with lexicon bootstrapping.

Runs in three phases per language pair: a first alignment pass scored on
length ratio, identical-word ratio and number-token overlap; automatic
construction of a bilingual lexicon from a random sample of the 1-1 links
found; and a second alignment pass that adds lexicon evidence to the
similarity.  Unlike the length-based aligner this one never produces 2-2
beads but can split one paragraph into up to ``max_split`` counterparts.

Every bead scores exactly what ``segment_similarity`` returns for its
merged segments, but the dynamic program builds no merged segments.  Each
document is tokenized once per pair into a ``PreparedDocument``: for every
run of up to ``max_split`` paragraphs it holds the text length, the token
types and number tokens as integer bitsets, and their counts.  The two
sides of a document share one token-to-bit vocabulary, so a shared type is
a shared bit and ``(a & b).bit_count()`` is the size of the intersection.
Phase 1, the lexicon bootstrap and phase 3 all read the same prepared
documents.  The lexicon share of a whole source row of beads is summed at
once from per-token columns of best translation weights, built once per
document pair from a postings map of the target types and cached with the
token's maxima over runs of target paragraphs (see ``_LexiconRows``), so
the lexicon pass costs a few times the first pass.
"""

from __future__ import annotations

import random
import re
from collections import Counter
from dataclasses import dataclass
from itertools import product
from operator import add, or_
from pathlib import Path

from .beads import BitextAlignment, monotone_dp, steps_to_alignment
from .celex import CelexId
from .errors import ParcelexError
from .params import HunParams

_TOKEN_RE = re.compile(r"\d+(?:[.,]\d+)*|[^\W\d_]+")
_NUMERIC_RE = re.compile(r"^\d")


@dataclass(frozen=True)
class TokenizedSegment:
    tokens: tuple[str, ...]
    number_tokens: frozenset[str]
    length: int


def tokenize(text: str) -> TokenizedSegment:
    """Lowercase and split on whitespace/punctuation; digit runs become number tokens."""
    tokens = tuple(_TOKEN_RE.findall(text.lower()))
    numbers = frozenset(t for t in tokens if _NUMERIC_RE.match(t))
    return TokenizedSegment(tokens=tokens, number_tokens=numbers, length=len(text))


def merge_segments(segments) -> TokenizedSegment:
    """Concatenation of segments (joined with single spaces)."""
    segments = list(segments)
    if len(segments) == 1:
        return segments[0]
    return TokenizedSegment(
        tokens=tuple(t for s in segments for t in s.tokens),
        number_tokens=frozenset().union(*(s.number_tokens for s in segments)),
        length=sum(s.length for s in segments) + len(segments) - 1,
    )


@dataclass
class Lexicon:
    """Bilingual token-pair association weights bootstrapped from 1-1 links.

    ``build_lexicon`` makes every weight lie in (0, 1]; the aligner's
    scoring relies on them being nonnegative.
    """

    entries: dict[tuple[str, str], float]

    def __post_init__(self):
        by_src: dict[str, dict[str, float]] = {}
        for (s, t), w in self.entries.items():
            by_src.setdefault(s, {})[t] = w
        self._by_src = by_src

    def translations(self, src_token: str) -> dict[str, float]:
        return self._by_src.get(src_token, {})

    def __len__(self):
        return len(self.entries)


def _jaccard(a, b) -> float:
    if not a and not b:
        return 1.0
    shared = len(a & b)
    return shared / (len(a) + len(b) - shared)


def _dice(a, b) -> float:
    if not a and not b:
        return 0.0
    return 2 * len(a & b) / (len(a) + len(b))


def identical_word_ratio(s: TokenizedSegment, t: TokenizedSegment) -> float:
    """Dice ratio of shared token types; 0 when both segments are empty."""
    return _dice(set(s.tokens), set(t.tokens))


def _length_score(l1: int, l2: int) -> float:
    if l1 == 0 and l2 == 0:
        return 1.0
    return min(l1, l2) / max(l1, l2)


def _lexicon_score(s: TokenizedSegment, t: TokenizedSegment, lexicon: Lexicon) -> float:
    if not s.tokens or not lexicon.entries:
        return 0.0
    t_types = set(t.tokens)
    total = 0.0
    for token in s.tokens:
        translations = lexicon.translations(token)
        if translations:
            total += max((translations.get(tt, 0.0) for tt in t_types), default=0.0)
    return total / len(s.tokens)


def segment_similarity(
    s: TokenizedSegment,
    t: TokenizedSegment,
    lexicon: Lexicon | None = None,
    params: HunParams | None = None,
) -> float:
    """Convex combination of length, identical-word, number and lexicon evidence.

    Without a lexicon the remaining three weights are renormalized to sum
    to 1, so a pair of identical segments still scores 1.0.
    """
    params = params or HunParams()
    base = (
        params.w_length * _length_score(s.length, t.length)
        + params.w_identical * identical_word_ratio(s, t)
        + params.w_number * _jaccard(s.number_tokens, t.number_tokens)
    )
    if lexicon is None:
        scale = params.w_length + params.w_identical + params.w_number
        return base / scale if scale > 0 else 0.0
    return base + params.w_lexicon * _lexicon_score(s, t, lexicon)


def _moves(max_split: int):
    moves = [(1, 1), (1, 0), (0, 1)]
    for k in range(2, max_split + 1):
        moves.append((k, 1))
        moves.append((1, k))
    return tuple(moves)


def _bitsets(seg: TokenizedSegment, vocabulary: dict[str, int]) -> tuple[int, int]:
    """(type bitset, number bitset) of a segment; unseen tokens get the next free bit."""
    types = numbers = 0
    for token in seg.tokens:
        bit = vocabulary.get(token)
        if bit is None:
            bit = vocabulary[token] = 1 << len(vocabulary)
        types |= bit
        if token in seg.number_tokens:
            numbers |= bit
    return types, numbers


class PreparedDocument:
    """A document's paragraphs tokenized once, in the form the bead scores read.

    ``tokens[i]`` and ``types[i]`` are paragraph i's tokens and token types.
    ``runs[k]`` holds five columns over the runs of k consecutive paragraphs,
    indexed by the run's first paragraph: text length (paragraphs joined by
    single spaces), type bitset, type count, number bitset and number
    count; ``token_counts[k]`` is a sixth.  Each k-run extends the run one
    shorter by one paragraph, with ``|`` on bitsets and ``+`` on lengths and
    token counts, so these are exactly the features of
    ``merge_segments(segs[i:i+k])``.  Bits come from ``vocabulary``, which
    both sides of a document must share.
    """

    def __init__(self, texts, vocabulary: dict[str, int], max_split: int):
        segs = [tokenize(text) for text in texts]
        self.tokens = [s.tokens for s in segs]
        self.types = [frozenset(s.tokens) for s in segs]
        bits = [_bitsets(s, vocabulary) for s in segs]
        one = ([s.length for s in segs], [b for b, _ in bits], [b for _, b in bits],
               [len(t) for t in self.tokens])
        lengths, types, numbers, counts = one
        self.runs: dict[int, tuple[list[int], ...]] = {}
        self.token_counts: dict[int, list[int]] = {}
        for k in range(1, max_split + 1):
            if k > 1:  # the (k-1)-runs, each extended by the paragraph after it
                lengths = [a + 1 + b for a, b in zip(lengths, one[0][k - 1 :])]
                types = list(map(or_, types, one[1][k - 1 :]))
                numbers = list(map(or_, numbers, one[2][k - 1 :]))
                counts = list(map(add, counts, one[3][k - 1 :]))
            type_counts = [b.bit_count() for b in types]
            self.runs[k] = (lengths, types, type_counts, numbers, [b.bit_count() for b in numbers])
            self.token_counts[k] = counts

    def __len__(self):
        return len(self.tokens)


def prepare_pair(src_pars, tgt_pars, max_split: int) -> tuple[PreparedDocument, PreparedDocument]:
    """Both sides of one document over one fresh vocabulary; prepared sides are returned as given."""
    if isinstance(src_pars, PreparedDocument):
        return src_pars, tgt_pars
    vocabulary: dict[str, int] = {}
    return (
        PreparedDocument(src_pars, vocabulary, max_split),
        PreparedDocument(tgt_pars, vocabulary, max_split),
    )


def _add_columns(totals: list[float], columns) -> list[float]:
    """Add each of ``columns`` into ``totals`` elementwise, one column after another."""
    for column in columns:
        totals = list(map(add, totals, column))
    return totals


class _LexiconRows:
    """Lexicon scores of every bead that starts at one source paragraph.

    ``columns(token)[b]`` holds, for each target position j, the token's
    best translation weight among the types of target paragraphs
    j .. j+b-1 (0.0 where none of them holds a translation).  Each token's
    columns are built once per document pair: the width-1 column from a
    postings map of target types to the paragraphs holding them, and each
    wider one as the elementwise max of the column one narrower and the
    width-1 column shifted, which with nonnegative weights is the best over
    the run.  A merged source's tokens are its paragraphs' tokens in order,
    so every bead's sum is built by adding columns token by token: at each
    target position this is the same sequence of ``+=`` that
    ``_lexicon_score`` performs on the merged segments, which gives the
    same bits (a 0.0 added where the reference adds -0.0 leaves the same
    sum, since every sum starts at 0.0).
    """

    def __init__(self, src: PreparedDocument, tgt: PreparedDocument, lexicon: Lexicon,
                 max_split: int):
        self._translations = lexicon.translations
        self._tokens = [[t for t in tokens if self._translations(t)] for tokens in src.tokens]
        self._counts = src.token_counts
        self._m = len(tgt)
        self._postings: dict[str, list[int]] = {}  # target type -> paragraphs holding it
        for j, types in enumerate(tgt.types):
            for t in types:
                self._postings.setdefault(t, []).append(j)
        self._columns: dict[str, list[list[float] | None]] = {}
        self._max_split = max_split

    def columns(self, token: str) -> list[list[float] | None]:
        cols = self._columns.get(token)
        if cols is None:
            translations, postings = self._translations(token), self._postings
            single = [0.0] * self._m
            for t in translations.keys() & postings.keys():
                w = translations[t]
                for j in postings[t]:
                    if w > single[j]:
                        single[j] = w
            cols = self._columns[token] = [None, single]
            for b in range(2, self._max_split + 1):
                cols.append(list(map(max, cols[-1], single[b - 1 :])))
        return cols

    def row(self, i: int) -> dict[tuple[int, int], list[float]]:
        """Per move ``(a, b)`` from source paragraph i, the lexicon score at each target j."""
        n, m = len(self._tokens), self._m
        token_columns = [self.columns(t) for t in self._tokens[i]]
        sums = {}
        for b in range(1, self._max_split + 1):
            sums[(1, b)] = _add_columns([0.0] * (m - b + 1), (c[b] for c in token_columns))
        for a in range(2, min(self._max_split, n - i) + 1):
            sums[(a, 1)] = _add_columns(
                sums[(a - 1, 1)], (self.columns(t)[1] for t in self._tokens[i + a - 1])
            )
        scores = {}
        for (a, b), totals in sums.items():
            count = self._counts[a][i]
            scores[(a, b)] = [x / count for x in totals] if count else [0.0] * len(totals)
        return scores


def similarity_align(
    src_pars,
    tgt_pars,
    lexicon: Lexicon | None = None,
    params: HunParams | None = None,
    celex: CelexId | None = None,
    src_lang: str = "",
    tgt_lang: str = "",
    first_src: int = 1,
    first_tgt: int = 1,
) -> BitextAlignment:
    """Maximal total-similarity monotone alignment over 1-1, 1-0, 0-1, k-1, 1-k.

    ``src_pars`` and ``tgt_pars`` are paragraph texts, or the two
    ``PreparedDocument`` sides that ``prepare_pair`` made of them.  Every
    bead scores exactly what ``segment_similarity`` gives its merged
    segments; a whole source row of bead scores is computed at once.
    """
    params = params or HunParams()
    src, tgt = prepare_pair(src_pars, tgt_pars, params.max_split)
    n, m = len(src), len(tgt)
    moves = _moves(params.max_split)
    lexicon_rows = None if lexicon is None else _LexiconRows(src, tgt, lexicon, params.max_split)
    w_length, w_identical, w_number, w_lexicon = (
        params.w_length, params.w_identical, params.w_number, params.w_lexicon
    )
    scale = w_length + w_identical + w_number

    # monotone_dp minimizes negated similarities (a skip scores -skip_penalty);
    # negation is exact, so the path, its ties and the scores are unchanged.
    # A bead's base is segment_similarity's three terms summed in the same
    # order from the same ints: min/max of the lengths, Dice of the types
    # and Jaccard of the numbers, with popcounts for set sizes.  The fill
    # covers the whole grid, so every row is priced over lo = 0 .. hi = m.
    def row_beads(i, lo, hi):
        beads = {(0, 1): [params.skip_penalty] * m}
        if i == n:
            return beads
        beads[(1, 0)] = [params.skip_penalty] * (m + 1)
        lex = None if lexicon_rows is None else lexicon_rows.row(i)
        for a, b in moves:
            if a == 0 or b == 0 or i + a > n:
                continue
            sl, st, stc, sn, snc = (col[i] for col in src.runs[a])
            base = [
                w_length * (sl / tl if sl < tl else tl / sl if tl < sl else 1.0)
                + w_identical * (2 * (st & tt).bit_count() / (stc + ttc) if stc + ttc else 0.0)
                + w_number * (
                    (shared := (sn & tn).bit_count()) / (snc + tnc - shared) if snc + tnc else 1.0
                )
                for tl, tt, ttc, tn, tnc in zip(*tgt.runs[b])
            ]
            if lex is not None:
                beads[(a, b)] = [-(x + w_lexicon * y) for x, y in zip(base, lex[(a, b)])]
            elif scale > 0:
                beads[(a, b)] = [-(x / scale) for x in base]
            else:
                beads[(a, b)] = [-0.0] * len(base)
        return beads

    steps, _ = monotone_dp(n, m, moves, row_beads)
    alignment = steps_to_alignment(
        [(move, i, j, -bead) for move, i, j, bead in steps], n, m,
        celex, src_lang, tgt_lang, first_src, first_tgt,
    )
    assert all(link.arity != (2, 2) for link in alignment.links)
    return alignment


def build_lexicon(
    phase1_alignments,
    prepared: dict,
    params: HunParams | None = None,
    first_n: int = 1,
) -> Lexicon:
    """Bootstrap a lexicon from a uniform sample of 1-1 links.

    Token pairs are scored with a squared-co-occurrence ratio,
    cooc(s,t)^2 / (count(s) * count(t)), counting each token once per
    sampled pair; pairs seen fewer than ``min_cooc`` times are dropped.
    ``prepared`` maps each celex to the two ``PreparedDocument`` sides
    that ``prepare_pair`` made of it.
    """
    params = params or HunParams()
    one_to_one = []
    for alignment in phase1_alignments:
        for link in alignment.links:
            if link.arity == (1, 1):
                one_to_one.append((alignment.celex, link.src_pars[0], link.tgt_pars[0]))
    if not one_to_one:
        raise ParcelexError("phase 1 produced no 1-1 links to sample")

    rng = random.Random(params.rng_seed)
    k = min(params.sample_size, len(one_to_one))
    sampled = rng.sample(one_to_one, k)

    src_counts: Counter = Counter()
    tgt_counts: Counter = Counter()
    sampled_types = []
    for celex, src_n, tgt_n in sampled:
        src, tgt = prepared[celex]
        src_types = src.types[src_n - first_n]
        tgt_types = tgt.types[tgt_n - first_n]
        src_counts.update(src_types)
        tgt_counts.update(tgt_types)
        sampled_types.append((src_types, tgt_types))

    # A pair co-occurs at most as often as each of its types, so only types seen
    # min_cooc times are paired. Pairs keep the order in which they first occur.
    min_cooc = params.min_cooc
    cooc: Counter = Counter()
    for src_types, tgt_types in sampled_types:
        cooc.update(product(
            [s for s in src_types if src_counts[s] >= min_cooc],
            [t for t in tgt_types if tgt_counts[t] >= min_cooc],
        ))
    entries = {
        (s, t): min(1.0, c * c / (src_counts[s] * tgt_counts[t]))
        for (s, t), c in cooc.items()
        if c >= min_cooc
    }
    return Lexicon(entries=entries)


def align_hunalign(
    src_docs: dict,
    tgt_docs: dict,
    params: HunParams | None = None,
    src_lang: str = "",
    tgt_lang: str = "",
    first_n: int = 1,
) -> tuple[list[BitextAlignment], Lexicon]:
    """Run the three phases over documents paired by celex; return (alignments, lexicon).

    ``src_docs`` and ``tgt_docs`` map celex to paragraph-text sequences;
    only celexes present on both sides are aligned.  Each document pair is
    prepared once and read by all three phases.
    """
    params = params or HunParams()
    celexes = sorted(set(src_docs) & set(tgt_docs))
    prepared = {c: prepare_pair(src_docs[c], tgt_docs[c], params.max_split) for c in celexes}

    def align_all(lex):
        return [
            similarity_align(
                *prepared[c], lex, params,
                celex=c, src_lang=src_lang, tgt_lang=tgt_lang,
                first_src=first_n, first_tgt=first_n,
            )
            for c in celexes
        ]

    lexicon = build_lexicon(align_all(None), prepared, params, first_n)
    return align_all(lexicon), lexicon


def save_lexicon(lexicon: Lexicon, path) -> None:
    """Write ``src\\ttgt\\tweight`` lines, heaviest first."""
    text = "".join(
        f"{s}\t{t}\t{w!r}\n"
        for (s, t), w in sorted(lexicon.entries.items(), key=lambda kv: (-kv[1], kv[0]))
    )
    Path(path).write_text(text, encoding="utf-8")
