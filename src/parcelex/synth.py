"""Synthetic near-parallel corpora for benchmarking the aligners.

Two generators: length-preserving nonsense bitexts with controlled
deletion/merge corruption (exercises the length-based aligner), and
planted-dictionary bitexts whose vocabularies are disjoint apart from a
known translation dictionary (exercises lexicon bootstrapping).  Both
return gold links so aligner output can be scored.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .beads import AlignmentLink, BitextAlignment
from .celex import CelexId

_SYLLABLES = (
    "ba be bi bo bu da de di do du ka ke ki ko ku la le li lo lu "
    "ma me mi mo mu na ne ni no nu ra re ri ro ru sa se si so su "
    "ta te ti to tu va ve vi vo vu"
).split()

_ALT_SYLLABLES = (
    "zan zen zin zon zun gar ger gir gor gur pal pel pil pol pul "
    "haf hef hif hof huf wos wes wis wus wys jor jer jir jur jyr"
).split()


def _word(rng: random.Random, syllables, n_syllables=(2, 3)) -> str:
    k = rng.randint(*n_syllables)
    return "".join(rng.choice(syllables) for _ in range(k))


def _nonsense_text(rng: random.Random, length: int) -> str:
    """Nonsense words filling exactly `length` characters."""
    parts = []
    size = 0
    while size < length:
        w = _word(rng, _SYLLABLES)
        parts.append(w)
        size += len(w) + (1 if size else 0)
    text = " ".join(parts)[:length].rstrip()
    return text if text else "x" * length


def _jitter(rng: random.Random, length: float, sigma: float) -> int:
    return max(1, round(length * rng.gauss(1.0, sigma)))


@dataclass(frozen=True)
class SyntheticPair:
    """One synthetic document pair plus its gold alignment links."""

    src_pars: tuple[str, ...]
    tgt_pars: tuple[str, ...]
    gold_links: tuple[AlignmentLink, ...]


def corrupted_pair(
    rng: random.Random,
    n_paragraphs: int,
    p_delete: float = 0.02,
    p_merge: float = 0.05,
    length_sigma: float = 0.06,
    min_len: int = 40,
    max_len: int = 240,
) -> SyntheticPair:
    """Near-parallel pair with controlled corruption.

    Per source position: with p_delete a paragraph exists on only one side
    (coin flip for which), and with p_merge in each direction two
    paragraphs on one side map to one on the other.  Everything else is
    1-1 with target lengths jittered by ``length_sigma``.
    """
    src: list[str] = []
    tgt: list[str] = []
    links: list[AlignmentLink] = []

    def link(a, b):
        s0, t0 = len(src) - a + 1, len(tgt) - b + 1
        links.append(AlignmentLink(tuple(range(s0, s0 + a)), tuple(range(t0, t0 + b))))

    remaining = n_paragraphs
    while remaining > 0:
        r = rng.random()
        length = rng.randint(min_len, max_len)
        if r < p_delete / 2:
            src.append(_nonsense_text(rng, length))
            remaining -= 1
            link(1, 0)
        elif r < p_delete:
            tgt.append(_nonsense_text(rng, length))
            link(0, 1)
        elif r < p_delete + p_merge and remaining >= 2:
            l2 = rng.randint(min_len, max_len)
            src.append(_nonsense_text(rng, length))
            src.append(_nonsense_text(rng, l2))
            tgt.append(_nonsense_text(rng, _jitter(rng, length + l2 + 1, length_sigma)))
            remaining -= 2
            link(2, 1)
        elif r < p_delete + 2 * p_merge:
            src.append(_nonsense_text(rng, length))
            half = max(min_len // 2, length // 2)
            tgt.append(_nonsense_text(rng, _jitter(rng, half, length_sigma)))
            tgt.append(_nonsense_text(rng, _jitter(rng, length - half, length_sigma)))
            remaining -= 1
            link(1, 2)
        else:
            src.append(_nonsense_text(rng, length))
            tgt.append(_nonsense_text(rng, _jitter(rng, length, length_sigma)))
            remaining -= 1
            link(1, 1)
    return SyntheticPair(src_pars=tuple(src), tgt_pars=tuple(tgt), gold_links=tuple(links))


def corrupted_corpus(
    n_docs: int,
    seed: int,
    p_delete: float = 0.02,
    p_merge: float = 0.05,
    min_pars: int = 8,
    max_pars: int = 30,
) -> list[SyntheticPair]:
    rng = random.Random(seed)
    return [
        corrupted_pair(rng, rng.randint(min_pars, max_pars), p_delete, p_merge)
        for _ in range(n_docs)
    ]


@dataclass(frozen=True)
class PlantedBitext:
    """Documents over a known dictionary, keyed by synthetic celex ids."""

    src_docs: dict
    tgt_docs: dict
    gold: dict
    dictionary: dict[str, str]


def _make_vocab(rng: random.Random, syllables, size: int) -> list[str]:
    vocab: list[str] = []
    seen = set()
    while len(vocab) < size:
        w = _word(rng, syllables)
        if w not in seen:
            seen.add(w)
            vocab.append(w)
    return vocab


def planted_bitext(
    n_pairs: int = 1000,
    dict_size: int = 50,
    seed: int = 1960,
    pars_per_doc: int = 20,
    p_delete: float = 0.04,
    p_merge: float = 0.03,
    n_function_words: int = 8,
) -> PlantedBitext:
    """Bitext with `n_pairs` gold 1-1 paragraph pairs over a planted dictionary.

    Source and target vocabularies are disjoint: translation is
    word-by-word through the dictionary, with shuffled-in function words
    on each side and occasional shared number tokens.  Deletions and
    merges corrupt the 1-1 structure at the given rates.
    """
    rng = random.Random(seed)
    src_vocab = _make_vocab(rng, _SYLLABLES, dict_size + n_function_words)
    tgt_vocab = _make_vocab(rng, _ALT_SYLLABLES, dict_size + n_function_words)
    dictionary = dict(zip(src_vocab[:dict_size], tgt_vocab[:dict_size]))
    src_function = src_vocab[dict_size:]
    tgt_function = tgt_vocab[dict_size:]
    content = list(dictionary)

    def sentence_pair():
        k = rng.randint(4, 10)
        words = [rng.choice(content) for _ in range(k)]
        images = [dictionary[w] for w in words]
        s = list(words)
        t = list(images)
        for _ in range(rng.randint(1, 3)):
            s.insert(rng.randrange(len(s) + 1), rng.choice(src_function))
        for _ in range(rng.randint(1, 3)):
            t.insert(rng.randrange(len(t) + 1), rng.choice(tgt_function))
        if rng.random() < 0.25:
            year = str(rng.randint(1958, 2004))
            s.append(year)
            t.append(year)
        return " ".join(s), " ".join(t)

    src_docs: dict = {}
    tgt_docs: dict = {}
    gold: dict = {}
    made = 0
    doc_i = 0
    while made < n_pairs:
        celex = CelexId(3, 1958 + doc_i % 40, "R", f"{doc_i:04d}")
        src: list[str] = []
        tgt: list[str] = []
        links: list[AlignmentLink] = []

        def link(a, b):
            s0, t0 = len(src) - a + 1, len(tgt) - b + 1
            links.append(AlignmentLink(tuple(range(s0, s0 + a)), tuple(range(t0, t0 + b))))

        target_pairs = min(pars_per_doc, n_pairs - made)
        pairs_here = 0
        while pairs_here < target_pairs:
            r = rng.random()
            s_text, t_text = sentence_pair()
            if r < p_delete / 2:
                src.append(s_text)
                link(1, 0)
            elif r < p_delete:
                tgt.append(t_text)
                link(0, 1)
            elif r < p_delete + p_merge and target_pairs - pairs_here >= 2:
                s2, t2 = sentence_pair()
                src.append(s_text)
                src.append(s2)
                tgt.append(t_text + " " + t2)
                link(2, 1)
            elif r < p_delete + 2 * p_merge:
                s2, t2 = sentence_pair()
                src.append(s_text + " " + s2)
                tgt.append(t_text)
                tgt.append(t2)
                link(1, 2)
            else:
                src.append(s_text)
                tgt.append(t_text)
                pairs_here += 1
                link(1, 1)
        src_docs[celex] = src
        tgt_docs[celex] = tgt
        gold[celex] = tuple(links)
        made += pairs_here
        doc_i += 1
    return PlantedBitext(src_docs=src_docs, tgt_docs=tgt_docs, gold=gold, dictionary=dictionary)


def link_f1(predicted, gold) -> float:
    """Link-level F1 of predicted vs gold alignments, compared by pointer identity."""

    def ids(collection):
        out = set()
        for alignment in collection:
            if isinstance(alignment, BitextAlignment):
                for link in alignment.links:
                    out.add((alignment.celex, link.src_pars, link.tgt_pars))
            else:
                celex, links = alignment
                for link in links:
                    out.add((celex, link.src_pars, link.tgt_pars))
        return out

    p_ids = ids(predicted)
    g_ids = ids(gold)
    if not p_ids or not g_ids:
        return 0.0
    tp = len(p_ids & g_ids)
    precision = tp / len(p_ids)
    recall = tp / len(g_ids)
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)
