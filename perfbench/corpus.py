"""Seeded synthetic multi-language HTML corpora with their own gold.

Every document is one pivot sequence of meaning units.  Each language
renders a unit with its own syllable inventory; a meaning's word has about
the same length in every language, so paragraph lengths correlate across
languages as the length-based aligner assumes.  Meaning frequencies are
Zipf-like; a few function words and the number tokens are shared by all
languages.  Each language deletes and merges its own body units, and the
gold links of a language pair are the connected groups of paragraphs that
share a unit.

The generator also records what the pipeline should make of the files: the
plain paragraph texts and sections of every document, the documents
planted under a wrong language code, and the EUROVOC descriptors.  The
program sees only the written files.
"""

from __future__ import annotations

import html
import html.entities
import json
import os
import random
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

# Onsets, nuclei and codas per language.  Fixed rather than drawn from the
# seed, so that every seed gives languages equally far apart for the
# n-gram language guesser.
INVENTORIES = {
    "en": ("b c d f g h l m n p r s t w th sh", "a e i o u ea oo", "n r s t"),
    "fr": ("c d l m n p r s t v qu ch", "a e é è i ou eu ai", "n r s"),
    "de": ("b d f g h k l m n r s t w z sch", "a e i o u ä ü ei au", "n r t ch"),
    "it": ("b c d f g l m n p r s t v z gl", "a e i o u ia io", "n l"),
    "es": ("b c d g j l m n p r s t ll ñ", "a e i o u ue ie", "n s l"),
    "nl": ("b d g h k l m n r s t v w z", "a e i o aa ee oo ij ui", "n k t"),
    "pt": ("b c d f g l m n p r s t v lh nh", "a e i o u ão ã õ", "s r"),
    "sv": ("b d f g h j k l m n r s t v sk", "a e i o u å ä ö y", "n k t"),
    "cs": ("b d h k l m n p r s t v z č ř š ž", "a e i o u á é í ě ů y", "k t"),
    "hu": ("b d f g h k l m n r s t v z gy sz zs ny", "a e i o á é ö ő ü ű", "k t z"),
    "pl": ("b c d g k l m n p r s t w z ł sz cz rz", "a e i o u y ą ę ó", "k ł"),
    "ro": ("b c d f g l m n p r s t v ș ț", "a e i o u ă â î ea", "r n"),
}

# Languages of the 2004 joiners, as the selection rule names them.
JOINERS_2004 = frozenset("cs et hu lt lv mt pl sk sl".split())
MIN_LANGUAGES = 10
MIN_JOINERS = 3

SHARED_WORDS = ("ecu", "eec", "per", "ad")
N_MEANINGS = 2000

HEAD, BODY, SIGNATURE, ANNEX = "head", "body", "signature", "annex"
MONTHS = ("January", "February", "March", "April", "May", "June", "July",
          "August", "September", "October", "November", "December")
FIXED_MTIME = 1140436800  # 2006-02-20 12:00 UTC: the manifest's retrieval date


@dataclass(frozen=True)
class Shape:
    """Size and make-up of one workload's corpus."""

    languages: tuple[str, ...]
    n_docs: int
    body_units: tuple[int, int]  # spread evenly over the documents
    unit_tokens: tuple[int, int]  # spread evenly over each document's units
    p_delete: float = 0.03
    p_merge: float = 0.05
    signatures: bool = False
    missing: bool = False
    planted: int = 0


@dataclass
class Document:
    """One (celex, lang) document as written, and what normalize must make of it."""

    celex: str
    lang: str
    text_lang: str
    paragraphs: list[str]
    sections: list[str]
    units: list[tuple[int, ...]]


@dataclass
class Corpus:
    languages: tuple[str, ...]
    docs: dict[tuple[str, str], Document]
    planted: set[tuple[str, str]]
    eurovoc: dict[str, list[int]]
    gold: dict[tuple[str, str], dict[str, set]] = field(default_factory=dict)
    training: dict[str, str] = field(default_factory=dict)

    @property
    def celexes(self) -> list[str]:
        return sorted({c for c, _ in self.docs})


def _word_length(rank: int, lang_index: int) -> int:
    """Characters in one language's word for a meaning; frequent meanings are shorter.

    Fixed by rank rather than drawn from the seed, so corpus sizes do not
    change with the seed; the language shifts it by at most one character.
    """
    base = 2 + rank % 3 if rank < 20 else 4 + rank % 4 if rank < 200 else 5 + rank % 6
    return base + (rank * 7 + lang_index * 3) % 3 - 1 + (rank < 20)


def _lexicon(rng: random.Random, lang: str, lang_index: int) -> list[str]:
    onsets, nuclei, codas = (s.split() for s in INVENTORIES[lang])
    seen = set(SHARED_WORDS)
    words = []
    for rank in range(N_MEANINGS):
        length = _word_length(rank, lang_index)
        while True:
            word = ""
            while len(word) < length:
                word += rng.choice(onsets) + rng.choice(nuclei)
                if rng.random() < 0.2:
                    word += rng.choice(codas)
            word = word[:length]
            if word not in seen:
                break
        seen.add(word)
        words.append(word)
    return words


class _Pivot:
    """Meaning-unit sampler shared by all languages of one corpus."""

    def __init__(self, rng: random.Random, languages):
        self.rng = rng
        self.words = {lang: _lexicon(rng, lang, i) for i, lang in enumerate(sorted(INVENTORIES))
                      if lang in languages}
        self.cum_weights = []
        total = 0.0
        for rank in range(N_MEANINGS):
            total += 1.0 / (rank + 2.7)
            self.cum_weights.append(total)

    def unit(self, k: int, shared: bool = False, number: bool = False) -> tuple:
        """A unit of ``k`` meanings, plus one shared function word and/or number token."""
        rng = self.rng
        tokens: list = rng.choices(range(N_MEANINGS), cum_weights=self.cum_weights, k=k)
        if shared:
            tokens.insert(rng.randrange(len(tokens) + 1), rng.choice(SHARED_WORDS))
        if number:
            token = rng.choice((str(rng.randint(1958, 2004)), str(rng.randint(1, 99)),
                                f"{rng.randint(1, 9)}.{rng.randint(1, 9)}"))
            tokens.insert(rng.randrange(len(tokens) + 1), token)
        return tuple(tokens)

    def units(self, count: int, n_tokens: tuple[int, int]) -> list[tuple]:
        """``count`` units whose lengths and extra tokens are fixed by the shape, in seeded order."""
        lo, hi = n_tokens
        lengths = [lo + (hi - lo) * j // max(1, count - 1) for j in range(count)]
        self.rng.shuffle(lengths)
        shared = set(self.rng.sample(range(count), round(0.3 * count)))
        numbers = set(self.rng.sample(range(count), round(0.25 * count)))
        return [self.unit(k, j in shared, j in numbers) for j, k in enumerate(lengths)]

    def render(self, tokens, lang: str) -> str:
        words = self.words[lang]
        return " ".join(t if isinstance(t, str) else words[t] for t in tokens)


def _signature_block(rng: random.Random) -> list[str]:
    day, month, year = rng.randint(1, 28), rng.choice(MONTHS), rng.randint(1960, 2004)
    surname = "".join(rng.choice("BDKLMNRST") + rng.choice("AEIOU") for _ in range(3))
    first = rng.choice(("Jacques", "Martin", "Karel", "Anna", "Pierre", "Ingrid"))
    return [f"Done at Brussels, {day} {month} {year}.", "For the Commission",
            f"{first} {surname}", "Member of the Commission"]


def _language_sets(rng: random.Random, shape: Shape) -> list[tuple[set, int]]:
    """Languages of each celex, and how many of them carry a planted wrong-language text.

    With ``shape.missing`` the documents fall into fixed shares of complete,
    short-by-a-few (kept), nine-language (dropped by count), no-Romanian
    with two joiners (dropped by the joiner clause), Romanian with only two
    joiners (kept by the Romanian clause) and ten-language documents whose
    planted text brings them to nine (dropped after the language check).
    """
    langs = set(shape.languages)
    joiners = sorted(langs & JOINERS_2004)
    old = sorted(langs - JOINERS_2004 - {"ro"})
    if not shape.missing:
        return [(set(langs), 0) for _ in range(shape.n_docs)]
    kinds = ["short", "nine", "no_ro", "ro_clause", "ten_planted"]
    plan = []
    for i in range(shape.n_docs):
        kind = kinds[(i // 2) % len(kinds)] if i % 2 else "complete"
        if kind == "complete":
            plan.append((set(langs), 0))
        elif kind == "short":
            plan.append((langs - set(rng.sample(old, len(langs) - MIN_LANGUAGES)), 0))
        elif kind == "nine":
            plan.append((langs - set(rng.sample(old, len(langs) - MIN_LANGUAGES + 1)), 0))
        elif kind == "no_ro":
            drop = {"ro", rng.choice(joiners)}
            drop |= set(rng.sample(old, len(langs) - MIN_LANGUAGES - 2))
            plan.append((langs - drop, 0))
        elif kind == "ro_clause":
            plan.append((langs - {rng.choice(joiners)}, 0))
        else:
            plan.append((langs - set(rng.sample(old, len(langs) - MIN_LANGUAGES)), 1))
    planted_left = shape.planted - sum(n for _, n in plan)
    for i, (present, n) in enumerate(plan):
        if planted_left <= 0:
            break
        if len(present) == len(langs):
            plan[i] = (present, 1)
            planted_left -= 1
    return plan


def _edits(rng: random.Random, n_units: int, shape: Shape) -> dict[int, str]:
    """One language's deletions and merges: fixed counts, seeded positions."""
    want = {"delete": round(shape.p_delete * n_units), "merge": round(shape.p_merge * n_units)}
    edits: dict[int, str] = {}
    taken: set[int] = set()
    for u in rng.sample(range(n_units), n_units):
        if want["merge"] and u + 1 < n_units and not {u, u + 1} & taken:
            edits[u] = "merge"
            taken |= {u, u + 1}
            want["merge"] -= 1
        elif want["delete"] and u not in taken:
            edits[u] = "delete"
            taken.add(u)
            want["delete"] -= 1
    return edits


def generate(shape: Shape, seed: int) -> Corpus:
    """The workload's corpus.  Sizes depend on the shape only; the seed picks content."""
    rng = random.Random(seed)
    pivot = _Pivot(rng, shape.languages)
    docs: dict[tuple[str, str], Document] = {}
    planted: set[tuple[str, str]] = set()
    eurovoc: dict[str, list[int]] = {}
    lo, hi = shape.body_units
    for i, (present, n_planted) in enumerate(_language_sets(rng, shape)):
        celex = f"3{1960 + i % 45}D{i:04d}"
        eurovoc[celex] = sorted(rng.sample(range(1000, 1040), 3))
        title = pivot.unit(6)
        body = pivot.units(lo + (hi - lo) * i // max(1, shape.n_docs - 1), shape.unit_tokens)
        tail: list[tuple[str | tuple, str]] = []  # (fixed text or unit, section)
        if shape.signatures and i % 3 == 0:
            tail += [(line, SIGNATURE) for line in _signature_block(rng)]
        if shape.signatures and i % 4 == 1:
            tail.append(("ANNEX", ANNEX))
            tail += [(unit, ANNEX) for unit in pivot.units(2, shape.unit_tokens)]
        wrong = set(rng.sample(sorted(present), n_planted))
        for lang in sorted(present):
            text_lang = lang
            if lang in wrong:
                text_lang = rng.choice(sorted(set(shape.languages) - {lang}))
                planted.add((celex, lang))
            paragraphs = [pivot.render(title, text_lang)]
            sections = [HEAD]
            units: list[tuple[int, ...]] = [()]
            edits = _edits(rng, len(body), shape)
            u = 0
            while u < len(body):
                edit = edits.get(u)
                if edit == "delete":
                    u += 1
                    continue
                span = (u, u + 1) if edit == "merge" else (u,)
                paragraphs.append(pivot.render(sum((body[v] for v in span), ()), text_lang))
                sections.append(BODY)
                units.append(span)
                u += len(span)
            for v, (item, section) in enumerate(tail, start=len(body)):
                paragraphs.append(item if isinstance(item, str) else pivot.render(item, text_lang))
                sections.append(section)
                units.append((v,))
            docs[(celex, lang)] = Document(celex, lang, text_lang, paragraphs, sections, units)
    corpus = Corpus(shape.languages, docs, planted, eurovoc)
    corpus.gold = gold_links(corpus)
    corpus.training = {
        lang: " ".join(pivot.render(unit, lang) for unit in pivot.units(160, (8, 20)))
        for lang in shape.languages
    }
    return corpus


def gold_links(corpus: Corpus) -> dict[tuple[str, str], dict[str, set]]:
    """Gold links of every language pair: paragraphs grouped by shared units."""
    gold: dict[tuple[str, str], dict[str, set]] = {}
    for src, tgt in combinations(sorted(corpus.languages), 2):
        per_doc = gold.setdefault((src, tgt), {})
        for celex in corpus.celexes:
            a = corpus.docs.get((celex, src))
            b = corpus.docs.get((celex, tgt))
            if a is None or b is None or (celex, src) in corpus.planted or (celex, tgt) in corpus.planted:
                continue
            per_doc[celex] = _group(a.units[1:], b.units[1:])
    return gold


def _group(src_units, tgt_units) -> set:
    """Links (src paragraph numbers, tgt paragraph numbers), numbered from 2."""
    links = set()
    i = j = 0
    while i < len(src_units) or j < len(tgt_units):
        s_pars, t_pars = [], []
        covered: set[int] = set()
        grew = True
        if i < len(src_units) and (j >= len(tgt_units) or min(src_units[i]) <= min(tgt_units[j])):
            s_pars.append(i)
            covered |= set(src_units[i])
            i += 1
        else:
            t_pars.append(j)
            covered |= set(tgt_units[j])
            j += 1
        while grew:
            grew = False
            if j < len(tgt_units) and covered & set(tgt_units[j]):
                t_pars.append(j)
                covered |= set(tgt_units[j])
                j += 1
                grew = True
            if i < len(src_units) and covered & set(src_units[i]):
                s_pars.append(i)
                covered |= set(src_units[i])
                i += 1
                grew = True
        links.add((tuple(p + 2 for p in s_pars), tuple(p + 2 for p in t_pars)))
    return links


def _html_text(text: str, rng: random.Random) -> str:
    """Escape a plain paragraph as legacy HTML that normalizes back to it."""
    out = []
    for token in text.split(" "):
        chars = []
        for ch in token:
            if ch in "&<>":
                chars.append(html.escape(ch))
            elif ord(ch) > 127 and rng.random() < 0.5:
                name = html.entities.codepoint2name.get(ord(ch))
                chars.append(f"&{name};" if name and rng.random() < 0.5 else f"&#{ord(ch)};")
            else:
                chars.append(ch)
        word = "".join(chars)
        r = rng.random()
        if r < 0.03:
            word = f"<b>{word}</b>"
        elif r < 0.05:
            word = f'<span class="x">{word}</span>'
        elif r < 0.06:
            word = f'<FONT face="Arial">{word}</FONT>'
        out.append(word)
    seps = [" " if rng.random() < 0.95 else rng.choice(("&nbsp;", "  ", "\t")) for _ in out]
    return "".join(w + s for w, s in zip(out, seps)).rstrip(" \t").removesuffix("&nbsp;")


def render_html(doc: Document, rng: random.Random) -> str:
    lines = [
        '<!DOCTYPE HTML PUBLIC "-//W3C//DTD HTML 4.01 Transitional//EN">',
        f'<html><head><meta charset="utf-8"><title>{doc.celex}</title>',
        "<style>p { margin: 0 }</style></head>",
        "<body>",
        f"<!-- celex {doc.celex} <p>not a paragraph</p> -->",
        f'<P class="title"><b>{_html_text(doc.paragraphs[0], rng)}</b></P>',
    ]
    use_br = rng.random() < 0.3
    for text in doc.paragraphs[1:]:
        if rng.random() < 0.05:
            lines.append("<p>&nbsp;</p>")
        body = _html_text(text, rng)
        lines.append(f"{body}<br>" if use_br else f"<p>{body}</p>")
    lines.append('<script type="text/javascript">var s = "<p>skipped</p>";</script>')
    lines.append("</body></html>")
    return "\n".join(lines) + "\n"


def ngram_profile(text: str, k: int = 400) -> list[str]:
    """Top-k character 1..5-grams of words padded with ``_``, rank order."""
    counts: Counter = Counter()
    for word in text.lower().split():
        padded = f"_{word}_"
        for n in range(1, 6):
            for i in range(len(padded) - n + 1):
                counts[padded[i : i + n]] += 1
    return [g for g, _ in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:k]]


def write_inputs(corpus: Corpus, root: Path, seed: int, profiles: bool) -> None:
    """Write the HTML files, language profiles and EUROVOC map under ``root``."""
    rng = random.Random(seed ^ 0x5EED)
    html_dir = root / "html"
    html_dir.mkdir(parents=True)
    for (celex, lang), doc in sorted(corpus.docs.items()):
        path = html_dir / f"{celex}-{lang}.html"
        path.write_text(render_html(doc, rng), encoding="utf-8")
        os.utime(path, (FIXED_MTIME, FIXED_MTIME))
    if profiles:
        prof_dir = root / "profiles"
        prof_dir.mkdir()
        for lang, text in sorted(corpus.training.items()):
            grams = ngram_profile(text)
            lines = "".join(f"{g}\t{r}\n" for r, g in enumerate(grams, start=1))
            (prof_dir / f"{lang}.profile").write_text(lines, encoding="utf-8")
    (root / "eurovoc.json").write_text(json.dumps(corpus.eurovoc, sort_keys=True), encoding="utf-8")
