"""Character n-gram language guessing.

Rank-order profiles over character 1..5-grams (words padded with ``_``),
compared with the classic out-of-place distance: for each n-gram of the
text profile, the rank difference against the reference profile, or the
profile size K for n-grams missing from it.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

from .errors import EmptyTextError, InsufficientTrainingDataError, MalformedProfileError, decode_utf8

DEFAULT_PROFILE_SIZE = 400
DEFAULT_NGRAM_ORDERS = (1, 2, 3, 4, 5)
DEFAULT_MIN_TRAINING_CHARS = 10_000

_WS_RE = re.compile(r"\s+")


def _word_grams(word: str, orders) -> tuple[str, ...]:
    padded = f"_{word}_"
    size = len(padded)
    return tuple(padded[i : i + n] for n in orders if n <= size for i in range(size - n + 1))


def _ngram_counts(text: str, orders=DEFAULT_NGRAM_ORDERS) -> Counter:
    # Each distinct word is cut once; Counter then counts in C.
    words = Counter(_WS_RE.split(text.lower().strip()))
    del words[""]
    return Counter(
        chain.from_iterable(_word_grams(word, orders) * count for word, count in words.items())
    )


def _rank(counts: Counter, k: int) -> dict[str, int]:
    # Deterministic ranking: frequency descending, then n-gram ascending
    # (the second sort is stable, so it keeps the first one's order on ties).
    grams = sorted(counts)
    grams.sort(key=counts.__getitem__, reverse=True)
    return dict(zip(grams[:k], range(1, k + 1)))


@dataclass(frozen=True)
class LanguageProfile:
    """Top-K n-gram ranks for one language."""

    lang: str
    ngram_ranks: dict[str, int] = field(compare=False)
    k: int = DEFAULT_PROFILE_SIZE


def train_language_profile(
    training_text: str,
    lang: str,
    k: int = DEFAULT_PROFILE_SIZE,
    min_chars: int = DEFAULT_MIN_TRAINING_CHARS,
) -> LanguageProfile:
    """Build the rank profile of the K most frequent character n-grams."""
    if len(training_text) < min_chars:
        raise InsufficientTrainingDataError(
            f"need at least {min_chars} characters of training text for {lang!r}, "
            f"got {len(training_text)}"
        )
    return LanguageProfile(lang=lang, ngram_ranks=_rank(_ngram_counts(training_text), k), k=k)


def profile_distance(text_ranks: dict[str, int], profile: LanguageProfile) -> int:
    """Out-of-place distance between a text's rank profile and a language profile."""
    get, k = profile.ngram_ranks.get, profile.k
    return sum([
        abs(rank - ref) if (ref := get(gram)) is not None else k
        for gram, rank in text_ranks.items()
    ])


class ProfileIndex:
    """Language profiles inverted once: each n-gram maps to its ``(position, rank)`` pairs.

    ``distances`` then gives every profile's out-of-place distance from one
    pass over a text's ranked n-grams: for a text of |T| ranked n-grams, a
    profile of size K is at K·|T| − Σ (K − |rank − ref|), the sum running
    over the n-grams the two share.  The sums are integers, so every
    distance equals ``profile_distance``'s.
    """

    def __init__(self, profiles):
        profiles = list(profiles)
        self.langs = tuple(p.lang for p in profiles)
        self.sizes = tuple(p.k for p in profiles)
        self.k = max(self.sizes, default=0)
        postings: dict[str, list[tuple[int, int]]] = {}
        for position, profile in enumerate(profiles):
            for gram, ref in profile.ngram_ranks.items():
                postings.setdefault(gram, []).append((position, ref))
        self.postings = {gram: tuple(pairs) for gram, pairs in postings.items()}

    def distances(self, text_ranks: dict[str, int]) -> list[int]:
        """``profile_distance(text_ranks, p)`` for each profile p, in order."""
        sizes = self.sizes
        shared = [0] * len(sizes)
        get = self.postings.get
        for gram, rank in text_ranks.items():
            for position, ref in get(gram, ()):
                shared[position] += sizes[position] - abs(rank - ref)
        n = len(text_ranks)
        return [n * size - s for size, s in zip(sizes, shared)]


def guess_language(text: str, index: ProfileIndex) -> tuple[str, float]:
    """Return (language, confidence) for the closest profile of ``index``.

    Confidence is the margin between best and second-best distance,
    normalized by the second-best (1.0 when only one profile is given).
    Ties break toward the lexicographically smaller language code.
    """
    if not text or not text.strip():
        raise EmptyTextError("cannot guess the language of empty text")
    if not index.langs:
        raise ValueError("at least one language profile is required")
    text_ranks = _rank(_ngram_counts(text), index.k)
    scored = sorted(zip(index.distances(text_ranks), index.langs))
    best_d, best_lang = scored[0]
    if len(scored) == 1:
        return best_lang, 1.0
    second_d = scored[1][0]
    confidence = (second_d - best_d) / second_d if second_d > 0 else 0.0
    return best_lang, confidence


def save_profile(profile: LanguageProfile, path: str | Path) -> None:
    """Persist as one line per n-gram: ``<ngram>\\t<rank>``, sorted by rank."""
    lines = [
        f"{gram}\t{rank}"
        for gram, rank in sorted(profile.ngram_ranks.items(), key=lambda kv: kv[1])
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_profile(path: str | Path) -> LanguageProfile:
    """Load a persisted profile of the language its file stem names.

    Invalid UTF-8 or anything ``parse_profile`` rejects raises
    ``MalformedProfileError``.
    """
    path = Path(path)
    text = decode_utf8(path.read_bytes(), path, MalformedProfileError)
    return parse_profile(text, path)


def parse_profile(text: str, where: str | Path) -> LanguageProfile:
    """The profile persisted as ``text``, of the language ``where``'s stem names.

    ``where`` names the text in error messages.  A malformed line, or ranks
    other than 1..K, raise ``MalformedProfileError``.
    """
    ranks: dict[str, int] = {}
    for number, line in enumerate(text.splitlines(), 1):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != 2 or not (fields[1].isascii() and fields[1].isdecimal()):
            raise MalformedProfileError(
                f"{where}:{number}: expected <ngram><TAB><rank>, got {line!r}"
            )
        ranks[fields[0]] = int(fields[1])
    if sorted(ranks.values()) != list(range(1, len(ranks) + 1)):
        raise MalformedProfileError(f"{where}: profile ranks must be 1..{len(ranks)} without gaps")
    return LanguageProfile(
        lang=Path(where).stem, ngram_ranks=ranks, k=max(len(ranks), DEFAULT_PROFILE_SIZE)
    )
