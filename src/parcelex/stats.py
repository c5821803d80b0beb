"""Per-language corpus size table and EUROVOC descriptor frequencies.

A word is a maximal non-whitespace run; character counts cover paragraph
text including internal spaces but no markup.  The title (head paragraph)
counts toward the body.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .tei import ANNEX, BODY, HEAD, SIGNATURE


def word_count(text: str) -> int:
    """Number of maximal non-whitespace runs."""
    return len(text.split())


@dataclass(frozen=True)
class LanguageStats:
    lang: str
    n_texts: int
    body_words: int
    body_chars: int
    avg_body_words: float
    signature_words: int
    annex_words: int
    total_words: int


@dataclass(frozen=True)
class DescriptorFrequency:
    """(eurovoc code, count) pairs, most frequent first, ties by code."""

    entries: tuple[tuple[int, int], ...]


def corpus_stats_table(corpus) -> list[LanguageStats]:
    """Aggregate body/signature/annex word counts per language."""
    acc: dict[str, dict[str, int]] = {}
    for doc in corpus:
        row = acc.setdefault(
            doc.lang,
            {"n_texts": 0, "body_words": 0, "body_chars": 0, "signature_words": 0, "annex_words": 0},
        )
        row["n_texts"] += 1
        for section, start, stop in doc.sections():
            texts = doc.paragraphs[start:stop]
            words = sum(map(word_count, texts))
            if section in (HEAD, BODY):
                row["body_words"] += words
                row["body_chars"] += sum(map(len, texts))
            elif section == SIGNATURE:
                row["signature_words"] += words
            elif section == ANNEX:
                row["annex_words"] += words
    table = []
    for lang in sorted(acc):
        row = acc[lang]
        total = row["body_words"] + row["signature_words"] + row["annex_words"]
        table.append(
            LanguageStats(
                lang=lang,
                n_texts=row["n_texts"],
                body_words=row["body_words"],
                body_chars=row["body_chars"],
                avg_body_words=row["body_words"] / row["n_texts"] if row["n_texts"] else 0.0,
                signature_words=row["signature_words"],
                annex_words=row["annex_words"],
                total_words=total,
            )
        )
    return table


def eurovoc_frequency(corpus, top_n: int | None = None) -> DescriptorFrequency:
    """Count descriptor codes across document headers, truncated to top_n."""
    counts: Counter = Counter()
    for doc in corpus:
        counts.update(doc.eurovoc_codes)
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    if top_n is not None:
        ordered = ordered[:top_n]
    return DescriptorFrequency(entries=tuple(ordered))


STATS_COLUMNS = (
    "lang", "n_texts", "body_words", "body_chars", "avg_body_words",
    "signature_words", "annex_words", "total_words",
)


def stats_to_csv(table) -> str:
    lines = [",".join(STATS_COLUMNS)]
    for row in table:
        lines.append(
            f"{row.lang},{row.n_texts},{row.body_words},{row.body_chars},"
            f"{row.avg_body_words:.1f},{row.signature_words},{row.annex_words},{row.total_words}"
        )
    return "\n".join(lines) + "\n"


def stats_to_text(table) -> str:
    """Aligned plain-text rendering of the per-language table."""
    rows = [STATS_COLUMNS] + [
        (
            row.lang, str(row.n_texts), str(row.body_words), str(row.body_chars),
            str(int(row.avg_body_words)), str(row.signature_words), str(row.annex_words),
            str(row.total_words),
        )
        for row in table
    ]
    widths = [max(len(r[i]) for r in rows) for i in range(len(STATS_COLUMNS))]
    return "\n".join(
        "  ".join(cell.rjust(w) for cell, w in zip(r, widths)) for r in rows
    ) + "\n"


def eurovoc_to_csv(freq: DescriptorFrequency) -> str:
    lines = ["eurovoc_code,count"]
    for code, count in freq.entries:
        lines.append(f"{code},{count}")
    return "\n".join(lines) + "\n"
