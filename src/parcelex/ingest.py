"""Document acquisition and normalization.

Raw documents are read from the files of a local directory, are reduced
from legacy HTML to plain paragraph texts, get
their language verified against n-gram profiles, and are filtered by the
corpus selection rule before TEI encoding.
"""

from __future__ import annotations

import datetime
import html
import re
from dataclasses import dataclass
from pathlib import Path

from .celex import CelexId, format_celex
from .errors import DecodeError, EmptyTextError, UnknownLanguageError, decode_utf8
from .langid import ProfileIndex, guess_language
from .params import LANGUAGE_NAMES

ALL_LANGUAGES = frozenset(LANGUAGE_NAMES)
NEW_MEMBER_LANGUAGES = frozenset("cs et hu lt lv mt pl sk sl".split())

MIN_LANGUAGES = 10
MIN_NEW_MEMBER_LANGUAGES = 3

# Texts shorter than this are accepted with a low-confidence flag instead of
# being rejected: titles and bodies occasionally disagree in language and
# short snippets are unreliable evidence either way.
SHORT_TEXT_CHARS = 200


@dataclass(frozen=True)
class RawDocument:
    celex: CelexId
    lang: str
    content: str
    source_url: str
    retrieved: datetime.date


def fetch_document(path: Path, celex: CelexId, lang: str) -> RawDocument:
    """The (celex, lang) document held in the file ``path``, retrieved on its modification date."""
    return RawDocument(
        celex=celex,
        lang=lang,
        content=decode_utf8(path.read_bytes(), path, DecodeError),
        source_url=path.as_uri(),
        retrieved=datetime.date.fromtimestamp(path.stat().st_mtime),
    )


_DROP_BLOCK_RE = re.compile(
    r"<(script|style|head)\b[^>]*>.*?</\1\s*>", re.IGNORECASE | re.DOTALL
)
_COMMENT_RE = re.compile(r"<!--.*?-->", re.DOTALL)
_BREAK_RE = re.compile(r"<\s*(?:br|p|/p)\b[^>]*>", re.IGNORECASE)
_TAG_RE = re.compile(r"<[^>]*>")
# A tag cut off by the end of input: "<" and a letter or "/", with no ">" after.
_UNTERMINATED_TAG_RE = re.compile(r"<[A-Za-z/][^>]*\Z")
# XML 1.0 forbids these characters, so they count as whitespace here;
# str.isspace() already covers U+000B, U+000C and U+001C-U+001F.
_XML_FORBIDDEN = re.compile(r"[\x00-\x08\x0e-\x1b\ufffe\uffff]")


def html_to_paragraphs(content: str) -> list[str]:
    """Reduce legacy HTML (or plain text) to trimmed paragraph strings.

    Paragraph breaks come from <p>/<br> tags or line breaks; all other
    markup is stripped and character entities are decoded.  Each run of
    whitespace (``str.isspace()`` characters and those XML 1.0 forbids)
    becomes one space.  Tag matching is case-insensitive and tolerates
    unclosed elements; a tag cut off by the end of input is dropped.
    """
    text = _COMMENT_RE.sub(" ", content)
    text = _DROP_BLOCK_RE.sub(" ", text)
    text = _BREAK_RE.sub("\n", text)
    text = _TAG_RE.sub(" ", text)
    text = _UNTERMINATED_TAG_RE.sub(" ", text)
    text = _XML_FORBIDDEN.sub(" ", html.unescape(text))
    return [cleaned for line in text.split("\n") if (cleaned := " ".join(line.split()))]


@dataclass(frozen=True)
class LanguageVerdict:
    """Outcome of verifying a document's declared language."""

    accepted: bool
    guessed_lang: str
    confidence: float
    low_confidence: bool = False


def verify_language(lang: str, paragraphs: list[str], index: ProfileIndex) -> LanguageVerdict:
    """Accept the paragraphs as ``lang`` iff the guessed language matches it.

    Texts below SHORT_TEXT_CHARS are accepted with low_confidence=True
    rather than rejected.
    """
    if lang not in index.langs:
        raise UnknownLanguageError(f"no profile for declared language {lang!r}")
    text = " ".join(paragraphs)
    if not text:
        raise EmptyTextError(f"no text to verify as {lang!r}")
    guessed, confidence = guess_language(text, index)
    short = len(text) < SHORT_TEXT_CHARS
    return LanguageVerdict(
        accepted=short or guessed == lang,
        guessed_lang=guessed,
        confidence=confidence,
        low_confidence=short,
    )


def select_corpus(inventory: dict) -> set:
    """Apply the corpus selection rule to a mapping celex -> set of languages.

    A document is kept iff it exists in at least MIN_LANGUAGES of the 21
    languages and is available either in at least MIN_NEW_MEMBER_LANGUAGES
    of the languages of the 2004 joiners or in Romanian.
    """
    kept = set()
    for celex, langs in inventory.items():
        langs = set(langs)
        unknown = langs - ALL_LANGUAGES
        if unknown:
            raise UnknownLanguageError(
                f"{format_celex(celex) if isinstance(celex, CelexId) else celex}: "
                f"unknown language codes {sorted(unknown)}"
            )
        if len(langs) < MIN_LANGUAGES:
            continue
        if len(langs & NEW_MEMBER_LANGUAGES) >= MIN_NEW_MEMBER_LANGUAGES or "ro" in langs:
            kept.add(celex)
    return kept
