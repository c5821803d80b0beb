"""CELEX identifiers: parsing, formatting and per-language source URLs.

A CELEX identifier is one document-type digit, a four-digit year, one
uppercase letter, a four-digit serial and an optional bracketed two-digit
part, e.g. ``21999D0624(01)``.  Translations of a document share the same
identifier, so (celex, language) addresses one document version.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ParcelexError
from .params import LANG_RE

# The sites that published the documents, each addressing them by its own URL.
SMARTAPI = "smartapi"
LEXURISERV = "lexuriserv"
CCVISTA = "ccvista"
ENDPOINTS = (SMARTAPI, LEXURISERV, CCVISTA)

# Matched whole: a trailing newline is not part of an identifier.
CELEX_RE = re.compile(r"([0-9])([0-9]{4})([A-Z])([0-9]{4})(?:\(([0-9]{2})\))?")

_SMARTAPI_TEMPLATE = (
    "http://europa.eu.int/smartapi/cgi/sga_doc"
    "?smartapi!celexpls!prod!CELEXnumdoc&numdoc={celex}&lg={lang}"
)
_LEXURISERV_TEMPLATE = (
    "http://europa.eu.int/eur-lex/lex/LexUriServ/LexUriServ.do"
    "?uri=CELEX:{celex}:{lang}:HTML"
)
# Host spelled as found in the historical listing; override via ccvista_host.
_CCVISTA_TEMPLATE = "http://{host}/Fulcrum/CCVista/{lang}/{celex}-{lang}.doc"
DEFAULT_CCVISTA_HOST = "ccvista.taiaex.be"


@dataclass(frozen=True)
class CelexId:
    """Structured CELEX identifier, as ``parse_celex`` reads it from text.

    Identifiers sort as their formatted forms do: a plain identifier comes
    just before the bracketed parts of the same document.
    """

    doc_type: int
    year: int
    letter: str
    serial: str
    part: int | None = None

    def __lt__(self, other: CelexId) -> bool:
        return (self.doc_type, self.year, self.letter, self.serial, self.part or 0) < (
            other.doc_type, other.year, other.letter, other.serial, other.part or 0
        )

    def __str__(self):
        return format_celex(self)


def parse_celex(text: str) -> CelexId:
    """Parse a CELEX identifier, rejecting any deviation from the grammar."""
    if not text:
        raise ParcelexError("empty CELEX identifier")
    m = CELEX_RE.fullmatch(text)
    if m is None:
        raise ParcelexError(f"not a CELEX identifier: {text!r}")
    doc_type, year, letter, serial, part = m.groups()
    if part is not None and int(part) == 0:
        raise ParcelexError(f"bracket part must be 01-99: {text!r}")
    return CelexId(
        doc_type=int(doc_type),
        year=int(year),
        letter=letter,
        serial=serial,
        part=int(part) if part is not None else None,
    )


def format_celex(celex: CelexId) -> str:
    """Canonical textual form; inverse of parse_celex."""
    base = f"{celex.doc_type}{celex.year:04d}{celex.letter}{celex.serial}"
    if celex.part is not None:
        base += f"({celex.part:02d})"
    return base


def _check_lang(lang: str) -> str:
    if not LANG_RE.fullmatch(lang):
        raise ValueError(f"expected a two-letter lowercase language code, got {lang!r}")
    return lang


def document_url(
    celex: CelexId,
    lang: str,
    endpoint: str,
    ccvista_host: str = DEFAULT_CCVISTA_HOST,
) -> str:
    """Synthesize the source URL for one (celex, language) at the given endpoint.

    Bracketed identifiers are only listed on the lexuriserv pages, so the
    smartapi endpoint rejects them.
    """
    _check_lang(lang)
    code = format_celex(celex)
    if endpoint == SMARTAPI:
        if celex.part is not None:
            raise ParcelexError(f"smartapi cannot address bracketed id {code}; use {LEXURISERV}")
        return _SMARTAPI_TEMPLATE.format(celex=code, lang=lang)
    if endpoint == LEXURISERV:
        return _LEXURISERV_TEMPLATE.format(celex=code, lang=lang)
    if endpoint == CCVISTA:
        return _CCVISTA_TEMPLATE.format(host=ccvista_host, celex=code, lang=lang)
    raise ValueError(f"unknown endpoint {endpoint!r}; expected one of {ENDPOINTS}")


def jrc_document_id(celex: CelexId, lang: str) -> str:
    """Corpus-wide document id: ``jrc<celex>-<lang>``."""
    return f"jrc{format_celex(celex)}-{_check_lang(lang)}"


def jrc_alignment_id(celex: CelexId, src_lang: str, tgt_lang: str) -> str:
    """Bilingual alignment id: ``jrc<celex>-<src>-<tgt>`` (languages as given)."""
    return f"jrc{format_celex(celex)}-{_check_lang(src_lang)}-{_check_lang(tgt_lang)}"

