"""Numbered-paragraph document model and its TEI-style XML dialect.

A document is a title (the head paragraph, n=1) followed by body,
signature and annex paragraphs numbered consecutively document-wide, so
(language, celex, paragraph number) addresses one paragraph anywhere in
the corpus.  Section boundaries are detected with per-language regular
expression families kept in ``data/section_patterns.json``.
"""

from __future__ import annotations

import datetime
import json
import os
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass

from .celex import CelexId, format_celex, jrc_document_id, parse_celex
from .errors import InconsistentBoundariesError, MalformedXmlError, SchemaViolationError
from .params import LANG_RE, LANGUAGE_NAMES

HEAD = "head"
BODY = "body"
SIGNATURE = "signature"
ANNEX = "annex"
# The order in which div types must follow the head.
_DIV_RANK = {BODY: 1, SIGNATURE: 2, ANNEX: 3}

DISTRIBUTOR_URL = "http://wt.jrc.it/lt/acquis/"
AUTHENTICITY_NOTE = (
    "Only European Community legislation printed in the paper edition of "
    "the Official Journal of the European Union is deemed authentic."
)

# Headings longer than this are body text, not annex markers.
MAX_HEADING_CHARS = 60


@dataclass(frozen=True)
class SectionBoundaries:
    """Document paragraph numbers where signature and annex begin."""

    signature_start: int | None = None
    annex_start: int | None = None


@dataclass(frozen=True)
class TeiDocument:
    """A document whose paragraph n is ``paragraphs[n - 1]``; paragraph 1 is the head."""

    celex: CelexId
    lang: str
    paragraphs: tuple[str, ...]
    boundaries: SectionBoundaries
    eurovoc_codes: frozenset[int]
    source_url: str
    download_date: datetime.date

    @property
    def id(self) -> str:
        return jrc_document_id(self.celex, self.lang)

    @property
    def extent(self) -> int:
        return len(self.paragraphs)

    def sections(self) -> list[tuple[str, int, int]]:
        """The non-empty sections in document order, each as ``(section, start, stop)``.

        A section holds ``paragraphs[start:stop]``: the head is paragraph 1
        alone, the body follows it, and each boundary n starts its section
        at index n - 1.
        """
        b = self.boundaries
        starts = [(HEAD, 0), (BODY, 1)] + [
            (section, n - 1)
            for section, n in ((SIGNATURE, b.signature_start), (ANNEX, b.annex_start))
            if n is not None
        ]
        stops = [start for _, start in starts[1:]] + [len(self.paragraphs)]
        return [(s, start, stop) for (s, start), stop in zip(starts, stops) if start < stop]


class _SectionPatterns:
    """Each family of ``data/section_patterns.json`` as one alternation.

    An alternation matches a text exactly when one of its branches does, so
    long as no pattern holds a numbered backreference or an inline flag.
    Role and footnote lines are only ever asked "either?", so they share one.
    """

    def __init__(self, families: dict):
        def compiled(*patterns):
            return re.compile("|".join(f"(?:{p})" for family in patterns for p in family))

        signature = families["signature"]
        self.opening = compiled(signature["opening"])
        self.role_or_footnote = compiled(signature["role"], signature["footnote"])
        self.name = compiled(signature["name"])
        self.annex_heading = compiled(families["annex"]["heading"])


def _load_patterns() -> _SectionPatterns:
    # Read through this module's loader, as pkgutil.get_data does, so a zip
    # install works without importing importlib.resources at start-up.
    path = os.path.join(os.path.dirname(__file__), "data", "section_patterns.json")
    return _SectionPatterns(json.loads(__spec__.loader.get_data(path).decode("utf-8")))


_PATTERNS = _load_patterns()


def classify_sections(paragraphs, first_n: int = 2) -> SectionBoundaries:
    """Locate signature and annex starts in a sequence of paragraph texts.

    ``first_n`` is the document paragraph number of the first element (2 by
    default, since the sequence usually follows a title).  The annex starts
    at the first short heading matching the annex family.  The signature
    starts at the last place-and-date opening before the annex; failing
    that, at a trailing run of role, footnote and name lines containing at
    least one role or footnote match.  Detection is best-effort: documents
    without recognizable markers yield absent boundaries.
    """
    texts = list(paragraphs)
    if not texts:
        raise ValueError("classify_sections requires at least one paragraph")
    pats = _PATTERNS

    annex_idx = None
    for i, text in enumerate(texts):
        if len(text) <= MAX_HEADING_CHARS and pats.annex_heading.search(text):
            annex_idx = i
            break

    region_end = annex_idx if annex_idx is not None else len(texts)
    sig_idx = None
    for i in range(region_end - 1, -1, -1):
        if pats.opening.search(texts[i]):
            sig_idx = i
            break
    if sig_idx is None:
        # Trailing run of signature-looking lines, anchored to the region end.
        run_start = region_end
        anchored = False
        for i in range(region_end - 1, -1, -1):
            text = texts[i]
            if pats.role_or_footnote.search(text):
                run_start = i
                anchored = True
            elif pats.name.search(text):
                run_start = i
            else:
                break
        if anchored and run_start < region_end:
            sig_idx = run_start

    return SectionBoundaries(
        signature_start=first_n + sig_idx if sig_idx is not None else None,
        annex_start=first_n + annex_idx if annex_idx is not None else None,
    )


def build_document(
    celex: CelexId,
    lang: str,
    title: str,
    body_paragraphs,
    boundaries: SectionBoundaries | None = None,
    eurovoc_codes=(),
    source_url: str = "",
    download_date: datetime.date = datetime.date(2006, 2, 20),
) -> TeiDocument:
    """Assemble a document: title becomes the head (n=1), body starts at n=2."""
    title = title.strip()
    texts = [t.strip() for t in body_paragraphs]
    if not title or not all(texts):
        raise ValueError("the title and body paragraphs must be non-empty")
    boundaries = boundaries or SectionBoundaries()
    extent = len(texts) + 1
    signature, annex = boundaries.signature_start, boundaries.annex_start
    for name, bound in ((SIGNATURE, signature), (ANNEX, annex)):
        if bound is not None and not 2 <= bound <= extent:
            raise InconsistentBoundariesError(
                f"{name} start {bound} outside paragraph range 2..{extent}"
            )
    if signature is not None and annex is not None and signature >= annex:
        raise InconsistentBoundariesError(f"signature ({signature}) must precede annex ({annex})")
    return TeiDocument(
        celex=celex,
        lang=lang,
        paragraphs=(title, *texts),
        boundaries=boundaries,
        eurovoc_codes=frozenset(int(c) for c in eurovoc_codes),
        source_url=source_url,
        download_date=download_date,
    )


def escape(text: str) -> str:
    """Character data with ``&``, ``<`` and ``>`` as entities (``xml.sax.saxutils.escape``)."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def quoteattr(value: str) -> str:
    """A quoted attribute value, by the rules of ``xml.sax.saxutils.quoteattr``.

    Tab, newline and carriage return become character references, which an
    XML parser keeps where it would normalize the literal characters to
    spaces.  The value is wrapped in double quotes unless it holds one and
    no single quote; holding both, its double quotes become ``&quot;``.
    """
    value = escape(value).replace("\n", "&#10;").replace("\r", "&#13;").replace("\t", "&#9;")
    if '"' not in value:
        return f'"{value}"'
    if "'" not in value:
        return f"'{value}'"
    return '"' + value.replace('"', "&quot;") + '"'


def _language_name(lang: str) -> str:
    return LANGUAGE_NAMES.get(lang, lang)


def serialize_tei(doc: TeiDocument) -> str:
    """Emit the document as TEI-style XML (UTF-8 text, LF line endings)."""
    w = []
    out = w.append
    out('<?xml version="1.0" encoding="utf-8"?>\n')
    out(f'<TEI.2 id={quoteattr(doc.id)} n={quoteattr(format_celex(doc.celex))} '
        f'lang={quoteattr(doc.lang)}>\n')
    out(f'  <teiHeader lang="en" date.created="{doc.download_date.isoformat()}">\n')
    out('    <fileDesc>\n')
    out('      <titleStmt>\n')
    out(f'        <title>JRC-ACQUIS {format_celex(doc.celex)} {_language_name(doc.lang)}</title>\n')
    out(f'        <title>{escape(doc.paragraphs[0])}</title>\n')
    out('      </titleStmt>\n')
    out(f'      <extent>{doc.extent} paragraph segments</extent>\n')
    out('      <publicationStmt>\n')
    out('        <distributor>\n')
    out(f'          <xref url={quoteattr(DISTRIBUTOR_URL)}>{escape(DISTRIBUTOR_URL)}</xref>\n')
    out('        </distributor>\n')
    out('      </publicationStmt>\n')
    out('      <notesStmt>\n')
    out(f'        <note>{escape(AUTHENTICITY_NOTE)}</note>\n')
    out('      </notesStmt>\n')
    out('      <sourceDesc>\n')
    out(f'        <bibl>Downloaded from <xref url={quoteattr(doc.source_url)}>'
        f'{escape(doc.source_url)}</xref> on <date>{doc.download_date.isoformat()}</date></bibl>\n')
    out('      </sourceDesc>\n')
    out('    </fileDesc>\n')
    out('    <profileDesc>\n')
    out('      <textClass>\n')
    for code in sorted(doc.eurovoc_codes):
        out(f'        <classCode scheme="eurovoc">{code}</classCode>\n')
    out('      </textClass>\n')
    out('    </profileDesc>\n')
    out('  </teiHeader>\n')
    out('  <text>\n')
    out('    <body>\n')
    out(f'      <head n="1">{escape(doc.paragraphs[0])}</head>\n')
    for section, start, stop in doc.sections()[1:]:
        out(f'      <div type="{section}">\n')
        for n, text in enumerate(doc.paragraphs[start:stop], start=start + 1):
            out(f'        <p n="{n}">{escape(text)}</p>\n')
        out('      </div>\n')
    out('    </body>\n')
    out('  </text>\n')
    out('</TEI.2>\n')
    return "".join(w)


_EXTENT = re.compile(r"([0-9]+) paragraph segments").match


def _require(parent, tag_path: str):
    el = parent.find(tag_path)
    if el is None:
        raise SchemaViolationError(f"missing mandatory element {tag_path!r}")
    return el


def parse_tei(xml_text: str) -> TeiDocument:
    """Parse the emitted dialect back into a document (inverse of serialize_tei)."""
    try:
        root = ET.fromstring(xml_text)
    except ET.ParseError as exc:
        raise MalformedXmlError(str(exc)) from None
    if root.tag != "TEI.2":
        raise SchemaViolationError(f"expected TEI.2 root, got {root.tag!r}")
    celex = parse_celex(root.get("n", ""))
    lang = root.get("lang", "")
    if not LANG_RE.fullmatch(lang):
        raise SchemaViolationError(f"root lang must be a two-letter lowercase code, got {lang!r}")

    header = _require(root, "teiHeader")
    file_desc = _require(header, "fileDesc")
    _require(file_desc, "titleStmt/title")

    extent_el = _require(file_desc, "extent")
    m = _EXTENT(extent_el.text or "")
    if not m:
        raise SchemaViolationError(f"unparseable extent {extent_el.text!r}")
    extent = int(m.group(1))

    bibl = _require(file_desc, "sourceDesc/bibl")
    xref = _require(bibl, "xref")
    source_url = xref.get("url", "")
    date_el = _require(bibl, "date")
    try:
        download_date = datetime.date.fromisoformat((date_el.text or "").strip())
    except ValueError:
        raise SchemaViolationError(f"unparseable date {date_el.text!r}") from None

    body_el = _require(root, "text/body")
    head_el = _require(body_el, "head")
    codes = frozenset(
        _number(el.text or "", "eurovoc code")
        for el in header.findall("profileDesc/textClass/classCode")
        if el.get("scheme") == "eurovoc"
    )

    texts = [_paragraph_text(head_el, 1)]
    starts = {}  # the number of the first paragraph of each section after the body
    rank = 0
    for div in body_el.findall("div"):
        section = div.get("type", "")
        if section not in _DIV_RANK:
            raise SchemaViolationError(f"unknown div type {section!r}")
        ps = div.findall("p")
        if not ps:
            continue
        if _DIV_RANK[section] < rank:
            raise SchemaViolationError("sections must run head, body, signature, annex")
        rank = _DIV_RANK[section]
        starts.setdefault(section, len(texts) + 1)
        for p in ps:
            texts.append(_paragraph_text(p, len(texts) + 1))
    if len(texts) != extent:
        raise SchemaViolationError(f"extent says {extent} segments but document has {len(texts)}")

    return TeiDocument(
        celex=celex,
        lang=lang,
        paragraphs=tuple(texts),
        boundaries=SectionBoundaries(starts.get(SIGNATURE), starts.get(ANNEX)),
        eurovoc_codes=codes,
        source_url=source_url,
        download_date=download_date,
    )


def _number(text: str, what: str) -> int:
    """``text`` read as a number written in ASCII decimal digits and nothing else."""
    if not (text.isascii() and text.isdecimal()):
        raise SchemaViolationError(f"{what} must be written in ASCII digits, got {text!r}")
    return int(text)


def _paragraph_text(el, n: int) -> str:
    """The text of a ``head`` or ``p`` element, checked to be paragraph ``n`` and non-empty."""
    number = _number(el.get("n", ""), "paragraph number")
    if number < 1:
        raise SchemaViolationError(f"paragraph number must be >= 1, got {number}")
    if number != n:
        raise SchemaViolationError(f"paragraph numbers must be 1..extent; got {number} at {n}")
    text = (el.text or "").strip()
    if not text:
        raise SchemaViolationError(f"paragraph {n}: text must be non-empty and trimmed")
    return text
