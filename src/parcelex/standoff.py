"""Stand-off alignment files, in-place bilingual corpora and agreement stats.

Stand-off files hold only pointers (paragraph numbers) per link, one file
per language pair, exportable as XML or CSV.  The in-place generator pulls
the pointed-to paragraph texts back out of the two TEI documents and emits
a bilingual alignment document.
"""

from __future__ import annotations

import math
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass

from .beads import AlignmentLink, links_cover
from .celex import CelexId, format_celex, jrc_alignment_id, parse_celex
from .errors import ParcelexError
from .params import LANG_RE
from .tei import TeiDocument, escape, quoteattr

CSV_VERSION_LINE = "# standoff-csv v1"
CSV_HEADER = "celex,arity,src_pars,tgt_pars,score"
_CSV_VERSION_RE = re.compile(f"{CSV_VERSION_LINE} ({LANG_RE.pattern})-({LANG_RE.pattern})")


@dataclass(frozen=True)
class StandoffFile:
    """All alignment links for one language pair, sorted by celex."""

    src_lang: str
    tgt_lang: str
    entries: tuple[tuple[CelexId, tuple[AlignmentLink, ...]], ...]


def canonical_pair(lang_a: str, lang_b: str) -> tuple[str, str]:
    """Unordered pairs are named in lexicographic language-code order."""
    return (lang_a, lang_b) if lang_a <= lang_b else (lang_b, lang_a)


def standoff_from_alignments(alignments) -> StandoffFile:
    """Collect per-document alignments of one language pair into a file."""
    alignments = sorted(alignments, key=lambda a: a.celex)
    if not alignments:
        raise ParcelexError("no alignments to collect")
    pairs = {(a.src_lang, a.tgt_lang) for a in alignments}
    if len(pairs) != 1:
        raise ValueError(f"alignments mix language pairs: {sorted(pairs)}")
    (src_lang, tgt_lang), = pairs
    return StandoffFile(
        src_lang=src_lang,
        tgt_lang=tgt_lang,
        entries=tuple((a.celex, a.links) for a in alignments),
    )


def _join(pars) -> str:
    return ";".join(map(str, pars))


_POINTER_LIST = re.compile(r"[0-9]+(?:;[0-9]+)*").fullmatch
_LINK_TYPE = re.compile(r"[0-9]+-[0-9]+").fullmatch


def _split_pars(text: str) -> tuple[int, ...]:
    """The run a pointer list names: empty, or paragraph numbers counting up by one."""
    # Most links point at one paragraph, written in ASCII digits as ``_POINTER_LIST`` asks.
    if text.isascii() and text.isdecimal():
        return (int(text),)
    if not text:
        return ()
    if _POINTER_LIST(text) is None:
        raise ParcelexError(f"bad paragraph pointer list {text!r}")
    pars = tuple(map(int, text.split(";")))
    if pars != tuple(range(pars[0], pars[0] + len(pars))):
        raise ParcelexError(f"paragraph numbers must be contiguous: {text!r}")
    return pars


def _parse_link(arity: str, source: str, target: str, score: str | None) -> AlignmentLink:
    """A link from its serialized fields; a corrupted field is an input error.

    The type must spell the two runs' lengths, and the runs must not both be
    empty.  A score must be a finite float: no aligner writes ``nan`` or an
    infinity.
    """
    src_pars, tgt_pars = _split_pars(source), _split_pars(target)
    if arity != f"{len(src_pars)}-{len(tgt_pars)}":
        if _LINK_TYPE(arity) is None:
            raise ParcelexError(f"bad link type {arity!r}")
        raise ParcelexError(f"link type {arity} does not match {source!r} {target!r}")
    if not (src_pars or tgt_pars):
        raise ParcelexError(f"link {arity} points at no paragraph")
    try:
        if score is not None:
            score = float(score)
            if not math.isfinite(score):
                raise ValueError(f"score {score} is not finite")
    except ValueError as exc:
        raise ParcelexError(f"bad link {arity} {source!r} {target!r}: {exc}") from None
    return AlignmentLink(src_pars, tgt_pars, score)


def export_standoff_xml(file: StandoffFile) -> str:
    """Pointer document: one linkGrp per celex, one link element per bead."""
    w = ['<?xml version="1.0" encoding="utf-8"?>\n']
    w.append(f'<standoff src={quoteattr(file.src_lang)} tgt={quoteattr(file.tgt_lang)}>\n')
    for celex, links in file.entries:
        w.append(f'  <linkGrp n={quoteattr(format_celex(celex))}>\n')
        for link in links:
            score = "" if link.score is None else f' score="{link.score!r}"'
            w.append(
                f'    <link type="{link.arity_label}" source="{_join(link.src_pars)}" '
                f'target="{_join(link.tgt_pars)}"{score}/>\n'
            )
        w.append("  </linkGrp>\n")
    w.append("</standoff>\n")
    return "".join(w)


def import_standoff_xml(xml_text: str) -> StandoffFile:
    """Inverse of export_standoff_xml; each linkGrp must follow the one before in celex order."""
    try:
        root = ET.fromstring(xml_text)
    except ET.ParseError as exc:
        raise ParcelexError(str(exc)) from None
    if root.tag != "standoff":
        raise ParcelexError(f"expected standoff root, got {root.tag!r}")
    entries = []
    for grp in root.findall("linkGrp"):
        celex = parse_celex(grp.get("n", ""))
        if entries and not entries[-1][0] < celex:
            if celex == entries[-1][0]:
                raise ParcelexError("duplicate celex entries")
            raise ParcelexError("entries must be sorted by celex")
        links = tuple([
            _parse_link(
                el.get("type", ""), el.get("source", ""), el.get("target", ""), el.get("score")
            )
            for el in grp.findall("link")
        ])
        entries.append((celex, links))
    return StandoffFile(root.get("src", ""), root.get("tgt", ""), tuple(entries))


def export_csv(file: StandoffFile) -> str:
    """Comma-separated export; paragraph lists are semicolon-joined."""
    lines = [f"{CSV_VERSION_LINE} {file.src_lang}-{file.tgt_lang}", CSV_HEADER]
    for celex, links in file.entries:
        code = format_celex(celex)
        for link in links:
            score = "" if link.score is None else f"{link.score:.6f}"
            lines.append(
                f"{code},{link.arity_label},{_join(link.src_pars)},{_join(link.tgt_pars)},{score}"
            )
    return "\n".join(lines) + "\n"


def import_csv(csv_text: str) -> StandoffFile:
    """Re-parse what ``export_csv`` wrote, version line first (scores at 6-decimal precision)."""
    lines = [l for l in csv_text.splitlines() if l]
    version = _CSV_VERSION_RE.fullmatch(lines[0]) if lines else None
    if version is None:
        raise ParcelexError(f"expected the first line '{CSV_VERSION_LINE} <src>-<tgt>'")
    if lines[1:2] != [CSV_HEADER]:
        raise ParcelexError(f"expected header {CSV_HEADER!r}")
    per_celex: dict[CelexId, list[AlignmentLink]] = {}
    for line in lines[2:]:
        fields = line.split(",")
        if len(fields) != 5:
            raise ParcelexError(f"expected 5 fields, got {len(fields)}: {line!r}")
        code, arity, src, tgt, score = fields
        per_celex.setdefault(parse_celex(code), []).append(
            _parse_link(arity, src, tgt, score or None)
        )
    return StandoffFile(
        *version.groups(), tuple((c, tuple(links)) for c, links in sorted(per_celex.items()))
    )


def generate_inplace(src_doc: TeiDocument, tgt_doc: TeiDocument, links) -> str:
    """Embed the linked paragraph texts as an in-place bilingual document.

    The two documents must share a celex; links must resolve and jointly
    cover both documents' paragraphs after the head.
    """
    if src_doc.celex != tgt_doc.celex:
        raise ParcelexError(f"documents disagree on celex: {src_doc.celex} vs {tgt_doc.celex}")
    links = list(links)
    # Links that cover paragraphs 2..extent of both documents point at no other paragraph,
    # so pointers are checked against the extents only to name what fails.
    if not links_cover(links, src_doc.extent - 1, tgt_doc.extent - 1, 2, 2):
        for link in links:
            for n in link.src_pars:
                if not 2 <= n <= src_doc.extent:
                    raise ParcelexError(
                        f"source paragraph {n} not in {src_doc.id} (extent {src_doc.extent})"
                    )
            for n in link.tgt_pars:
                if not 2 <= n <= tgt_doc.extent:
                    raise ParcelexError(
                        f"target paragraph {n} not in {tgt_doc.id} (extent {tgt_doc.extent})"
                    )
        raise ParcelexError("links must cover every paragraph after the head exactly once")

    code = format_celex(src_doc.celex)
    src, tgt = src_doc.lang, tgt_doc.lang
    w = ['<?xml version="1.0" encoding="utf-8"?>\n']
    w.append(
        f'<div type="body" n={quoteattr(code)} select={quoteattr(f"{src} {tgt}")} '
        f'id={quoteattr(jrc_alignment_id(src_doc.celex, src, tgt))} '
        f'org="uniform" sample="complete" part="N" TEIform="div">\n'
    )
    for doc in (src_doc, tgt_doc):
        w.append(
            f'  <head lang={quoteattr(doc.lang)} n="1" TEIform="head">'
            f"{escape(doc.paragraphs[0])}</head>\n"
        )
    src_seg, tgt_seg = (f"    <seg lang={quoteattr(lang)} n=" for lang in (src, tgt))
    src_paragraphs, tgt_paragraphs = src_doc.paragraphs, tgt_doc.paragraphs
    for link in links:
        w.append(f'  <ab type="{link.arity_label}" part="N" TEIform="ab">\n')
        for seg, paragraphs, pars in (
            (src_seg, src_paragraphs, link.src_pars),
            (tgt_seg, tgt_paragraphs, link.tgt_pars),
        ):
            for n in pars:
                w.append(
                    f'{seg}"{n}" part="N" TEIform="seg">{escape(paragraphs[n - 1])}</seg>\n'
                )
        w.append("  </ab>\n")
    w.append("</div>\n")
    return "".join(w)


@dataclass(frozen=True)
class ArityDistribution:
    """Arity fractions over links and over paragraphs covered."""

    links: dict[str, float]
    paragraphs: dict[str, float]


def arity_distribution(alignments) -> ArityDistribution:
    """Fraction of links (and of paragraphs) per arity across a collection."""
    link_counts: dict[str, int] = {}
    par_counts: dict[str, int] = {}
    total_links = 0
    total_pars = 0
    for alignment in alignments:
        for link in alignment.links:
            label = link.arity_label
            size = len(link.src_pars) + len(link.tgt_pars)
            link_counts[label] = link_counts.get(label, 0) + 1
            par_counts[label] = par_counts.get(label, 0) + size
            total_links += 1
            total_pars += size
    if total_links == 0:
        raise ParcelexError("no links in the collection")
    return ArityDistribution(
        links={k: v / total_links for k, v in sorted(link_counts.items())},
        paragraphs={k: v / total_pars for k, v in sorted(par_counts.items())},
    )


@dataclass(frozen=True)
class AgreementReport:
    n_links_a: int
    n_links_b: int
    exact_match_fraction: float
    per_arity_confusion: dict[tuple[str, str], int]


def _link_index(file: StandoffFile):
    """Map (celex, side, paragraph n) -> containing link, plus the link id set."""
    by_par = {}
    ids = set()
    n_links = 0
    for celex, links in file.entries:
        for link in links:
            n_links += 1
            ids.add((celex, link.src_pars, link.tgt_pars))
            for n in link.src_pars:
                by_par[(celex, "src", n)] = link
            for n in link.tgt_pars:
                by_par[(celex, "tgt", n)] = link
    return by_par, ids, n_links


def aligner_agreement(a: StandoffFile, b: StandoffFile) -> AgreementReport:
    """Exact link-set Jaccard agreement plus a per-paragraph arity confusion."""
    docs_a = {celex for celex, _ in a.entries}
    docs_b = {celex for celex, _ in b.entries}
    if docs_a != docs_b:
        raise ParcelexError(
            "cover different documents: " + ", ".join(map(format_celex, sorted(docs_a ^ docs_b)))
        )
    pars_a, ids_a, n_a = _link_index(a)
    pars_b, ids_b, n_b = _link_index(b)
    union = ids_a | ids_b
    fraction = len(ids_a & ids_b) / len(union) if union else 1.0
    confusion: dict[tuple[str, str], int] = {}
    for key, link_a in pars_a.items():
        link_b = pars_b.get(key)
        if link_b is None:
            continue
        pair = (link_a.arity_label, link_b.arity_label)
        confusion[pair] = confusion.get(pair, 0) + 1
    return AgreementReport(
        n_links_a=n_a,
        n_links_b=n_b,
        exact_match_fraction=fraction,
        per_arity_confusion=confusion,
    )
