import datetime
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES
from parcelex.celex import parse_celex
from parcelex.errors import (
    InconsistentBoundariesError,
    MalformedCelexError,
    MalformedXmlError,
    SchemaViolationError,
)
from parcelex import tei
from parcelex.tei import (
    ANNEX,
    BODY,
    HEAD,
    SIGNATURE,
    SectionBoundaries,
    build_document,
    classify_sections,
    escape,
    parse_tei,
    quoteattr,
    serialize_tei,
)

FIGURE2_SIGNATURE_BLOCK = [
    "Done at Brussels, 21 December 1984.",
    "For the Commission",
    "Karl-Heinz NARJES",
    "Member of the Commission",
    "(1) OJ No 196, 16. 8. 1967, p. 1.",
    "(2) OJ No L 259, 15. 10. 1979, p. 10.",
]


def test_signature_detected_at_done_at_line():
    paragraphs = ["Some operative text.", "More operative text."] + FIGURE2_SIGNATURE_BLOCK
    b = classify_sections(paragraphs)
    assert b.signature_start == 4  # first_n=2, "Done at" is the third element
    assert b.annex_start is None


def test_no_markers_no_boundaries():
    b = classify_sections(["Operative text only.", "Another plain paragraph."])
    assert b.signature_start is None and b.annex_start is None


def test_annex_heading_detected():
    b = classify_sections(["Body text.", "ANNEX", "List of items."])
    assert b.annex_start == 3
    assert b.signature_start is None


def test_signature_before_annex():
    paragraphs = ["Body."] + FIGURE2_SIGNATURE_BLOCK + ["ANNEX II", "content"]
    b = classify_sections(paragraphs)
    assert b.signature_start == 3
    assert b.annex_start == 9


def test_role_only_signature_fallback():
    paragraphs = ["Body text here.", "For the Commission", "Karl-Heinz NARJES"]
    b = classify_sections(paragraphs)
    assert b.signature_start == 3


def test_labeled_fixture_agreement():
    docs = json.loads((FIXTURES / "sections_labeled.json").read_text(encoding="utf-8"))
    assert len(docs) == 50
    hits = 0
    for doc in docs:
        b = classify_sections(doc["paragraphs"])
        hits += (
            b.signature_start == doc["signature_start"]
            and b.annex_start == doc["annex_start"]
        )
    assert hits / len(docs) >= 0.90


_PATTERN_FILE = json.loads(
    (Path(tei.__file__).parent / "data" / "section_patterns.json").read_text(encoding="utf-8")
)
# Each compiled family of tei._PATTERNS and the member patterns of the file it joins.
_FAMILIES = {
    "opening": _PATTERN_FILE["signature"]["opening"],
    "role_or_footnote": _PATTERN_FILE["signature"]["role"] + _PATTERN_FILE["signature"]["footnote"],
    "name": _PATTERN_FILE["signature"]["name"],
    "annex_heading": _PATTERN_FILE["annex"]["heading"],
}


def _assert_families_match_their_members(text):
    for family, members in _FAMILIES.items():
        joined = bool(getattr(tei._PATTERNS, family).search(text))
        assert joined == any(re.search(p, text) for p in members), (family, text)


def test_pattern_families_match_their_members_on_the_labeled_fixture():
    docs = json.loads((FIXTURES / "sections_labeled.json").read_text(encoding="utf-8"))
    for doc in docs:
        for text in doc["paragraphs"]:
            _assert_families_match_their_members(text)


# Pieces of the patterns' literals, so that generated texts match some of them.
_SECTION_TEXT = st.lists(
    st.one_of(
        st.text(max_size=4),
        st.sampled_from([
            "Done at ", "Fait à ", "Tehty ", "For the Commission", "Member of the Commission",
            "The ", "President", "Le président", "(1) ", "OJ", "ABl.", "NARJES", "Karl-Heinz ",
            "ANNEX", "Annex ", "IV", "BIJLAGE", "ΠΑΡΑΡΤΗΜΑ", " ", "\n", "1",
        ]),
    ),
    max_size=4,
).map("".join)


@settings(max_examples=300, deadline=None)
@given(_SECTION_TEXT)
def test_pattern_families_match_their_members_on_generated_texts(text):
    _assert_families_match_their_members(text)


def test_section_patterns_can_be_joined_into_alternations():
    # Joined, a numbered backreference (or a conditional on a group number)
    # would point at another pattern's group, and an inline flag group would
    # be rejected or apply to every pattern; an empty family would match all.
    for family, members in _FAMILIES.items():
        assert members, family
        for p in members:
            assert not re.search(r"(?<!\\)(?:\\\\)*(?:\\[1-9]|\(\?\(\d)", p), p
            assert re.compile(p).flags == re.compile("").flags, p


CELEX = parse_celex("31984D0001")
DATE = datetime.date(2006, 2, 20)


def _doc(body, boundaries=None, title="A title", **kw):
    kw.setdefault("source_url", "http://example.org/doc")
    kw.setdefault("download_date", DATE)
    return build_document(
        celex=CELEX, lang="en", title=title, body_paragraphs=body,
        boundaries=boundaries, **kw,
    )


def _section_of_each_paragraph(doc):
    return [section for section, start, stop in doc.sections() for _ in range(start, stop)]


def test_build_extent_counts_title():
    doc = _doc([f"paragraph {i}" for i in range(39)])
    assert doc.extent == 40
    assert doc.paragraphs[0] == "A title" and _section_of_each_paragraph(doc)[0] == HEAD
    assert doc.paragraphs[1] == "paragraph 0" and _section_of_each_paragraph(doc)[1] == BODY


def test_build_title_only():
    doc = _doc([])
    assert doc.extent == 1
    assert _section_of_each_paragraph(doc) == [HEAD]


def test_build_sections_from_boundaries():
    doc = _doc(
        ["b1", "b2", "s1", "s2", "a1"],
        boundaries=SectionBoundaries(signature_start=4, annex_start=6),
    )
    assert _section_of_each_paragraph(doc) == [HEAD, BODY, BODY, SIGNATURE, SIGNATURE, ANNEX]


def test_build_rejects_bad_boundaries():
    with pytest.raises(InconsistentBoundariesError):
        _doc(["a", "b"], boundaries=SectionBoundaries(signature_start=9))
    with pytest.raises(InconsistentBoundariesError, match="must precede annex"):
        _doc(["a"] * 12, boundaries=SectionBoundaries(signature_start=10, annex_start=5))


def test_serialize_golden_figure1(figure1_document):
    golden = (FIXTURES / "golden" / "jrc42004D0097-fr.xml").read_text(encoding="utf-8")
    assert serialize_tei(figure1_document) == golden
    assert "<extent>40 paragraph segments</extent>" in golden
    assert '<classCode scheme="eurovoc">4180</classCode>' in golden
    assert '<classCode scheme="eurovoc">5769</classCode>' in golden
    assert 'id="jrc42004D0097-fr"' in golden
    assert '<head n="1">' in golden and '<p n="2">' in golden


def test_parse_golden_figure1(figure1_document):
    golden = (FIXTURES / "golden" / "jrc42004D0097-fr.xml").read_text(encoding="utf-8")
    doc = parse_tei(golden)
    assert doc == figure1_document
    assert doc.celex == parse_celex("42004D0097")
    assert doc.lang == "fr"
    assert doc.extent == 40
    assert doc.eurovoc_codes == {4180, 5769}


def test_signature_div_wraps_trailing_paragraphs():
    doc = _doc(
        [f"p{i}" for i in range(18)] + FIGURE2_SIGNATURE_BLOCK,
        boundaries=SectionBoundaries(signature_start=20),
    )
    xml = serialize_tei(doc)
    assert '<div type="signature">' in xml
    start = xml.index('<div type="signature">')
    assert '<p n="20">Done at Brussels, 21 December 1984.</p>' in xml[start:]
    assert '<p n="25">' in xml[start:]


def test_parse_truncated_xml():
    with pytest.raises(MalformedXmlError):
        parse_tei('<?xml version="1.0"?><TEI.2 id="jrc31984D0001-en"')


def test_parse_missing_mandatory_elements():
    with pytest.raises(SchemaViolationError):
        parse_tei('<TEI.2 id="x" n="31984D0001" lang="en"><teiHeader/></TEI.2>')


@pytest.mark.parametrize(
    "old, new, error",
    [
        (' n="42004D0097"', ' n="42004D0097&#10;"', MalformedCelexError),
        (' lang="fr"', ' lang="fr&#10;"', SchemaViolationError),
    ],
    ids=["celex", "lang"],
)
def test_parse_rejects_a_root_identifier_with_a_trailing_newline(figure1_document, old, new, error):
    xml = serialize_tei(figure1_document)
    root = xml[: xml.index(">", xml.index("<TEI.2")) + 1]
    assert root.count(old) == 1
    with pytest.raises(error):
        parse_tei(xml.replace(root, root.replace(old, new)))


def test_parse_extent_mismatch(figure1_document):
    xml = serialize_tei(_doc(["one", "two"]))
    broken = xml.replace("3 paragraph segments", "7 paragraph segments")
    with pytest.raises(SchemaViolationError):
        parse_tei(broken)


def test_parse_non_integer_eurovoc_code(figure1_document):
    xml = serialize_tei(figure1_document)
    broken = xml.replace('<classCode scheme="eurovoc">4180<', '<classCode scheme="eurovoc">abc<')
    assert broken != xml
    with pytest.raises(SchemaViolationError, match="abc"):
        parse_tei(broken)


_text = st.text(
    alphabet=st.characters(
        whitelist_categories=("L", "N", "P", "S", "Zs"), max_codepoint=0x2FF0
    ),
    min_size=1,
    max_size=80,
).map(lambda s: s.strip()).filter(bool)


@st.composite
def documents(draw):
    body = draw(st.lists(_text, min_size=0, max_size=12))
    extent = len(body) + 1
    sig = annex = None
    if extent > 2 and draw(st.booleans()):
        sig = draw(st.integers(2, extent))
    if extent > 2 and draw(st.booleans()):
        lo = (sig + 1) if sig is not None else 2
        if lo <= extent:
            annex = draw(st.one_of(st.none(), st.integers(lo, extent)))
    return _doc(
        body,
        boundaries=SectionBoundaries(signature_start=sig, annex_start=annex),
        title=draw(_text),
        eurovoc_codes=draw(st.sets(st.integers(1, 9999), max_size=4)),
        download_date=draw(st.dates(datetime.date(1958, 1, 1), datetime.date(2006, 12, 31))),
    )


@settings(max_examples=60, deadline=None)
@given(documents())
def test_round_trip_generated(doc):
    assert parse_tei(serialize_tei(doc)) == doc


@settings(max_examples=60, deadline=None)
@given(documents())
def test_sections_are_contiguous_ranges_that_agree_with_the_boundaries(doc):
    ranges = doc.sections()
    assert ranges[0] == (HEAD, 0, 1) and ranges[-1][2] == doc.extent
    assert [start for _, start, _ in ranges[1:]] == [stop for _, _, stop in ranges[:-1]]
    assert all(start < stop for _, start, stop in ranges)
    order = [section for section, _, _ in ranges]
    assert order == [s for s in (HEAD, BODY, SIGNATURE, ANNEX) if s in order]
    first = {section: start + 1 for section, start, _ in ranges}
    assert first.get(SIGNATURE) == doc.boundaries.signature_start
    assert first.get(ANNEX) == doc.boundaries.annex_start
    assert parse_tei(serialize_tei(doc)).sections() == ranges


@settings(max_examples=20, deadline=None)
@given(documents())
def test_serialize_stable_after_round_trip(doc):
    xml = serialize_tei(doc)
    assert serialize_tei(parse_tei(xml)) == xml


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="&<>\"'\n\r\tabcXYZé ", max_size=30))
def test_escape_and_quoteattr_match_saxutils(text):
    from xml.sax import saxutils

    assert escape(text) == saxutils.escape(text)
    assert quoteattr(text) == saxutils.quoteattr(text)


def test_attribute_with_both_quotes_and_whitespace_round_trips():
    url = "http://example.org/?a=1&b=<2>\t\"x\" 'y'\nz\r"
    doc = _doc(["Body & <text> \"quoted\" 'too'."], source_url=url)
    xml = serialize_tei(doc)
    assert "&quot;" in xml and "&#9;" in xml and "&#10;" in xml and "&#13;" in xml
    assert parse_tei(xml) == doc
