import datetime
import html
import os
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, bank_lines
from parcelex.celex import parse_celex
from parcelex.errors import ParcelexError
from parcelex.ingest import (
    ALL_LANGUAGES,
    NEW_MEMBER_LANGUAGES,
    fetch_document,
    html_to_paragraphs,
    select_corpus,
    verify_language,
)


def test_fetch_local_fixture():
    path = FIXTURES / "html" / "31984D0001-fr.html"
    doc = fetch_document(path, parse_celex("31984D0001"), "fr")
    assert doc.lang == "fr"
    assert doc.celex == parse_celex("31984D0001")
    assert "commercialisation" in doc.content
    assert doc.source_url == path.as_uri()


def test_fetch_reads_the_file_it_is_given(tmp_path):
    # Any name: the caller's listing, not fetch_document, knows the naming rule.
    path = tmp_path / "listed.txt"
    path.write_text("<p>un</p>", encoding="utf-8")
    os.utime(path, (0, datetime.datetime(2006, 2, 20, 12).timestamp()))
    doc = fetch_document(path, parse_celex("31984D0001"), "fr")
    assert doc.content == "<p>un</p>"
    assert doc.retrieved == datetime.date(2006, 2, 20)


def test_fetch_decode_failure(tmp_path):
    bad = tmp_path / "31984D0001-fr.html"
    bad.write_bytes(b"<p>caf\xe9</p>")  # latin-1 bytes, invalid utf-8
    with pytest.raises(ParcelexError, match=r"31984D0001-fr\.html: not valid UTF-8 at byte 6$"):
        fetch_document(bad, parse_celex("31984D0001"), "fr")


@pytest.mark.parametrize("char", ["\x00", "\x01", "\x08", "\x0e", "\x1b", "\ufffe", "\uffff"])
def test_characters_xml_forbids_are_whitespace(char):
    assert html_to_paragraphs(f"<p>a{char}b {char}</p><p>{char}</p>c") == ["a b", "c"]


def test_paragraph_tags():
    assert html_to_paragraphs("<p>A</p><p>B</p>") == ["A", "B"]


def test_br_tag():
    assert html_to_paragraphs("A<br>B") == ["A", "B"]


def test_entity_decode():
    assert html_to_paragraphs("x &amp; y") == ["x & y"]


def test_legacy_markup_tolerated():
    html = "<HTML><HEAD><title>skip me</title></HEAD><BODY><P>one<P>two<BR/>three</BODY>"
    assert html_to_paragraphs(html) == ["one", "two", "three"]


def test_empty_input():
    assert html_to_paragraphs("") == []
    assert html_to_paragraphs("<p>   </p>") == []


def test_plain_text_lines():
    assert html_to_paragraphs("one\ntwo\n\nthree") == ["one", "two", "three"]


def test_tag_cut_off_by_end_of_input_dropped():
    assert html_to_paragraphs("<P") == []
    assert html_to_paragraphs("<p>a</p><P") == ["a"]
    assert html_to_paragraphs("a</") == ["a"]
    assert html_to_paragraphs("a < b") == ["a < b"]
    assert html_to_paragraphs("a <3 b") == ["a <3 b"]


@given(st.text(max_size=400))
@example("<P")
def test_paragraphs_trimmed_and_tag_free(content):
    paragraphs = html_to_paragraphs(content)
    for p in paragraphs:
        assert p == p.strip() and p
    assert "<p" not in " ".join(paragraphs).lower()


# html_to_paragraphs as it was before it collapsed whitespace with str.split():
# one regex substitution per line.  The reference the current version must equal.
_REF_DROP_BLOCK_RE = re.compile(
    r"<(script|style|head)\b[^>]*>.*?</\1\s*>", re.IGNORECASE | re.DOTALL
)
_REF_COMMENT_RE = re.compile(r"<!--.*?-->", re.DOTALL)
_REF_BREAK_RE = re.compile(r"<\s*(?:br|p|/p)\b[^>]*>", re.IGNORECASE)
_REF_TAG_RE = re.compile(r"<[^>]*>")
_REF_UNTERMINATED_TAG_RE = re.compile(r"<[A-Za-z/][^>]*\Z")
_REF_WS_COLLAPSE = re.compile(r"[\s\x00-\x08\x0e-\x1b\ufffe\uffff]+")


def _per_line_html_to_paragraphs(content):
    text = _REF_COMMENT_RE.sub(" ", content)
    text = _REF_DROP_BLOCK_RE.sub(" ", text)
    text = _REF_BREAK_RE.sub("\n", text)
    text = _REF_TAG_RE.sub(" ", text)
    text = _REF_UNTERMINATED_TAG_RE.sub(" ", text)
    text = html.unescape(text)
    paragraphs = []
    for chunk in text.split("\n"):
        cleaned = _REF_WS_COLLAPSE.sub(" ", chunk).strip()
        if cleaned:
            paragraphs.append(cleaned)
    return paragraphs


# Whitespace, control and separator characters, with a few letters and the
# markup that becomes breaks, spaces or characters of its own.
_MARKUP = st.lists(
    st.one_of(
        st.text(alphabet="\t\r\x0b\x0c\x1c\x85\xa0\u2028\u3000\x00\x1b\ufffe \nab&;#<>/", max_size=6),
        st.sampled_from(["<p>", "<BR/>", "<!-- -->", "&nbsp;", "&#10;", "&#133;"]),
    ),
    max_size=30,
).map("".join)


@settings(max_examples=300)
@given(_MARKUP)
@example("a\x85b\u3000\t&#133;&nbsp;<BR/>\x00 c\ufffe\x0b")
def test_html_to_paragraphs_matches_the_per_line_version(content):
    assert html_to_paragraphs(content) == _per_line_html_to_paragraphs(content)


def test_str_isspace_and_re_whitespace_agree_on_every_code_point():
    # html_to_paragraphs splits lines with str.split(), which stands for \s.
    ws = re.compile(r"\s").match
    assert [c for c in range(0x110000) if chr(c).isspace()] == [
        c for c in range(0x110000) if ws(chr(c))
    ]


def _paragraphs(text_lang):
    return bank_lines(text_lang)[:12]


def test_verify_accepts_matching(profile_index):
    verdict = verify_language("fr", _paragraphs("fr"), profile_index)
    assert verdict.accepted and not verdict.low_confidence
    assert verdict.guessed_lang == "fr"


def test_verify_rejects_cross_labeled(profile_index):
    verdict = verify_language("fr", _paragraphs("en"), profile_index)
    assert not verdict.accepted
    assert verdict.guessed_lang == "en"


def test_verify_short_text_low_confidence(profile_index):
    verdict = verify_language("fr", ["oui"], profile_index)
    assert verdict.accepted and verdict.low_confidence


def test_verify_uses_given_paragraphs(profile_index):
    # The paragraphs are verified as one text: split or joined, the verdict is the same.
    for text_lang in ("fr", "en"):
        paragraphs = _paragraphs(text_lang)
        assert verify_language("fr", paragraphs, profile_index) == verify_language(
            "fr", [" ".join(paragraphs)], profile_index
        )
    with pytest.raises(ParcelexError, match="^no text to verify as 'fr'$"):
        verify_language("fr", [], profile_index)


def test_verify_unknown_declared_language(profile_index):
    with pytest.raises(ParcelexError, match="^no profile for declared language 'xx'$"):
        verify_language("xx", _paragraphs("en"), profile_index)


NEW = sorted(NEW_MEMBER_LANGUAGES)
OLD = sorted(ALL_LANGUAGES - NEW_MEMBER_LANGUAGES - {"ro"})


def test_select_keeps_with_three_new_members():
    langs = set(OLD[:9]) | {"cs", "hu", "pl"}
    assert len(langs) == 12
    assert select_corpus({"a": langs}) == {"a"}


def test_select_drops_below_ten():
    langs = set(OLD[:6]) | {"cs", "hu", "pl"}
    assert len(langs) == 9
    assert select_corpus({"a": langs}) == set()


def test_select_romanian_alone_satisfies():
    # Only two 2004-joiner languages, but Romanian satisfies the criterion alone.
    langs = set(OLD) | {"et", "lv", "ro"}
    assert len(langs) == 14
    assert select_corpus({"a": langs}) == {"a"}


def test_select_ten_old_without_new_members_dropped():
    langs = set(OLD[:10])
    assert select_corpus({"a": langs}) == set()


def test_select_unknown_code():
    with pytest.raises(ParcelexError, match=r"^a: unknown language codes \['zz'\]$"):
        select_corpus({"a": {"en", "zz"}})


@given(
    st.sets(st.sampled_from(sorted(ALL_LANGUAGES)), min_size=1, max_size=21),
    st.sampled_from(sorted(ALL_LANGUAGES)),
)
def test_select_monotone(langs, extra):
    kept_before = select_corpus({"a": langs}) == {"a"}
    kept_after = select_corpus({"a": langs | {extra}}) == {"a"}
    if kept_before:
        assert kept_after
