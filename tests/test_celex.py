import dataclasses
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from parcelex.celex import (
    CCVISTA,
    CelexId,
    LEXURISERV,
    SMARTAPI,
    document_url,
    format_celex,
    jrc_alignment_id,
    jrc_document_id,
    parse_celex,
)
from parcelex.errors import ParcelexError

celex_ids = st.builds(
    CelexId,
    doc_type=st.integers(0, 9),
    year=st.integers(0, 9999),
    letter=st.sampled_from("ABCDEFGHIJKLMNOPQRSTUVWXYZ"),
    serial=st.integers(0, 9999).map(lambda n: f"{n:04d}"),
    part=st.one_of(st.none(), st.integers(1, 99)),
)


def test_parse_bracketed():
    assert parse_celex("21999D0624(01)") == CelexId(2, 1999, "D", "0624", 1)


def test_parse_plain():
    assert parse_celex("42004D0097") == CelexId(4, 2004, "D", "0097", None)


def test_format_plain():
    assert format_celex(CelexId(3, 1960, "D", "0511")) == "31960D0511"


def test_format_bracketed():
    assert format_celex(CelexId(2, 1999, "D", "0624", 1)) == "21999D0624(01)"


def test_round_trip_example():
    assert format_celex(parse_celex("21999D0624(01)")) == "21999D0624(01)"


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "2199D0624",          # three-digit year
        "21999d0624",         # lowercase letter
        "21999D624",          # three-digit serial
        "21999D0624(1)",      # one-digit bracket part
        "21999D0624(001)",    # three-digit bracket part
        "21999D0624(00)",     # zero part
        "21999D0624(01)x",    # trailing junk
        "X1999D0624",         # non-digit type
        "21999D0624\n",       # trailing newline
        "21999D0624(01)\n",   # trailing newline after the part
    ],
)
def test_parse_rejects(bad):
    if not bad:
        message = "empty CELEX identifier"
    elif "(00)" in bad:
        message = f"bracket part must be 01-99: {bad!r}"
    else:
        message = f"not a CELEX identifier: {bad!r}"
    with pytest.raises(ParcelexError, match=f"^{re.escape(message)}$"):
        parse_celex(bad)


@given(celex_ids)
def test_format_parse_identity(celex):
    assert parse_celex(format_celex(celex)) == celex


@given(st.lists(celex_ids), st.lists(st.one_of(st.none(), st.integers(1, 99))))
def test_ids_sort_as_their_formatted_forms(ids, parts):
    # Other parts of the same documents, so that plain and bracketed ids meet.
    ids += [dataclasses.replace(celex, part=part) for celex, part in zip(ids, parts)]
    assert sorted(ids) == sorted(ids, key=format_celex)


@given(celex_ids, st.sampled_from(["en", "fr", "ro", "mt"]))
def test_url_contains_celex_once_and_lang(celex, lang):
    endpoint = LEXURISERV if celex.part is not None else SMARTAPI
    url = document_url(celex, lang, endpoint)
    assert url.count(format_celex(celex)) == 1
    assert lang in url
    cc = document_url(celex, lang, CCVISTA)
    assert cc.count(format_celex(celex)) == 1
    assert cc.count(f"/{lang}/") == 1 and cc.endswith(f"-{lang}.doc")


def test_lexuriserv_url_matches_reference():
    url = document_url(parse_celex("42004D0097"), "fr", LEXURISERV)
    assert url == (
        "http://europa.eu.int/eur-lex/lex/LexUriServ/LexUriServ.do"
        "?uri=CELEX:42004D0097:fr:HTML"
    )


def test_smartapi_url_template():
    url = document_url(parse_celex("31960D0511"), "en", SMARTAPI)
    assert url == (
        "http://europa.eu.int/smartapi/cgi/sga_doc"
        "?smartapi!celexpls!prod!CELEXnumdoc&numdoc=31960D0511&lg=en"
    )


def test_ccvista_url_template():
    url = document_url(parse_celex("31960D0511"), "ro", CCVISTA)
    assert url == "http://ccvista.taiaex.be/Fulcrum/CCVista/ro/31960D0511-ro.doc"
    other = document_url(parse_celex("31960D0511"), "ro", CCVISTA, ccvista_host="example.org")
    assert other.startswith("http://example.org/")


def test_smartapi_rejects_bracketed():
    with pytest.raises(ParcelexError, match=r"smartapi cannot address bracketed id 21999D0624\(01\)"):
        document_url(parse_celex("21999D0624(01)"), "en", SMARTAPI)


def test_unknown_endpoint():
    with pytest.raises(ValueError):
        document_url(parse_celex("31960D0511"), "en", "gopher")


def test_jrc_document_id():
    assert jrc_document_id(parse_celex("42004D0097"), "fr") == "jrc42004D0097-fr"
    with pytest.raises(ValueError, match="two-letter"):
        jrc_document_id(parse_celex("42004D0097"), "fr\n")


def test_jrc_alignment_id():
    assert jrc_alignment_id(parse_celex("31960D0511"), "et", "mt") == "jrc31960D0511-et-mt"
