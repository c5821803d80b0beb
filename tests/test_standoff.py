import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES
from parcelex.beads import AlignmentLink, BitextAlignment
from parcelex.celex import CelexId, parse_celex
from parcelex.errors import ParcelexError
from parcelex.standoff import (
    AgreementReport,
    StandoffFile,
    aligner_agreement,
    arity_distribution,
    canonical_pair,
    export_csv,
    export_standoff_xml,
    generate_inplace,
    import_csv,
    import_standoff_xml,
    standoff_from_alignments,
)
from parcelex.tei import build_document

CELEX = parse_celex("31960D0511")

FIG2_LINK = AlignmentLink(src_pars=(6, 7), tgt_pars=(6,))


def _file(links=None, score=None):
    links = links or (
        AlignmentLink((2,), (2,), score=score),
        FIG2_LINK,
    )
    return StandoffFile(src_lang="et", tgt_lang="mt", entries=((CELEX, tuple(links)),))


def test_export_xml_pointer_layout():
    xml = export_standoff_xml(_file())
    assert '<linkGrp n="31960D0511">' in xml
    assert '<link type="2-1" source="6;7" target="6"/>' in xml
    assert "Otsus" not in xml  # pointers only, no text


def test_xml_round_trip():
    f = _file(score=1.25)
    assert import_standoff_xml(export_standoff_xml(f)) == f


def test_xml_round_trip_with_quotes_and_whitespace_in_attributes():
    f = StandoffFile(src_lang="e\"t'&<\t", tgt_lang="m\nt", entries=((CELEX, (FIG2_LINK,)),))
    xml = export_standoff_xml(f)
    assert "<standoff src=\"e&quot;t'&amp;&lt;&#9;\" tgt=\"m&#10;t\">" in xml
    assert import_standoff_xml(xml) == f


def test_xml_round_trip_preserves_scores():
    f = _file(score=0.1234567890123)
    loaded = import_standoff_xml(export_standoff_xml(f))
    assert loaded.entries[0][1][0].score == 0.1234567890123


def test_empty_entries_valid():
    f = StandoffFile(src_lang="et", tgt_lang="mt", entries=())
    assert import_standoff_xml(export_standoff_xml(f)) == f


def test_import_rejects_bad_pointer():
    xml = export_standoff_xml(_file()).replace('source="6;7"', 'source="6;x"')
    with pytest.raises(ParcelexError, match="^bad paragraph pointer list '6;x'$"):
        import_standoff_xml(xml)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ('type="2-1"', 'type="x-1"', "bad link type 'x-1'"),
        ('type="2-1"', 'type="1-1-1"', "bad link type '1-1-1'"),
        ('type="2-1"', 'type=""', "bad link type ''"),
        ('type="1-1"', 'type="1-+1"', "bad link type '1-+1'"),
        ('type="1-1"', 'type=" 01-1"', "bad link type ' 01-1'"),
        ('type="1-1"', 'type="1_0-1"', "bad link type '1_0-1'"),
        ('source="6;7"', 'source="2;"', "bad paragraph pointer list '2;'"),
        ('source="6;7"', 'source=";2"', "bad paragraph pointer list ';2'"),
        ('source="6;7"', 'source="2;;3"', "bad paragraph pointer list '2;;3'"),
        ('source="6;7"', 'source="3;2"', "paragraph numbers must be contiguous: '3;2'"),
        ('target="6"/>', 'target="6" score="high"/>',
         "bad link 2-1 '6;7' '6': could not convert string to float: 'high'"),
        ('target="6"/>', 'target="6" score="nan"/>', "bad link 2-1 '6;7' '6': score nan is not finite"),
        ('target="6"/>', 'target="6" score="inf"/>', "bad link 2-1 '6;7' '6': score inf is not finite"),
        ('target="6"/>', 'target="6" score="1e999"/>',
         "bad link 2-1 '6;7' '6': score inf is not finite"),
        ('type="2-1" source="6;7" target="6"', 'type="0-0" source="" target=""',
         "link 0-0 points at no paragraph"),
        ('n="31960D0511"', 'n="31960D0511&#10;"', "not a CELEX identifier: '31960D0511\\n'"),
    ],
    ids=["type-x-1", "type-1-1-1", "type-empty", "type-1-+1", "type-space-01-1", "type-1_0-1",
         "source-2;", "source-;2", "source-2;;3", "source-3;2", "score-high", "score-nan",
         "score-inf", "score-1e999", "link-0-0", "celex-newline"],
)
def test_import_rejects_a_malformed_link_field_with_its_own_error(field, value, message):
    xml = export_standoff_xml(_file())
    assert xml.count(field) == 1
    with pytest.raises(ParcelexError, match=f"^{re.escape(message)}$"):
        import_standoff_xml(xml.replace(field, value))


def test_import_rejects_garbage():
    with pytest.raises(ParcelexError, match="^unclosed token: line 1, column 0$"):
        import_standoff_xml("<standoff src='a' tgt='b'")


def test_csv_layout():
    csv = export_csv(_file())
    lines = csv.splitlines()
    assert lines[0].startswith("# standoff-csv v1")
    assert lines[1] == "celex,arity,src_pars,tgt_pars,score"
    assert "31960D0511,2-1,6;7,6," in lines
    assert csv.endswith("\n")


def test_csv_empty_file_header_only():
    csv = export_csv(StandoffFile(src_lang="et", tgt_lang="mt", entries=()))
    assert csv.splitlines()[1] == "celex,arity,src_pars,tgt_pars,score"
    assert len(csv.splitlines()) == 2


def test_csv_round_trip():
    f = _file(score=0.123456)
    assert import_csv(export_csv(f)) == f


@pytest.mark.parametrize(
    "row, message",
    [
        # Each id keeps the name the case had when each kind of fault had its own class.
        pytest.param(row, message, id=f"{row}-{kind}")
        for row, kind, message in [
            ("31960D0511,x-1,6,6,", "UnsupportedArityError", "bad link type 'x-1'"),
            ("31960D0511,1-+1,6,6,", "UnsupportedArityError", "bad link type '1-+1'"),
            ("31960D0511, 01-1,6,6,", "UnsupportedArityError", "bad link type ' 01-1'"),
            ("31960D0511,1_0-1,6,6,", "UnsupportedArityError", "bad link type '1_0-1'"),
            ("31960D0511,1-1,6;7,6,", "SchemaViolationError",
             "link type 1-1 does not match '6;7' '6'"),
            ("31960D0511,1-1,6,6", "SchemaViolationError",
             "expected 5 fields, got 4: '31960D0511,1-1,6,6'"),
            ("31960D0511,1-1,6,6,high", "SchemaViolationError",
             "bad link 1-1 '6' '6': could not convert string to float: 'high'"),
            ("31960D0511,1-1,6,6,nan", "SchemaViolationError",
             "bad link 1-1 '6' '6': score nan is not finite"),
            ("31960D0511,1-1,6,6,-inf", "SchemaViolationError",
             "bad link 1-1 '6' '6': score -inf is not finite"),
            ("31960D0511,1-1,6,6,1e999", "SchemaViolationError",
             "bad link 1-1 '6' '6': score inf is not finite"),
        ]
    ],
)
def test_csv_corrupted_rows_are_input_errors(row, message):
    text = f"# standoff-csv v1 et-mt\ncelex,arity,src_pars,tgt_pars,score\n{row}\n"
    with pytest.raises(ParcelexError, match=f"^{re.escape(message)}$"):
        import_csv(text)


def test_xml_unsorted_groups_are_schema_violations():
    xml = export_standoff_xml(_file())
    group = xml[xml.index("  <linkGrp") : xml.index("</standoff>")]
    with pytest.raises(ParcelexError, match="^entries must be sorted by celex$"):
        import_standoff_xml(xml.replace(group, group + group.replace("31960D0511", "31950D0511")))
    with pytest.raises(ParcelexError, match="^duplicate celex entries$"):
        import_standoff_xml(xml.replace(group, group + group))


@pytest.mark.parametrize(
    "first_line",
    ["", "# standoff-csv v1", "# standoff-csv v2 et-mt", "# standoff-csv v1 english-mt",
     "# standoff-csv v1 et-MT", "# standoff-csv v1 et-mt-lv", "# et-mt"],
    ids=["missing", "no-pair", "v2", "word-not-code", "uppercase", "three-codes", "no-version"],
)
def test_csv_without_the_version_line_is_schema_violation(first_line):
    rows = export_csv(_file()).split("\n", 1)[1]
    with pytest.raises(ParcelexError, match=r"^expected the first line '# standoff-csv v1 <src>-<tgt>'$"):
        import_csv(f"{first_line}\n{rows}")


def test_csv_bad_header_is_schema_violation():
    with pytest.raises(ParcelexError, match="^expected header 'celex,arity,src_pars,tgt_pars,score'$"):
        import_csv("# standoff-csv v1 et-mt\ncelex,arity\n")


def test_canonical_pair():
    assert canonical_pair("mt", "et") == ("et", "mt")
    assert canonical_pair("et", "mt") == ("et", "mt")


def test_standoff_from_alignments_sorts():
    mk = lambda code: BitextAlignment(
        celex=parse_celex(code), src_lang="et", tgt_lang="mt",
        links=(AlignmentLink((2,), (2,)),),
    )
    f = standoff_from_alignments([mk("31970D0001"), mk("31960D0511")])
    assert [format(c) for c, _ in f.entries] == ["31960D0511", "31970D0001"]


def _arity_walk(rnd, n, m):
    """Random monotone cover of n x m paragraphs (both-sides numbering from 2)."""
    links = []
    i = j = 0
    arities = [(1, 1), (1, 0), (0, 1), (2, 1), (1, 2), (2, 2)]
    while i < n or j < m:
        a, b = rnd.choice(arities)
        if i + a > n or j + b > m:
            continue
        if a == 0 and j + b > m or b == 0 and i + a > n:
            continue
        links.append(
            AlignmentLink(
                tuple(range(2 + i, 2 + i + a)),
                tuple(range(2 + j, 2 + j + b)),
                score=round(rnd.random(), 6),
            )
        )
        i += a
        j += b
    return tuple(links)


def test_generated_files_round_trip_both_formats():
    rnd = random.Random(60)
    for trial in range(50):
        entries = []
        for d in range(rnd.randint(0, 4)):
            celex = CelexId(3, 1960 + d, "D", f"{d:04d}")
            entries.append((celex, _arity_walk(rnd, rnd.randint(1, 8), rnd.randint(1, 8))))
        f = StandoffFile(src_lang="de", tgt_lang="fr", entries=tuple(entries))
        assert import_standoff_xml(export_standoff_xml(f)) == f
        assert import_csv(export_csv(f)) == f


def test_generate_inplace_golden(figure2_documents):
    et, mt, links = figure2_documents
    golden = (FIXTURES / "golden" / "jrc31960D0511-et-mt.xml").read_text(encoding="utf-8")
    xml = generate_inplace(et, mt, links)
    assert xml == golden
    assert 'select="et mt"' in xml
    assert 'id="jrc31960D0511-et-mt"' in xml
    ab = xml[xml.index('<ab type="2-1"'):]
    ab = ab[: ab.index("</ab>")]
    assert '<seg lang="et" n="6"' in ab
    assert '<seg lang="et" n="7"' in ab
    assert '<seg lang="mt" n="6"' in ab


def test_generate_inplace_covers_every_paragraph_once(figure2_documents):
    et, mt, links = figure2_documents
    xml = generate_inplace(et, mt, links)
    for n in range(2, et.extent + 1):
        assert xml.count(f'<seg lang="et" n="{n}"') == 1
    for n in range(2, mt.extent + 1):
        assert xml.count(f'<seg lang="mt" n="{n}"') == 1


def test_generate_inplace_identical_toy_docs(figure2_documents):
    et, _, _ = figure2_documents
    links = [AlignmentLink((n,), (n,)) for n in range(2, et.extent + 1)]
    xml = generate_inplace(et, et, links)
    assert xml.count('<ab type="1-1"') == et.extent - 1


def test_generate_inplace_dangling_pointer(figure2_documents):
    et, mt, links = figure2_documents
    bad = list(links)[:-1] + [AlignmentLink((6, 7), (99,))]
    with pytest.raises(ParcelexError, match=r"^target paragraph 99 not in jrc31960D0511-mt \(extent "):
        generate_inplace(et, mt, bad)


def test_generate_inplace_requires_full_coverage(figure2_documents):
    et, mt, links = figure2_documents
    with pytest.raises(ValueError):
        generate_inplace(et, mt, links[:-1])


def test_generate_inplace_refuses_a_run_with_a_gap():
    # Both runs start where coverage expects them, but the first skips source paragraph 3.
    src = build_document(CELEX, "et", "Pealkiri.", ["Üks.", "Kaks.", "Kolm."])
    tgt = build_document(CELEX, "mt", "Titlu.", ["Wieħed.", "Tnejn."])
    message = "^links must cover every paragraph after the head exactly once$"
    with pytest.raises(ParcelexError, match=message):
        generate_inplace(src, tgt, [AlignmentLink((2, 4), (2,)), AlignmentLink((4,), (3,))])


def _alignment(links, celex=CELEX):
    return BitextAlignment(celex=celex, src_lang="et", tgt_lang="mt", links=tuple(links))


def test_arity_distribution_all_one_one():
    a = _alignment([AlignmentLink((n,), (n,)) for n in (1, 2, 3)])
    dist = arity_distribution([a])
    assert dist.links == {"1-1": 1.0}
    assert dist.paragraphs == {"1-1": 1.0}


def test_arity_distribution_mixed():
    a = _alignment(
        [
            AlignmentLink((1,), (1,)),
            AlignmentLink((2, 3), (2,)),
        ]
    )
    dist = arity_distribution([a])
    assert dist.links == {"1-1": 0.5, "2-1": 0.5}
    assert dist.paragraphs["1-1"] == pytest.approx(2 / 5)
    assert dist.paragraphs["2-1"] == pytest.approx(3 / 5)


def test_arity_distribution_fractions_sum_to_one():
    rnd = random.Random(3)
    alignments = [
        _alignment(_arity_walk(rnd, rnd.randint(1, 9), rnd.randint(1, 9)))
        for _ in range(20)
    ]
    dist = arity_distribution(alignments)
    assert sum(dist.links.values()) == pytest.approx(1.0, abs=1e-9)
    assert sum(dist.paragraphs.values()) == pytest.approx(1.0, abs=1e-9)


def test_arity_distribution_empty():
    with pytest.raises(ParcelexError, match="^no links in the collection$"):
        arity_distribution([])


def test_agreement_identical():
    links = [AlignmentLink((n,), (n,)) for n in (1, 2, 3)]
    report = aligner_agreement(
        standoff_from_alignments([_alignment(links)]), standoff_from_alignments([_alignment(links)])
    )
    assert report.exact_match_fraction == 1.0
    assert report.n_links_a == report.n_links_b == 3


def test_agreement_disjoint():
    a = [_alignment([AlignmentLink((1, 2), (1,)), AlignmentLink((3,), (2, 3))])]
    b = [_alignment([AlignmentLink((n,), (n,)) for n in (1, 2, 3)])]
    report = aligner_agreement(standoff_from_alignments(a), standoff_from_alignments(b))
    assert report.exact_match_fraction == 0.0


def test_agreement_jaccard_arithmetic():
    shared = [AlignmentLink((n,), (n,)) for n in (1, 2)]
    only_a = [AlignmentLink((3, 4), (3,)), AlignmentLink((5,), (4,))]
    only_b = [AlignmentLink((3,), (3,)), AlignmentLink((4, 5), (4,))]
    report = aligner_agreement(
        standoff_from_alignments([_alignment(shared + only_a)]),
        standoff_from_alignments([_alignment(shared + only_b)]),
    )
    assert report.n_links_a == 4 and report.n_links_b == 4
    assert report.exact_match_fraction == pytest.approx(2 / 6)


def test_agreement_symmetric():
    rnd = random.Random(17)
    a = standoff_from_alignments([_alignment(_arity_walk(rnd, 7, 7))])
    b = standoff_from_alignments([_alignment(_arity_walk(rnd, 7, 7))])
    assert (
        aligner_agreement(a, b).exact_match_fraction
        == aligner_agreement(b, a).exact_match_fraction
    )


def test_agreement_confusion_counts_paragraphs():
    a = [_alignment([AlignmentLink((1, 2), (1,))])]
    b = [_alignment([AlignmentLink((1,), ()), AlignmentLink((2,), (1,))])]
    report = aligner_agreement(standoff_from_alignments(a), standoff_from_alignments(b))
    assert report.per_arity_confusion == {("2-1", "1-0"): 1, ("2-1", "1-1"): 2}


def test_agreement_mismatched_documents():
    a = [_alignment([AlignmentLink((1,), (1,))])]
    b = [_alignment([AlignmentLink((1,), (1,))], celex=parse_celex("31999R0001"))]
    with pytest.raises(ParcelexError, match="^cover different documents: 31960D0511, 31999R0001$"):
        aligner_agreement(standoff_from_alignments(a), standoff_from_alignments(b))
