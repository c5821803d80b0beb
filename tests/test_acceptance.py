"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import datetime
import functools
import itertools
import json
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import FIXTURES, bank_lines, held_out_chunks
from parcelex.beads import AlignmentLink
from parcelex.celex import CelexId, document_url, format_celex, parse_celex
from parcelex.galechurch import GCParams, align_gale_church, alignment_cost, exhaustive_align
from parcelex.hunalign import HunParams, align_hunalign, build_lexicon, prepare_pair, similarity_align
from parcelex.ingest import verify_language
from parcelex.langid import guess_language
from parcelex.standoff import (
    StandoffFile,
    arity_distribution,
    export_csv,
    export_standoff_xml,
    generate_inplace,
    import_csv,
    import_standoff_xml,
)
from parcelex.stats import corpus_stats_table
from parcelex.synth import corrupted_corpus, link_f1, planted_bitext
from parcelex.tei import SectionBoundaries, build_document, parse_tei, serialize_tei

from test_cli import make_config


def criterion(number, title):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] criterion {number} ({title}): FAIL")
                raise
            elapsed = time.perf_counter() - start
            print(f"[acceptance] criterion {number} ({title}): PASS ({elapsed:.2f}s)")

        return run

    return wrap


@criterion(1, "CELEX round-trip")
def test_c01_celex_round_trip():
    start = time.perf_counter()
    ids = [
        CelexId(doc_type, year, letter, serial, part)
        for doc_type in range(10)
        for year in (0, 1958, 1999, 2004, 9999)
        for letter in "ADLR"
        for serial in ("0000", "0511", "0624", "9999")
        for part in (None, 1, 99)
    ]
    assert len(ids) >= 1000
    for celex in ids:
        text = format_celex(celex)
        assert parse_celex(text) == celex
        assert format_celex(parse_celex(text)) == text
    assert format_celex(parse_celex("21999D0624(01)")) == "21999D0624(01)"
    assert time.perf_counter() - start < 1.0


@criterion(2, "URL fidelity")
def test_c02_url_fidelity():
    url = document_url(parse_celex("42004D0097"), "fr", "lexuriserv")
    assert url == (
        "http://europa.eu.int/eur-lex/lex/LexUriServ/LexUriServ.do"
        "?uri=CELEX:42004D0097:fr:HTML"
    )


@criterion(3, "Gale-Church oracle equivalence")
def test_c03_oracle_equivalence():
    start = time.perf_counter()
    params = GCParams()
    rng = random.Random(20060524)
    for trial in range(200):
        n, m = rng.randint(0, 10), rng.randint(0, 10)
        if n == 0 and m == 0:
            n = 1
        src = ["x" * rng.randint(5, 300) for _ in range(n)]
        tgt = ["y" * rng.randint(5, 300) for _ in range(m)]
        dp = align_gale_church(src, tgt, params)
        oracle = exhaustive_align(src, tgt, params)
        assert alignment_cost(dp) == alignment_cost(oracle), f"instance {trial}"
    assert time.perf_counter() - start < 30.0


@criterion(4, "1-1 dominance bracket")
def test_c04_one_one_dominance():
    start = time.perf_counter()
    corpus = corrupted_corpus(500, seed=1960, p_delete=0.02, p_merge=0.05)
    params = GCParams()
    alignments = [
        align_gale_church(pair.src_pars, pair.tgt_pars, params) for pair in corpus
    ]
    dist = arity_distribution(alignments)
    fraction = dist.paragraphs["1-1"]
    assert 0.80 <= fraction <= 0.92, fraction
    assert time.perf_counter() - start < 60.0


def _planted_phases():
    bitext = planted_bitext(n_pairs=1000, dict_size=50, seed=1960)
    params = HunParams()
    celexes = sorted(bitext.src_docs)
    phase1 = [
        similarity_align(bitext.src_docs[c], bitext.tgt_docs[c], None, params, celex=c)
        for c in celexes
    ]
    phase3, lexicon = align_hunalign(bitext.src_docs, bitext.tgt_docs, params)
    return bitext, params, celexes, phase1, lexicon, phase3


@criterion(5, "lexicon recovery")
def test_c05_lexicon_recovery():
    start = time.perf_counter()
    bitext, params, celexes, phase1, lexicon, _ = _planted_phases()
    recovered = sum(
        1 for s, t in bitext.dictionary.items() if lexicon.entries.get((s, t), 0.0) >= 0.5
    )
    assert recovered >= 0.9 * len(bitext.dictionary), recovered
    prepared = {
        c: prepare_pair(bitext.src_docs[c], bitext.tgt_docs[c], params.max_split) for c in celexes
    }
    again = build_lexicon(phase1, prepared, params)
    # The driver's phase 2 ran on this phase 1, and is deterministic under the default seed.
    assert again.entries == lexicon.entries
    assert time.perf_counter() - start < 30.0


@criterion(6, "lexicon-informed realignment benefit")
def test_c06_phase3_benefit():
    bitext, _, celexes, phase1, _, phase3 = _planted_phases()
    gold = [(c, bitext.gold[c]) for c in celexes]
    f1_phase1 = link_f1(phase1, gold)
    f1_phase3 = link_f1(phase3, gold)
    assert f1_phase3 >= f1_phase1, (f1_phase1, f1_phase3)
    for alignment in itertools.chain(phase1, phase3):
        for link in alignment.links:
            assert link.arity != (2, 2)


@criterion(7, "TEI round-trip and golden fixtures")
def test_c07_tei_round_trip(figure1_document, figure2_documents):
    rng = random.Random(40)
    lines = bank_lines("fr") + bank_lines("en")
    for i in range(20):
        body = [rng.choice(lines) for _ in range(rng.randint(0, 12))]
        extent = len(body) + 1
        sig = rng.randint(2, extent) if extent > 2 and rng.random() < 0.5 else None
        annex = None
        if sig is not None and sig < extent and rng.random() < 0.5:
            annex = rng.randint(sig + 1, extent)
        doc = build_document(
            celex=CelexId(3, 1960 + i, "D", f"{i:04d}"),
            lang=rng.choice(["en", "fr"]),
            title=rng.choice(lines),
            body_paragraphs=body,
            boundaries=SectionBoundaries(signature_start=sig, annex_start=annex),
            eurovoc_codes={rng.randint(1, 9999) for _ in range(rng.randint(0, 3))},
            source_url="http://example.org/source",
            download_date=datetime.date(2006, 2, 20),
        )
        assert parse_tei(serialize_tei(doc)) == doc

    golden1 = (FIXTURES / "golden" / "jrc42004D0097-fr.xml").read_text(encoding="utf-8")
    assert serialize_tei(figure1_document) == golden1
    assert parse_tei(golden1) == figure1_document
    assert "<extent>40 paragraph segments</extent>" in golden1

    et, mt, links = figure2_documents
    golden2 = (FIXTURES / "golden" / "jrc31960D0511-et-mt.xml").read_text(encoding="utf-8")
    assert generate_inplace(et, mt, links) == golden2
    assert 'id="jrc31960D0511-et-mt"' in golden2


@criterion(8, "stand-off fidelity")
def test_c08_standoff_fidelity(figure2_documents):
    et, mt, links = figure2_documents
    scored = tuple(
        AlignmentLink(l.src_pars, l.tgt_pars, score=0.25 + i / 8)
        for i, l in enumerate(links)
    )
    file = StandoffFile(src_lang="et", tgt_lang="mt", entries=((et.celex, scored),))
    via_xml = import_standoff_xml(export_standoff_xml(file))
    assert via_xml == file
    assert [l.score for _, ls in via_xml.entries for l in ls] == [
        l.score for _, ls in file.entries for l in ls
    ]
    via_csv = import_csv(export_csv(file))
    assert via_csv == file
    for loaded, original in zip(via_csv.entries[0][1], scored):
        assert loaded.score == pytest.approx(original.score, abs=5e-7)

    xml = generate_inplace(et, mt, links)
    block = xml[xml.index('<ab type="2-1"'):]
    block = block[: block.index("</ab>")]
    assert '<seg lang="et" n="6"' in block
    assert '<seg lang="et" n="7"' in block
    assert '<seg lang="mt" n="6"' in block


# Hand-counted statistics fixture: word counts and character counts per
# paragraph are small enough to verify by eye.
def _stats_fixture():
    def doc(lang, serial, title, body, sig=None, annex=None):
        return build_document(
            celex=CelexId(3, 1984, "D", f"{serial:04d}"),
            lang=lang,
            title=title,
            body_paragraphs=body,
            boundaries=SectionBoundaries(signature_start=sig, annex_start=annex),
            source_url="file:///x",
            download_date=datetime.date(2006, 2, 20),
        )

    return [
        doc("en", 1, "alpha beta", ["one two three", "four five", "signed by someone"], sig=4),
        doc("en", 2, "gamma", ["six seven eight nine", "ANNEX", "ten eleven"], annex=3),
        doc("en", 3, "delta epsilon zeta", ["twelve"]),
        doc("fr", 4, "un deux", ["trois quatre cinq", "six sept", "fait à bruxelles"], sig=4),
        doc("fr", 5, "huit", ["neuf dix onze"]),
    ]


@criterion(9, "statistics exactness")
def test_c09_stats_exactness():
    table = corpus_stats_table(_stats_fixture())
    en = next(r for r in table if r.lang == "en")
    fr = next(r for r in table if r.lang == "fr")
    assert (en.n_texts, en.body_words, en.body_chars) == (3, 16, 81)
    assert (en.signature_words, en.annex_words, en.total_words) == (3, 3, 22)
    assert en.avg_body_words == pytest.approx(16 / 3)
    assert (fr.n_texts, fr.body_words, fr.body_chars) == (2, 11, 49)
    assert (fr.signature_words, fr.annex_words, fr.total_words) == (3, 0, 14)
    for row in table:
        assert row.total_words == row.body_words + row.signature_words + row.annex_words
    # published per-language row, as plain arithmetic
    assert 7_547_154 + 817_085 + 1_568_297 == 9_932_536


@criterion(10, "language guessing")
def test_c10_language_guessing(language_profiles, profile_index):
    total = correct = 0
    for profile in language_profiles:
        for chunk in held_out_chunks(profile.lang, n_chunks=30, size=500):
            guessed, _ = guess_language(chunk, profile_index)
            total += 1
            correct += guessed == profile.lang
    assert correct / total >= 0.99, (correct, total)

    # English paragraphs declared French.
    verdict = verify_language("fr", bank_lines("en")[:12], profile_index)
    assert not verdict.accepted and verdict.guessed_lang == "en"


PIPELINE_STEPS = (
    ["fetch"],
    ["normalize"],
    ["align"],
    ["export"],
    ["bitext", "--pairs", "en-fr", "--celex", "31984D0001"],
    ["stats"],
    ["agree"],
)


def _run_pipeline(config_path: Path):
    for step in PIPELINE_STEPS:
        proc = subprocess.run(
            [sys.executable, "-m", "parcelex", step[0], "--config", str(config_path)]
            + step[1:],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, (step, proc.stderr)


def _tree(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


@criterion(11, "pipeline determinism")
def test_c11_pipeline_determinism(tmp_path, profiles_dir):
    # Two separate processes (fresh hash seeds) over identical config+seed.
    trees = []
    for name in ("one", "two"):
        workdir = tmp_path / name
        workdir.mkdir()
        config_path = make_config(workdir, profiles_dir)
        _run_pipeline(config_path)
        trees.append(_tree(workdir / "out"))
    assert trees[0].keys() == trees[1].keys()
    assert trees[0] == trees[1]
