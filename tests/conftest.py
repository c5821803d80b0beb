import datetime
import itertools
from pathlib import Path

import pytest

from parcelex.beads import AlignmentLink
from parcelex.celex import parse_celex
from parcelex.langid import ProfileIndex, train_language_profile
from parcelex.tei import SectionBoundaries, build_document

FIXTURES = Path(__file__).parent / "fixtures"

BANK_LANGS = ("de", "en", "es", "fr", "it")


def bank_lines(lang: str) -> list[str]:
    return (FIXTURES / "lang" / f"{lang}.txt").read_text(encoding="utf-8").splitlines()


def bank_split(lang: str) -> tuple[list[str], list[str]]:
    """Deterministic 75/25 train/held-out split of a language bank."""
    lines = bank_lines(lang)
    cut = int(len(lines) * 0.75)
    return lines[:cut], lines[cut:]


def training_text(lang: str, min_chars: int = 12_000) -> str:
    train, _ = bank_split(lang)
    text = " ".join(train)
    while len(text) < min_chars:
        text += " " + " ".join(train)
    return text


def held_out_chunks(lang: str, n_chunks: int = 30, size: int = 500) -> list[str]:
    _, held = bank_split(lang)
    stream = " ".join(itertools.islice(itertools.cycle(held), 400))
    return [stream[i * size : (i + 1) * size] for i in range(n_chunks)]


@pytest.fixture(scope="session")
def language_profiles():
    return [train_language_profile(training_text(lang), lang) for lang in BANK_LANGS]


@pytest.fixture(scope="session")
def profile_index(language_profiles):
    return ProfileIndex(language_profiles)


@pytest.fixture(scope="session")
def profiles_dir(tmp_path_factory):
    """Profiles for the pipeline languages, persisted as the CLI expects."""
    from parcelex.langid import save_profile

    directory = tmp_path_factory.mktemp("profiles")
    for lang in ("de", "en", "fr"):
        save_profile(
            train_language_profile(training_text(lang), lang),
            directory / f"{lang}.profile",
        )
    return directory


# Verbatim paragraph content of the French reference document (42004D0097).
FIGURE1_TITLE = (
    "2004/97/CE,Euratom: Décision prise du commun accord des représentants des États "
    "membres réunis au niveau des chefs d'État ou de gouvernement du 13 décembre 2003 "
    "relative à la fixation des sièges de certains organismes de l'Union européenne"
)

FIGURE1_OPENING = [
    "Décision prise du commun accord des représentants des États membres réunis au "
    "niveau des chefs d'État ou de gouvernement",
    "du 13 décembre 2003",
    "relative à la fixation des sièges de certains organismes de l'Union européenne",
    "(2004/97/CE, Euratom)",
    "LES REPRÉSENTANTS DES ÉTATS MEMBRES, RÉUNIS AU NIVEAU DES CHEFS D'ÉTAT OU DE "
    "GOUVERNEMENT,",
    "vu le traité instituant la Communauté européenne, et notamment son article 289, "
    "et le traité instituant la Communauté européenne de l'énergie atomique, et "
    "notamment son article 189,",
    "considérant ce qui suit:",
]

_FIGURE1_FILLER = [
    "(1) La désignation du siège des organismes de l'Union doit être arrêtée d'un commun accord.",
    "(2) Il convient de fixer le siège de certains organismes créés récemment.",
    "(3) L'élargissement de l'Union rend nécessaire une répartition équilibrée des sièges.",
    "(4) Les représentants des États membres se sont réunis au niveau des chefs d'État.",
    "(5) Il y a lieu de tenir compte des offres présentées par les États membres concernés.",
    "ONT ARRÊTÉ LA PRÉSENTE DÉCISION:",
    "Article premier",
    "L'Autorité européenne de sécurité des aliments a son siège à Parme.",
    "Article 2",
    "L'Agence européenne pour la sécurité maritime a son siège à Lisbonne.",
    "Article 3",
    "L'Agence européenne de la sécurité aérienne a son siège à Cologne.",
    "Article 4",
    "L'Agence ferroviaire européenne a son siège à Lille-Valenciennes.",
    "Article 5",
    "L'Agence européenne chargée de la sécurité des réseaux a son siège en Grèce.",
    "Article 6",
    "Le Centre européen de prévention et de contrôle des maladies a son siège en Suède.",
    "Article 7",
    "L'Office communautaire des variétés végétales a son siège à Angers.",
    "Article 8",
    "Eurojust a son siège à La Haye.",
    "Article 9",
    "Le Collège européen de police a son siège à Bramshill.",
    "Article 10",
    "La présente décision est publiée au Journal officiel de l'Union européenne.",
    "Les sièges mentionnés ci-dessus sont confirmés par les gouvernements concernés.",
    "La présente décision prend effet le jour de sa publication.",
]

_FIGURE1_SIGNATURE = [
    "Fait à Bruxelles, le 13 décembre 2003.",
    "Par le Conseil",
    "Le président",
    "F. Frattini",
]

FIGURE1_URL = (
    "http://europa.eu.int/eur-lex/lex/LexUriServ/LexUriServ.do"
    "?uri=CELEX:42004D0097:fr:HTML"
)


@pytest.fixture(scope="session")
def figure1_document():
    body = FIGURE1_OPENING + _FIGURE1_FILLER + _FIGURE1_SIGNATURE
    assert len(body) == 39  # title + 39 = 40 paragraph segments
    return build_document(
        celex=parse_celex("42004D0097"),
        lang="fr",
        title=FIGURE1_TITLE,
        body_paragraphs=body,
        boundaries=SectionBoundaries(signature_start=37),
        eurovoc_codes=(4180, 5769),
        source_url=FIGURE1_URL,
        download_date=datetime.date(2006, 2, 20),
    )


# Verbatim paragraph content of the Estonian-Maltese reference pair (31960D0511).
FIGURE2_ET = [
    "Euroopa Ühenduste Komisjon: Otsus, millega kinnitatakse Euratomi tarneagentuuri "
    "ülesannete alguskuupäev ning kiidetakse heaks tarneagentuuri 5. mai 1960. aasta "
    "eeskiri, millega nähakse ette, kuidas maakide, lähtematerjalide ja lõhustuvate "
    "erimaterjalide nõudlust pakkumisega tasakaalustada",
    "Otsus,",
    "millega kinnitatakse Euratomi Tarneagentuuri ülesannete alguskuupäev ning "
    "kiidetakse heaks tarneagentuuri 5. mai 1960. aasta eeskiri, millega nähakse "
    "ette, kuidas maakide, lähtematerjalide ja lõhustuvate erimaterjalide nõudlust "
    "pakkumisega tasakaalustada",
    "EUROOPA ÜHENDUSTE KOMISJON,",
    "võttes arvesse Euroopa Aatomienergiaühenduse asutamislepingut, eriti selle "
    "artikleid 52, 53, 60 ja 222",
    "ning arvestades, et:",
    "komisjon peab kinnitama kuupäeva, millal tarneagentuur alustab talle "
    "asutamislepinguga seatud ülesannete täitmist;",
]

FIGURE2_MT = [
    "Id-DEĊIŻJONI li tiffissa d-data meta l-Aġenzija għall-Forniment tal-Euratom "
    "għandha tibda taqdi d-dmirijiet tagħha u li tapprova r-Regoli ta' l-Aġenzija "
    "tal-5 ta' Mejju 1960 li jistabbilixxu l-manjiera li fiha d-domanda għandha "
    "tiġi bilanċjata kontra l-provvista ta minerali, materjali primi u materjali "
    "speċjali fissili",
    "Id-deċiżjoni",
    "li tiffissa d-data meta l-Aġenzija għall-Forniment tal-Euratom għandha tibda "
    "taqdi d-dmirijiet tagħha u li tapprova r-Regoli ta' l-Aġenzija tal-5 ta' Mejju "
    "1960 li jistabbilixxu l-manjiera li fiha d-domanda għandha tiġi bilanċjata "
    "kontra l-provvista ta' minerali, materjali primi u materjali speċjali fissili",
    "IL-KUMMISSJONI TAL-KOMUNITÀ EWROPEA DWAR L-ENERĠIJA ATOMIKA,",
    "Wara li kkunsidrat it-Trattat li jistabbilixxi l-Komunità Ewropea dwar "
    "l-Enerġija Atomika, u partikolarment l-Artikoli 52, 53, 60 u 222 tiegħu;",
    "Billi hhija l-Kummissjoni li tiffissa d-data li fiha l-Aġenzija għall-Forniment "
    "għandha tidhol għad-dmirijiet li jgħaddu għandha taht it-Trattat;",
]

FIGURE2_LINKS = (
    AlignmentLink(src_pars=(2,), tgt_pars=(2,)),
    AlignmentLink(src_pars=(3,), tgt_pars=(3,)),
    AlignmentLink(src_pars=(4,), tgt_pars=(4,)),
    AlignmentLink(src_pars=(5,), tgt_pars=(5,)),
    AlignmentLink(src_pars=(6, 7), tgt_pars=(6,)),
)


@pytest.fixture(scope="session")
def figure2_documents():
    celex = parse_celex("31960D0511")
    et = build_document(
        celex=celex,
        lang="et",
        title=FIGURE2_ET[0],
        body_paragraphs=FIGURE2_ET[1:],
        source_url="http://europa.eu.int/eur-lex/lex/LexUriServ/LexUriServ.do"
        "?uri=CELEX:31960D0511:et:HTML",
        download_date=datetime.date(2006, 2, 20),
    )
    mt = build_document(
        celex=celex,
        lang="mt",
        title=FIGURE2_MT[0],
        body_paragraphs=FIGURE2_MT[1:],
        source_url="http://europa.eu.int/eur-lex/lex/LexUriServ/LexUriServ.do"
        "?uri=CELEX:31960D0511:mt:HTML",
        download_date=datetime.date(2006, 2, 20),
    )
    return et, mt, FIGURE2_LINKS
