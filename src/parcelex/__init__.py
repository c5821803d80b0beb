"""parcelex: multilingual parallel corpus construction for CELEX documents.

Parses CELEX identifiers, normalizes per-language documents into TEI-style
numbered-paragraph XML, aligns paragraphs pairwise with a length-based
dynamic-programming aligner and a three-phase lexicon-bootstrapped one,
and serializes stand-off, CSV and in-place bilingual alignment files plus
corpus statistics.
"""

from .beads import AlignmentLink, BitextAlignment
from .celex import CelexId, document_url, format_celex, jrc_document_id, parse_celex
from .galechurch import GCParams, align_gale_church, exhaustive_align
from .hunalign import HunParams, Lexicon, align_hunalign, build_lexicon, similarity_align
from .ingest import FetchSource, RawDocument, fetch_document, html_to_paragraphs, select_corpus
from .langid import LanguageProfile, ProfileIndex, guess_language, train_language_profile
from .standoff import (
    StandoffFile,
    aligner_agreement,
    arity_distribution,
    export_csv,
    export_standoff_xml,
    generate_inplace,
    import_csv,
    import_standoff_xml,
)
from .stats import corpus_stats_table, eurovoc_frequency, word_count
from .tei import (
    Paragraph,
    SectionBoundaries,
    TeiDocument,
    build_document,
    classify_sections,
    parse_tei,
    serialize_tei,
)

__version__ = "0.1.0"

__all__ = [
    "AlignmentLink",
    "BitextAlignment",
    "CelexId",
    "FetchSource",
    "GCParams",
    "HunParams",
    "LanguageProfile",
    "Lexicon",
    "Paragraph",
    "ProfileIndex",
    "RawDocument",
    "SectionBoundaries",
    "StandoffFile",
    "TeiDocument",
    "align_gale_church",
    "align_hunalign",
    "aligner_agreement",
    "arity_distribution",
    "build_document",
    "build_lexicon",
    "classify_sections",
    "corpus_stats_table",
    "document_url",
    "eurovoc_frequency",
    "exhaustive_align",
    "export_csv",
    "export_standoff_xml",
    "fetch_document",
    "format_celex",
    "generate_inplace",
    "guess_language",
    "html_to_paragraphs",
    "import_csv",
    "import_standoff_xml",
    "jrc_document_id",
    "parse_celex",
    "parse_tei",
    "select_corpus",
    "serialize_tei",
    "similarity_align",
    "train_language_profile",
    "word_count",
]
