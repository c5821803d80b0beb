"""parcelex: multilingual parallel corpus construction for CELEX documents.

Parses CELEX identifiers, normalizes per-language documents into TEI-style
numbered-paragraph XML, aligns paragraphs pairwise with a length-based
dynamic-programming aligner and a three-phase lexicon-bootstrapped one,
and serializes stand-off, CSV and in-place bilingual alignment files plus
corpus statistics.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Each public name and the submodule that defines it. A name is looked up in
# its submodule on each access, so ``import parcelex`` loads only the
# submodules a caller uses and a name is always what its submodule holds.
_EXPORTS = {
    "beads": ("AlignmentLink", "BitextAlignment"),
    "celex": ("CelexId", "document_url", "format_celex", "jrc_document_id", "parse_celex"),
    "galechurch": ("align_gale_church", "exhaustive_align"),
    "hunalign": ("Lexicon", "align_hunalign", "build_lexicon", "similarity_align"),
    "ingest": ("RawDocument", "fetch_document", "html_to_paragraphs", "select_corpus"),
    "langid": ("LanguageProfile", "ProfileIndex", "guess_language", "train_language_profile"),
    "params": ("FetchSource", "GCParams", "HunParams"),
    "standoff": (
        "StandoffFile",
        "aligner_agreement",
        "arity_distribution",
        "export_csv",
        "export_standoff_xml",
        "generate_inplace",
        "import_csv",
        "import_standoff_xml",
    ),
    "stats": ("corpus_stats_table", "eurovoc_frequency", "word_count"),
    "tei": (
        "Paragraph",
        "SectionBoundaries",
        "TeiDocument",
        "build_document",
        "classify_sections",
        "parse_tei",
        "serialize_tei",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
