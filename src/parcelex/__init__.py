"""parcelex: multilingual parallel corpus construction for CELEX documents.

Parses CELEX identifiers, normalizes per-language documents into TEI-style
numbered-paragraph XML, aligns paragraphs pairwise with a length-based
dynamic-programming aligner and a three-phase lexicon-bootstrapped one,
and serializes stand-off, CSV and in-place bilingual alignment files plus
corpus statistics.
"""

__version__ = "0.1.0"
