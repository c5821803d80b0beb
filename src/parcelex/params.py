"""Parameters of the fetch source and of the two aligners, as a config sets them.

Reading a config builds these classes, so they live apart from the stage
modules that use them (``ingest``, ``galechurch``, ``hunalign``): a run
loads a stage module only when it runs that stage. This module imports
nothing but ``json``, ``re`` and ``dataclasses``.

A config is JSON, which can also spell ``NaN``, ``Infinity``, strings and
booleans where a number belongs. Every real-valued field must be a finite
``int`` or ``float``, and every count or seed an ``int``; a ``bool`` is
neither.
"""

import json
import re
from dataclasses import dataclass, field

# A language code: two lowercase letters, matched whole.
LANG_RE = re.compile(r"[a-z]{2}")

# The 21 languages of the corpus: the 20 official ones and Romanian.
LANGUAGE_NAMES = {
    "cs": "Czech", "da": "Danish", "de": "German", "el": "Greek",
    "en": "English", "es": "Spanish", "et": "Estonian", "fi": "Finnish",
    "fr": "French", "hu": "Hungarian", "it": "Italian", "lt": "Lithuanian",
    "lv": "Latvian", "mt": "Maltese", "nl": "Dutch", "pl": "Polish",
    "pt": "Portuguese", "ro": "Romanian", "sk": "Slovak", "sl": "Slovenian",
    "sv": "Swedish",
}

# Where raw documents come from: the one kind of source.
LOCAL_DIRECTORY = "local_directory"

# Units of a Gale-Church segment length.
CHARACTERS = "characters"
WORDS = "words"

DEFAULT_MEAN_RATIO = 1.0
DEFAULT_VARIANCE = 6.8
# The six bead types in tie-break order: 1-1, lower combined arity, source side first.
DEFAULT_PRIORS = {
    (1, 1): 0.89,
    (1, 0): 0.00495,
    (0, 1): 0.00495,
    (2, 1): 0.0445,
    (1, 2): 0.0445,
    (2, 2): 0.011,
}
# Each bead type by its one spelling, "<source>-<target>".
ARITY_LABELS = {f"{a}-{b}": (a, b) for a, b in DEFAULT_PRIORS}
# Skip beads are priced like a match that is this many standard deviations off.
DEFAULT_SKIP_DELTA = 4.0

DEFAULT_SAMPLE_SIZE = 10_000
DEFAULT_RNG_SEED = 1960
DEFAULT_MAX_SPLIT = 3
DEFAULT_MIN_COOC = 2

_INF = float("inf")


def _require_finite(name: str, value) -> None:
    # NaN fails both comparisons.
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not -_INF < value < _INF:
        raise ValueError(f"{name} must be a finite number, got {value!r}")


def _require_int(name: str, value, minimum: int | None = None) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


def _digest(fields: dict) -> str:
    import hashlib  # only here, so that start-up does not load it

    blob = json.dumps(fields, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


@dataclass(frozen=True)
class FetchSource:
    """Where raw documents come from: a directory of ``<celex>-<lang>.html`` files."""

    mode: str
    root: str

    def __post_init__(self):
        if self.mode != LOCAL_DIRECTORY:
            raise ValueError(f"unknown fetch mode {self.mode!r}; expected {LOCAL_DIRECTORY!r}")


@dataclass(frozen=True)
class GCParams:
    mean_ratio: float = DEFAULT_MEAN_RATIO
    variance: float = DEFAULT_VARIANCE
    arity_priors: dict = field(default_factory=lambda: dict(DEFAULT_PRIORS))
    length_unit: str = CHARACTERS
    skip_delta: float = DEFAULT_SKIP_DELTA

    def __post_init__(self):
        for name in ("mean_ratio", "variance", "skip_delta"):
            _require_finite(name, getattr(self, name))
        priors = self.arity_priors
        if priors.keys() != DEFAULT_PRIORS.keys():
            missing = [label for label, arity in ARITY_LABELS.items() if arity not in priors]
            unknown = [arity for arity in priors if arity not in DEFAULT_PRIORS]
            raise ValueError(f"arity priors: missing bead types {missing}, unknown {unknown}")
        for arity, p in priors.items():
            _require_finite(f"arity prior {arity}", p)
        if self.variance <= 0:
            raise ValueError("variance must be positive")
        if any(p <= 0 for p in priors.values()) or sum(priors.values()) > 1 + 1e-9:
            raise ValueError("arity priors must be positive and sum to at most 1")
        if self.length_unit not in (CHARACTERS, WORDS):
            raise ValueError(f"unknown length unit {self.length_unit!r}")

    def digest(self) -> str:
        return _digest(
            {
                "mean_ratio": self.mean_ratio,
                "variance": self.variance,
                "priors": {f"{a}-{b}": p for (a, b), p in sorted(self.arity_priors.items())},
                "length_unit": self.length_unit,
                "skip_delta": self.skip_delta,
            }
        )


@dataclass(frozen=True)
class HunParams:
    w_length: float = 0.3
    w_identical: float = 0.3
    w_number: float = 0.15
    w_lexicon: float = 0.25
    sample_size: int = DEFAULT_SAMPLE_SIZE
    rng_seed: int = DEFAULT_RNG_SEED
    max_split: int = DEFAULT_MAX_SPLIT
    min_cooc: int = DEFAULT_MIN_COOC
    skip_penalty: float = 0.3

    def __post_init__(self):
        for name in ("w_length", "w_identical", "w_number", "w_lexicon", "skip_penalty"):
            _require_finite(name, getattr(self, name))
        for name in ("sample_size", "rng_seed", "max_split", "min_cooc"):
            _require_int(name, getattr(self, name))
        weights = (self.w_length, self.w_identical, self.w_number, self.w_lexicon)
        if any(w < 0 for w in weights) or abs(sum(weights) - 1.0) > 1e-9:
            raise ValueError("similarity weights must be nonnegative and sum to 1")
        if self.sample_size < 1:
            raise ValueError("sample_size must be at least 1")
        if self.max_split < 2:
            raise ValueError("max_split must be at least 2")

    def digest(self) -> str:
        return _digest(
            {
                "weights": [self.w_length, self.w_identical, self.w_number, self.w_lexicon],
                "sample_size": self.sample_size,
                "rng_seed": self.rng_seed,
                "max_split": self.max_split,
                "min_cooc": self.min_cooc,
                "skip_penalty": self.skip_penalty,
            }
        )
