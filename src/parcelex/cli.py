"""Pipeline orchestration: fetch, normalize, align, export, bitext, stats, agree.

Everything is driven by one JSON configuration file; every subcommand is
idempotent given identical inputs and seed, and two runs with the same
config produce byte-identical output trees.  Paths in the config resolve
relative to the config file.
"""

from __future__ import annotations

import datetime
import itertools
import json
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .errors import MalformedCelexError, ParcelexError, UnknownLanguageError
from .params import ARITY_LABELS, LANG_RE, LOCAL_DIRECTORY, FetchSource, GCParams, HunParams
from .params import _require_int

# Every other parcelex module and argparse are imported where they
# are used, so that reading the config loads no stage module and each stage
# loads only what it runs. Annotations name some of their classes
# (``CelexId``, ``BitextAlignment``, ``ProfileIndex``) only as strings, which
# nothing evaluates.

ALIGNERS = ("gale_church", "hunalign")

# The keys a config may give at its top level; those of "source" and of the
# parameter tables are the fields of their classes.
_CONFIG_KEYS = frozenset({
    "languages", "source", "output_root", "aligners", "selection", "profiles_dir", "eurovoc_map",
    "top_descriptors", "gc_params", "hun_params", "seed",
})
# What normalize reads of each manifest entry.
_MANIFEST_KEYS = frozenset({"celex", "lang", "file", "source_url", "retrieved"})
# The name of a raw document, matched whole.
_FIXTURE_FILE_RE = re.compile(r"([0-9]{5}[A-Z][0-9]{4}(?:\([0-9]{2}\))?)-([a-z]{2})\.html")
# A language pair as --pairs and the align record spell it.
_PAIR_RE = re.compile(r"([a-z]{2})-([a-z]{2})")
# The name of a file that align writes for a pair.
_PAIR_FILE_RE = re.compile(r"([a-z]{2}-[a-z]{2})\.(?:standoff\.xml|lexicon\.txt)")


class InputError(ParcelexError):
    """Bad invocation or missing inputs; maps to exit status 1."""


@dataclass
class PipelineConfig:
    languages: tuple[str, ...]
    source: FetchSource
    output_root: Path
    aligners: tuple[str, ...] = ALIGNERS
    selection: bool = False
    profiles_dir: Path | None = None
    eurovoc_map: Path | None = None
    top_descriptors: int = 20
    gc: GCParams = field(default_factory=GCParams)
    hun: HunParams = field(default_factory=HunParams)

    def __post_init__(self):
        """Check each value, taking ``languages`` and ``aligners`` as any list or tuple."""
        languages, aligners = self.languages, self.aligners
        if not _distinct(languages, lambda lang: isinstance(lang, str) and LANG_RE.fullmatch(lang)):
            raise ValueError(
                f'"languages" must be a list of distinct two-letter lowercase codes, '
                f"got {languages!r}"
            )
        if not languages:
            raise ValueError("config must list at least one language")
        if not _distinct(aligners, ALIGNERS.__contains__):
            raise ValueError(
                f"'aligners' must be a list of distinct names from {ALIGNERS}, got {aligners!r}"
            )
        if not isinstance(self.selection, bool):
            raise ValueError(f"'selection' must be true or false, got {self.selection!r}")
        _require_int("'top_descriptors'", self.top_descriptors, minimum=0)
        self.languages, self.aligners = tuple(sorted(languages)), tuple(aligners)


def _distinct(values, valid) -> bool:
    """Whether ``values`` is a list or tuple of distinct items that ``valid`` accepts."""
    return (
        isinstance(values, (list, tuple))
        and all(map(valid, values))
        and len(set(values)) == len(values)
    )


def _object(raw: dict, key: str) -> dict:
    value = raw.get(key, {})
    if not isinstance(value, dict):
        raise InputError(f"{key!r} must be a JSON object")
    return value


def _gc_from_dict(d: dict) -> GCParams:
    d = dict(d)
    if "arity_priors" in d:
        d["arity_priors"] = {
            ARITY_LABELS.get(k, k): v for k, v in _object(d, "arity_priors").items()
        }
    return GCParams(**d)


def load_config(path: str | Path, seed_override: int | None = None) -> PipelineConfig:
    path = Path(path)
    if not path.exists():
        raise InputError(f"config file not found: {path}")
    return _read(path, lambda text: _config_from_json(json.loads(text), path.parent, seed_override))


def _config_from_json(raw, base: Path, seed_override: int | None) -> PipelineConfig:
    """The config that parsed JSON spells; ``PipelineConfig`` and the parameter classes check it."""
    if not isinstance(raw, dict):
        raise InputError("config must be a JSON object")

    def respath(key):
        return (base / raw[key]).resolve() if key in raw and raw[key] else None

    try:
        unknown = sorted(raw.keys() - _CONFIG_KEYS)
        if unknown:
            raise ValueError(f"unknown key {unknown[0]!r}; expected some of {sorted(_CONFIG_KEYS)}")
        hun_raw = dict(_object(raw, "hun_params"))
        # The top-level seed is the config's one spelling of the lexicon seed; --seed overrides it.
        if "rng_seed" in hun_raw:
            raise ValueError("hun_params takes no 'rng_seed'; give the lexicon seed as 'seed'")
        if "seed" in raw:
            hun_raw["rng_seed"] = raw["seed"]
        if seed_override is not None:
            hun_raw["rng_seed"] = seed_override
        source_raw = {"mode": LOCAL_DIRECTORY, **_object(raw, "source")}
        source_raw["root"] = str((base / source_raw["root"]).resolve())
        source = FetchSource(**source_raw)
        return PipelineConfig(
            languages=raw.get("languages"),
            source=source,
            output_root=(base / raw["output_root"]).resolve(),
            aligners=raw.get("aligners", ALIGNERS),
            selection=raw.get("selection", False),
            profiles_dir=respath("profiles_dir"),
            eurovoc_map=respath("eurovoc_map"),
            top_descriptors=raw.get("top_descriptors", 20),
            gc=_gc_from_dict(_object(raw, "gc_params")),
            hun=HunParams(**hun_raw),
        )
    except KeyError as exc:
        raise InputError(f"config is missing required key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise InputError(f"bad config value: {exc}") from None


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _read(path: Path, parse=str):
    """``parse`` of a UTF-8 input file's text; any read, decode or parse failure names the file."""
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not valid UTF-8 at byte {exc.start}") from None
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from None
    try:
        return parse(text)
    except (ParcelexError, json.JSONDecodeError) as exc:
        raise InputError(f"{path}: {exc}") from None


def _write(path: Path, text: str) -> None:
    """Write an output file, making its directory; any failure names the file."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror}") from None


def _clear(directory: Path) -> None:
    """Remove a directory that a stage writes whole, so that it holds only this run's files."""
    import shutil

    try:
        if directory.exists():
            shutil.rmtree(directory)
    except OSError as exc:
        raise InputError(f"cannot remove {directory}: {exc.strerror}") from None


def _json_dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, indent=2) + "\n"


def cmd_fetch(config: PipelineConfig) -> None:
    from .celex import format_celex, parse_celex
    from .ingest import fetch_document

    root = Path(config.source.root)
    if not root.is_dir():
        raise InputError(f"source directory not found: {root}")
    found = {}  # (celex, lang) -> the name of its raw file
    for entry in sorted(root.iterdir()):
        m = _FIXTURE_FILE_RE.fullmatch(entry.name)
        if m and m.group(2) in config.languages:
            try:
                found[(parse_celex(m.group(1)), m.group(2))] = entry.name
            except MalformedCelexError as exc:
                raise InputError(f"{entry}: {exc}") from None
    if not found:
        raise InputError(f"no <celex>-<lang>.html fixtures under {root}")
    # Every document is read before raw/ is replaced, so that a bad one leaves the old tree.
    documents = []
    for key, name in found.items():
        try:
            documents.append((name, fetch_document(root / name, *key)))
        except OSError as exc:
            raise InputError(f"cannot read {root / name}: {exc.strerror}") from None
    raw = config.output_root / "raw"
    _clear(raw)
    manifest = []
    for name, doc in documents:
        _write(raw / name, doc.content)
        manifest.append({"celex": format_celex(doc.celex), "lang": doc.lang, "file": name,
                         "source_url": doc.source_url, "retrieved": doc.retrieved.isoformat()})
    _write(raw / "manifest.json", _json_dump({"documents": manifest}))
    _log(f"fetched {len(manifest)} documents into {raw}")


def _load_manifest(config: PipelineConfig) -> list[dict]:
    """The manifest's entries of configured languages, with ``celex`` and ``retrieved`` parsed."""
    path = config.output_root / "raw" / "manifest.json"
    if not path.is_file():
        raise InputError(f"{path} missing; run fetch first")
    try:
        documents = _read(path, json.loads)["documents"]
    except (KeyError, TypeError):
        raise InputError(f'{path}: no "documents" list') from None
    if not isinstance(documents, list) or not all(
        isinstance(entry, dict) and all(isinstance(entry.get(key), str) for key in _MANIFEST_KEYS)
        for entry in documents
    ):
        raise InputError(f"{path}: every document needs the string keys {sorted(_MANIFEST_KEYS)}")
    from .celex import parse_celex

    files = set()
    for entry in documents:
        # The name fetch writes for the entry, so that normalize reads nothing outside raw/.
        m = _FIXTURE_FILE_RE.fullmatch(entry["file"])
        if m is None or m.group(1, 2) != (entry["celex"], entry["lang"]):
            raise InputError(
                f"{path}: {entry['file']!r} is not {entry['celex']}-{entry['lang']}.html"
            )
        if entry["file"] in files:
            raise InputError(f"{path}: {entry['file']} is listed twice")
        files.add(entry["file"])
        try:
            entry["celex"] = parse_celex(entry["celex"])
            entry["retrieved"] = datetime.date.fromisoformat(entry["retrieved"])
        except ValueError as exc:
            raise InputError(f"{path}: {entry['file']}: {exc}") from None
    return [entry for entry in documents if entry["lang"] in config.languages]


def _load_profiles(config: PipelineConfig) -> ProfileIndex | None:
    if config.profiles_dir is None:
        return None
    from .langid import ProfileIndex, parse_profile

    paths = sorted(Path(config.profiles_dir).glob("*.profile"))
    if not paths:
        raise InputError(f"no *.profile files under {config.profiles_dir}")
    return ProfileIndex(parse_profile(_read(path), path) for path in paths)


def _load_eurovoc_map(config: PipelineConfig) -> dict[str, list[int]]:
    if config.eurovoc_map is None:
        return {}
    path = Path(config.eurovoc_map)
    eurovoc = _read(path, json.loads)
    if not isinstance(eurovoc, dict) or not all(
        isinstance(codes, list) and all(type(code) is int and code >= 0 for code in codes)
        for codes in eurovoc.values()
    ):
        raise InputError(
            f"{path}: expected an object mapping CELEX codes to lists of nonnegative integers"
        )
    return eurovoc


def _select(documents):
    """The (entry, paragraphs) pairs whose celex the rule keeps on the languages among them."""
    from .ingest import select_corpus

    inventory: dict[CelexId, set[str]] = {}
    for entry, _ in documents:
        inventory.setdefault(entry["celex"], set()).add(entry["lang"])
    kept = select_corpus(inventory)
    return [(entry, paragraphs) for entry, paragraphs in documents if entry["celex"] in kept]


def _language_checked(documents, profiles: ProfileIndex):
    """The (entry, paragraphs) pairs whose text passes the language check; logs the rest."""
    from .celex import format_celex
    from .ingest import verify_language

    accepted = []
    for entry, paragraphs in documents:
        verdict = verify_language(entry["lang"], paragraphs, profiles)
        if verdict.accepted:
            accepted.append((entry, paragraphs))
        else:
            _log(
                f"rejected {format_celex(entry['celex'])}-{entry['lang']}: guessed "
                f"{verdict.guessed_lang} (confidence {verdict.confidence:.3f})"
            )
    return accepted


def cmd_normalize(config: PipelineConfig) -> None:
    from .celex import format_celex, jrc_document_id
    from .ingest import html_to_paragraphs
    from .tei import build_document, classify_sections, serialize_tei

    manifest = _load_manifest(config)
    profiles = _load_profiles(config)
    eurovoc = _load_eurovoc_map(config)

    # Each raw document is reduced to paragraphs once; only the paragraphs
    # are kept, so its content is not held for the whole corpus.
    documents = []
    for entry in manifest:
        paragraphs = html_to_paragraphs(_read(config.output_root / "raw" / entry["file"]))
        if not paragraphs:
            _log(f"skipping empty document {format_celex(entry['celex'])}-{entry['lang']}")
            continue
        if profiles is not None and entry["lang"] not in profiles.langs:
            raise UnknownLanguageError(f"no profile for declared language {entry['lang']!r}")
        documents.append((entry, paragraphs))

    # A language check only removes languages, and the selection rule is
    # monotone in them: a celex it drops on the declared languages stays
    # dropped whatever the check says, so only the rest are checked.
    if config.selection:
        documents = _select(documents)
    if profiles is not None:
        documents = _language_checked(documents, profiles)
        if config.selection:
            documents = _select(documents)

    tei = config.output_root / "tei"
    _clear(tei)
    for entry, paragraphs in documents:
        celex, lang = entry["celex"], entry["lang"]
        title, body = paragraphs[0], paragraphs[1:]
        doc = build_document(
            celex=celex,
            lang=lang,
            title=title,
            body_paragraphs=body,
            boundaries=classify_sections(body) if body else None,
            eurovoc_codes=eurovoc.get(format_celex(celex), ()),
            source_url=entry["source_url"],
            download_date=entry["retrieved"],
        )
        _write(tei / lang / f"{jrc_document_id(celex, lang)}.xml", serialize_tei(doc))
    _log(f"normalized {len(documents)} documents into {tei}")


def _read_tei(path: Path):
    """The TEI document at ``tei/<lang>/<id>.xml``, checked to be the one its path names."""
    from .tei import parse_tei

    doc = _read(path, parse_tei)
    if doc.lang != path.parent.name or doc.id != path.stem:
        raise InputError(f"{path}: holds document {doc.id}, not the one its path names")
    return doc


def _load_tei_corpus(config: PipelineConfig, langs) -> dict[str, dict[CelexId, object]]:
    """Parse the TEI documents of ``langs``."""
    tei_root = config.output_root / "tei"
    if not tei_root.is_dir():
        raise InputError(f"{tei_root} missing; run normalize first")
    paths = sorted(tei_root.glob("*/*.xml"))
    if not paths:
        raise InputError(f"no TEI documents under {tei_root}")
    corpus: dict[str, dict[CelexId, object]] = {}
    for path in paths:
        if path.parent.name in langs:
            doc = _read_tei(path)
            corpus.setdefault(doc.lang, {})[doc.celex] = doc
    return corpus


def _resolve_pairs(config: PipelineConfig, pairs) -> list[tuple[str, str]]:
    """The pairs asked for, each in canonical order (default: every pair of the languages)."""
    from .standoff import canonical_pair

    if not pairs:
        return list(itertools.combinations(sorted(config.languages), 2))
    for a, b in pairs:
        if a == b:
            raise InputError(f"bad pair {a}-{b}: a language cannot be aligned with itself")
        for lang in (a, b):
            if lang not in config.languages:
                raise InputError(
                    f"bad pair {a}-{b}: {lang!r} is not one of the configured languages "
                    f"{list(config.languages)}"
                )
    # A pair named twice, in either order, is aligned, exported or compared once.
    return list(dict.fromkeys(canonical_pair(a, b) for a, b in pairs))


def _inputs_digest(src_texts: dict, tgt_texts: dict) -> str:
    """The sha256 over what a pair is aligned from: each common document's texts, in celex order."""
    import hashlib

    from .celex import format_celex

    h = hashlib.sha256()
    for c in sorted(src_texts):
        doc = json.dumps([format_celex(c), src_texts[c], tgt_texts[c]], ensure_ascii=False)
        h.update(doc.encode("utf-8") + b"\n")
    return h.hexdigest()


def _align_pair(config: PipelineConfig, aligner: str, src_lang: str, tgt_lang: str,
                src_texts: dict, tgt_texts: dict) -> list[BitextAlignment]:
    """The pair's alignments by ``aligner``; hunalign also writes its lexicon."""
    if aligner == "gale_church":
        from .galechurch import align_gale_church

        return [
            align_gale_church(src_texts[c], tgt_texts[c], config.gc, celex=c, src_lang=src_lang,
                              tgt_lang=tgt_lang, first_src=2, first_tgt=2)
            for c in src_texts
        ]
    from .hunalign import align_hunalign, save_lexicon

    alignments, lexicon = align_hunalign(
        src_texts, tgt_texts, config.hun, src_lang=src_lang, tgt_lang=tgt_lang, first_n=2,
    )
    path = _pair_files(config, aligner, src_lang, tgt_lang)[1]
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        save_lexicon(lexicon, path)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror}") from None
    return alignments


def _pair_files(config: PipelineConfig, aligner: str, src: str, tgt: str) -> list[Path]:
    """The files ``align`` writes for a pair: its stand-off file, then hunalign's lexicon."""
    standoff = _standoff_path(config, aligner, src, tgt)
    if aligner == "hunalign":
        return [standoff, standoff.with_name(f"{src}-{tgt}.lexicon.txt")]
    return [standoff]


def _remove_pair(config: PipelineConfig, aligner: str, src: str, tgt: str) -> None:
    """Remove the files that ``align``, ``export`` and ``bitext`` wrote for a pair."""
    files = _pair_files(config, aligner, src, tgt)
    # A CELEX holds no "-", so the glob matches only this pair's bitext files.
    bitext = sorted((config.output_root / "bitext").glob(f"jrc*-{src}-{tgt}.xml"))
    for path in [*files, files[0].with_name(f"{src}-{tgt}.csv"), *bitext]:
        try:
            path.unlink(missing_ok=True)
        except OSError as exc:
            raise InputError(f"cannot remove {path}: {exc.strerror}") from None


def _written_pairs(config: PipelineConfig, aligner: str) -> set[str]:
    """The pairs that a stand-off file or lexicon in the aligner's directory is named for."""
    directory = config.output_root / "alignments" / aligner
    return {m.group(1) for path in directory.glob("*") if (m := _PAIR_FILE_RE.fullmatch(path.name))}


def _file_digests(paths) -> dict[str, str] | None:
    """The sha256 of each file, by name; None when one of them cannot be read."""
    import hashlib

    try:
        return {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in paths}
    except OSError:
        return None


def _provenance_path(config: PipelineConfig, aligner: str) -> Path:
    return config.output_root / "alignments" / aligner / "provenance.json"


def _load_provenance(config: PipelineConfig, aligner: str) -> dict[str, dict] | None:
    """The entries that earlier ``align`` runs recorded for the pairs of ``aligner``.

    Each pair's entry holds its parameter digest, its input digest and the
    sha256 of each file it wrote. Like those files, the record is only a
    hint: {} when it is missing, and None, logged, when it cannot be read
    as ``{"pairs": {pair: entry, ...}}``.
    """
    path = _provenance_path(config, aligner)
    try:
        record = json.loads(path.read_bytes())
    except FileNotFoundError:
        return {}
    except (OSError, ValueError):
        record = None
    if (isinstance(record, dict) and record.keys() == {"pairs"} and isinstance(record["pairs"], dict)
            and all(map(_PAIR_RE.fullmatch, record["pairs"]))):
        return record["pairs"]
    _log(f"{path}: unreadable or not a record of pairs; no {aligner} pair is kept")
    return None


def cmd_align(config: PipelineConfig, pairs=None, aligner: str | None = None) -> None:
    from .standoff import export_standoff_xml, standoff_from_alignments

    full = not pairs
    pairs = _resolve_pairs(config, pairs)
    aligners = (aligner,) if aligner else config.aligners
    # A run keeps what earlier runs recorded for the pairs it does not run.
    loaded = {name: _load_provenance(config, name) for name in aligners}
    records = {name: dict(loaded[name] or {}) for name in aligners}
    corpus = _load_tei_corpus(config, {lang for pair in pairs for lang in pair})
    aligned = 0
    try:
        if full:
            # A fresh run writes nothing for a pair outside the configured ones,
            # whether the record or only a file name still holds it.
            wanted = {f"{src}-{tgt}" for src, tgt in pairs}
            for name in aligners:
                for pair in sorted((records[name].keys() | _written_pairs(config, name)) - wanted):
                    _log(f"{name} {pair}: not a configured pair, removed")
                    records[name].pop(pair, None)
                    _remove_pair(config, name, *pair.split("-"))
        for src, tgt in pairs:
            src_docs, tgt_docs = corpus.get(src, {}), corpus.get(tgt, {})
            common = sorted(set(src_docs) & set(tgt_docs))
            pair = f"{src}-{tgt}"
            if not common:
                # A fresh run writes nothing for the pair, so neither does this one.
                for name in aligners:
                    _log(f"{name} {pair}: no common documents, skipped")
                    records[name].pop(pair, None)
                    _remove_pair(config, name, src, tgt)
                continue
            # Paragraphs after the head; alignment numbering starts at n=2.
            src_texts = {c: src_docs[c].paragraphs[1:] for c in common}
            tgt_texts = {c: tgt_docs[c].paragraphs[1:] for c in common}
            inputs = _inputs_digest(src_texts, tgt_texts)
            for name in aligners:
                files = _pair_files(config, name, src, tgt)
                params = (config.gc if name == "gale_church" else config.hun).digest()
                # A pair is kept when its recorded entry is the one this run
                # would write, and every file that entry lists can be read.
                entry = {"params": params, "inputs": inputs, "files": _file_digests(files)}
                if entry["files"] is not None and records[name].get(pair) == entry:
                    _log(f"{name} {pair}: kept")
                    continue
                # What export and bitext wrote from the old alignment goes with it.
                records[name].pop(pair, None)
                _remove_pair(config, name, src, tgt)
                try:
                    alignments = _align_pair(config, name, src, tgt, src_texts, tgt_texts)
                except ParcelexError as exc:
                    raise InputError(f"{name} {pair}: {exc}") from None
                _write(files[0], export_standoff_xml(standoff_from_alignments(alignments)))
                records[name][pair] = {**entry, "files": _file_digests(files)}
                aligned += 1
    finally:
        # Also after a failure, so that a rerun keeps the pairs aligned before it.
        for name in aligners:
            if records[name] != loaded[name]:
                path = _provenance_path(config, name)
                if records[name]:
                    _write(path, _json_dump({"pairs": records[name]}))
                else:
                    path.unlink(missing_ok=True)
    _log(f"aligned {aligned} pair/aligner combinations")


def _standoff_path(config: PipelineConfig, aligner: str, src: str, tgt: str) -> Path:
    return config.output_root / "alignments" / aligner / f"{src}-{tgt}.standoff.xml"


def _load_standoff(config: PipelineConfig, aligner: str, src: str, tgt: str):
    """The pair's stand-off file, checked to name its pair and to cover paragraphs 2.. in order."""
    from .beads import links_cover
    from .celex import format_celex
    from .standoff import import_standoff_xml

    path = _standoff_path(config, aligner, src, tgt)
    if not path.is_file():
        raise InputError(f"{path} missing; run align first")
    file = _read(path, import_standoff_xml)
    if (file.src_lang, file.tgt_lang) != (src, tgt):
        raise InputError(
            f"{path}: holds pair {file.src_lang}-{file.tgt_lang}, not the one its path names"
        )
    for celex, links in file.entries:
        n_src = sum(len(link.src_pars) for link in links)
        n_tgt = sum(len(link.tgt_pars) for link in links)
        if not links_cover(links, n_src, n_tgt, 2, 2):
            raise InputError(
                f"{path}: {format_celex(celex)}: links do not cover paragraphs 2.. "
                "of both documents once each, in order"
            )
    return file


def cmd_export(config: PipelineConfig, pairs=None, aligner: str | None = None) -> None:
    from .standoff import export_csv

    aligners = (aligner,) if aligner else config.aligners
    n = 0
    for src, tgt in _resolve_pairs(config, pairs):
        for name in aligners:
            if not _standoff_path(config, name, src, tgt).is_file():
                continue
            file = _load_standoff(config, name, src, tgt)
            _write(
                config.output_root / "alignments" / name / f"{src}-{tgt}.csv",
                export_csv(file),
            )
            n += 1
    if n == 0:
        raise InputError("no stand-off files to export; run align first")
    _log(f"exported {n} CSV files")


def cmd_bitext(config: PipelineConfig, pairs=None, celex_ids=None, aligner: str | None = None) -> None:
    from .celex import format_celex, jrc_document_id
    from .standoff import generate_inplace

    if not pairs:
        raise InputError("bitext requires --pairs")
    if not celex_ids:
        raise InputError("bitext requires --celex")
    if not (aligner or config.aligners):
        raise InputError("no aligner configured; give --aligner")
    name = aligner or config.aligners[0]
    docs: dict[tuple[str, CelexId], object] = {}

    def tei(lang: str, celex: CelexId):
        # Parse only the documents asked for, each once.
        if (lang, celex) not in docs:
            path = config.output_root / "tei" / lang / f"{jrc_document_id(celex, lang)}.xml"
            if not path.is_file():
                raise InputError(f"missing TEI document for {format_celex(celex)} ({lang}): {path}")
            docs[(lang, celex)] = _read_tei(path)
        return docs[(lang, celex)]

    n = 0
    for src, tgt in _resolve_pairs(config, pairs):
        file = _load_standoff(config, name, src, tgt)
        links_by_celex = dict(file.entries)
        # An id named twice is written once, as a pair named twice is.
        for celex in dict.fromkeys(celex_ids):
            if celex not in links_by_celex:
                raise InputError(f"no links for {format_celex(celex)} in {src}-{tgt}")
            src_doc, tgt_doc = tei(src, celex), tei(tgt, celex)
            try:
                xml = generate_inplace(src_doc, tgt_doc, links_by_celex[celex])
            except ParcelexError as exc:
                path = _standoff_path(config, name, src, tgt)
                raise InputError(f"{path}: {format_celex(celex)}: {exc}") from None
            _write(
                config.output_root / "bitext" / f"jrc{format_celex(celex)}-{src}-{tgt}.xml",
                xml,
            )
            n += 1
    _log(f"generated {n} in-place bitext files")


def cmd_stats(config: PipelineConfig) -> None:
    from .stats import (
        corpus_stats_table,
        eurovoc_frequency,
        eurovoc_to_csv,
        stats_to_csv,
        stats_to_text,
    )

    corpus = _load_tei_corpus(config, config.languages)
    docs = [doc for per_lang in corpus.values() for _, doc in sorted(per_lang.items())]
    table = corpus_stats_table(docs)
    _write(config.output_root / "stats" / "language_stats.csv", stats_to_csv(table))
    _write(config.output_root / "stats" / "language_stats.txt", stats_to_text(table))
    freq = eurovoc_frequency(docs, config.top_descriptors)
    _write(config.output_root / "stats" / "eurovoc_frequency.csv", eurovoc_to_csv(freq))
    _log(f"wrote statistics for {len(table)} languages")


def cmd_agree(config: PipelineConfig, pairs=None) -> None:
    from .standoff import aligner_agreement

    if len(config.aligners) < 2:
        raise InputError("agree needs two aligners configured")
    name_a, name_b = config.aligners[0], config.aligners[1]
    summary = ["src,tgt,n_links_a,n_links_b,exact_match_fraction"]
    confusion = ["src,tgt,arity_a,arity_b,count"]
    n = 0
    for src, tgt in _resolve_pairs(config, pairs):
        path_a = _standoff_path(config, name_a, src, tgt)
        path_b = _standoff_path(config, name_b, src, tgt)
        if not (path_a.is_file() and path_b.is_file()):
            continue
        a = _load_standoff(config, name_a, src, tgt)
        b = _load_standoff(config, name_b, src, tgt)
        try:
            report = aligner_agreement(a, b)
        except ParcelexError as exc:
            raise InputError(f"{path_a} and {path_b}: {exc}") from None
        summary.append(
            f"{src},{tgt},{report.n_links_a},{report.n_links_b},"
            f"{report.exact_match_fraction:.6f}"
        )
        for (arity_a, arity_b), count in sorted(report.per_arity_confusion.items()):
            confusion.append(f"{src},{tgt},{arity_a},{arity_b},{count}")
        n += 1
    if n == 0:
        raise InputError("no language pair has stand-off files from both aligners")
    _write(config.output_root / "stats" / "agreement.csv", "\n".join(summary) + "\n")
    _write(config.output_root / "stats" / "agreement_confusion.csv", "\n".join(confusion) + "\n")
    _log(f"compared aligners on {n} language pairs")


# Each stage's handler, and the options of ``run`` that it takes, in pipeline order.
_STAGES = {
    "fetch": (cmd_fetch, ()),
    "normalize": (cmd_normalize, ()),
    "align": (cmd_align, ("pairs", "aligner")),
    "export": (cmd_export, ("pairs", "aligner")),
    "bitext": (cmd_bitext, ("pairs", "celex_ids", "aligner")),
    "stats": (cmd_stats, ()),
    "agree": (cmd_agree, ("pairs",)),
}
SUBCOMMANDS = tuple(_STAGES)
# The command-line flag of each option of ``run``.
_FLAGS = {"pairs": "--pairs", "celex_ids": "--celex", "aligner": "--aligner"}


def run(
    subcommand: str,
    config: PipelineConfig,
    pairs=None,
    celex_ids=None,
    aligner: str | None = None,
) -> int:
    """Programmatic entry point; returns the process exit status."""
    if subcommand not in _STAGES:
        raise InputError(f"unknown subcommand {subcommand!r}; expected one of {SUBCOMMANDS}")
    handler, options = _STAGES[subcommand]
    given = {"pairs": pairs, "celex_ids": celex_ids, "aligner": aligner}
    for option, value in given.items():
        if value is not None and option not in options:
            raise InputError(f"{subcommand} does not take {_FLAGS[option]}")
    if aligner is not None and aligner not in ALIGNERS:
        raise InputError(f"unknown aligner {aligner!r}; expected one of {ALIGNERS}")
    handler(config, **{option: given[option] for option in options})
    return 0


def _parse_pairs(text: str) -> list[tuple[str, str]]:
    pairs = []
    for chunk in text.split(","):
        m = _PAIR_RE.fullmatch(chunk)
        if not m:
            raise InputError(f"bad pair {chunk!r}; expected like en-fr")
        pairs.append((m.group(1), m.group(2)))
    return pairs


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="parcelex",
        description="Build, align and serialize a multilingual parallel corpus.",
    )
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="path to the JSON pipeline config")
    parser.add_argument("--pairs", help="comma-separated language pairs, e.g. en-fr,de-en")
    parser.add_argument("--celex", help="comma-separated CELEX ids")
    parser.add_argument("--aligner", choices=ALIGNERS, help="restrict to one aligner")
    parser.add_argument("--seed", type=int, help="seed of the lexicon sampling; overrides the config")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; bad invocations are input errors here
        return 0 if exc.code == 0 else 1

    try:
        config = load_config(args.config, seed_override=args.seed)
        pairs = _parse_pairs(args.pairs) if args.pairs else None
        celex_ids = None
        if args.celex:
            from .celex import parse_celex

            celex_ids = [parse_celex(c) for c in args.celex.split(",")]
        return run(args.subcommand, config, pairs, celex_ids, args.aligner)
    except ParcelexError as exc:
        _log(f"error: {exc}")
        return 1
    except Exception as exc:  # pragma: no cover - internal failures
        _log(f"internal error: {exc.__class__.__name__}: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
