import hashlib
import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import FIXTURES
import parcelex
from parcelex.celex import parse_celex
from parcelex.cli import (
    _FLAGS, _STAGES, SUBCOMMANDS, InputError, PipelineConfig, _config_from_json, _inputs_digest,
    load_config, main, run,
)
from parcelex.langid import save_profile, train_language_profile
from parcelex.standoff import export_standoff_xml, import_csv, import_standoff_xml
from parcelex.tei import parse_tei

EUROVOC_MAP = {
    "31984D0001": [4180, 2771],
    "31985R0002": [5769, 4180],
    "31986L0003": [1309],
}


def make_config(tmp_path, profiles_dir, **overrides):
    config = {
        "languages": ["en", "fr", "de"],
        "source": {"mode": "local_directory", "root": str(FIXTURES / "html")},
        "output_root": "out",
        "aligners": ["gale_church", "hunalign"],
        "selection": False,
        "seed": 7,
        "profiles_dir": profiles_dir and str(profiles_dir),
        "eurovoc_map": "eurovoc.json",
    }
    config.update(overrides)
    (tmp_path / "eurovoc.json").write_text(json.dumps(EUROVOC_MAP), encoding="utf-8")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    return path


@pytest.fixture()
def pipeline(tmp_path, profiles_dir):
    config_path = make_config(tmp_path, profiles_dir)
    config = load_config(config_path)
    return config_path, config, tmp_path / "out"


def _tree(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()
    }


def test_full_pipeline(pipeline, capsys):
    config_path, config, out = pipeline

    assert run("fetch", config) == 0
    manifest = json.loads((out / "raw" / "manifest.json").read_text(encoding="utf-8"))
    assert len(manifest["documents"]) == 10  # 3 celex x 3 langs + cross-labeled doc

    assert run("normalize", config) == 0
    err = capsys.readouterr().err
    assert "rejected 31987D0004-fr" in err and "guessed en" in err
    assert sorted(p.name for p in (out / "tei" / "fr").glob("*.xml")) == [
        "jrc31984D0001-fr.xml",
        "jrc31985R0002-fr.xml",
        "jrc31986L0003-fr.xml",
    ]
    doc = parse_tei((out / "tei" / "en" / "jrc31985R0002-en.xml").read_text(encoding="utf-8"))
    assert doc.eurovoc_codes == {5769, 4180}
    texts = {section: doc.paragraphs[start:stop] for section, start, stop in doc.sections()}
    assert texts.get("signature")  # signature block detected
    assert texts.get("annex")  # ANNEX heading detected

    # normalize is idempotent
    before = _tree(out / "tei")
    assert run("normalize", config) == 0
    assert _tree(out / "tei") == before

    assert run("align", config) == 0
    for aligner in ("gale_church", "hunalign"):
        for pair in ("de-en", "de-fr", "en-fr"):
            path = out / "alignments" / aligner / f"{pair}.standoff.xml"
            file = import_standoff_xml(path.read_text(encoding="utf-8"))
            assert len(file.entries) == 3
        assert (out / "alignments" / aligner / "provenance.json").is_file()
    assert (out / "alignments" / "hunalign" / "en-fr.lexicon.txt").is_file()

    # an align rerun keeps every pair and leaves every byte as it was
    before = _tree(out / "alignments")
    capsys.readouterr()
    assert run("align", config) == 0
    assert capsys.readouterr().err.count(": kept") == 6
    assert _tree(out / "alignments") == before

    assert run("export", config) == 0
    csv_file = import_csv(
        (out / "alignments" / "gale_church" / "en-fr.csv").read_text(encoding="utf-8")
    )
    assert csv_file.src_lang == "en" and csv_file.tgt_lang == "fr"

    assert run("bitext", config, pairs=[("en", "fr")], celex_ids=[parse_celex("31984D0001")]) == 0
    bitext = (out / "bitext" / "jrc31984D0001-en-fr.xml").read_text(encoding="utf-8")
    assert 'select="en fr"' in bitext and 'id="jrc31984D0001-en-fr"' in bitext
    assert '<seg lang="en"' in bitext and '<seg lang="fr"' in bitext

    assert run("stats", config) == 0
    stats_csv = (out / "stats" / "language_stats.csv").read_text(encoding="utf-8")
    assert [line.split(",")[0] for line in stats_csv.splitlines()[1:]] == ["de", "en", "fr"]

    assert run("agree", config) == 0
    agreement = (out / "stats" / "agreement.csv").read_text(encoding="utf-8").splitlines()
    assert agreement[0] == "src,tgt,n_links_a,n_links_b,exact_match_fraction"
    # Fixture documents are cleanly parallel, so the two aligners coincide.
    assert agreement[1:] == [
        "de,en,34,34,1.000000",
        "de,fr,34,34,1.000000",
        "en,fr,34,34,1.000000",
    ]


def test_selection_filters_corpus(tmp_path, profiles_dir):
    # With the minimum-language selection rule on, a 3-language corpus keeps nothing.
    config_path = make_config(tmp_path, profiles_dir, selection=True)
    config = load_config(config_path)
    run("fetch", config)
    run("normalize", config)
    assert not (tmp_path / "out" / "tei").exists() or not list(
        (tmp_path / "out" / "tei").rglob("*.xml")
    )


def test_normalize_without_fetch_is_input_error(pipeline):
    _, config, _ = pipeline
    with pytest.raises(InputError):
        run("normalize", config)


def test_align_without_normalize_is_input_error(pipeline):
    _, config, _ = pipeline
    with pytest.raises(InputError):
        run("align", config)


def test_bitext_requires_pairs_and_celex(pipeline):
    _, config, _ = pipeline
    with pytest.raises(InputError):
        run("bitext", config)


def test_unknown_subcommand(pipeline):
    _, config, _ = pipeline
    with pytest.raises(InputError):
        run("frobnicate", config)
    with pytest.raises(InputError, match="unknown aligner 'bleualign'"):
        run("export", config, aligner="bleualign")


def test_main_exit_codes(tmp_path, profiles_dir):
    config_path = make_config(tmp_path, profiles_dir)
    assert main(["fetch", "--config", str(config_path)]) == 0
    assert main(["normalize", "--config", str(config_path)]) == 0
    assert main(["align", "--config", str(config_path), "--aligner", "gale_church"]) == 0
    # domain-level input error -> 1
    assert main(["agree", "--config", str(config_path)]) == 1
    # missing config -> 1
    assert main(["stats", "--config", str(tmp_path / "nope.json")]) == 1
    # argparse usage error -> 1
    assert main(["no-such-command", "--config", str(config_path)]) == 1
    assert main(["align", "--config", str(config_path), "--jobs", "2"]) == 1
    # malformed pair string -> 1
    assert main(["align", "--config", str(config_path), "--pairs", "enfr"]) == 1


def test_pairs_canonicalized(tmp_path, profiles_dir):
    config_path = make_config(tmp_path, profiles_dir)
    config = load_config(config_path)
    run("fetch", config)
    run("normalize", config)
    run("align", config, pairs=[("fr", "en")], aligner="gale_church")
    assert (tmp_path / "out" / "alignments" / "gale_church" / "en-fr.standoff.xml").is_file()


def test_seed_override_changes_digest(tmp_path, profiles_dir):
    config_path = make_config(tmp_path, profiles_dir)
    a = load_config(config_path)
    b = load_config(config_path, seed_override=99)
    assert a.hun.rng_seed == 7 and b.hun.rng_seed == 99


def test_config_requires_languages(tmp_path, profiles_dir):
    config_path = make_config(tmp_path, profiles_dir, languages=[])
    with pytest.raises(InputError):
        load_config(config_path)


def _cli(config_path, *args) -> int:
    return main([args[0], "--config", str(config_path), *args[1:]])


def test_lexicon_cache_without_entry_count_is_rebuilt(tmp_path, profiles_dir, capsys):
    config_path = make_config(tmp_path, profiles_dir)
    for stage in ("fetch", "normalize"):
        assert _cli(config_path, stage) == 0
    align = ("align", "--aligner", "hunalign", "--pairs", "en-fr")
    assert _cli(config_path, *align) == 0
    cache = tmp_path / "out" / "alignments" / "hunalign" / "en-fr.lexicon.txt"
    built = cache.read_bytes()
    first, rest = built.split(b"\n", 1)
    cache.write_bytes(first.rsplit(b"\t", 1)[0] + b"\n" + rest)  # the first entry loses its weight
    capsys.readouterr()
    assert _cli(config_path, *align) == 0
    err = capsys.readouterr().err
    assert "kept" not in err and "aligned 1 pair/aligner combinations" in err
    assert cache.read_bytes() == built


def test_lexicon_cache_keyed_to_params_and_texts(tmp_path, profiles_dir, capsys):
    config_path = make_config(tmp_path, profiles_dir)
    assert _cli(config_path, "fetch") == 0
    assert _cli(config_path, "normalize") == 0
    align = ("align", "--aligner", "hunalign", "--pairs", "en-fr")
    assert _cli(config_path, *align) == 0
    cache = tmp_path / "out" / "alignments" / "hunalign" / "en-fr.lexicon.txt"
    first = cache.read_bytes()
    record = json.loads((cache.parent / "provenance.json").read_text(encoding="utf-8"))
    assert record["pairs"]["en-fr"]["files"][cache.name] == hashlib.sha256(first).hexdigest()

    make_config(tmp_path, profiles_dir, hun_params={"min_cooc": 5})
    capsys.readouterr()
    assert _cli(config_path, *align) == 0
    assert "kept" not in capsys.readouterr().err
    rebuilt = cache.read_bytes()
    assert rebuilt != first
    assert len(rebuilt.splitlines()) < len(first.splitlines())

    # A fresh build under the new parameters writes the same file ...
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    fresh_config = make_config(fresh, profiles_dir, hun_params={"min_cooc": 5})
    for stage in ("fetch", "normalize"):
        assert _cli(fresh_config, stage) == 0
    assert _cli(fresh_config, *align) == 0
    assert (fresh / "out" / "alignments" / "hunalign" / "en-fr.lexicon.txt").read_bytes() == rebuilt

    # ... and a rerun under unchanged parameters and texts keeps it.
    capsys.readouterr()
    assert _cli(config_path, *align) == 0
    assert "hunalign en-fr: kept" in capsys.readouterr().err
    assert cache.read_bytes() == rebuilt


def _interrupt_lexicon_writes(monkeypatch):
    """Make every write of a lexicon file stop at 40% of its text with a disk-full error."""
    write_text = Path.write_text

    def interrupted(self, data, *args, **kwargs):
        if "lexicon" in self.name:
            write_text(self, data[: len(data) * 2 // 5], *args, **kwargs)
            raise OSError(28, "No space left on device")
        return write_text(self, data, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", interrupted)


def test_interrupted_lexicon_cache_write_is_never_trusted(tmp_path, profiles_dir, monkeypatch, capsys):
    config_path = make_config(tmp_path, profiles_dir)
    for stage in ("fetch", "normalize"):
        assert _cli(config_path, stage) == 0
    align = ("align", "--aligner", "hunalign", "--pairs", "en-fr")
    hun_dir = tmp_path / "out" / "alignments" / "hunalign"
    cache = hun_dir / "en-fr.lexicon.txt"

    _interrupt_lexicon_writes(monkeypatch)
    capsys.readouterr()
    assert _cli(config_path, *align) == 1
    monkeypatch.undo()
    assert f"cannot write {cache}" in capsys.readouterr().err
    # The cut lexicon is left in place, and no record lists it.
    assert [p.name for p in hun_dir.iterdir()] == ["en-fr.lexicon.txt"]

    capsys.readouterr()
    assert _cli(config_path, *align) == 0
    assert "aligned 1 pair/aligner combinations" in capsys.readouterr().err
    assert sorted(p.name for p in hun_dir.iterdir()) == [
        "en-fr.lexicon.txt", "en-fr.standoff.xml", "provenance.json",
    ]
    built = cache.read_bytes()
    assert _cli(config_path, *align) == 0
    assert "hunalign en-fr: kept" in capsys.readouterr().err
    assert cache.read_bytes() == built


def test_a_lexicon_cache_hit_opens_the_cache_once(tmp_path, profiles_dir, monkeypatch, capsys):
    import builtins
    import io

    config_path = make_config(tmp_path, profiles_dir)
    for stage in ("fetch", "normalize"):
        assert _cli(config_path, stage) == 0
    align = ("align", "--aligner", "hunalign", "--pairs", "en-fr")
    assert _cli(config_path, *align) == 0
    cache = tmp_path / "out" / "alignments" / "hunalign" / "en-fr.lexicon.txt"
    opened = []

    def counting(open_):
        def wrapper(file, *args, **kwargs):
            opened.append(str(file))
            return open_(file, *args, **kwargs)

        return wrapper

    # Path.open calls io.open, and a bare open() is builtins.open.
    monkeypatch.setattr(io, "open", counting(io.open))
    monkeypatch.setattr(builtins, "open", counting(builtins.open))
    capsys.readouterr()
    assert _cli(config_path, *align) == 0
    monkeypatch.undo()
    assert "hunalign en-fr: kept" in capsys.readouterr().err
    assert opened.count(str(cache)) == 1


def test_inputs_digest_covers_every_text():
    c = parse_celex("31984D0001")
    src, tgt = {c: ["un", "deux"]}, {c: ["one", "two"]}
    digest = _inputs_digest(src, tgt)
    # The bytes that lexicon headers written by earlier versions hold after "inputs=".
    assert digest == "547e08f19d4923d3265616f0baeb1f066bf6a2e9a0986e5aef697bbd8dc1ac29"
    assert digest == _inputs_digest({c: ["un", "deux"]}, tgt)
    assert digest != _inputs_digest(src, {c: ["one", "two."]})
    assert digest != _inputs_digest({c: ["un deux"]}, tgt)
    other = parse_celex("31985R0002")
    assert digest != _inputs_digest({c: ["un", "deux"], other: ["x"]}, {**tgt, other: ["x"]})


@pytest.mark.parametrize(
    "old, new", [('type="1-1"', 'type="x-1"'), ('source="2"', 'source="2;3"')]
)
def test_corrupted_standoff_exits_1(tmp_path, profiles_dir, old, new):
    config_path = make_config(tmp_path, profiles_dir)
    for stage in ("fetch", "normalize"):
        assert _cli(config_path, stage) == 0
    assert _cli(config_path, "align", "--aligner", "gale_church") == 0
    path = tmp_path / "out" / "alignments" / "gale_church" / "en-fr.standoff.xml"
    text = path.read_text(encoding="utf-8")
    assert old in text
    path.write_text(text.replace(old, new, 1), encoding="utf-8")
    assert _cli(config_path, "export", "--aligner", "gale_church") == 1
    assert _cli(
        config_path, "bitext", "--aligner", "gale_church", "--pairs", "en-fr",
        "--celex", "31984D0001",
    ) == 1


def test_bitext_parses_only_the_documents_it_emits(tmp_path, profiles_dir, monkeypatch):
    # 3 languages x 6 documents: the fixture documents plus renamed copies.
    html = tmp_path / "html"
    html.mkdir()
    for code in ("31984D0001", "31985R0002", "31986L0003"):
        for lang in ("de", "en", "fr"):
            text = (FIXTURES / "html" / f"{code}-{lang}.html").read_text(encoding="utf-8")
            (html / f"{code}-{lang}.html").write_text(text, encoding="utf-8")
            (html / f"{code[:3]}9{code[4:]}-{lang}.html").write_text(text, encoding="utf-8")
    config_path = make_config(
        tmp_path, profiles_dir, source={"mode": "local_directory", "root": str(html)}
    )
    for stage in ("fetch", "normalize"):
        assert _cli(config_path, stage) == 0
    assert len(list((tmp_path / "out" / "tei").rglob("*.xml"))) == 18
    assert _cli(config_path, "align", "--aligner", "gale_church", "--pairs", "en-fr") == 0

    import parcelex.tei

    calls = []

    def counting_parse_tei(text):
        calls.append(1)
        return parse_tei(text)

    monkeypatch.setattr(parcelex.tei, "parse_tei", counting_parse_tei)
    bitext = ("bitext", "--aligner", "gale_church", "--pairs", "en-fr", "--celex")
    assert _cli(config_path, *bitext, "31984D0001") == 0
    assert len(calls) == 2
    (tmp_path / "out" / "tei" / "fr" / "jrc31994D0001-fr.xml").unlink()
    assert _cli(config_path, *bitext, "31994D0001") == 1


def _untab_profile_line(root):
    path = root / "profiles" / "en.profile"
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[2] = lines[2].replace("\t", " ")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _truncate_manifest(root):
    path = root / "out" / "raw" / "manifest.json"
    text = path.read_text(encoding="utf-8")
    path.write_text(text[: len(text) // 2], encoding="utf-8")
    return path


def _manifest_without_documents(root):
    path = root / "out" / "raw" / "manifest.json"
    documents = json.loads(path.read_text(encoding="utf-8"))["documents"]
    path.write_text(json.dumps({"docs": documents}), encoding="utf-8")
    return path


def _delete_raw_file(root):
    path = root / "out" / "raw" / "31984D0001-en.html"
    path.unlink()
    return path


def _bad_utf8_byte(path):
    data = path.read_bytes()
    path.write_bytes(data[:40] + b"\xff" + data[40:])
    return path


def _raw_file_bad_utf8(root):
    return _bad_utf8_byte(root / "out" / "raw" / "31985R0002-fr.html")


def _edit_manifest_entry(root, index, key, value):
    path = root / "out" / "raw" / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    manifest["documents"][index][key] = value
    path.write_text(json.dumps(manifest), encoding="utf-8")
    return path


def _manifest_bad_date(root):
    return _edit_manifest_entry(root, 3, "retrieved", "yesterday")


def _manifest_file_not_a_string(root):
    return _edit_manifest_entry(root, 0, "file", 3)


def _manifest_lang_not_a_code(root):
    return _edit_manifest_entry(root, 0, "lang", "eng")


def _manifest_file_outside_raw(root):
    return _edit_manifest_entry(root, 0, "file", "../../config.json")


def _manifest_entry_listed_twice(root):
    path = root / "out" / "raw" / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    manifest["documents"].append(manifest["documents"][1])
    path.write_text(json.dumps(manifest), encoding="utf-8")
    return path


def _profile_bad_utf8(root):
    return _bad_utf8_byte(root / "profiles" / "fr.profile")


def _profile_is_a_directory(root):
    path = root / "profiles" / "xx.profile"
    path.mkdir()
    return path


def _write_eurovoc(root, text):
    path = root / "eurovoc.json"
    path.write_text(text, encoding="utf-8")
    return path


def _eurovoc_not_json(root):
    return _write_eurovoc(root, '{"31984D0001": [4180,')


def _eurovoc_list(root):
    return _write_eurovoc(root, json.dumps([["31984D0001", 4180]]))


def _eurovoc_codes_as_string(root):
    # Read as characters, "4180" would give the codes 0, 1, 4 and 8.
    return _write_eurovoc(root, json.dumps({"31984D0001": "4180"}))


def _no_profile_left(root):
    path = root / "profiles"
    for profile in path.glob("*.profile"):
        profile.unlink()
    return path


@pytest.mark.parametrize(
    "corrupt",
    [_untab_profile_line, _truncate_manifest, _manifest_without_documents, _delete_raw_file,
     _raw_file_bad_utf8, _manifest_bad_date, _manifest_file_not_a_string, _profile_bad_utf8,
     _eurovoc_not_json, _eurovoc_list, _eurovoc_codes_as_string, _profile_is_a_directory,
     _manifest_lang_not_a_code, _manifest_file_outside_raw, _no_profile_left,
     _manifest_entry_listed_twice],
)
def test_corrupted_profile_or_manifest_exits_1(tmp_path, profiles_dir, corrupt, capsys):
    shutil.copytree(profiles_dir, tmp_path / "profiles")
    config_path = make_config(tmp_path, tmp_path / "profiles")
    assert _cli(config_path, "fetch") == 0
    path = corrupt(tmp_path)
    capsys.readouterr()
    assert _cli(config_path, "normalize") == 1
    err = capsys.readouterr().err
    assert "internal error" not in err and str(path) in err


def _config_not_utf8(tmp_path):
    path = tmp_path / "config.json"
    path.write_bytes(b'{"languages": ["en"], "output_root": "out"\xff}')
    return path


def _config_is_a_directory(tmp_path):
    path = tmp_path / "config.d"
    path.mkdir()
    return path


_VALID_CONFIG = {"languages": ["en"], "source": {"root": "html"}, "output_root": "out"}
# The default prior of each of the six bead types, by its label.
_PRIORS = {"1-1": 0.89, "1-0": 0.00495, "0-1": 0.00495, "2-1": 0.0445, "1-2": 0.0445, "2-2": 0.011}

# Spellings of a bead type that int() reads as its label's numbers, each with that label.
_MISSPELLED_LABELS = [
    ("01-1", "1-1", "leading-zero"), ("+1-1", "1-1", "sign"), (" 0-1", "0-1", "space"),
    ("\u0661-0", "1-0", "arabic-digit"),
]

# Parameter values that are not finite numbers, or not integers where a count
# or seed belongs. JSON spells NaN and Infinity, and Python reads them.
_BAD_NUMBERS = [
    ("hun_params", "max_split", 2.5),
    ("hun_params", "sample_size", 1.5),
    ("hun_params", "min_cooc", "2"),
    ("hun_params", "sample_size", True),
    ("hun_params", "skip_penalty", "x"),
    ("hun_params", "skip_penalty", float("nan")),
    ("hun_params", "w_length", float("nan")),
    ("gc_params", "mean_ratio", "x"),
    ("gc_params", "mean_ratio", float("inf")),
    ("gc_params", "mean_ratio", True),
    ("gc_params", "skip_delta", "4"),
    ("gc_params", "variance", float("nan")),
]


def _config_json(value):
    def make(tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(value), encoding="utf-8")
        return path

    return make


def _with_priors(priors):
    return _config_json({**_VALID_CONFIG, "gc_params": {"arity_priors": priors}})


def _priors_without(label):
    return {key: p for key, p in _PRIORS.items() if key != label}


@pytest.mark.parametrize(
    "make, message",
    [
        (_config_not_utf8, "not valid UTF-8 at byte 42"),
        (_config_is_a_directory, "cannot read"),
        (lambda tmp_path: tmp_path / "nope.json", "config file not found"),
        (_config_json([_VALID_CONFIG]), "config must be a JSON object"),
        (_config_json({**_VALID_CONFIG, "source": "x"}), "'source' must be a JSON object"),
        (_config_json({**_VALID_CONFIG, "gc_params": "x"}), "'gc_params' must be a JSON object"),
        (_config_json({**_VALID_CONFIG, "hun_params": "x"}), "'hun_params' must be a JSON object"),
        (
            _config_json({**_VALID_CONFIG, "gc_params": {"arity_priors": 5}}),
            "'arity_priors' must be a JSON object",
        ),
        (_config_json({**_VALID_CONFIG, "languages": "en"}), '"languages" must be a list'),
        (_config_json({**_VALID_CONFIG, "top_descriptors": -1}), "bad config value"),
        (_config_json({**_VALID_CONFIG, "top_descriptors": 2.5}), "bad config value"),
        (_config_json({**_VALID_CONFIG, "top_descriptors": True}), "bad config value"),
        (_config_json({**_VALID_CONFIG, "seed": 1.9}), "bad config value"),
        (_config_json({**_VALID_CONFIG, "seed": [1]}), "bad config value"),
        (_config_json({**_VALID_CONFIG, "selection": "false"}), "bad config value"),
        (_config_json({**_VALID_CONFIG, "selection": 0}), "bad config value"),
        (_config_json({**_VALID_CONFIG, "aligners": ["hunalign", "hunalign"]}), "bad config value"),
        (_config_json({**_VALID_CONFIG, "aligners": "gale_church"}), "bad config value"),
        (_config_json({**_VALID_CONFIG, "aligners": ["gale_church", "bleualign"]}), "bad config value"),
        (_config_json({**_VALID_CONFIG, "languages": ["en", "fr", "en"]}), "bad config value"),
        (_config_json({**_VALID_CONFIG, "languages": ["en", "eng"]}), "bad config value"),
        (_config_json({**_VALID_CONFIG, "languages": ["en", "FR"]}), "bad config value"),
        (_config_json({**_VALID_CONFIG, "languages": ["en", 1]}), "bad config value"),
        (_config_json({**_VALID_CONFIG, "seed": 7, "hun_params": {"rng_seed": 5}}), "bad config value"),
        (
            _config_json({**_VALID_CONFIG, "hun_params": {"rng_seed": 5}}),
            "bad config value: hun_params takes no 'rng_seed'; give the lexicon seed as 'seed'",
        ),
        (
            _with_priors(_priors_without("2-2")),
            "bad config value: arity priors: missing bead types ['2-2'], unknown []",
        ),
        (
            _with_priors({**_PRIORS, "1-1": float("nan")}),
            "bad config value: arity prior (1, 1) must be a finite number, got nan",
        ),
        *(
            (
                _with_priors({**_priors_without(label), spelling: _PRIORS[label]}),
                f"bad config value: arity priors: missing bead types [{label!r}], "
                f"unknown [{spelling!r}]",
            )
            for spelling, label, _ in _MISSPELLED_LABELS
        ),
        (_config_json({**_VALID_CONFIG, "gc_params": {"arity_priors": {"3-1": 0.01}}}), "bad config value"),
        (
            _config_json({**_VALID_CONFIG, "gc_params": {"arity_priors": {"1-1-1": 0.01}}}),
            "bad config value",
        ),
        (
            _config_json({**_VALID_CONFIG, "aligner": ["hunalign"]}),
            "bad config value: unknown key 'aligner'",
        ),
        (
            _config_json({**_VALID_CONFIG, "top_descriptor": 5}),
            "bad config value: unknown key 'top_descriptor'",
        ),
        (
            _config_json({**_VALID_CONFIG, "source": {"root": "html", "mdoe": "x"}}),
            "bad config value: FetchSource.__init__() got an unexpected keyword argument 'mdoe'",
        ),
        (
            _config_json({**_VALID_CONFIG, "source": {"root": "html", "endpoint": "foo"}}),
            "bad config value: FetchSource.__init__() got an unexpected keyword argument 'endpoint'",
        ),
        (
            _config_json({**_VALID_CONFIG, "source": {"root": "html", "mode": "http_endpoint"}}),
            "bad config value: unknown fetch mode 'http_endpoint'",
        ),
        (_config_json({**_VALID_CONFIG, "source": {}}), "config is missing required key 'root'"),
        (
            _config_json({key: value for key, value in _VALID_CONFIG.items() if key != "output_root"}),
            "config is missing required key 'output_root'",
        ),
        *(
            (_config_json({**_VALID_CONFIG, key: {field: value}}), "bad config value")
            for key, field, value in _BAD_NUMBERS
        ),
    ],
    ids=[
        "not-utf8", "directory", "missing", "list", "source", "gc-params", "hun-params",
        "arity-priors", "languages", "top-descriptors-negative", "top-descriptors-float",
        "top-descriptors-bool", "seed-float", "seed-list", "selection-string", "selection-int",
        "aligners-repeated", "aligners-string", "aligners-unknown", "languages-repeated",
        "languages-three-letters", "languages-uppercase", "languages-number", "seed-and-rng-seed",
        "rng-seed", "arity-priors-without-2-2",
        "arity-prior-nan", *(f"arity-prior-{name}" for _, _, name in _MISSPELLED_LABELS),
        "arity-prior-3-1", "arity-prior-1-1-1", "unknown-key-aligner", "unknown-key-top-descriptor",
        "unknown-source-key", "unknown-endpoint", "http-endpoint-mode", "source-without-root",
        "no-output-root",
        *(f"{field}-{value!r}" for _, field, value in _BAD_NUMBERS),
    ],
)
def test_unreadable_config_exits_1(tmp_path, make, message, capsys):
    path = make(tmp_path)
    for command in SUBCOMMANDS:
        assert main([command, "--config", str(path)]) == 1, command
        err = capsys.readouterr().err
        assert "internal error" not in err and message in err and str(path) in err, command


# Characters XML 1.0 forbids, which a raw document may still hold literally.
@pytest.mark.parametrize("char", ["\x00", "\x01", "\x08", "\x0e", "\x1b", "\ufffe", "\uffff"])
def test_control_characters_in_a_raw_document_give_well_formed_tei(tmp_path, char):
    html = tmp_path / "html"
    html.mkdir()
    for lang in ("en", "fr"):
        shutil.copy(FIXTURES / "html" / f"31984D0001-{lang}.html", html)
    raw = html / "31984D0001-en.html"
    text = raw.read_text(encoding="utf-8")
    raw.write_text(text.replace("The committee shall", f"The committee{char}shall", 1),
                   encoding="utf-8")
    config_path = make_config(
        tmp_path, None, languages=["en", "fr"], aligners=["gale_church"],
        source={"mode": "local_directory", "root": str(html)},
    )
    for stage in ("fetch", "normalize", "align", "stats"):
        assert _cli(config_path, stage) == 0, stage
    tei = tmp_path / "out" / "tei" / "en" / "jrc31984D0001-en.xml"
    texts = parse_tei(tei.read_text(encoding="utf-8")).paragraphs
    assert any(t.startswith("The committee shall examine") for t in texts)


# Set-up (import, config, profiles) uses none of these; they cost start-up
# time and memory in every run. The stages that use some import them.
_UNUSED_AT_START_UP = (
    "urllib.request", "http.client", "email", "ssl", "socket", "xml.sax",
    "importlib.resources", "pkgutil",
    "parcelex.tei", "parcelex.standoff", "parcelex.stats", "xml.etree.ElementTree",
    "argparse", "hashlib",
    "parcelex.beads", "parcelex.celex", "parcelex.ingest", "parcelex.galechurch",
    "parcelex.hunalign", "random", "html", "html.entities",
)


def test_start_up_loads_no_network_or_sax_module(tmp_path):
    src = str(Path(parcelex.__file__).parent.parent)
    config_path = _config_json(_VALID_CONFIG)(tmp_path)
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import parcelex, parcelex.cli; "
        "parcelex.cli.load_config(sys.argv[2]); "
        f"print(sorted(m for m in {_UNUSED_AT_START_UP!r} if m in sys.modules))"
    )
    result = subprocess.run([sys.executable, "-B", "-S", "-E", "-c", code, src, str(config_path)],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


_BITEXT = ("bitext", "--aligner", "gale_church", "--pairs", "en-fr", "--celex", "31984D0001")
_CHAIN = [("fetch",), ("normalize",), ("align",), ("export",), _BITEXT, ("stats",), ("agree",)]


@pytest.fixture(scope="module")
def aligned_tree(tmp_path_factory, profiles_dir):
    """Config directory holding its profiles and a fixture tree run from fetch to agree."""
    root = tmp_path_factory.mktemp("aligned")
    shutil.copytree(profiles_dir, root / "profiles")
    config_path = make_config(root, "profiles")
    for stage in _CHAIN:
        assert _cli(config_path, *stage) == 0
    return root


_TEI = ("tei", "en", "jrc31984D0001-en.xml")
_STANDOFF = ("alignments", "gale_church", "en-fr.standoff.xml")
_LEXICON = ("alignments", "hunalign", "en-fr.lexicon.txt")
_PROVENANCE = ("alignments", "gale_church", "provenance.json")


@pytest.mark.parametrize(
    "file, command",
    [
        (_TEI, ("align",)),
        (_TEI, ("stats",)),
        (_TEI, _BITEXT),
        (_STANDOFF, ("export",)),
        (_STANDOFF, ("agree",)),
    ],
    ids=["align-tei", "stats-tei", "bitext-tei", "export-standoff", "agree-standoff"],
)
def test_bad_utf8_byte_in_an_output_file_exits_1(aligned_tree, tmp_path, file, command, capsys):
    shutil.copytree(aligned_tree, tmp_path, dirs_exist_ok=True)
    path = _bad_utf8_byte(tmp_path.joinpath("out", *file))
    capsys.readouterr()
    assert _cli(tmp_path / "config.json", *command) == 1
    err = capsys.readouterr().err
    assert "internal error" not in err and str(path) in err


def test_standoff_not_covering_the_documents_exits_1_naming_it(aligned_tree, tmp_path, capsys):
    # Well-formed links that skip paragraph 3 of the source and cover paragraph 2 twice.
    shutil.copytree(aligned_tree, tmp_path, dirs_exist_ok=True)
    path = tmp_path.joinpath("out", *_STANDOFF)
    path.write_text(path.read_text(encoding="utf-8").replace('source="3"', 'source="2"', 1),
                    encoding="utf-8")
    capsys.readouterr()
    assert _cli(tmp_path / "config.json", *_BITEXT) == 1
    err = capsys.readouterr().err
    assert "internal error" not in err and str(path) in err and "cover" in err
    assert "31984D0001" in err


def test_aligned_standoff_files_round_trip_every_score_bit(aligned_tree):
    paths = sorted((aligned_tree / "out" / "alignments").glob("*/*.standoff.xml"))
    assert len(paths) == 6  # three pairs, both aligners
    for path in paths:
        text = path.read_text(encoding="utf-8")
        written = re.findall(r'score="([^"]*)"', text)
        file = import_standoff_xml(text)
        read = [link.score for _, links in file.entries for link in links]
        assert written and len(read) == len(written), path
        assert [score.hex() for score in read] == [float(s).hex() for s in written], path
        assert export_standoff_xml(file) == text, path


# Each kind of file that a stage reads: one such file, and every stage that reads it.
_READ_BY = {
    "raw": (("out", "raw", "31984D0001-en.html"), [("normalize",)]),
    "manifest": (("out", "raw", "manifest.json"), [("normalize",)]),
    "config": (("config.json",), _CHAIN),
    "profile": (("profiles", "fr.profile"), [("normalize",)]),
    "eurovoc": (("eurovoc.json",), [("normalize",)]),
    # align last: it rewrites the stand-off file that bitext reads.
    "tei": (("out", *_TEI), [_BITEXT, ("stats",), ("align", "--pairs", "en-fr")]),
    "standoff": (("out", *_STANDOFF), [("export",), _BITEXT, ("agree",)]),
    "lexicon": (("out", *_LEXICON), [("align", "--aligner", "hunalign", "--pairs", "en-fr")]),
    "provenance": (
        ("out", *_PROVENANCE), [("align", "--aligner", "gale_church", "--pairs", "en-fr")]
    ),
}


def _cut(path):
    data = path.read_bytes()
    path.write_bytes(data[: len(data) * 2 // 5])


def _bad_byte_mid_file(path):
    data = path.read_bytes()
    mid = len(data) // 2
    path.write_bytes(data[:mid] + b"\xff" + data[mid:])


def _drop_first_quote(path):
    path.write_bytes(path.read_bytes().replace(b'"', b"", 1))


# Any file may be cut short, deleted, hold a bad byte, lose a quote or be emptied.
_DAMAGES = {
    "cut": _cut,
    "deleted": Path.unlink,
    "bad-byte": _bad_byte_mid_file,
    "no-quote": _drop_first_quote,
    "empty": lambda path: path.write_bytes(b""),
}


def _edit_json(change):
    def damage(path):
        config = json.loads(path.read_text(encoding="utf-8"))
        path.write_text(json.dumps(change(config)), encoding="utf-8")

    return damage


def _sub(pattern, replacement, count=1):
    """Damage that replaces the first ``count`` matches of ``pattern`` in a file (0: all)."""
    def damage(path):
        text = path.read_text(encoding="utf-8")
        damaged = re.sub(pattern, replacement, text, count=count)
        assert damaged != text
        path.write_text(damaged, encoding="utf-8")

    return damage


def _edit_root(tag, old, new):
    """Damage that rewrites an attribute of a file's root element ``<tag ...>``."""
    def damage(path):
        text = path.read_text(encoding="utf-8")
        root = re.search(rf"<{re.escape(tag)} [^>]*>", text).group()
        path.write_text(text.replace(root, root.replace(old, new)), encoding="utf-8")

    return damage


def _edit_link_lines(change):
    """Damage that rewrites the list of a file's ``<link>`` lines."""
    def damage(path):
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        links = [i for i, line in enumerate(lines) if line.lstrip().startswith("<link ")]
        path.write_text("".join(change(lines, links)), encoding="utf-8")

    return damage


# Well-formed files with a bad field, which every stage that reads them must reject.
_FIELD_DAMAGES = {
    ("tei", "classcode-abc"): _sub(r'(scheme="eurovoc">)\d+', r"\1abc"),
    ("tei", "classcode-empty"): _sub(r'(scheme="eurovoc">)\d+', r"\1"),
    ("tei", "root-lang-english"): _edit_root("TEI.2", 'lang="en"', 'lang="english"'),
    ("tei", "root-lang-fr"): _edit_root("TEI.2", 'lang="en"', 'lang="fr"'),
    ("tei", "root-n-other-celex"): _edit_root("TEI.2", 'n="31984D0001"', 'n="31985R0002"'),
    ("tei", "root-n-arabic-indic-digits"): _edit_root(
        "TEI.2", 'n="31984D0001"', 'n="\u0663\u0661\u0669\u0668\u0664D0001"'
    ),
    ("tei", "root-not-tei2"): _sub(r"(</?)TEI\.2\b", r"\1TEI", count=0),
    ("tei", "p-n-misnumbered"): _sub(r'<p n="2">', '<p n="3">'),
    ("tei", "p-n-0"): _sub(r'<p n="2">', '<p n="0">'),
    ("tei", "p-n-abc"): _sub(r'<p n="2">', '<p n="abc">'),
    ("tei", "p-n-plus-2"): _sub(r'<p n="2">', '<p n="+2">'),
    ("tei", "p-empty"): _sub(r'<p n="2">[^<]*</p>', '<p n="2"></p>'),
    ("tei", "div-type-unknown"): _sub(r'<div type="body">', '<div type="preamble">'),
    ("tei", "div-body-as-annex-before-signature"): _sub(r'<div type="body">', '<div type="annex">'),
    ("tei", "div-body-after-signature"): _sub(
        r'<div type="(body|signature)">',
        lambda m: f'<div type="{"signature" if m.group(1) == "body" else "body"}">', count=0,
    ),
    ("tei", "head-n-2"): _sub(r'<head n="1">', '<head n="2">'),
    ("tei", "p-n-repeated"): _sub(r'<p n="3">', '<p n="2">'),
    ("tei", "extent-abc"): _sub(r"<extent>\d+", "<extent>many"),
    ("tei", "extent-off-by-one"): _sub(
        r"<extent>(\d+)", lambda m: f"<extent>{int(m.group(1)) + 1}"
    ),
    ("tei", "date-unparseable"): _sub(r"<date>[^<]*</date>", "<date>yesterday</date>"),
    ("tei", "no-title"): _sub(r" *<title>[^<]*</title>\n", "", count=0),
    ("tei", "no-head"): _sub(r" *<head [^>]*>[^<]*</head>\n", ""),
    ("standoff", "score-nan"): _sub(r'score="[^"]*"', 'score="nan"'),
    ("standoff", "pointer-arabic-indic"): _sub(r'source="2"', 'source="\u0662"'),
    ("standoff", "link-repeated"): _edit_link_lines(
        lambda lines, links: lines[: links[0] + 1] + lines[links[0] :]
    ),
    ("standoff", "link-dropped"): _edit_link_lines(
        lambda lines, links: lines[: links[1]] + lines[links[1] + 1 :]
    ),
    ("standoff", "root-src-english"): _edit_root("standoff", 'src="en"', 'src="english"'),
    ("standoff", "root-tgt-de"): _edit_root("standoff", 'tgt="fr"', 'tgt="de"'),
    ("standoff", "root-not-standoff"): _sub(r"(</?)standoff\b", r"\1links", count=0),
    ("standoff", "linkgrp-n-repeated"): _sub(r'n="31985R0002"', 'n="31984D0001"'),
    ("standoff", "linkgrp-out-of-order"): _sub(r'n="31984D0001"', 'n="31999D0001"'),
    ("profile", "rank-plus-1"): _sub(r"\t1\n", "\t+1\n"),
    ("eurovoc", "code-negative"): _edit_json(lambda codes: {**codes, "31984D0001": [-4180]}),
    ("config", "list"): _edit_json(lambda config: [config]),
    ("config", "source-string"): _edit_json(lambda config: {**config, "source": "x"}),
    ("config", "hun-params-string"): _edit_json(lambda config: {**config, "hun_params": "x"}),
    ("config", "languages-string"): _edit_json(lambda config: {**config, "languages": "en"}),
}


@pytest.mark.parametrize(
    "kind, damage, must_fail",
    [(kind, damage, False) for kind in _READ_BY for damage in _DAMAGES.values()]
    + [(kind, damage, True) for (kind, _), damage in _FIELD_DAMAGES.items()],
    ids=[f"{kind}-{name}" for kind in _READ_BY for name in _DAMAGES]
    + [f"{kind}-{name}" for kind, name in _FIELD_DAMAGES],
)
def test_damaged_input_file_exits_1_naming_it(aligned_tree, tmp_path, kind, damage, must_fail, capsys):
    shutil.copytree(aligned_tree, tmp_path, dirs_exist_ok=True)
    parts, stages = _READ_BY[kind]
    path = tmp_path.joinpath(*parts)
    damage(path)
    # A deleted profile leaves no file to name, so the message names its language.
    named = "'fr'" if kind == "profile" and not path.exists() else str(path)
    for stage in stages:
        capsys.readouterr()
        status = _cli(tmp_path / "config.json", *stage)
        err = capsys.readouterr().err
        assert status == 1 if must_fail else status in (0, 1), (stage, status, err)
        assert "internal error" not in err, (stage, err)
        if status == 1:
            assert named in err, (stage, err)


_OPTION_VALUES = {"pairs": "en-fr", "celex_ids": "31984D0001", "aligner": "hunalign"}


@pytest.mark.parametrize(
    "stage, option",
    [(stage, option) for stage, (_, options) in _STAGES.items() for option in _FLAGS
     if option not in options],
)
def test_an_option_the_stage_does_not_take_exits_1_naming_it(aligned_tree, tmp_path, stage, option,
                                                             capsys):
    shutil.copytree(aligned_tree, tmp_path, dirs_exist_ok=True)
    before = _tree(tmp_path / "out")
    capsys.readouterr()
    assert _cli(tmp_path / "config.json", stage, _FLAGS[option], _OPTION_VALUES[option]) == 1
    err = capsys.readouterr().err
    assert "internal error" not in err and f"{stage} does not take {_FLAGS[option]}" in err
    assert _tree(tmp_path / "out") == before


def test_readme_config_reference_names_every_config_key():
    from dataclasses import fields

    from parcelex.params import FetchSource, GCParams, HunParams

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    reference = readme.split("### Config reference", 1)[1].split("\n#", 1)[0]
    spelling = {"gc": "gc_params", "hun": "hun_params"}
    keys = {"seed"} | {
        spelling.get(f.name, f.name)
        for cls in (PipelineConfig, FetchSource, GCParams, HunParams)
        for f in fields(cls)
    }
    assert sorted(key for key in keys if not re.search(rf"\b{key}\b", reference)) == []


def test_readme_library_table_has_a_row_for_every_module():
    repo = Path(__file__).resolve().parent.parent
    table = (repo / "README.md").read_text(encoding="utf-8").split("## Library", 1)[1].split("\n#", 1)[0]
    rows = set(re.findall(r"^\| `parcelex\.(\w+)` \|", table, re.MULTILINE))
    modules = {path.stem for path in (repo / "src" / "parcelex").glob("*.py")} - {"__init__", "__main__"}
    assert sorted(modules - rows) == []


def test_align_parses_only_the_languages_of_its_pairs(tmp_path, monkeypatch):
    # Without profiles the cross-labeled fr document is kept: en 3 + fr 4 + de 3.
    config_path = make_config(tmp_path, None)
    for stage in ("fetch", "normalize"):
        assert _cli(config_path, stage) == 0
    assert len(list((tmp_path / "out" / "tei").rglob("*.xml"))) == 10

    import parcelex.tei

    calls = []

    def counting_parse_tei(text):
        calls.append(1)
        return parse_tei(text)

    monkeypatch.setattr(parcelex.tei, "parse_tei", counting_parse_tei)
    assert _cli(config_path, "align", "--aligner", "gale_church", "--pairs", "en-fr") == 0
    assert len(calls) == 7
    assert _cli(config_path, "align", "--aligner", "gale_church") == 0
    assert len(calls) == 17


def test_align_counts_only_the_pairs_it_wrote(tmp_path, capsys):
    config_path = make_config(tmp_path, None)
    for stage in ("fetch", "normalize"):
        assert _cli(config_path, stage) == 0
    shutil.rmtree(tmp_path / "out" / "tei" / "de")
    capsys.readouterr()
    assert _cli(config_path, "align") == 0
    err = capsys.readouterr().err
    assert err.count("no common documents, skipped") == 4  # de-en and de-fr, both aligners
    assert "aligned 2 pair/aligner combinations" in err
    written = sorted(p.name for p in (tmp_path / "out" / "alignments").rglob("*.standoff.xml"))
    assert written == ["en-fr.standoff.xml"] * 2


def test_align_keeps_the_provenance_of_pairs_it_did_not_align(aligned_tree, tmp_path, capsys):
    shutil.copytree(aligned_tree, tmp_path, dirs_exist_ok=True)
    records = {
        aligner: tmp_path / "out" / "alignments" / aligner / "provenance.json"
        for aligner in ("gale_church", "hunalign")
    }
    full = {aligner: path.read_bytes() for aligner, path in records.items()}
    assert all(len(json.loads(data)["pairs"]) == 3 for data in full.values())
    # Re-aligning one pair rewrites its entry and keeps the other two.
    for aligner in records:
        (tmp_path / "out" / "alignments" / aligner / "en-fr.standoff.xml").unlink()
    capsys.readouterr()
    assert _cli(tmp_path / "config.json", "align", "--pairs", "en-fr") == 0
    assert "aligned 2 pair/aligner combinations" in capsys.readouterr().err
    assert {aligner: path.read_bytes() for aligner, path in records.items()} == full
    # A run that removes two pairs keeps the entry of the third as it was.
    shutil.rmtree(tmp_path / "out" / "tei" / "de")
    capsys.readouterr()
    assert _cli(tmp_path / "config.json", "align", "--pairs", "de-en,de-fr") == 0
    assert "aligned 0 pair/aligner combinations" in capsys.readouterr().err
    for aligner, path in records.items():
        pairs = json.loads(full[aligner])["pairs"]
        assert json.loads(path.read_bytes()) == {"pairs": {"en-fr": pairs["en-fr"]}}


def _align_outputs(root: Path) -> dict[str, bytes]:
    """The files under ``out/alignments`` that ``align`` writes: all but the CSV files."""
    return {
        name: data for name, data in _tree(root / "out" / "alignments").items()
        if not name.endswith(".csv")
    }


def _fresh_align(root: Path) -> dict[str, bytes]:
    """What ``align`` writes from ``root``'s config and TEI tree into a tree with no alignments."""
    fresh = root / "fresh"
    shutil.copytree(root / "out" / "tei", fresh / "out" / "tei")
    shutil.copy(root / "config.json", fresh)
    assert _cli(fresh / "config.json", "align") == 0
    return _align_outputs(fresh)


def _align_log(root: Path, capsys) -> str:
    """Run ``align`` on ``root``; what it logged."""
    capsys.readouterr()
    assert _cli(root / "config.json", "align") == 0
    return capsys.readouterr().err


def _realigned(log: str) -> list[str]:
    """The ``<aligner> <pair>`` that an ``align`` log shows aligned rather than kept, sorted."""
    kept = set(re.findall(r"^(\S+ \S+): kept$", log, re.MULTILINE))
    every = {f"{aligner} {pair}" for aligner in ("gale_church", "hunalign")
             for pair in ("de-en", "de-fr", "en-fr")}
    return sorted(every - kept)


def test_an_unchanged_align_keeps_every_pair_without_aligning(aligned_tree, tmp_path, monkeypatch,
                                                              capsys):
    import parcelex.galechurch
    import parcelex.hunalign

    shutil.copytree(aligned_tree, tmp_path, dirs_exist_ok=True)
    out = tmp_path / "out"
    before = _tree(out)
    stamps = {path: path.stat().st_mtime_ns for path in out.rglob("*")}

    def refuse(*args, **kwargs):
        raise AssertionError("an aligner ran")

    monkeypatch.setattr(parcelex.galechurch, "align_gale_church", refuse)
    monkeypatch.setattr(parcelex.hunalign, "align_hunalign", refuse)
    capsys.readouterr()
    assert _cli(tmp_path / "config.json", "align") == 0
    err = capsys.readouterr().err
    assert err.count(": kept") == 6 and "aligned 0 pair/aligner combinations" in err
    assert _tree(out) == before
    assert {path: path.stat().st_mtime_ns for path in out.rglob("*")} == stamps  # nothing rewritten


def test_an_edited_text_realigns_only_the_pairs_of_its_language(aligned_tree, tmp_path, capsys):
    shutil.copytree(aligned_tree, tmp_path, dirs_exist_ok=True)
    tei = tmp_path / "out" / "tei" / "de" / "jrc31984D0001-de.xml"
    text = tei.read_text(encoding="utf-8")
    assert "prüft den Antrag" in text  # paragraph 2, which the aligners read
    tei.write_text(text.replace("prüft den Antrag", "prüft jeden Antrag"), encoding="utf-8")
    assert _realigned(_align_log(tmp_path, capsys)) == [
        "gale_church de-en", "gale_church de-fr", "hunalign de-en", "hunalign de-fr",
    ]
    assert _align_outputs(tmp_path) == _fresh_align(tmp_path)


def test_new_hun_params_realign_every_hunalign_pair_and_no_other(aligned_tree, tmp_path, capsys):
    shutil.copytree(aligned_tree, tmp_path, dirs_exist_ok=True)
    config_path = tmp_path / "config.json"
    config = json.loads(config_path.read_text(encoding="utf-8"))
    config_path.write_text(json.dumps({**config, "hun_params": {"min_cooc": 3}}), encoding="utf-8")
    assert _realigned(_align_log(tmp_path, capsys)) == ["hunalign de-en", "hunalign de-fr", "hunalign en-fr"]
    assert _align_outputs(tmp_path) == _fresh_align(tmp_path)


@pytest.mark.parametrize("damage", [Path.unlink, _cut, _bad_byte_mid_file], ids=["deleted", "cut", "bad-byte"])
@pytest.mark.parametrize(
    "aligner, name",
    [("gale_church", "en-fr.standoff.xml"), ("hunalign", "de-fr.standoff.xml"),
     ("hunalign", "de-en.lexicon.txt")],
)
def test_a_damaged_align_output_realigns_only_its_pair(aligned_tree, tmp_path, aligner, name, damage,
                                                      capsys):
    shutil.copytree(aligned_tree, tmp_path, dirs_exist_ok=True)
    damage(tmp_path / "out" / "alignments" / aligner / name)
    assert _realigned(_align_log(tmp_path, capsys)) == [f"{aligner} {name.split('.')[0]}"]
    assert _align_outputs(tmp_path) == _fresh_align(tmp_path)


def _en_fr_entry(change):
    """The change of a provenance record that ``change``s its en-fr entry."""
    return lambda record: {
        **record, "pairs": {**record["pairs"], "en-fr": change(record["pairs"]["en-fr"])},
    }


def _with_aligner_key(change=lambda record: record):
    """Damage that adds the ``aligner`` key that earlier versions wrote, then ``change``s the record."""
    return _edit_json(lambda record: change({"aligner": "gale_church", **record}))


# Records that keep no pair: unreadable ones, the shape earlier versions wrote,
# and the damaged shapes that those versions rejected.
_RECORD_DAMAGES = {
    "cut": _cut,
    "bad-byte": _bad_byte_mid_file,
    "empty": lambda path: path.write_bytes(b""),
    "pairs-list": _edit_json(lambda record: {"pairs": list(record["pairs"])}),
    # A key that names no pair would name no files of the record's directory.
    "key-not-a-pair": _edit_json(
        lambda record: {"pairs": {**record["pairs"], "../en-fr": record["pairs"]["en-fr"]}}
    ),
    "with-aligner-key": _with_aligner_key(),
    "digests-list": _with_aligner_key(_en_fr_entry(lambda entry: {**entry, "params": [entry["params"]]})),
    "files-list": _with_aligner_key(_en_fr_entry(lambda entry: {**entry, "files": list(entry["files"])})),
    "entry-extra-key": _with_aligner_key(_en_fr_entry(lambda entry: {**entry, "seconds": "1"})),
    "other-aligner": _with_aligner_key(lambda record: {**record, "aligner": "hunalign"}),
    "old-shape": _with_aligner_key(
        lambda record: {
            "aligner": record["aligner"],
            "params_digest": {pair: entry["params"] for pair, entry in record["pairs"].items()},
        }
    ),
}


@pytest.mark.parametrize("damage", list(_RECORD_DAMAGES.values()), ids=list(_RECORD_DAMAGES))
def test_a_damaged_record_realigns_every_pair_of_its_aligner(aligned_tree, tmp_path, damage, capsys):
    shutil.copytree(aligned_tree, tmp_path, dirs_exist_ok=True)
    path = tmp_path.joinpath("out", *_PROVENANCE)
    damage(path)
    log = _align_log(tmp_path, capsys)
    assert [line for line in log.splitlines() if str(path) in line] == [
        f"{path}: unreadable or not a record of pairs; no gale_church pair is kept"
    ]
    assert _realigned(log) == ["gale_church de-en", "gale_church de-fr", "gale_church en-fr"]
    assert _align_outputs(tmp_path) == _fresh_align(tmp_path)


@pytest.mark.parametrize(
    "change, delete_standoff",
    [
        (lambda entry: {**entry, "params": [entry["params"]]}, False),
        (lambda entry: {**entry, "files": list(entry["files"])}, False),
        (lambda entry: {**entry, "seconds": "1"}, False),
        (lambda entry: {"params": entry["params"], "files": entry["files"]}, False),
        # What a pair whose files cannot be read would have as digests.
        (lambda entry: {**entry, "files": None}, True),
    ],
    ids=["params-list", "files-list", "extra-key", "no-inputs", "files-null-standoff-deleted"],
)
def test_an_entry_that_does_not_check_out_realigns_only_its_pair(aligned_tree, tmp_path, change,
                                                                 delete_standoff, capsys):
    shutil.copytree(aligned_tree, tmp_path, dirs_exist_ok=True)
    _edit_json(_en_fr_entry(change))(tmp_path.joinpath("out", *_PROVENANCE))
    if delete_standoff:
        tmp_path.joinpath("out", *_STANDOFF).unlink()
    log = _align_log(tmp_path, capsys)
    assert "provenance.json" not in log
    assert _realigned(log) == ["gale_church en-fr"]
    assert _align_outputs(tmp_path) == _fresh_align(tmp_path)


def test_a_pair_without_common_documents_loses_its_alignment_files(aligned_tree, tmp_path, capsys):
    shutil.copytree(aligned_tree, tmp_path, dirs_exist_ok=True)
    shutil.rmtree(tmp_path / "out" / "tei" / "de")
    log = _align_log(tmp_path, capsys)
    assert log.count("no common documents, skipped") == 4 and log.count(": kept") == 2
    for aligner, lexicon in (("gale_church", []), ("hunalign", ["en-fr.lexicon.txt"])):
        directory = tmp_path / "out" / "alignments" / aligner
        names = sorted(p.name for p in directory.iterdir() if p.suffix != ".csv")
        assert names == [*lexicon, "en-fr.standoff.xml", "provenance.json"]
        record = json.loads((directory / "provenance.json").read_text(encoding="utf-8"))
        assert list(record["pairs"]) == ["en-fr"]
        for csv in directory.glob("*.csv"):
            csv.unlink()
    assert _align_outputs(tmp_path) == _fresh_align(tmp_path)
    capsys.readouterr()
    assert _cli(tmp_path / "config.json", "export") == 0
    assert "exported 2 CSV files" in capsys.readouterr().err
    assert sorted(p.name for p in (tmp_path / "out" / "alignments").rglob("*.csv")) == ["en-fr.csv"] * 2
    # With fr gone too, no pair is left, and no record either.
    shutil.rmtree(tmp_path / "out" / "tei" / "fr")
    _align_log(tmp_path, capsys)
    assert _align_outputs(tmp_path) == {}


def test_a_new_language_aligns_only_its_pairs(tmp_path, capsys):
    config_path = make_config(tmp_path, None, languages=["en", "fr"])
    for stage in ("fetch", "normalize", "align"):
        assert _cli(config_path, stage) == 0
    make_config(tmp_path, None)  # de joins en and fr
    for stage in ("fetch", "normalize"):
        assert _cli(config_path, stage) == 0
    assert _realigned(_align_log(tmp_path, capsys)) == [
        "gale_church de-en", "gale_church de-fr", "hunalign de-en", "hunalign de-fr",
    ]
    assert _align_outputs(tmp_path) == _fresh_align(tmp_path)


def test_a_full_align_drops_the_pairs_of_a_removed_language(aligned_tree, tmp_path, capsys):
    shutil.copytree(aligned_tree, tmp_path, dirs_exist_ok=True)
    make_config(tmp_path, "profiles", languages=["en", "fr"])
    # An align of named pairs keeps what it does not run.
    capsys.readouterr()
    assert _cli(tmp_path / "config.json", "align", "--pairs", "en-fr") == 0
    assert "removed" not in capsys.readouterr().err
    assert tmp_path.joinpath("out", "alignments", "hunalign", "de-en.lexicon.txt").is_file()
    log = _align_log(tmp_path, capsys)
    assert sorted(re.findall(r"^(\S+ \S+): not a configured pair, removed$", log, re.MULTILINE)) == [
        "gale_church de-en", "gale_church de-fr", "hunalign de-en", "hunalign de-fr",
    ]
    assert "hunalign en-fr: kept" in log
    for csv in (tmp_path / "out" / "alignments").rglob("*.csv"):
        csv.unlink()  # export's, not align's
    assert _align_outputs(tmp_path) == _fresh_align(tmp_path)


def test_a_full_align_drops_the_pairs_of_a_removed_language_from_an_unreadable_record(
        aligned_tree, tmp_path, capsys):
    shutil.copytree(aligned_tree, tmp_path, dirs_exist_ok=True)
    record = tmp_path.joinpath("out", *_PROVENANCE)
    record.write_text("garbage", encoding="utf-8")
    make_config(tmp_path, "profiles", languages=["en", "fr"])
    log = _align_log(tmp_path, capsys)
    assert f"{record}: unreadable or not a record of pairs; no gale_church pair is kept" in log
    # The file names still say which pairs gale_church wrote.
    assert sorted(re.findall(r"^(\S+ \S+): not a configured pair, removed$", log, re.MULTILINE)) == [
        "gale_church de-en", "gale_church de-fr", "hunalign de-en", "hunalign de-fr",
    ]
    assert _align_outputs(tmp_path) == _fresh_align(tmp_path)


def test_align_removes_the_csv_of_each_pair_it_removes(aligned_tree, tmp_path, capsys):
    shutil.copytree(aligned_tree, tmp_path, dirs_exist_ok=True)
    alignments = tmp_path / "out" / "alignments"
    make_config(tmp_path, "profiles", languages=["en", "fr"])  # de-en and de-fr are not configured
    _align_log(tmp_path, capsys)
    assert sorted(str(p.relative_to(alignments)) for p in alignments.rglob("*.csv")) == [
        str(Path("gale_church", "en-fr.csv")), str(Path("hunalign", "en-fr.csv")),
    ]
    shutil.rmtree(tmp_path / "out" / "tei" / "fr")  # en-fr has no common documents
    assert "en-fr: no common documents, skipped" in _align_log(tmp_path, capsys)
    assert not list(alignments.rglob("*.csv"))


def test_align_removes_the_bitext_files_of_each_pair_it_removes(aligned_tree, tmp_path, capsys):
    shutil.copytree(aligned_tree, tmp_path, dirs_exist_ok=True)
    bitext = tmp_path / "out" / "bitext"
    assert _cli(tmp_path / "config.json", "bitext", "--pairs", "de-en", "--celex", "31984D0001") == 0
    assert sorted(p.name for p in bitext.iterdir()) == [
        "jrc31984D0001-de-en.xml", "jrc31984D0001-en-fr.xml",
    ]
    make_config(tmp_path, "profiles", languages=["en", "fr"])  # de-en and de-fr are not configured
    _align_log(tmp_path, capsys)
    assert sorted(p.name for p in bitext.iterdir()) == ["jrc31984D0001-en-fr.xml"]
    shutil.rmtree(tmp_path / "out" / "tei" / "fr")  # en-fr has no common documents
    assert "en-fr: no common documents, skipped" in _align_log(tmp_path, capsys)
    assert not list(bitext.iterdir())


def test_a_pair_file_that_cannot_be_removed_exits_1_naming_it(aligned_tree, tmp_path, capsys):
    shutil.copytree(aligned_tree, tmp_path, dirs_exist_ok=True)
    path = tmp_path / "out" / "alignments" / "gale_church" / "de-en.standoff.xml"
    path.unlink()
    path.mkdir()
    make_config(tmp_path, "profiles", languages=["en", "fr"])
    capsys.readouterr()
    assert _cli(tmp_path / "config.json", "align") == 1
    err = capsys.readouterr().err
    assert "internal error" not in err and f"cannot remove {path}" in err


def test_a_bitext_file_that_cannot_be_removed_exits_1_naming_it(aligned_tree, tmp_path, capsys):
    shutil.copytree(aligned_tree, tmp_path, dirs_exist_ok=True)
    path = tmp_path / "out" / "bitext" / "jrc31984D0001-de-en.xml"
    path.mkdir()
    make_config(tmp_path, "profiles", languages=["en", "fr"])
    capsys.readouterr()
    assert _cli(tmp_path / "config.json", "align") == 1
    err = capsys.readouterr().err
    assert "internal error" not in err and f"cannot remove {path}" in err


_RERUN = [("fetch",), ("normalize",), ("align",), ("stats",), ("agree",)]


def _source_config(root, html, **overrides):
    """A config in ``root`` that reads the raw documents of ``html``."""
    return make_config(root, None, source={"mode": "local_directory", "root": str(html)}, **overrides)


def _rerun_matches_a_fresh_run(tmp_path, change, chain=_RERUN, first=(), **config):
    """Run ``chain`` then ``first``, ``change`` the source directory or config, rerun ``chain``;
    compare with a fresh run."""
    html = tmp_path / "html"
    shutil.copytree(FIXTURES / "html", html)
    rerun, fresh = tmp_path / "rerun", tmp_path / "fresh"
    rerun.mkdir()
    fresh.mkdir()
    for stage in [*chain, *first]:
        assert _cli(_source_config(rerun, html, **config), *stage) == 0
    overrides = {**config, **change(html)}
    for root in (rerun, fresh):
        for stage in chain:
            assert _cli(_source_config(root, html, **overrides), *stage) == 0
    assert _tree(rerun / "out") == _tree(fresh / "out")


def _remove_31986L0003(html):
    for path in html.glob("31986L0003-*"):
        path.unlink()
    return {}


def test_a_rerun_after_a_source_document_is_removed_leaves_a_fresh_tree(tmp_path):
    _rerun_matches_a_fresh_run(tmp_path, _remove_31986L0003)


def test_a_rerun_removes_the_bitext_file_of_a_removed_source_document(tmp_path):
    def remove_31986L0003(html):
        assert (tmp_path / "rerun" / "out" / "bitext" / "jrc31986L0003-en-fr.xml").is_file()
        return _remove_31986L0003(html)

    _rerun_matches_a_fresh_run(
        tmp_path, remove_31986L0003, chain=[("fetch",), ("normalize",), ("align",), ("export",)],
        first=[("bitext", "--pairs", "en-fr", "--celex", "31986L0003")], aligners=["gale_church"],
    )


def test_a_rerun_with_fewer_languages_leaves_a_fresh_tree(tmp_path):
    _rerun_matches_a_fresh_run(tmp_path, lambda html: {"languages": ["en", "fr"]})


def test_stats_reads_only_the_configured_languages(aligned_tree, tmp_path):
    shutil.copytree(aligned_tree, tmp_path, dirs_exist_ok=True)
    make_config(tmp_path, "profiles", languages=["en", "fr"])
    assert _cli(tmp_path / "config.json", "stats") == 0
    table = (tmp_path / "out" / "stats" / "language_stats.csv").read_text(encoding="utf-8")
    assert [line.split(",")[0] for line in table.splitlines()[1:]] == ["en", "fr"]


def test_normalize_reads_only_the_configured_languages(aligned_tree, tmp_path):
    rerun, fresh = tmp_path / "rerun", tmp_path / "fresh"
    shutil.copytree(aligned_tree, rerun)
    shutil.copytree(aligned_tree / "profiles", fresh / "profiles")
    for root in (rerun, fresh):
        # A de entry of the manifest needs no de profile once de is not configured.
        (root / "profiles" / "de.profile").unlink()
        make_config(root, "profiles", languages=["en", "fr"])
    assert _cli(fresh / "config.json", "fetch") == 0
    for root in (rerun, fresh):
        assert _cli(root / "config.json", "normalize") == 0
    assert _tree(rerun / "out" / "tei") == _tree(fresh / "out" / "tei")
    assert sorted(p.name for p in (rerun / "out" / "tei").iterdir()) == ["en", "fr"]


def test_stats_over_an_empty_tei_directory_exits_1(tmp_path, capsys):
    config_path = _source_config(tmp_path, FIXTURES / "html")
    (tmp_path / "out" / "tei").mkdir(parents=True)
    assert _cli(config_path, "stats") == 1
    err = capsys.readouterr().err
    assert "internal error" not in err and f"no TEI documents under {tmp_path / 'out' / 'tei'}" in err


def test_an_output_that_cannot_be_written_exits_1_naming_it(aligned_tree, tmp_path, capsys):
    shutil.copytree(aligned_tree, tmp_path, dirs_exist_ok=True)
    path = tmp_path.joinpath("out", *_PROVENANCE)
    path.unlink()
    path.mkdir()
    capsys.readouterr()
    assert _cli(tmp_path / "config.json", "align") == 1
    err = capsys.readouterr().err
    assert "internal error" not in err and f"cannot write {path}" in err


def test_a_failed_align_records_the_pairs_it_aligned_before_the_failure(aligned_tree, tmp_path,
                                                                        monkeypatch, capsys):
    import parcelex.hunalign
    from parcelex.errors import NoOneToOneLinksError

    shutil.copytree(aligned_tree, tmp_path, dirs_exist_ok=True)
    shutil.rmtree(tmp_path / "out" / "alignments")
    align_hunalign = parcelex.hunalign.align_hunalign

    def failing_on_en_fr(src_docs, tgt_docs, params, src_lang, tgt_lang, first_n):
        if (src_lang, tgt_lang) == ("en", "fr"):
            raise NoOneToOneLinksError("no 1-1 links")
        return align_hunalign(src_docs, tgt_docs, params, src_lang=src_lang, tgt_lang=tgt_lang,
                              first_n=first_n)

    monkeypatch.setattr(parcelex.hunalign, "align_hunalign", failing_on_en_fr)
    assert _cli(tmp_path / "config.json", "align") == 1
    monkeypatch.undo()
    # de-en and de-fr came before en-fr, by both aligners, and en-fr by Gale-Church.
    assert _realigned(_align_log(tmp_path, capsys)) == ["hunalign en-fr"]
    assert _align_outputs(tmp_path) == _fresh_align(tmp_path)


@pytest.mark.parametrize("pair", ["en-en", "en-xx"])
@pytest.mark.parametrize(
    "command",
    [("align",), ("export",), ("bitext", "--celex", "31984D0001"), ("agree",)],
    ids=["align", "export", "bitext", "agree"],
)
def test_bad_pair_exits_1_naming_it(aligned_tree, tmp_path, command, pair, capsys):
    shutil.copytree(aligned_tree, tmp_path, dirs_exist_ok=True)
    before = _tree(tmp_path / "out")
    capsys.readouterr()
    assert _cli(tmp_path / "config.json", *command, "--pairs", f"en-fr,{pair}") == 1
    err = capsys.readouterr().err
    assert "internal error" not in err and f"bad pair {pair}" in err
    assert _tree(tmp_path / "out") == before


def _one_aligner(root):
    _edit_json(lambda config: {**config, "aligners": ["gale_church"]})(root / "config.json")


def _source_with_a_malformed_celex(root):
    html = root / "html"
    shutil.copytree(FIXTURES / "html", html)
    shutil.copy(html / "31984D0001-en.html", html / "21999D0624(00)-en.html")
    _edit_json(lambda config: {**config, "source": {"mode": "local_directory", "root": str(html)}})(
        root / "config.json"
    )


@pytest.mark.parametrize(
    "prepare, command, message",
    [
        (None, ("bitext", "--pairs", "en-fr"), "bitext requires --celex"),
        (None, ("bitext", "--pairs", "en-fr", "--celex", "31987D0004"), "no links for 31987D0004 in en-fr"),
        (_one_aligner, ("agree",), "agree needs two aligners configured"),
        (
            lambda root: shutil.rmtree(root / "out" / "alignments"), ("export",),
            "no stand-off files to export; run align first",
        ),
        (
            _source_with_a_malformed_celex, ("fetch",),
            f"{Path('html', '21999D0624(00)-en.html')}: bracket part must be 01-99",
        ),
    ],
    ids=["bitext-without-celex", "bitext-celex-not-in-pair", "agree-one-aligner", "export-unaligned",
         "fetch-malformed-celex"],
)
def test_a_usage_error_exits_1_naming_it(aligned_tree, tmp_path, prepare, command, message, capsys):
    shutil.copytree(aligned_tree, tmp_path, dirs_exist_ok=True)
    if prepare:
        prepare(tmp_path)
    before = _tree(tmp_path / "out")
    capsys.readouterr()
    assert _cli(tmp_path / "config.json", *command) == 1
    err = capsys.readouterr().err
    assert "internal error" not in err and message in err
    assert _tree(tmp_path / "out") == before


@pytest.mark.parametrize(
    "overrides",
    [{"aligners": []}, {"languages": ["en"]}, {"languages": ["en", "fr"], "aligners": ["hunalign"]}],
    ids=["no-aligner", "one-language", "hunalign-only"],
)
def test_every_stage_exits_0_or_1_under_a_narrow_config(tmp_path, profiles_dir, overrides, capsys):
    config_path = make_config(tmp_path, profiles_dir, **overrides)
    chain = [("fetch",), ("normalize",), ("align",), ("export",),
             ("bitext", "--pairs", "en-fr", "--celex", "31986L0003"), ("stats",), ("agree",)]
    errs = {}
    for stage in chain:
        capsys.readouterr()
        assert _cli(config_path, *stage) in (0, 1), stage
        errs[stage[0]] = capsys.readouterr().err
        assert "internal error" not in errs[stage[0]], stage
    if overrides == {"aligners": []}:
        assert "no aligner configured; give --aligner" in errs["bitext"]


def test_agree_names_both_files_when_they_cover_different_documents(aligned_tree, tmp_path, capsys):
    shutil.copytree(aligned_tree, tmp_path, dirs_exist_ok=True)
    alignments = tmp_path / "out" / "alignments"
    path = alignments / "hunalign" / "de-en.standoff.xml"
    text = path.read_text(encoding="utf-8")
    path.write_text(text[: text.rindex("  <linkGrp")] + "</standoff>\n", encoding="utf-8")
    capsys.readouterr()
    assert _cli(tmp_path / "config.json", "agree") == 1
    err = capsys.readouterr().err
    other = alignments / "gale_church" / "de-en.standoff.xml"
    assert "internal error" not in err
    assert f"{other} and {path}: cover different documents: 31986L0003" in err


def test_links_that_stop_short_of_the_last_paragraph_fail_only_bitext(aligned_tree, tmp_path,
                                                                       capsys):
    shutil.copytree(aligned_tree, tmp_path, dirs_exist_ok=True)
    path = tmp_path.joinpath("out", *_STANDOFF)
    text = path.read_text(encoding="utf-8")
    end = text.index("  </linkGrp>")  # of the first group, 31984D0001
    path.write_text(text[: text.rindex("    <link ", 0, end)] + text[end:], encoding="utf-8")
    for stage in (("export",), ("agree",)):
        assert _cli(tmp_path / "config.json", *stage) == 0, stage
    capsys.readouterr()
    assert _cli(tmp_path / "config.json", *_BITEXT) == 1
    err = capsys.readouterr().err
    assert "internal error" not in err and f"{path}: 31984D0001: " in err


def test_the_readme_config_example_loads(tmp_path):
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = re.search(r"### Config reference\n\n```json\n(.*?)```", readme, re.DOTALL).group(1)
    config = _config_from_json(json.loads(block), tmp_path, None)
    assert config.languages == ("de", "en", "fr") and config.hun.rng_seed == 1960


@pytest.mark.parametrize(
    "aligner, overrides, message",
    [
        ("hunalign", {}, "hunalign en-fr: phase 1 produced no 1-1 links to sample"),
    ],
    ids=["hunalign-no-1-1-links"],
)
def test_an_aligner_failure_exits_1_naming_the_aligner_and_pair(tmp_path, aligner, overrides,
                                                                 message, capsys):
    # Two documents, each one body paragraph in en against three in fr.
    html = tmp_path / "html"
    html.mkdir()
    fr = "".join(f"<p>{n} paragraphe.</p>" for n in ("Premier", "Deuxième", "Troisième"))
    for celex in ("31984D0001", "31985R0002"):
        (html / f"{celex}-en.html").write_text(
            "<html><body><p>The title.</p><p>One body paragraph here.</p></body></html>",
            encoding="utf-8",
        )
        (html / f"{celex}-fr.html").write_text(
            f"<html><body><p>Le titre.</p>{fr}</body></html>", encoding="utf-8"
        )
    config_path = _source_config(tmp_path, html, languages=["en", "fr"], aligners=[aligner],
                                 **overrides)
    for stage in ("fetch", "normalize"):
        assert _cli(config_path, stage) == 0
    capsys.readouterr()
    assert _cli(config_path, "align") == 1
    err = capsys.readouterr().err
    assert "internal error" not in err and f"error: {message}" in err


# A fresh interpreter runs one subcommand; prints its exit status and the parcelex modules loaded.
_STAGE_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
from parcelex import cli
status = cli.main(sys.argv[2:])
print(status, *sorted(m for m in sys.modules if m.startswith("parcelex.")))
"""


@pytest.mark.parametrize("stage", _CHAIN, ids=[stage[0] for stage in _CHAIN])
def test_each_stage_loads_only_its_modules(aligned_tree, tmp_path, stage):
    shutil.copytree(aligned_tree, tmp_path, dirs_exist_ok=True)
    src = str(Path(parcelex.__file__).parent.parent)
    argv = [stage[0], "--config", str(tmp_path / "config.json"), *stage[1:]]
    result = subprocess.run([sys.executable, "-B", "-S", "-E", "-c", _STAGE_CODE, src, *argv],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    status, *modules = result.stdout.split()
    assert status == "0", result.stderr
    if stage[0] != "align":
        assert not {"parcelex.galechurch", "parcelex.hunalign"} & set(modules), modules
    if stage[0] in ("align", "export", "bitext", "agree"):
        assert not {"parcelex.ingest", "parcelex.langid"} & set(modules), modules


@pytest.mark.parametrize(
    "command, repeated",
    [
        (("align",), "en-fr,fr-en"),
        (("export",), "en-fr,fr-en,en-fr"),
        (("bitext", "--celex", "31984D0001"), "fr-en,en-fr"),
        (("agree",), "en-fr,en-fr"),
    ],
    ids=["align", "export", "bitext", "agree"],
)
def test_a_pair_named_twice_is_run_once(aligned_tree, tmp_path, command, repeated, capsys):
    runs = {}
    for pairs in ("en-fr", repeated):
        root = tmp_path / pairs
        shutil.copytree(aligned_tree, root)
        capsys.readouterr()
        assert _cli(root / "config.json", *command, "--pairs", pairs) == 0
        runs[pairs] = (_tree(root / "out"), capsys.readouterr().err)
    assert runs[repeated] == runs["en-fr"]


def test_a_celex_named_twice_is_written_once(aligned_tree, tmp_path, capsys):
    shutil.copytree(aligned_tree, tmp_path, dirs_exist_ok=True)
    capsys.readouterr()
    bitext = ("bitext", "--pairs", "en-fr", "--celex", "31984D0001,31984D0001")
    assert _cli(tmp_path / "config.json", *bitext) == 0
    assert "generated 1 in-place bitext files" in capsys.readouterr().err


def test_a_plain_and_a_bracketed_id_of_one_document_run_through_every_stage(tmp_path):
    html = tmp_path / "html"
    html.mkdir()
    for code, fixture in (("21999D0624", "31984D0001"), ("21999D0624(01)", "31985R0002")):
        for lang in ("en", "fr"):
            shutil.copy(FIXTURES / "html" / f"{fixture}-{lang}.html", html / f"{code}-{lang}.html")
    config_path = _source_config(tmp_path, html, languages=["en", "fr"])
    bitext = ("bitext", "--pairs", "en-fr", "--celex", "21999D0624(01),21999D0624")
    for stage in [("fetch",), ("normalize",), ("align",), ("export",), bitext, ("stats",), ("agree",)]:
        assert _cli(config_path, *stage) == 0, stage
    for aligner in ("gale_church", "hunalign"):
        standoff = (tmp_path / "out" / "alignments" / aligner / "en-fr.standoff.xml").read_text(
            encoding="utf-8"
        )
        groups = re.findall(r'<linkGrp n="([^"]*)">', standoff)
        assert groups == ["21999D0624", "21999D0624(01)"]


def test_fetch_skips_a_raw_file_named_with_non_ascii_digits(tmp_path):
    html = tmp_path / "html"
    shutil.copytree(FIXTURES / "html", html)
    config_path = _source_config(tmp_path, html)
    trees = []
    for extra in ("notes-en.html", "\u0663\u0661\u0669\u0668\u0664D0002-en.html"):
        shutil.copy(html / "31984D0001-en.html", html / extra)
        for stage in ("fetch", "normalize"):
            assert _cli(config_path, stage) == 0, (extra, stage)
        trees.append(_tree(tmp_path / "out"))
    assert trees[0] == trees[1]


def test_fetch_skips_a_txt_raw_file(tmp_path):
    html = tmp_path / "html"
    shutil.copytree(FIXTURES / "html", html)
    config_path = _source_config(tmp_path, html)
    trees = []
    for extra in ((), ("31984D0001-en.txt", "31999D0001-en.txt")):
        for name in extra:
            shutil.copy(html / "31984D0001-en.html", html / name)
        for stage in ("fetch", "normalize"):
            assert _cli(config_path, stage) == 0, (extra, stage)
        trees.append(_tree(tmp_path / "out"))
    assert trees[0] == trees[1]


@pytest.mark.parametrize(
    "make_root, message",
    [
        (lambda html: html / "missing", "source directory not found: {root}"),
        (lambda html: html, "no <celex>-<lang>.html fixtures under {root}"),
    ],
    ids=["missing", "no-html-documents"],
)
def test_fetch_without_raw_documents_exits_1(tmp_path, make_root, message, capsys):
    html = tmp_path / "html"
    html.mkdir()
    (html / "31984D0001-en.txt").write_text("<p>The title.</p>", encoding="utf-8")
    root = make_root(html)
    capsys.readouterr()
    assert _cli(_source_config(tmp_path, root), "fetch") == 1
    err = capsys.readouterr().err
    assert "internal error" not in err and message.format(root=root) in err
    assert not (tmp_path / "out").exists()


def test_fetch_exits_1_naming_a_source_entry_it_cannot_read(tmp_path, capsys):
    html = tmp_path / "html"
    shutil.copytree(FIXTURES / "html", html)
    entry = html / "31999D0001-en.html"
    entry.mkdir()
    config_path = _source_config(tmp_path, html)
    capsys.readouterr()
    assert _cli(config_path, "fetch") == 1
    err = capsys.readouterr().err
    assert "internal error" not in err and f"cannot read {entry}: " in err
    assert not (tmp_path / "out").exists()


def test_normalize_parses_each_raw_document_once(tmp_path, profiles_dir, monkeypatch):
    import parcelex.ingest

    config_path = make_config(tmp_path, profiles_dir)
    assert _cli(config_path, "fetch") == 0
    raw = sorted((tmp_path / "out" / "raw").glob("*.html"))
    assert len(raw) == 10
    calls = []
    original = parcelex.ingest.html_to_paragraphs

    def counting_html_to_paragraphs(content):
        calls.append(content)
        return original(content)

    monkeypatch.setattr(parcelex.ingest, "html_to_paragraphs", counting_html_to_paragraphs)
    assert _cli(config_path, "normalize") == 0
    assert sorted(calls) == sorted(p.read_text(encoding="utf-8") for p in raw)


@pytest.mark.parametrize("with_profiles", [True, False])
def test_empty_document_skipped_with_or_without_profiles(tmp_path, profiles_dir, with_profiles, capsys):
    config_path = make_config(tmp_path, profiles_dir if with_profiles else None)
    assert _cli(config_path, "fetch") == 0
    (tmp_path / "out" / "raw" / "31986L0003-de.html").write_text(
        "<html><body><p> </p><br></body></html>", encoding="utf-8"
    )
    capsys.readouterr()
    assert _cli(config_path, "normalize") == 0
    assert "skipping empty document 31986L0003-de" in capsys.readouterr().err
    tei = {p.name for p in (tmp_path / "out" / "tei").rglob("*.xml")}
    assert "jrc31986L0003-de.xml" not in tei
    # The cross-labeled fr document is rejected only with profiles.
    assert len(tei) == (8 if with_profiles else 9)


# A corpus for the selection rule: eleven languages, each written in its own
# twelve CJK characters, so that the profiles tell them apart at once.
_SELECTION_LANGS = ("cs", "de", "en", "es", "fr", "hu", "it", "nl", "pl", "pt", "ro")
_KEPT = "31990D0001"  # all eleven languages; its fr text is written in de
_DROPPED = "31990D0002"  # eight languages, below the rule's ten; its en text is written in de
_CHECKED_OUT = "31990D0003"  # ten languages, but its pt text is written in de


def _words(lang, rng, n):
    base = 0x4E00 + 50 * _SELECTION_LANGS.index(lang)
    return " ".join(
        "".join(chr(base + rng.randrange(12)) for _ in range(rng.randint(2, 5))) for _ in range(n)
    )


def _selection_tree(tmp_path, extra_langs=()):
    """Config over the three celexes, with a profile per language; returns (config, texts).

    ``texts`` maps (celex, lang) to the text a language check sees.  Each
    of ``extra_langs`` adds a document to _DROPPED, and has no profile.
    """
    rng = random.Random(5)
    html, profiles = tmp_path / "html", tmp_path / "profiles"
    html.mkdir()
    profiles.mkdir()
    for lang in _SELECTION_LANGS:
        profile = train_language_profile(_words(lang, rng, 3000), lang)
        save_profile(profile, profiles / f"{lang}.profile")
    documents = {(_KEPT, lang): lang for lang in _SELECTION_LANGS}
    documents.update(
        {(_DROPPED, lang): lang for lang in _SELECTION_LANGS if lang not in ("nl", "pt", "ro")}
    )
    documents.update({(_CHECKED_OUT, lang): lang for lang in _SELECTION_LANGS if lang != "nl"})
    documents[(_KEPT, "fr")] = documents[(_DROPPED, "en")] = documents[(_CHECKED_OUT, "pt")] = "de"
    documents.update({(_DROPPED, lang): "de" for lang in extra_langs})
    texts = {}
    for (celex, lang), text_lang in documents.items():
        paragraphs = [_words(text_lang, rng, n) for n in (5, 30, 30)]
        (html / f"{celex}-{lang}.html").write_text(
            "<html><body>" + "".join(f"<p>{p}</p>" for p in paragraphs) + "</body></html>",
            encoding="utf-8",
        )
        texts[(celex, lang)] = " ".join(paragraphs)
    config_path = make_config(
        tmp_path, profiles, languages=[*_SELECTION_LANGS, *extra_langs], selection=True,
        source={"mode": "local_directory", "root": str(html)},
    )
    return config_path, texts


def test_language_check_only_for_celexes_the_selection_rule_can_keep(tmp_path, monkeypatch, capsys):
    import parcelex.ingest

    config_path, texts = _selection_tree(tmp_path)
    assert _cli(config_path, "fetch") == 0
    checked = []
    original = parcelex.ingest.guess_language

    def counting_guess_language(text, profiles):
        checked.append(text)
        return original(text, profiles)

    monkeypatch.setattr(parcelex.ingest, "guess_language", counting_guess_language)
    capsys.readouterr()
    assert _cli(config_path, "normalize") == 0
    err = capsys.readouterr().err
    # Every text of a celex with ten declared languages is checked, none of the dropped one.
    assert sorted(checked) == sorted(text for (celex, _), text in texts.items() if celex != _DROPPED)
    rejected = re.findall(r"^rejected (\S+): guessed (\w+)", err, re.MULTILINE)
    assert rejected == [(f"{_KEPT}-fr", "de"), (f"{_CHECKED_OUT}-pt", "de")]
    # The check leaves _CHECKED_OUT nine languages, too few to keep.
    written = sorted(p.name for p in (tmp_path / "out" / "tei").rglob("*.xml"))
    assert written == sorted(
        f"jrc{_KEPT}-{lang}.xml" for lang in _SELECTION_LANGS if lang != "fr"
    )


def test_declared_language_without_profile_exits_1_in_a_dropped_celex(tmp_path, capsys):
    config_path, _ = _selection_tree(tmp_path, extra_langs=("sv",))
    assert _cli(config_path, "fetch") == 0
    capsys.readouterr()
    assert _cli(config_path, "normalize") == 1
    err = capsys.readouterr().err
    assert "internal error" not in err and "'sv'" in err
