"""The traced benchmark run (``perfbench/run.py --trace 1``) still sees its layers.

``perfbench/tracer.py`` wraps parcelex functions by module and name, and
splits phase 1 from phase 3 on ``similarity_align``'s third argument.  A
rename or a reordered call in the three-phase driver fails here, and so
does a driver that tokenizes a paragraph more than once per pair.  So does
a ``normalize`` whose language checks the tracer no longer counts, or that
checks documents the selection rule drops on their declared languages.
"""

from pathlib import Path

from parcelex import cli, hunalign
from parcelex.synth import planted_bitext

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_sees_every_hunalign_phase(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    bt = planted_bitext(n_pairs=60, dict_size=10, seed=4)
    tracer = Tracer()
    tracer.install()
    try:
        alignments, lexicon = hunalign.align_hunalign(bt.src_docs, bt.tgt_docs)
    finally:
        tracer.uninstall()
    assert hunalign.similarity_align.__module__ == "parcelex.hunalign"  # unwrapped again
    docs = len(alignments)
    assert tracer.calls["hunalign.phase1"] == docs
    assert tracer.calls["hunalign.phase3"] == docs
    assert tracer.calls["hunalign.build_lexicon"] == 1
    assert tracer.counts["hunalign.lexicon_entries"] == len(lexicon) > 0
    pars = sum(len(d) for d in bt.src_docs.values()) + sum(len(d) for d in bt.tgt_docs.values())
    assert tracer.calls["hunalign.tokenize"] == pars  # once per paragraph per pair
    assert tracer.self_s["hunalign.phase1"] > 0 and tracer.self_s["hunalign.phase3"] > 0


def test_tracer_counts_the_language_checks_of_normalize(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import checks
    import corpus as synthetic
    import run
    from tracer import Tracer

    workload = run.WORKLOADS["ingest-langid"]
    assert workload.profiles and workload.selection
    corpus, config_path = run.set_up(workload, 3, tmp_path / "work")
    config = cli.load_config(config_path)
    assert cli.run("fetch", config) == 0
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.run("normalize", config) == 0
    finally:
        tracer.uninstall()
    # The documents the rule keeps on their declared languages are checked, and only they.
    declared: dict[str, set] = {}
    for celex, lang in corpus.docs:
        declared.setdefault(celex, set()).add(lang)
    checked = sum(
        len(langs) for langs in declared.values()
        if len(langs) >= synthetic.MIN_LANGUAGES
        and (len(langs & synthetic.JOINERS_2004) >= synthetic.MIN_JOINERS or "ro" in langs)
    )
    assert 0 < checked < len(corpus.docs)
    assert tracer.calls["langid.guess_language"] == tracer.calls["ingest.verify_language"] == checked
    assert tracer.counts["ingest.docs_rejected"] == len(corpus.planted) > 0
    written = len(list((config.output_root / "tei").rglob("*.xml")))
    assert written == len(checks.expected_documents(corpus, workload))
    dropped = len(corpus.docs) - len(corpus.planted) - written
    assert tracer.counts["ingest.docs_dropped"] == dropped > 0
