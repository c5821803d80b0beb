"""The traced benchmark run (``perfbench/run.py --trace 1``) still sees the hunalign layers.

``perfbench/tracer.py`` wraps parcelex functions by module and name, and
splits phase 1 from phase 3 on ``similarity_align``'s third argument.  A
rename or a reordered call in the three-phase driver fails here, and so
does a driver that tokenizes a paragraph more than once per pair.
"""

from pathlib import Path

from parcelex import hunalign
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
