"""Per-layer tracing by wrapping parcelex's public functions from outside.

A wrapped function records a span: its self time is its duration minus
the time of wrapped calls nested inside it.  Hot leaf functions
(``bead_cost``, ``tokenize``, ``segment_similarity``) get a call counter
only, so their time stays in the span that calls them.  ``cli`` and
``ingest`` bind several of these functions by name at import, so a
wrapper replaces the original in every loaded ``parcelex`` module that
holds it, not only in the module that defines it.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

from parcelex.cli import SUBCOMMANDS

# (module, function) -> span name; self seconds are reported as "<name>.s".
SPANS = {
    ("ingest", "fetch_document"): "ingest.fetch_document",
    ("ingest", "html_to_paragraphs"): "ingest.html_to_paragraphs",
    ("ingest", "verify_language"): "ingest.verify_language",
    ("ingest", "select_corpus"): "ingest.select_corpus",
    ("langid", "guess_language"): "langid.guess_language",
    ("tei", "classify_sections"): "tei.classify_sections",
    ("tei", "build_document"): "tei.build_document",
    ("tei", "serialize_tei"): "tei.serialize_tei",
    ("tei", "parse_tei"): "tei.parse_tei",
    ("galechurch", "align_gale_church"): "galechurch.align",
    ("hunalign", "build_lexicon"): "hunalign.build_lexicon",
    ("hunalign", "save_lexicon"): "hunalign.save_lexicon",
    ("standoff", "export_standoff_xml"): "standoff.export_xml",
    ("standoff", "import_standoff_xml"): "standoff.import_xml",
    ("standoff", "export_csv"): "standoff.export_csv",
    ("standoff", "generate_inplace"): "standoff.generate_inplace",
    ("standoff", "aligner_agreement"): "standoff.agreement",
    ("stats", "corpus_stats_table"): "stats.corpus_stats_table",
    ("stats", "eurovoc_frequency"): "stats.eurovoc_frequency",
}
COUNTERS = {
    ("galechurch", "bead_cost"): "galechurch.bead_cost",
    ("hunalign", "tokenize"): "hunalign.tokenize",
    ("hunalign", "segment_similarity"): "hunalign.segment_similarity",
}
# Per-layer metric names and units, as BENCHMARK.json declares them.
PER_LAYER = {
    m["name"]: m["unit"]
    for m in json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())["per_layer"]
}


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


class Tracer:
    """Spans and counters of one pipeline round, gathered by wrappers."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        # Wrappers hold these containers, so reset() clears them in place.
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.stage_s: dict[str, float] = {}
        self.hun_docs: dict[tuple, int] = {}
        self._files: dict[Path, tuple] = {}
        self._stack: list[float] = []
        self._covered = 0.0

    def reset(self) -> None:
        for container in (self.self_s, self.calls, self.counts, self.stage_s, self.hun_docs,
                          self._files):
            container.clear()
        self._stack.clear()
        self._covered = 0.0

    # -- stage boundaries (the cli layer) --------------------------------

    def enter_stage(self) -> None:
        self._covered = 0.0

    def leave_stage(self, stage: str, seconds: float, out: Path) -> None:
        """Close a stage; count the files it created or rewrote under ``out``."""
        self.stage_s[stage] = seconds
        self.self_s["cli.self"] += seconds - self._covered
        for path in out.rglob("*"):
            st = path.stat()
            if not path.is_file():
                continue
            stamp = (st.st_ino, st.st_size, st.st_mtime_ns)
            if self._files.get(path) != stamp:
                self._files[path] = stamp
                self.counts["cli.files_written"] += 1
                self.counts["cli.bytes_written"] += st.st_size

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn, observe=None):
        tracer = self

        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            stack = tracer._stack
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                child = stack.pop()
                tracer.self_s[label] += elapsed - child
                tracer.calls[label] += 1
                if stack:
                    stack[-1] += elapsed
                else:
                    tracer._covered += elapsed
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _observers(self):
        counts = self.counts

        def gc_cells(args, kwargs, result):
            counts["galechurch.dp_cells"] += (len(args[0]) + 1) * (len(args[1]) + 1)

        def similarity(args, kwargs, result):
            n, m = len(args[0]), len(args[1])
            counts["hunalign.dp_cells"] += (n + 1) * (m + 1)
            key = (result.celex, result.src_lang, result.tgt_lang)
            self.hun_docs[key] = n + m

        def verdict(args, kwargs, result):
            counts["ingest.docs_rejected"] += not result.accepted

        def selection(args, kwargs, result):
            inventory = args[0]
            counts["ingest.docs_dropped"] += sum(
                len(langs) for celex, langs in inventory.items() if celex not in result
            )

        def lexicon(args, kwargs, result):
            counts["hunalign.lexicon_entries"] += len(result)

        def guess(args, kwargs, result):
            counts["langid.chars"] += len(args[0])

        def standoff(args, kwargs, result):
            counts["standoff.links"] += sum(len(links) for _, links in args[0].entries)

        return {
            "galechurch.align": gc_cells,
            "ingest.verify_language": verdict,
            "ingest.select_corpus": selection,
            "hunalign.build_lexicon": lexicon,
            "langid.guess_language": guess,
            "standoff.export_xml": standoff,
            "similarity": similarity,
        }

    def install(self) -> None:
        from parcelex import galechurch, hunalign, ingest, langid, standoff, stats, tei  # noqa: F401

        observers = self._observers()
        wrappers = {}
        for (module, attr), name in SPANS.items():
            fn = getattr(sys.modules[f"parcelex.{module}"], attr)
            wrappers[fn] = self._span(name, fn, observers.get(name))
        for (module, attr), name in COUNTERS.items():
            fn = getattr(sys.modules[f"parcelex.{module}"], attr)
            wrappers[fn] = self._counter(name, fn)
        # Phase 1 aligns without a lexicon, phase 3 with one.
        fn = hunalign.similarity_align
        wrappers[fn] = self._span(
            lambda args, kwargs: "hunalign.phase3"
            if _arg(args, kwargs, 2, "lexicon") is not None else "hunalign.phase1",
            fn, observers["similarity"],
        )
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "parcelex" and not mod_name.startswith("parcelex."):
                continue
            for attr, value in list(vars(module).items()):
                if callable(value) and value in wrappers:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # -- per-round figures -------------------------------------------------

    def snapshot(self, gold: dict[str, int]) -> dict[str, float]:
        """Per-layer figures of the round just run."""
        s, calls, counts = self.self_s, self.calls, self.counts
        m: dict[str, float] = {f"cli.{stage}.s": self.stage_s.get(stage, 0.0) for stage in SUBCOMMANDS}
        m["cli.self_s"] = s["cli.self"]
        for name in PER_LAYER:
            if name in m:
                continue
            if name.endswith(".s"):
                m[name] = s[name[: -len(".s")]]
            elif name.endswith(".calls"):
                m[name] = calls[name[: -len(".calls")]]
            else:
                m[name] = counts[name]
        # Derived figures; the loop above left them at 0.
        fetched = calls["ingest.fetch_document"]
        m["ingest.html_to_paragraphs.per_doc"] = calls["ingest.html_to_paragraphs"] / fetched if fetched else 0.0
        written = calls["tei.serialize_tei"]
        m["tei.parse_per_doc"] = calls["tei.parse_tei"] / written if written else 0.0
        cells = counts["galechurch.dp_cells"]
        m["galechurch.us_per_cell"] = 1e6 * s["galechurch.align"] / cells if cells else 0.0
        p1 = s["hunalign.phase1"]
        m["hunalign.phase3_over_phase1"] = s["hunalign.phase3"] / p1 if p1 else 0.0
        pars = sum(self.hun_docs.values())
        m["hunalign.tokenize_per_par"] = calls["hunalign.tokenize"] / pars if pars else 0.0
        m["galechurch.gold_links"] = gold.get("gale_church", 0)
        m["hunalign.gold_links"] = gold.get("hunalign", 0)
        return m

    @staticmethod
    def summarize(rounds: list[dict[str, float]], scales: list[float]) -> dict[str, dict]:
        """Each per-layer figure's median over the rounds, with its unit.

        Times (units ``s`` and ``us``) are first scaled to the reference
        speed by each round's ``scales`` entry, as the end-to-end metrics
        are; counts are the same in every round.
        """
        return {
            name: {
                "value": statistics.median(
                    r[name] * (scale if unit in ("s", "us") else 1.0) for r, scale in zip(rounds, scales)
                ) if rounds else 0.0,
                "unit": unit,
            }
            for name, unit in PER_LAYER.items()
            if name != "trace.pipeline_s"
        }
