#!/usr/bin/env python3
"""Self-test of the output checks: each must fail on its own kind of damage.

    python3 perfbench/selftest.py

Runs one round of ``acquis-both`` and one of ``ingest-langid``, requires
the checks to pass on the clean outputs, then damages a copy of each
output tree (or of the captured logs) one way at a time.  Every damage
names the check it is aimed at and a phrase of that check's report; the
self-test requires that check to report it, not merely some check, since a
damaged file often upsets the files derived from it too.  Exits 1 if any
damage goes unreported by its check, so no check can pass vacuously.
"""

from __future__ import annotations

import re
import shutil
import sys
from pathlib import Path

import run
from checks import check_all

SEED = 7


def _edit(path: Path, change) -> None:
    text = path.read_text(encoding="utf-8")
    new = change(text)
    if new == text:
        raise RuntimeError(f"damage left {path.name} unchanged")
    path.write_text(new, encoding="utf-8")


def drop_link(out, logs):
    _edit(out / "alignments/gale_church/de-en.standoff.xml",
          lambda t: re.sub(r"    <link [^\n]*\n", "", t, count=1))


def swap_paragraphs(out, logs):
    path = sorted((out / "tei/en").glob("*.xml"))[0]

    def swap(text):
        a = re.search(r'<p n="2">([^<]*)</p>', text)
        b = re.search(r'<p n="3">([^<]*)</p>', text)
        return (text[: a.start(1)] + b.group(1) + text[a.end(1) : b.start(1)] + a.group(1)
                + text[b.end(1) :])

    _edit(path, swap)


def off_by_one_words(out, logs):
    def bump(text):
        lines = text.splitlines()
        cells = lines[1].split(",")
        cells[2] = str(int(cells[2]) + 1)
        lines[1] = ",".join(cells)
        return "\n".join(lines) + "\n"

    _edit(out / "stats/language_stats.csv", bump)


def csv_score(out, logs):
    _edit(out / "alignments/hunalign/de-fr.csv",
          lambda t: re.sub(r"(\d)\n", lambda m: f"{(int(m.group(1)) + 1) % 10}\n", t, count=1))


def bitext_swap(out, logs):
    path = sorted((out / "bitext").glob("*.xml"))[0]

    def swap(text):
        segs = list(re.finditer(r'<seg lang="(\w+)" n="\d+"[^>]*>([^<]*)</seg>', text))
        first = segs[0]
        other = next(s for s in segs[1:] if s.group(1) == first.group(1) and s.group(2) != first.group(2))
        return (text[: first.start(2)] + other.group(2) + text[first.end(2) : other.start(2)]
                + first.group(2) + text[other.end(2) :])

    _edit(path, swap)


def agreement_fraction(out, logs):
    _edit(out / "stats/agreement.csv",
          lambda t: re.sub(r"(\d)\n", lambda m: f"{(int(m.group(1)) + 1) % 10}\n", t, count=1))


def skips_only(out, logs):
    """Coverage-valid links that match no gold link: the gold floor must catch it."""
    for path in (out / "alignments/hunalign").glob("*.standoff.xml"):
        def rewrite(text):
            def group(m):
                src = [int(n) for n in re.findall(r'source="([\d;]*)"', m.group(0)) for n in n.split(";") if n]
                tgt = [int(n) for n in re.findall(r'target="([\d;]*)"', m.group(0)) for n in n.split(";") if n]
                links = [f'    <link type="1-0" source="{n}" target=""/>\n' for n in src]
                links += [f'    <link type="0-1" source="" target="{n}"/>\n' for n in tgt]
                return m.group(1) + "".join(links) + m.group(3)
            return re.sub(r'(  <linkGrp [^\n]*\n)((?:    <link [^\n]*\n)*)(  </linkGrp>)', group, text)
        _edit(path, rewrite)


def two_two_link(out, logs):
    def merge(text):
        m = re.search(r'<link type="1-1" source="(\d+)" target="(\d+)"[^\n]*\n\s*'
                      r'<link type="1-1" source="(\d+)" target="(\d+)"[^\n]*/>', text)
        return (text[: m.start()] + f'<link type="2-2" source="{m.group(1)};{m.group(3)}" '
                f'target="{m.group(2)};{m.group(4)}"/>' + text[m.end() :])

    _edit(out / "alignments/hunalign/en-fr.standoff.xml", merge)


def eurovoc_count(out, logs):
    _edit(out / "stats/eurovoc_frequency.csv",
          lambda t: re.sub(r",(\d+)\n", lambda m: f",{int(m.group(1)) + 1}\n", t, count=1))


def unreported_rejection(out, logs):
    logs["normalize"] = re.sub(r"rejected [^\n]*\n", "", logs["normalize"], count=1)


def dropped_kept_document(out, logs):
    victim = sorted((out / "tei/ro").glob("*.xml"))[0].name[3:].rsplit("-", 1)[0]
    for path in (out / "tei").glob(f"*/jrc{victim}-*.xml"):
        path.unlink()


def wrong_section(out, logs):
    path = next(p for p in sorted((out / "tei").glob("*/*.xml")) if 'type="signature"' in p.read_text("utf-8"))
    _edit(path, lambda t: t.replace('<div type="signature">', '<div type="body">', 1))


def drop_last_link(out, logs):
    _edit(out / "alignments/gale_church/en-fr.standoff.xml",
          lambda t: re.sub(r"    <link [^\n]*\n(  </linkGrp>)", r"\1", t, count=1))


def dropped_tei_file(out, logs):
    sorted((out / "tei/fr").glob("*.xml"))[0].unlink()


def eurovoc_code(out, logs):
    path = sorted((out / "tei/de").glob("*.xml"))[0]
    _edit(path, lambda t: re.sub(r"(<classCode[^>]*>)(\d+)<", lambda m: f"{m.group(1)}{int(m.group(2)) + 1}<",
                                 t, count=1))


def bitext_label(out, logs):
    path = sorted((out / "bitext").glob("*.xml"))[0]
    _edit(path, lambda t: re.sub(r'<ab type="1-1"', '<ab type="1-2"', t, count=1))


# workload -> (damage, the check that must report it, a phrase of its report)
DAMAGES = {
    "acquis-both": (
        (drop_link, "check_links", "breaks monotone coverage"),
        (drop_last_link, "check_links", "links end at"),
        (two_two_link, "check_links", "has no allowed arity"),
        (skips_only, "check_links", "below the floor"),
        (swap_paragraphs, "check_tei", "differs from the generator's"),
        (eurovoc_code, "check_tei", "EUROVOC codes"),
        (off_by_one_words, "check_stats", "language_stats.csv has"),
        (eurovoc_count, "check_stats", "eurovoc_frequency.csv differs"),
        (csv_score, "check_csv", "the stand-off links give"),
        (bitext_swap, "check_bitext", "is not paragraph"),
        (bitext_label, "check_bitext", "<ab> pointers differ"),
        (agreement_fraction, "check_agreement", "differs from the Jaccard"),
    ),
    "ingest-langid": (
        (unreported_rejection, "check_selection", "but planted"),
        (dropped_kept_document, "check_selection", "kept celexes"),
        (dropped_tei_file, "check_tei", "TEI files differ"),
        (wrong_section, "check_tei", "differs from the generator's"),
        (off_by_one_words, "check_stats", "language_stats.csv has"),
    ),
}


def main() -> int:
    cli = run.load_program()
    missed = 0
    for name, damages in DAMAGES.items():
        workload = run.WORKLOADS[name]
        work = run.HERE / "_work" / f"selftest-{name}"
        corpus, config_path = run.set_up(workload, SEED, work)
        bitext = run.bitext_args(workload, corpus)
        _, logs, failed = run.run_round(cli, workload, config_path, bitext)
        out = work / "out"
        problems, _ = check_all(corpus, workload, out, logs, bitext)
        if failed or problems:
            print(f"{name}: clean output fails the checks: {problems[:3]}")
            return 1
        for damage, check, phrase in damages:
            copy = work / "damaged"
            shutil.rmtree(copy, ignore_errors=True)
            shutil.copytree(out, copy)
            damaged_logs = dict(logs)
            damage(copy, damaged_logs)
            problems, _ = check_all(corpus, workload, copy, damaged_logs, bitext)
            hits = [p for p in problems if p.startswith(f"{check}: ") and phrase in p]
            missed += not hits
            print(f"{name}: {damage.__name__}: " + (f"caught by {hits[0][:110]}" if hits else
                  f"MISSED by {check} ({len(problems)} problems from other checks)"))
        shutil.rmtree(work, ignore_errors=True)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
