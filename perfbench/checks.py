"""Output checks against values computed apart from the program.

Every check reads the output tree with ``xml.etree`` or plain text parsing
and compares it with what the generator recorded; none of them calls
parcelex.  Each returns a list of problems, empty when the output is right.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from collections import Counter
from itertools import combinations, zip_longest
from pathlib import Path

from corpus import ANNEX, BODY, HEAD, JOINERS_2004, MIN_JOINERS, MIN_LANGUAGES, SIGNATURE

GC_ARITIES = {(1, 1), (1, 0), (0, 1), (2, 1), (1, 2), (2, 2)}
MAX_SPLIT = 3  # HunParams default; the benchmark's configs leave it unset
HUN_ARITIES = {(1, 1), (1, 0), (0, 1)} | {(k, 1) for k in range(2, MAX_SPLIT + 1)} | {
    (1, k) for k in range(2, MAX_SPLIT + 1)
}
# Share of gold links each aligner must reproduce exactly; README.md gives the reasoning.
GOLD_FLOOR = {"gale_church": 0.60, "hunalign": 0.70}
TOP_DESCRIPTORS = 20

_REJECTED_RE = re.compile(r"^rejected (\S+)-([a-z]{2}):", re.MULTILINE)


def expected_documents(corpus, workload) -> dict:
    """(celex, lang) -> Document for every document normalize must write."""
    accepted = {k: d for k, d in corpus.docs.items() if not (workload.profiles and k in corpus.planted)}
    if not workload.selection:
        return accepted
    inventory: dict[str, set] = {}
    for celex, lang in accepted:
        inventory.setdefault(celex, set()).add(lang)
    kept = {
        celex for celex, langs in inventory.items()
        if len(langs) >= MIN_LANGUAGES and (len(langs & JOINERS_2004) >= MIN_JOINERS or "ro" in langs)
    }
    return {k: d for k, d in accepted.items() if k[0] in kept}


def _pars(text: str | None) -> tuple[int, ...]:
    if not text:
        return ()
    return tuple(int(p) for p in text.split(";"))


def read_standoff(path: Path) -> dict[str, list[tuple[str, tuple, tuple, str | None]]]:
    """celex -> [(type, source pars, target pars, score)] in file order."""
    root = ET.parse(path).getroot()
    return {
        grp.get("n"): [
            (el.get("type"), _pars(el.get("source")), _pars(el.get("target")), el.get("score"))
            for el in grp.findall("link")
        ]
        for grp in root.findall("linkGrp")
    }


def check_selection(corpus, workload, out: Path, logs: dict[str, str]) -> list[str]:
    problems = []
    rejected = set(_REJECTED_RE.findall(logs.get("normalize", "")))
    planted = set(corpus.planted) if workload.profiles else set()
    if rejected != planted:
        problems.append(f"rejected {sorted(rejected)} but planted {sorted(planted)}")
    kept = {c for c, _ in expected_documents(corpus, workload)}
    written = {p.name[3:].rsplit("-", 1)[0] for p in (out / "tei").glob("*/*.xml")}
    if written != kept:
        problems.append(f"kept celexes {sorted(written)}, selection rule gives {sorted(kept)}")
    return problems


def check_tei(corpus, workload, out: Path) -> list[str]:
    problems = []
    expected = expected_documents(corpus, workload)
    written = {(p.name[3:].rsplit("-", 1)[0], p.parent.name) for p in (out / "tei").glob("*/*.xml")}
    if written != set(expected):
        problems.append(f"TEI files differ from expected: extra {sorted(written - set(expected))}, "
                        f"missing {sorted(set(expected) - written)}")
    for (celex, lang), doc in sorted(expected.items()):
        path = out / "tei" / lang / f"jrc{celex}-{lang}.xml"
        if not path.is_file():
            continue
        root = ET.parse(path).getroot()
        body = root.find("text/body")
        got = [(body.find("head").get("n"), HEAD, body.find("head").text)]
        for div in body.findall("div"):
            got += [(p.get("n"), div.get("type"), p.text) for p in div.findall("p")]
        want = [(str(i), s, t) for i, (s, t) in enumerate(zip(doc.sections, doc.paragraphs), start=1)]
        for g, w in zip_longest(got, want):
            if g != w:
                problems.append(f"{path.name}: paragraph {g} differs from the generator's {w}")
                break
        codes = sorted(int(el.text) for el in root.iter("classCode"))
        if codes != corpus.eurovoc[celex]:
            problems.append(f"{path.name}: EUROVOC codes {codes}, expected {corpus.eurovoc[celex]}")
    return problems


def check_stats(corpus, workload, out: Path) -> list[str]:
    problems = []
    rows: dict[str, Counter] = {}
    descriptors: Counter = Counter()
    for (celex, lang), doc in expected_documents(corpus, workload).items():
        row = rows.setdefault(lang, Counter())
        row["n_texts"] += 1
        for section, text in zip(doc.sections, doc.paragraphs):
            words = len(text.split())
            if section in (HEAD, BODY):
                row["body_words"] += words
                row["body_chars"] += len(text)
            elif section == SIGNATURE:
                row["signature_words"] += words
            elif section == ANNEX:
                row["annex_words"] += words
        descriptors.update(corpus.eurovoc[celex])
    want = ["lang,n_texts,body_words,body_chars,avg_body_words,signature_words,annex_words,total_words"]
    for lang in sorted(rows):
        r = rows[lang]
        total = r["body_words"] + r["signature_words"] + r["annex_words"]
        want.append(f"{lang},{r['n_texts']},{r['body_words']},{r['body_chars']},"
                    f"{r['body_words'] / r['n_texts']:.1f},{r['signature_words']},{r['annex_words']},{total}")
    got = (out / "stats" / "language_stats.csv").read_text(encoding="utf-8").splitlines()
    for g, w in zip_longest(got, want):
        if g != w:
            problems.append(f"language_stats.csv has {g!r}, expected {w!r}")
    top = sorted(descriptors.items(), key=lambda kv: (-kv[1], kv[0]))[:TOP_DESCRIPTORS]
    want_freq = ["eurovoc_code,count"] + [f"{code},{n}" for code, n in top]
    got_freq = (out / "stats" / "eurovoc_frequency.csv").read_text(encoding="utf-8").splitlines()
    if got_freq != want_freq:
        problems.append("eurovoc_frequency.csv differs from the descriptor counts")
    return problems


def check_links(corpus, workload, out: Path, aligner: str) -> tuple[list[str], int]:
    """Coverage and arity of every stand-off file; returns (problems, links equal to gold)."""
    problems = []
    expected = expected_documents(corpus, workload)
    arities = GC_ARITIES if aligner == "gale_church" else HUN_ARITIES
    matched = total_gold = 0
    for src, tgt in combinations(sorted(workload.shape.languages), 2):
        path = out / "alignments" / aligner / f"{src}-{tgt}.standoff.xml"
        common = sorted(c for c, l in expected if l == src and (c, tgt) in expected)
        if not path.is_file():
            problems.append(f"{path.name} missing for {aligner}")
            continue
        standoff = read_standoff(path)
        if sorted(standoff) != common:
            problems.append(f"{aligner} {src}-{tgt}: documents {sorted(standoff)}, expected {common}")
        gold = corpus.gold[(src, tgt)]
        for celex in common:
            links = standoff.get(celex, [])
            want_src = 2
            want_tgt = 2
            for label, s_pars, t_pars, _ in links:
                arity = (len(s_pars), len(t_pars))
                if label != f"{arity[0]}-{arity[1]}" or arity not in arities:
                    problems.append(f"{aligner} {src}-{tgt} {celex}: link {label} {s_pars}/{t_pars} "
                                    "has no allowed arity")
                if s_pars != tuple(range(want_src, want_src + len(s_pars))) or t_pars != tuple(
                    range(want_tgt, want_tgt + len(t_pars))
                ):
                    problems.append(f"{aligner} {src}-{tgt} {celex}: link {s_pars}/{t_pars} breaks "
                                    f"monotone coverage at {want_src}/{want_tgt}")
                    break
                want_src += len(s_pars)
                want_tgt += len(t_pars)
            else:
                extents = (len(expected[(celex, src)].paragraphs), len(expected[(celex, tgt)].paragraphs))
                if (want_src - 1, want_tgt - 1) != extents:
                    problems.append(f"{aligner} {src}-{tgt} {celex}: links end at "
                                    f"{want_src - 1}/{want_tgt - 1}, extents are {extents}")
            ids = {(s, t) for _, s, t, _ in links}
            matched += len(ids & gold[celex])
            total_gold += len(gold[celex])
    if matched < GOLD_FLOOR[aligner] * total_gold:
        problems.append(f"{aligner}: {matched} of {total_gold} gold links, "
                        f"below the floor of {GOLD_FLOOR[aligner]:.0%}")
    return problems, matched


def check_csv(workload, out: Path, aligner: str) -> list[str]:
    problems = []
    for src, tgt in combinations(sorted(workload.shape.languages), 2):
        base = out / "alignments" / aligner / f"{src}-{tgt}"
        want = [f"# standoff-csv v1 {src}-{tgt}", "celex,arity,src_pars,tgt_pars,score"]
        for celex, links in read_standoff(base.with_suffix(".standoff.xml")).items():
            for label, s_pars, t_pars, score in links:
                score = f"{float(score):.6f}" if score is not None else ""
                want.append(f"{celex},{label},{';'.join(map(str, s_pars))},{';'.join(map(str, t_pars))},{score}")
        got = base.with_suffix(".csv").read_text(encoding="utf-8").splitlines()
        for g, w in zip_longest(got, want):
            if g != w:
                problems.append(f"{base.name}.csv has {g!r}, the stand-off links give {w!r}")
                break
    return problems


def check_bitext(corpus, workload, out: Path, bitext) -> list[str]:
    problems = []
    pairs, celexes = bitext
    aligner = workload.aligners[0]
    for src, tgt in pairs:
        standoff = read_standoff(out / "alignments" / aligner / f"{src}-{tgt}.standoff.xml")
        for celex in celexes:
            path = out / "bitext" / f"jrc{celex}-{src}-{tgt}.xml"
            root = ET.parse(path).getroot()
            heads = [(h.get("lang"), h.text) for h in root.findall("head")]
            want_heads = [(lang, corpus.docs[(celex, lang)].paragraphs[0]) for lang in (src, tgt)]
            if heads != want_heads:
                problems.append(f"{path.name}: heads {heads}")
            got_links = []
            for ab in root.findall("ab"):
                s_pars, t_pars = [], []
                for seg in ab.findall("seg"):
                    lang, n = seg.get("lang"), int(seg.get("n"))
                    (s_pars if lang == src else t_pars).append(n)
                    if seg.text != corpus.docs[(celex, lang)].paragraphs[n - 1]:
                        problems.append(f"{path.name}: {lang} seg {n} is not paragraph {n}")
                got_links.append((ab.get("type"), tuple(s_pars), tuple(t_pars)))
            want_links = [(label, s, t) for label, s, t, _ in standoff[celex]]
            if got_links != want_links:
                problems.append(f"{path.name}: <ab> pointers differ from the stand-off links")
    return problems


def check_agreement(workload, out: Path) -> list[str]:
    a_name, b_name = workload.aligners[:2]
    want = ["src,tgt,n_links_a,n_links_b,exact_match_fraction"]
    for src, tgt in combinations(sorted(workload.shape.languages), 2):
        counts, ids = [], []
        for name in (a_name, b_name):
            links = read_standoff(out / "alignments" / name / f"{src}-{tgt}.standoff.xml")
            counts.append(sum(len(ls) for ls in links.values()))
            ids.append({(c, s, t) for c, ls in links.items() for _, s, t, _ in ls})
        union = ids[0] | ids[1]
        jaccard = len(ids[0] & ids[1]) / len(union) if union else 1.0
        want.append(f"{src},{tgt},{counts[0]},{counts[1]},{jaccard:.6f}")
    got = (out / "stats" / "agreement.csv").read_text(encoding="utf-8").splitlines()
    return [] if got == want else [f"agreement.csv {got} differs from the Jaccard of the stand-off files {want}"]


def _tag(check, found: list[str]) -> list[str]:
    return [f"{check.__name__}: {problem}" for problem in found]


def check_all(corpus, workload, out: Path, logs: dict[str, str], bitext) -> tuple[list[str], dict[str, int]]:
    """Run every check that applies to the workload's chain; returns (problems, gold link counts).

    Each problem starts with the name of the check that found it.
    """
    chain = workload.chain
    problems = _tag(check_selection, check_selection(corpus, workload, out, logs))
    problems += _tag(check_tei, check_tei(corpus, workload, out))
    if "stats" in chain:
        problems += _tag(check_stats, check_stats(corpus, workload, out))
    gold = {}
    if "align" in chain:
        for aligner in workload.aligners:
            found, gold[aligner] = check_links(corpus, workload, out, aligner)
            problems += _tag(check_links, found)
            if "export" in chain:
                problems += _tag(check_csv, check_csv(workload, out, aligner))
    if "bitext" in chain:
        problems += _tag(check_bitext, check_bitext(corpus, workload, out, bitext))
    if "agree" in chain:
        problems += _tag(check_agreement, check_agreement(workload, out))
    return problems, gold
