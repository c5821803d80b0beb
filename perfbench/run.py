#!/usr/bin/env python3
"""parcelex benchmark: whole CLI pipeline runs over seeded synthetic corpora.

    python3 perfbench/run.py --workload acquis-both --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  The benchmark first writes the program's inputs (HTML, language
profiles, EUROVOC map, config).  Then, for ``--seconds``, the workload's
chain of subcommands runs through ``parcelex.cli.run`` on a fresh output
tree per round.  A fixed pure-Python loop, timed just before and just after
each round, says how fast the CPU ran it; each stage time is scaled to
the loop's reference speed, and the median over the rounds is reported.
Seven times in the run, spread over it, the program's own set-up
(importing parcelex, reading the config, loading the profiles) is timed in
a fresh interpreter; ``setup_s`` is their median.  The first round's
outputs are checked against values the benchmark computes itself; every
round's output tree, and one more round run by a fresh interpreter with
another hash seed, must hash to the same digest.  The last line of standard output is one JSON object with
the end-to-end metrics (``--trace 0``) or the per-layer metrics of a run
with every layer wrapped (``--trace 1``).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from corpus import Shape, generate, write_inputs  # noqa: E402

SRC = ROOT / "src"
SETUP_REPEATS = 7
BITEXT_DOCS = 2  # celexes passed to `bitext`, for every language pair
CHILD_TIMEOUT_S = 120
# The reference loop's typical time on the machine of README.md's figures;
# timed metrics are reported as if every round had run at that speed.
REFERENCE_S = 0.002
_REFERENCE_WORDS = [f"w{i % 97}x{i % 13}" for i in range(3000)]

# The program's set-up, timed inside a fresh interpreter so that the imports
# are cold: import parcelex, read the config, load the language profiles.
SETUP_CODE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from parcelex import cli, langid
config = cli.load_config(sys.argv[2])
if config.profiles_dir is not None:
    for path in sorted(config.profiles_dir.glob("*.profile")):
        langid.load_profile(path)
print(time.perf_counter() - start)
"""

# One more round of the chain, run by a fresh interpreter; prints the digest.
REPLAY_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import run
print(run.replay(*sys.argv[2:]))
"""


@dataclass(frozen=True)
class Workload:
    shape: Shape
    chain: tuple[str, ...]
    aligners: tuple[str, ...] = ()
    profiles: bool = False
    selection: bool = False


# Why each workload exists is in README.md; the short form is in BENCHMARK.json.
WORKLOADS = {
    "acquis-both": Workload(
        shape=Shape(languages=("de", "en", "fr"), n_docs=2, body_units=(14, 22),
                    unit_tokens=(5, 24)),
        chain=("fetch", "normalize", "align", "export", "bitext", "stats", "agree"),
        aligners=("gale_church", "hunalign"),
    ),
    "vanilla-long": Workload(
        shape=Shape(languages=("en", "fr"), n_docs=2, body_units=(150, 200),
                    unit_tokens=(3, 10), p_delete=0.02, p_merge=0.04),
        chain=("fetch", "normalize", "align", "export", "bitext"),
        aligners=("gale_church",),
    ),
    "ingest-langid": Workload(
        shape=Shape(languages=("cs", "de", "en", "es", "fr", "hu", "it", "nl", "pl", "pt", "ro", "sv"),
                    n_docs=10, body_units=(4, 8), unit_tokens=(6, 22),
                    signatures=True, missing=True, planted=6),
        chain=("fetch", "normalize", "stats"),
        profiles=True,
        selection=True,
    ),
}

INGEST = ("fetch", "normalize")
REPORT = ("export", "bitext", "stats", "agree")


def load_program():
    """Import the checkout's own parcelex package, or fail before any result is printed."""
    if not (SRC / "parcelex" / "cli.py").is_file():
        sys.exit(f"perfbench: no parcelex sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    from parcelex import cli

    if Path(cli.__file__).resolve().parent != (SRC / "parcelex").resolve():
        sys.exit(f"perfbench: imported parcelex from {cli.__file__}, not from {SRC}")
    return cli


def _child(code: str, *args: str, env=None) -> str:
    """Run ``code`` in a fresh interpreter and return its last line of output."""
    result = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                            timeout=CHILD_TIMEOUT_S, env=env)
    if result.returncode != 0:
        raise RuntimeError(f"child interpreter failed: {result.stderr.strip()[-500:]}")
    return result.stdout.strip().splitlines()[-1]


def program_set_up(config_path: Path) -> float:
    """Seconds the program takes to import, read its config and load its profiles."""
    return float(_child(SETUP_CODE, str(SRC), str(config_path)))


def set_up(workload: Workload, seed: int, work: Path):
    """Generate the corpus and write the program's inputs; return (corpus, config path)."""
    if work.exists():
        shutil.rmtree(work)
    inputs = work / "inputs"
    corpus = generate(workload.shape, seed)
    write_inputs(corpus, inputs, seed, workload.profiles)
    config = {
        "languages": list(workload.shape.languages),
        "source": {"mode": "local_directory", "root": "inputs/html"},
        "output_root": "out",
        "selection": workload.selection,
        "seed": seed,
        "eurovoc_map": "inputs/eurovoc.json",
    }
    if workload.aligners:
        config["aligners"] = list(workload.aligners)
    if workload.profiles:
        config["profiles_dir"] = "inputs/profiles"
    path = work / "config.json"
    path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    return corpus, path


def bitext_args(workload: Workload, corpus):
    pairs = list(combinations(sorted(workload.shape.languages), 2))
    return pairs, corpus.celexes[:BITEXT_DOCS]


def tree_digest(root: Path) -> tuple[str, int]:
    h = hashlib.sha256()
    total = 0
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        total += len(data)
        h.update(str(path.relative_to(root)).encode("utf-8") + b"\0")
        h.update(hashlib.sha256(data).digest())
    return h.hexdigest(), total


def reference_s() -> float:
    """Fastest of three timings of a fixed pure-Python loop: how fast the CPU runs now."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        counts: dict[str, int] = {}
        for word in _REFERENCE_WORDS:
            counts[word] = counts.get(word, 0) + 1
        total = 0.0
        for i in range(15000):
            total += (i % 7) * 0.5
        " ".join(_REFERENCE_WORDS).split()
        best = min(best, time.perf_counter() - start)
    return best


def run_round(cli, workload: Workload, config_path: Path, bitext, tracer=None):
    """One pass of the chain on a fresh output tree: (stage seconds, captured logs, failed)."""
    from parcelex.celex import parse_celex

    pairs, celexes = bitext
    times: dict[str, float] = {}
    logs: dict[str, str] = {}
    failed = 0
    for i, stage in enumerate(workload.chain):
        kwargs = {}
        if stage == "bitext":
            kwargs = {"pairs": pairs, "celex_ids": [parse_celex(c) for c in celexes]}
        err = io.StringIO()
        if tracer is not None:
            tracer.enter_stage()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stderr(err):
                status = cli.run(stage, cli.load_config(config_path), **kwargs)
        except Exception as exc:  # a failed stage is counted, and the round stops
            status = f"{exc.__class__.__name__}: {exc}"
        times[stage] = time.perf_counter() - start
        if tracer is not None:
            tracer.leave_stage(stage, times[stage], config_path.parent / "out")
        logs[stage] = err.getvalue()
        if status != 0:
            print(f"perfbench: {stage} failed: {status}", file=sys.stderr)
            failed = len(workload.chain) - i
            break
    return times, logs, failed


def replay(workload_name: str, config_path: str, *celexes: str) -> str:
    """Run one round of the workload's chain on a fresh output tree; return its digest."""
    cli = load_program()
    workload = WORKLOADS[workload_name]
    config_path = Path(config_path)
    out = config_path.parent / "out"
    shutil.rmtree(out, ignore_errors=True)
    pairs = list(combinations(sorted(workload.shape.languages), 2))
    _, _, failed = run_round(cli, workload, config_path, (pairs, list(celexes)))
    return "failed" if failed else tree_digest(out)[0]


def replay_in_child(workload_name: str, config_path: Path, bitext) -> str:
    """``replay`` in a fresh interpreter whose string hashing differs from this one's.

    Output that depended on hash or set iteration order would change digest.
    """
    ours = os.environ.get("PYTHONHASHSEED", "random")
    theirs = "1" if ours in ("", "random") else str((int(ours) + 1) % 2**32)
    env = {**os.environ, "PYTHONHASHSEED": theirs}
    return _child(REPLAY_CODE, str(HERE), workload_name, str(config_path), *bitext[1], env=env)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_program()
    workload = WORKLOADS[args.workload]
    work = HERE / "_work" / f"{args.workload}-{args.seed}"
    corpus, config_path = set_up(workload, args.seed, work)
    bitext = bitext_args(workload, corpus)
    out = work / "out"

    # The program's set-up is timed once before the rounds and again at even
    # intervals between them, so that its median samples the whole run.
    setup_times = [program_set_up(config_path)]

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    rounds = []
    attempted = failed = 0
    digest = None
    gold: dict[str, int] = {}
    problems: list[str] = []
    began = time.perf_counter()
    deadline = began + args.seconds
    try:
        while not rounds or time.perf_counter() < deadline:
            due = began + args.seconds * len(setup_times) / SETUP_REPEATS
            if len(setup_times) < SETUP_REPEATS and time.perf_counter() >= due:
                setup_times.append(program_set_up(config_path))
            if out.exists():
                shutil.rmtree(out)
            # Each CLI invocation starts with a fresh heap; so does each round.
            gc.collect()
            if tracer is not None:
                tracer.reset()
            before = reference_s()
            times, logs, round_failed = run_round(cli, workload, config_path, bitext, tracer)
            scale = REFERENCE_S / ((before + reference_s()) / 2)
            attempted += len(workload.chain)
            failed += round_failed
            if round_failed:
                problems.append("a stage failed")
                break
            round_digest, size = tree_digest(out)
            if digest is None:
                digest = round_digest
                try:
                    found, gold = checks.check_all(corpus, workload, out, logs, bitext)
                except Exception as exc:  # unreadable output fails the check, not the benchmark
                    found = [f"checking raised {exc.__class__.__name__}: {exc}"]
                problems += found
            elif round_digest != digest:
                problems.append(f"output tree digest changed between rounds: {digest} vs {round_digest}")
            entry = {"times": times, "scale": scale, "bytes": size}
            if tracer is not None:
                entry["layers"] = tracer.snapshot(gold)
            rounds.append(entry)
    finally:
        if tracer is not None:
            tracer.uninstall()
    while len(setup_times) < SETUP_REPEATS:
        setup_times.append(program_set_up(config_path))
    if not failed:
        replayed = replay_in_child(args.workload, config_path, bitext)
        if replayed != digest:
            problems.append(f"a fresh interpreter with another hash seed wrote digest {replayed}, "
                            f"the rounds {digest}")
    shutil.rmtree(work, ignore_errors=True)

    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(f"perfbench: {args.workload} seed {args.seed}: {len(rounds)} rounds, "
          f"output digest {digest}", file=sys.stderr)
    print("perfbench: round seconds " + " ".join(f"{sum(r['times'].values()):.3f}" for r in rounds),
          file=sys.stderr)
    print("perfbench: round speed scales " + " ".join(f"{r['scale']:.2f}" for r in rounds), file=sys.stderr)

    def scaled(stages) -> float:
        """Median over the rounds of the stages' time, scaled to the reference speed."""
        if not rounds:
            return 0.0
        return statistics.median(sum(r["times"].get(s, 0.0) for s in stages) * r["scale"] for r in rounds)

    # Why scaled medians rather than raw seconds: see "Drift and the reference loop" in README.md.
    pipeline = scaled(workload.chain)
    if tracer is not None:
        metrics = Tracer.summarize([r["layers"] for r in rounds], [r["scale"] for r in rounds])
        metrics["trace.pipeline_s"] = {"value": pipeline, "unit": "s"}
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "pipeline_s": (pipeline, "s"),
            "docs_per_s": (len(corpus.docs) / pipeline if pipeline else 0.0, "docs/s"),
            "ingest_s": (scaled(INGEST), "s"),
            "report_s": (scaled(REPORT), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "output_bytes": (rounds[0]["bytes"] if rounds else 0, "bytes"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
