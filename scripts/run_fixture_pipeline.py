#!/usr/bin/env python3
"""Run the whole pipeline over the bundled fixture corpus.

Trains profiles from the fixture language banks, writes a config, then
executes fetch, normalize, align, export, bitext, stats and agree into the
given output directory.

    python scripts/run_fixture_pipeline.py /tmp/corpus-demo
"""

import argparse
import json
import sys
from pathlib import Path

from parcelex.celex import parse_celex
from parcelex.cli import load_config, run
from parcelex.langid import save_profile, train_language_profile

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "tests" / "fixtures"

EUROVOC_MAP = {
    "31984D0001": [4180, 2771],
    "31985R0002": [5769, 4180],
    "31986L0003": [1309],
}


def train_fixture_profiles(dest: Path):
    dest.mkdir(parents=True, exist_ok=True)
    for lang in ("de", "en", "fr"):
        lines = (FIXTURES / "lang" / f"{lang}.txt").read_text(encoding="utf-8")
        text = lines
        while len(text) < 12_000:
            text += " " + lines
        save_profile(train_language_profile(text, lang), dest / f"{lang}.profile")


def write_inputs(workdir: Path, seed: int) -> Path:
    """Write the profiles, EUROVOC map and config into ``workdir``; return the config's path."""
    workdir.mkdir(parents=True, exist_ok=True)
    train_fixture_profiles(workdir / "profiles")
    (workdir / "eurovoc.json").write_text(json.dumps(EUROVOC_MAP, indent=2), encoding="utf-8")
    config_path = workdir / "config.json"
    config_path.write_text(
        json.dumps(
            {
                "languages": ["en", "fr", "de"],
                "source": {"mode": "local_directory", "root": str(FIXTURES / "html")},
                "output_root": "out",
                "aligners": ["gale_church", "hunalign"],
                "selection": False,
                "seed": seed,
                "profiles_dir": "profiles",
                "eurovoc_map": "eurovoc.json",
            },
            indent=2,
        ),
        encoding="utf-8",
    )
    return config_path


def steps() -> list[tuple[str, dict]]:
    """The chain as (subcommand, keyword arguments of ``parcelex.cli.run``)."""
    return [
        ("fetch", {}),
        ("normalize", {}),
        ("align", {}),
        ("export", {}),
        ("bitext", {"pairs": [("en", "fr")], "celex_ids": [parse_celex(c) for c in EUROVOC_MAP]}),
        ("stats", {}),
        ("agree", {}),
    ]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workdir", type=Path, help="directory for config and outputs")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    config = load_config(write_inputs(args.workdir, args.seed))
    for step, kwargs in steps():
        print(f"-- {step}")
        code = run(step, config, **kwargs)
        if code != 0:
            return code
    print(f"done; outputs under {args.workdir / 'out'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
