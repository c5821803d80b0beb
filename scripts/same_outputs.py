#!/usr/bin/env python3
"""Check that two parcelex source trees write the same outputs and stage logs.

    python scripts/same_outputs.py PARENT_SRC CHANGE_SRC --workload vanilla-long --seed 1
    python scripts/same_outputs.py PARENT_SRC CHANGE_SRC --fixtures

One set of inputs is written to a temporary work directory: a benchmark
workload's, as ``perfbench/run.py`` writes them, or the bundled fixture
corpus's, as ``scripts/run_fixture_pipeline.py`` writes them (with
PARENT_SRC's profile training).  Then each source tree, in a fresh
interpreter, runs the chain once on a fresh ``out/`` of that same
directory, so that the paths the outputs embed agree.  Prints
``identical`` and exits 0, or prints each file and stage log line that
differs and exits 1.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "perfbench"))

import run  # noqa: E402  (perfbench/run.py, used read-only)

# Runs one function of this module in a fresh interpreter that imports
# parcelex from the source tree given first.
CHILD_CODE = "import sys; sys.path[:0] = sys.argv[1:3]; import same_outputs; same_outputs.{}(*sys.argv[3:])"


def write_inputs(work: str, seed: str, workload: str = "") -> None:
    """Write the workload's (or, with none, the fixture chain's) inputs and config to ``work``."""
    if workload:
        run.set_up(run.WORKLOADS[workload], int(seed), Path(work))
    else:
        import run_fixture_pipeline

        run_fixture_pipeline.write_inputs(Path(work), int(seed))


def run_chain(work: str, seed: str, workload: str = "") -> None:
    """Run the chain once on ``work``'s inputs; print its stage logs as JSON."""
    from parcelex import cli

    config_path = Path(work) / "config.json"
    if workload:
        w = run.WORKLOADS[workload]
        bitext = run.bitext_args(w, run.generate(w.shape, int(seed)))
        _, logs, failed = run.run_round(cli, w, config_path, bitext)
    else:
        import run_fixture_pipeline

        logs, failed = {}, 0
        for step, kwargs in run_fixture_pipeline.steps():
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                failed = cli.run(step, cli.load_config(config_path), **kwargs)
            logs[step] = err.getvalue()
            if failed:
                break
    print(json.dumps({"logs": logs, "failed": failed}))


def _child(function: str, src: Path, *args: str) -> str:
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    code = CHILD_CODE.format(function)
    result = subprocess.run([sys.executable, "-c", code, str(src), str(HERE), *args],
                            capture_output=True, text=True, env=env)
    if result.returncode != 0:
        sys.exit(f"same_outputs: {function} with {src} failed:\n{result.stderr.strip()[-2000:]}")
    return result.stdout


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def differences(parent: tuple[dict, dict], change: tuple[dict, dict]) -> list[str]:
    """Each file and stage log line in which two runs' (files, logs) differ."""
    found = []
    (parent_files, parent_logs), (change_files, change_logs) = parent, change
    for name in sorted(parent_files.keys() | change_files.keys()):
        if name not in change_files:
            found.append(f"only in the parent's tree: {name}")
        elif name not in parent_files:
            found.append(f"only in the change's tree: {name}")
        elif parent_files[name] != change_files[name]:
            found.append(f"differs: {name}")
    for stage in sorted(parent_logs.keys() | change_logs.keys()):
        diff = difflib.unified_diff(parent_logs.get(stage, "").splitlines(),
                                    change_logs.get(stage, "").splitlines(), lineterm="", n=0)
        found += [f"{stage} log: {line}" for line in diff
                  if line[:1] in "-+" and not line.startswith(("---", "+++"))]
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", type=Path, metavar="PARENT_SRC")
    parser.add_argument("change_src", type=Path, metavar="CHANGE_SRC")
    chain = parser.add_mutually_exclusive_group(required=True)
    chain.add_argument("--workload", choices=sorted(run.WORKLOADS))
    chain.add_argument("--fixtures", action="store_true", help="the bundled fixture corpus")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    sources = [args.parent_src.resolve(), args.change_src.resolve()]
    for src in sources:
        if not (src / "parcelex" / "cli.py").is_file():
            parser.error(f"no parcelex sources under {src}")
    inputs = (str(args.seed), args.workload or "")
    runs, found = [], []
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        work = Path(tmp) / "work"
        _child("write_inputs", sources[0], str(work), *inputs)
        for i, src in enumerate(sources):
            result = json.loads(_child("run_chain", src, str(work), *inputs).splitlines()[-1])
            if result["failed"]:
                found.append(f"the chain failed with {src}")
            out = Path(tmp) / f"out-{i}"
            if (work / "out").exists():
                (work / "out").rename(out)
            runs.append((_files(out), result["logs"]))
    found += differences(*runs)
    print("\n".join(found) if found else "identical")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
