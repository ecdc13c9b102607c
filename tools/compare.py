"""Benchmark two revisions in alternating pairs and summarize the pairs.

    python3 tools/compare.py PARENT CHANGE --workload W [--workload W2 ...]
        --seed S [--pairs N] --out BENCH_N.json [--work DIR]

Each revision is exported with `git archive` into a fresh directory under
DIR (made if missing; a new temporary directory by default), so neither
holds a `__pycache__` or any other untracked file. A revision that names
no commit is one `error:` line and exit status 1. For each workload, each pair
then runs `python3 bench/run.py --workload W --seed S --trace 0` once in
each export, and the side that goes first alternates from pair to pair:
the host's drift between runs falls on both sides alike. A run that exits
non-zero or whose last line is not a JSON object ends the comparison in one
`error:` line, naming the workload, the pair, the side and the run's last
stderr line, and exit status 1; no output file is written.

The output file holds, per workload and metric, each side's median and
quartiles and the number of pairs in which the change was better, the raw
final JSON line of every run, the two shas, and the environment: Python
and numpy versions, `nproc` and `PYTHONDONTWRITEBYTECODE`. The runs
inherit this process's environment unchanged. The exports are removed at
the end.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from importlib import metadata
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True).stdout


def export(sha: str, dest: Path) -> Path:
    """The tree of commit `sha`, extracted into the new directory `dest`."""
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", sha))) as archive:
        archive.extractall(dest, filter="data")
    return dest


class RunFailed(Exception):
    """A bench run that exited non-zero or printed no result line."""


def run_bench(tree: Path, workload: str, seed: int) -> dict:
    """The final JSON line of one `bench/run.py --trace 0` run in `tree`; a
    run without one raises RunFailed, which quotes its last stderr line."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    last = next((line.strip() for line in reversed(proc.stderr.splitlines()) if line.strip()), "(none)")
    if proc.returncode != 0:
        raise RunFailed(f"bench/run.py exited {proc.returncode}; last stderr line: {last}")
    try:
        return parse_result(proc.stdout)
    except ValueError as exc:
        raise RunFailed(f"no result line ({exc}); last stderr line: {last}") from None


def parse_result(stdout: str) -> dict:
    """The JSON object on the last non-empty line of a bench run's stdout."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("bench run printed nothing")
    result = json.loads(lines[-1])
    if not isinstance(result, dict):
        raise ValueError("the last line is not a JSON object")
    return result


def directions() -> dict[str, str]:
    """'lower' or 'higher' is better, by metric name, from BENCHMARK.json."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["better"] for m in declared["end_to_end"] + declared["per_layer"]}


def aggregate(pairs: list[tuple[dict, dict]], better: dict[str, str]) -> dict:
    """Per metric: each side's quartiles and the change's wins over the pairs.

    `pairs` holds (parent result, change result) bench lines. A pair is won
    when the change's value is strictly better; a metric missing from either
    line of a pair is left out of every figure.
    """
    names = dict.fromkeys(name for pair in pairs for result in pair for name in result["metrics"])
    metrics = {}
    for name in names:
        shared = [
            (p["metrics"][name], c["metrics"][name])
            for p, c in pairs
            if name in p["metrics"] and name in c["metrics"]
        ]
        if not shared:
            continue
        entry = {"unit": shared[0][0]["unit"], "better": better.get(name, "lower"), "pairs": len(shared)}
        values = [(p["value"], c["value"]) for p, c in shared]
        for side, column in zip(("parent", "change"), zip(*values)):
            q1, median, q3 = np.percentile(column, [25.0, 50.0, 75.0]).tolist()
            entry[side] = {"median": median, "q1": q1, "q3": q3}
        sign = -1.0 if entry["better"] == "lower" else 1.0
        entry["change_wins"] = sum(sign * (c - p) > 0 for p, c in values)
        metrics[name] = entry
    return {
        "correct": all(r["correct"] for pair in pairs for r in pair),
        "failed": {side: [pair[i]["failed"] for pair in pairs] for i, side in enumerate(("parent", "change"))},
        "metrics": metrics,
    }


def environment(shas: dict[str, str]) -> dict:
    return {
        **shas,
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seed", type=int, default=61)
    # Five pairs of near-identical trees have read both +15% and -6%: ten is the least.
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--work", type=Path, help="where the exports go (default: a new temporary directory)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    shas = {}
    for side, rev in (("parent", args.parent), ("change", args.change)):
        try:
            shas[side] = git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
        except subprocess.CalledProcessError:
            print(f"error: {rev!r} names no commit", file=sys.stderr)
            return 1
    if args.work:
        args.work.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="compare-", dir=args.work))
    try:
        trees = {side: export(sha, work / side) for side, sha in shas.items()}
        summary = {"environment": environment(shas), "seed": args.seed, "workloads": {}}
        for workload in args.workload:
            pairs, raw = [], []
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                results = {}
                for side in order:
                    try:
                        results[side] = run_bench(trees[side], workload, args.seed)
                    except RunFailed as exc:
                        print(f"error: {workload} pair {i + 1}/{args.pairs} {side}: {exc}", file=sys.stderr)
                        return 1
                    line = json.dumps(results[side])
                    print(f"{workload} pair {i + 1}/{args.pairs} {side}: {line}", file=sys.stderr)
                pairs.append((results["parent"], results["change"]))
                raw.append({"first": order[0], **results})
            summary["workloads"][workload] = {**aggregate(pairs, directions()), "runs": raw}
        args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    finally:
        shutil.rmtree(work)
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
