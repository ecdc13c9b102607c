"""Capture the reference output digests that checks.py compares against.

    python3 bench/capture_digests.py --seeds 0-63 [--workloads NAME ...]

Run this only on a commit whose outputs are the reference (the outputs are
meant to stay byte-identical across performance work). Each (workload, seed)
runs once in-process (tracer.py, untraced); its chain must pass the
manifest-count and ground-truth checks before its digests are recorded.
Results merge into digests.json.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import checks
from run import WORK_ROOT, stage_env
from workloads import SEED_SPACE, WORKLOADS


def parse_seeds(specs: list[str]) -> list[int]:
    seeds: list[int] = []
    for spec in specs:
        lo, _, hi = spec.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def capture(name: str, seed: int) -> dict[str, str]:
    workload = WORKLOADS[name]
    work = WORK_ROOT / "capture" / f"{name}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    argv = [
        sys.executable,
        str(Path(__file__).with_name("tracer.py")),
        f"--workload={name}",
        f"--seed={seed}",
        f"--work={work}",
    ]
    subprocess.run(argv, env=stage_env(), check=True, stdout=subprocess.DEVNULL)
    report = json.loads((work / "inproc.json").read_text(encoding="utf-8"))
    bad = [stage for stage, r in report["stages"].items() if r["rc"] != 0]
    problems, digests = checks.check_chain(workload, work / "corpus", work / "chain", None, 0.0)
    bad += [f"{stage}: {p}" for stage, found in problems.items() for p in found]
    shutil.rmtree(work, ignore_errors=True)
    if bad:
        raise RuntimeError(f"{name} seed {seed}: {bad}")
    print(f"captured {name} seed {seed}", flush=True)
    return digests


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", nargs="+", required=True, help="seeds or ranges like 0-19")
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=list(WORKLOADS))
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    if not all(0 <= seed < SEED_SPACE for seed in seeds):
        parser.error(f"run.py takes seeds modulo {SEED_SPACE}: capture seeds 0-{SEED_SPACE - 1}")
    jobs = [(name, seed) for name in args.workloads for seed in seeds]
    results = [capture(name, seed) for name, seed in jobs]
    table = checks.load_digests()
    for (name, seed), digests in zip(jobs, results):
        table.setdefault(name, {})[str(seed)] = digests
    table = {
        name: dict(sorted(seeds.items(), key=lambda kv: int(kv[0])))
        for name, seeds in sorted(table.items())
    }
    checks.DIGESTS_PATH.write_text(
        json.dumps({"format_version": 1, "workloads": table}, indent=1) + "\n",
        encoding="utf-8",
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
