"""Max RSS and wall time of each stage of a benchmark workload's chain.

    python3 tools/stage_rss.py --workload W [--seed S] [--runs N]
        [--corpus DIR] [--work DIR] [--json]

Each stage runs as its own `python -m io500kit.cli` process, one after
another, through the bench's own runner: the bench's stage environment
(`src` on `PYTHONPATH`, one thread per numeric library), and the child's
max RSS from `os.wait4`. The stages and their argv come from
`bench/workloads.py`. The chain runs `--runs` times (default 3), and each
stage's figures are the medians over the runs.

A child's max RSS from `os.wait4` is never below its parent's peak RSS
when the child was started: the child is started with vfork, and exec
keeps the larger of the two high-water marks. So this tool keeps its own
memory small (it does not import io500kit; a workload's corpus seed is
searched in a child process) and prints its own peak as the floor under
which no stage reading means anything.

Without `--corpus`, the workload's corpus is made first with `synth`, from
its synth config and the synth seed the bench takes for `--seed` (default
61). With `--corpus DIR`, the chain runs on that package directory instead.
The chain's manifests and outputs go under `--work` (default: a new
temporary directory, removed at the end).

Prints the floor and one line per stage, `stage  max RSS MB  wall s`, or
with `--json` one JSON object: `floor_mb`, and `stages`, by stage, of
`{"max_rss_mb", "wall_s", "rc"}` (the nonzero exit code of a stage that
failed in any run, else 0). Exits 1 when a stage failed.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


def _bench():
    """bench/run.py as a module, with bench/ on sys.path as it needs it."""
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # for its dataclasses
    spec.loader.exec_module(module)
    return module


def _own_peak_mb() -> float:
    """This process's peak RSS: its VmHWM, the high-water mark a child's exec
    keeps. `ru_maxrss` would not do: it also holds the peak of the process
    that started this one."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def measure(bench, workload: str, seed: int, runs: int, corpus: Path | None, work: Path) -> dict[str, dict]:
    """{stage: {"max_rss_mb", "wall_s", "rc"}} over `runs` runs of the chain,
    with `bench` the module _bench returns."""
    from workloads import SEED_SPACE, WORKLOADS, synth_argv

    chosen = WORKLOADS[workload]
    env = bench.stage_env()
    logs = work / "logs"
    if corpus is None:
        config = work / "synth.json"
        config.write_text(json.dumps(chosen.synth), encoding="utf-8")
        corpus = work / "corpus"
        # In a child, so that the seed search's corpora do not raise the floor.
        search = f"import workloads; print(workloads.WORKLOADS[{workload!r}].corpus_seed({seed % SEED_SPACE}))"
        found = subprocess.run(
            [sys.executable, "-c", search], cwd=BENCH, env=env, capture_output=True, text=True, check=True
        )
        argv = synth_argv(config, int(found.stdout), corpus)
        if bench.Runner(env).cli(argv, logs / "synth").rc != 0:
            raise RuntimeError("synth failed")
    chain = work / "chain"
    samples: dict[str, list] = {}
    for k in range(runs):
        shutil.rmtree(chain / "out", ignore_errors=True)
        runner = bench.Runner(env)  # a fresh run deadline for each pass of the chain
        for stage, argv in chosen.stages(corpus, chain):
            samples.setdefault(stage, []).append(runner.cli(argv, logs / f"{stage}-{k}"))
    return {
        stage: {
            "max_rss_mb": statistics.median(r.rss_mb for r in done),
            "wall_s": statistics.median(r.wall_s for r in done),
            "rc": next((r.rc for r in done if r.rc != 0), 0),
        }
        for stage, done in samples.items()
    }


def main(argv: list[str] | None = None) -> int:
    bench = _bench()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=61)
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--corpus", type=Path, help="a package directory to run the chain on")
    parser.add_argument("--work", type=Path, help="where the chain writes (default: a temporary directory)")
    parser.add_argument("--json", action="store_true", help="print one JSON object")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    if args.work:
        args.work.mkdir(parents=True, exist_ok=True)
    # Absolute, since the stages run in the repository root.
    work = Path(tempfile.mkdtemp(prefix="stage-rss-", dir=args.work)).resolve()
    corpus = args.corpus.resolve() if args.corpus else None
    try:
        stages = measure(bench, args.workload, args.seed, args.runs, corpus, work)
    finally:
        shutil.rmtree(work)
    floor_mb = _own_peak_mb()
    if args.json:
        print(json.dumps({"floor_mb": floor_mb, "stages": stages}))
    else:
        print(f"{args.workload}: median of {args.runs} run(s); readings floor at {floor_mb:.1f} MB")
        for stage, figures in stages.items():
            failed = f"  exit {figures['rc']}" if figures["rc"] else ""
            print(f"  {stage:16s} {figures['max_rss_mb']:7.1f} MB {figures['wall_s']:7.3f} s{failed}")
    return 1 if any(figures["rc"] for figures in stages.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
