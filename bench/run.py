"""End-to-end and per-layer benchmark of the io500kit CLI pipeline.

    python3 bench/run.py                       # every workload, both modes
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

`--trace 0` measures the end-to-end metrics. `synth` builds the corpus
(timed several times for `setup_s`), then the workload's chain runs as
fresh `python -m io500kit.cli` processes, one after another (a closed loop
with one client). Whole chains start until `--seconds` have been
measured, and the chain under way then ends; times are medians over chains.

`--trace 1` gives the per-layer metrics: the chain runs in-process twice,
untraced and traced (see tracer.py), and self times come from the spans.

Every pass's outputs are checked (checks.py); a stage that exits non-zero
or fails a check counts as failed. The last stdout line is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.

Working files go to `.bench-work/` at the repository root and are reused:
corpora and manifests are overwritten in place and checked for leftovers,
because deleting tens of thousands of small files per run slows the file
system for the timed processes that follow.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import checks
from tracer import HOOKS
from workloads import ALL_STAGES, DEFAULT_SEED, SEED_SPACE, WORKLOADS, Workload, synth_argv

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench-work"
SETUP_REPEATS = 2
IMPORT_REPEATS = 3
RUN_DEADLINE_S = 170.0  # a run must end within 180 s
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "pipeline_s": "s",
    "ingest_s": "s",
    "analyze_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "manifest_mb": "MB",
}
# Span names of the hooked functions, in hook order; each becomes `<name>_s`.
LAYER_TIMES = tuple(dict.fromkeys(span for _, _, span, _ in HOOKS))


class BenchError(Exception):
    """The benchmark cannot produce a result (no program, failed set-up)."""


@dataclass
class ProcRun:
    wall_s: float
    rss_mb: float
    rc: int | None  # None: not started, the run deadline had passed


def stage_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update({var: "1" for var in THREAD_VARS})
    env.pop("IO500KIT_OUT", None)
    return env


class Runner:
    """Starts one child at a time, times it, and kills it at the run deadline."""

    def __init__(self, env: dict[str, str]):
        self.env = env
        self.deadline = time.monotonic() + RUN_DEADLINE_S

    def run(self, argv: list[str], log: Path) -> ProcRun:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            print(f"  {log.name} not started: run deadline reached", file=sys.stderr)
            return ProcRun(0.0, 0.0, None)
        log.parent.mkdir(parents=True, exist_ok=True)
        with open(f"{log}.out", "wb") as out, open(f"{log}.err", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            killer = threading.Timer(remaining, proc.kill)
            killer.start()
            try:
                # The child's own rusage, not the cumulative RUSAGE_CHILDREN.
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted or terminated: leave no child behind
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = Path(f"{log}.err").read_text(errors="replace").strip().splitlines()[-3:]
            print(f"  {log.name} exited {proc.returncode}: {' | '.join(tail)}", file=sys.stderr)
        return ProcRun(wall, usage.ru_maxrss / 1024, proc.returncode)

    def cli(self, argv: list[str], log: Path) -> ProcRun:
        return self.run([sys.executable, "-m", "io500kit.cli", *argv], log)


def manifest_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.glob("*.json"))


def environment() -> dict:
    try:
        # The ceiling keeps git from reporting an enclosing repository's commit.
        env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {
        "git_sha": sha,
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def report_problems(problems: dict[str, list[str]], label: str) -> int:
    """Print each stage's problems; return the number of failed stages."""
    failed = 0
    for stage, found in problems.items():
        if found:
            failed += 1
            for problem in found:
                print(f"  check failed [{label} {stage}]: {problem}", file=sys.stderr)
    return failed


def set_up(runner: Runner, workload: Workload, seed: int, work: Path) -> tuple[Path, list[float]]:
    """Warm up, then run synth SETUP_REPEATS times; return the last corpus and the times."""
    config = work / "synth.json"
    config.write_text(json.dumps(workload.synth), encoding="utf-8")
    # Untimed warm-up: fills __pycache__ and the page cache, which users pay once.
    runner.run([sys.executable, "-c", "import io500kit.cli"], work / "logs" / "warm-up")
    corpus_seed = workload.corpus_seed(seed)
    print(f"{workload.name}: seed {seed}, synth seed {corpus_seed}")
    times = []
    for k in range(SETUP_REPEATS):
        corpus = work / f"corpus-{k}"
        started = time.time()
        run = runner.cli(synth_argv(config, corpus_seed, corpus), work / "logs" / f"synth-{k}")
        if run.rc != 0:
            raise BenchError(f"synth exited {run.rc}")
        require_fresh(corpus, started)
        times.append(run.wall_s)
    return corpus, times


def require_fresh(corpus: Path, started: float) -> None:
    stale = checks.stale_files(corpus, started)
    if stale:
        raise BenchError(
            f"synth left {len(stale)} files of an earlier corpus in {corpus}; delete {WORK_ROOT}"
        )


def run_end_to_end(
    workload: Workload, seed: int, seconds: float, work: Path, expected: dict[str, str]
) -> tuple[dict, dict]:
    """The result, and the per-pass and set-up times behind its medians."""
    runner = Runner(stage_env())
    corpus, setup_times = set_up(runner, workload, seed, work)
    chains = []
    attempted = failed = 0
    while True:
        chain = work / "chain"
        shutil.rmtree(chain / "out", ignore_errors=True)
        started = time.time()
        t0 = time.perf_counter()
        runs = {
            stage: runner.cli(argv, chain / "logs" / stage)
            for stage, argv in workload.stages(corpus, chain)
        }
        wall = time.perf_counter() - t0
        problems, _ = checks.check_chain(workload, corpus, chain, expected, started)
        for stage, run in runs.items():
            if run.rc is None:
                problems[stage].append("not started: run deadline reached")
            elif run.rc != 0:
                problems[stage].append(f"exit code {run.rc}")
        attempted += len(runs)
        failed += report_problems(problems, f"pass {len(chains) + 1}")
        chains.append(
            {
                "pipeline_s": wall,
                "ingest_s": runs["ingest"].wall_s,
                "analyze_s": sum(r.wall_s for s, r in runs.items() if s != "ingest"),
                "peak_rss_mb": max(r.rss_mb for r in runs.values()),
            }
        )
        measured = sum(c["pipeline_s"] for c in chains)
        typical = statistics.median(c["pipeline_s"] for c in chains)
        left = runner.deadline - time.monotonic()
        if measured >= seconds or 1.5 * typical > left:
            break
    metrics = {name: statistics.median(c[name] for c in chains) for name in chains[0]}
    metrics["setup_s"] = statistics.median(setup_times)
    metrics["manifest_mb"] = manifest_bytes(chain / "manifests") / 1e6
    print(f"{workload.name}: {len(chains)} pass(es), setup x{len(setup_times)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": END_TO_END[name]} for name in END_TO_END},
    }
    return result, {"passes": chains, "setup_s": setup_times}


def import_time(runner: Runner, work: Path) -> float:
    code = "import time; t = time.perf_counter(); import io500kit.cli; print(time.perf_counter() - t)"
    times = []
    for k in range(IMPORT_REPEATS):
        log = work / "logs" / f"import-{k}"
        if runner.run([sys.executable, "-c", code], log).rc != 0:
            raise BenchError("importing io500kit.cli failed")
        times.append(float(Path(f"{log}.out").read_text()))
    return statistics.median(times)


def run_traced(workload: Workload, seed: int, work: Path, expected: dict[str, str]) -> tuple[dict, dict]:
    """The result, and the in-process stage times of both modes."""
    runner = Runner(stage_env())
    import_s = import_time(runner, work)
    reports = {}
    attempted = failed = 0
    for mode, trace in (("untraced", 0), ("traced", 1)):
        mode_dir = work / mode
        argv = [
            sys.executable,
            str(Path(__file__).with_name("tracer.py")),
            f"--workload={workload.name}",
            f"--seed={seed}",
            f"--work={mode_dir}",
            f"--trace={trace}",
        ]
        if runner.run(argv, work / "logs" / mode).rc != 0:
            raise BenchError(f"{mode} in-process run crashed")
        report = json.loads((mode_dir / "inproc.json").read_text(encoding="utf-8"))
        stages = report["stages"]
        if stages.pop("synth")["rc"] != 0:
            raise BenchError("synth failed in the in-process run")
        require_fresh(mode_dir / "corpus", report["started"]["synth"])
        problems, _ = checks.check_chain(
            workload, mode_dir / "corpus", mode_dir / "chain", expected, report["started"]["chain"]
        )
        for stage, result in stages.items():
            if result["rc"] != 0:
                problems[stage].append(f"exit code {result['rc']}")
        attempted += len(stages)
        failed += report_problems(problems, mode)
        reports[mode] = report

    traced = reports["traced"]
    self_s = traced["self_s"]
    stage_walls = {s: r["wall_s"] for s, r in traced["stages"].items() if s != "synth"}
    print(f"{workload.name}: in-process stage time the spans leave uncovered (stage self time)")
    for stage, wall in stage_walls.items():
        uncovered = self_s[f"cli.stage.{stage}"]
        print(f"  {stage:16s} {uncovered:8.3f} s of {wall:8.3f} s ({uncovered / wall:6.1%})")
    metrics = {"cli.import_s": (import_s, "s")}
    for stage in ALL_STAGES:
        metrics[f"cli.stage.{stage}_s"] = (self_s.get(f"cli.stage.{stage}", 0.0), "s")
    for name in LAYER_TIMES:
        metrics[f"{name}_s"] = (self_s.get(name, 0.0), "s")
    for name, count in traced["counts"].items():
        metrics[name] = (count, "bytes" if "bytes" in name else "count")
    overhead = traced["total_s"] / reports["untraced"]["total_s"] - 1
    uncovered = sum(self_s[f"cli.stage.{s}"] for s in stage_walls) / sum(stage_walls.values())
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    metrics["trace.uncovered_frac"] = (uncovered, "ratio")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    return result, {mode: report["stages"] for mode, report in reports.items()}


def run_one(name: str, seed: int, seconds: float, trace: int) -> dict:
    work = WORK_ROOT / f"{name}-trace{trace}"
    work.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[name]
    expected = checks.expected_digests(name, seed)
    if expected is None:
        raise BenchError(f"no reference digests for {name} seed {seed}; see capture_digests.py")
    if trace:
        result, detail = run_traced(workload, seed, work, expected)
    else:
        result, detail = run_end_to_end(workload, seed, seconds, work, expected)
    error_rate = result["failed"] / result["attempted"]
    print(f"  error_rate = {error_rate:.4g} ({result['failed']} of {result['attempted']} stage runs)")
    for metric, entry in result["metrics"].items():
        print(f"  {metric} = {entry['value']:.6g} {entry['unit']}")
    (work / "result.json").write_text(
        json.dumps({"workload": name, "seed": seed, "env": environment(), **result, **detail}, indent=1),
        encoding="utf-8",
    )
    return result


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main() -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), help="default: both modes")
    args = parser.parse_args()
    if not (SRC / "io500kit" / "cli.py").is_file():
        print(f"error: no io500kit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # workloads that balance their corpus ask synth
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = (0, 1) if args.trace is None else (args.trace,)
    seed = args.seed % SEED_SPACE
    print(f"env: {json.dumps(environment())}")
    print(f"seed {args.seed}: corpus {seed} of {SEED_SPACE}")
    try:
        results = {
            (name, trace): run_one(name, seed, args.seconds, trace)
            for name in names
            for trace in modes
        }
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        summary = next(iter(results.values()))
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}:{metric}": entry
                for (name, _), r in results.items()
                for metric, entry in r["metrics"].items()
            },
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
