"""Output checks for one pass of a workload's chain.

* Every `.csv` and `.svg` a stage writes under its `--out` tree is hashed and
  the per-stage tree digest is compared with `digests.json`, captured from
  the reference implementation for a fixed set of seeds. `.txt` notes and
  `validation.txt` are left out: their wording may change while the numbers,
  which the CSVs carry, may not.
* Ingest must write one manifest per generated submission. Work
  directories are reused and overwritten in place between runs, so a
  manifest older than the pass counts as left over, not as written.
* The straggler table must agree with the corpus's `ground_truth.json`:
  every row reports the true pattern, and every row whose true pattern is
  not NONE lists exactly the true straggler ranks.

Each problem is charged to the stage whose output shows it.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

from workloads import Workload

DIGESTS_PATH = Path(__file__).with_name("digests.json")
DIGEST_SUFFIXES = (".csv", ".svg")
# File times come from the kernel's coarse clock, which may lag time.time().
MTIME_SLACK_S = 0.5


def stale_files(root: Path, since: float) -> list[Path]:
    """Files under root last written before `since` (a time.time() value)."""
    return [p for p in root.rglob("*") if p.is_file() and p.stat().st_mtime < since - MTIME_SLACK_S]


def tree_digest(root: Path) -> str | None:
    """sha256 over the relative path and sha256 of every .csv/.svg under root."""
    files = sorted(
        (p.relative_to(root).as_posix(), p)
        for p in root.rglob("*")
        if p.suffix in DIGEST_SUFFIXES and p.is_file()
    )
    if not files:
        return None
    lines = [f"{rel} {hashlib.sha256(p.read_bytes()).hexdigest()}" for rel, p in files]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def stage_digests(workload: Workload, chain: Path) -> dict[str, str | None]:
    return {stage: tree_digest(chain / "out" / stage) for stage in workload.analyses}


def load_digests() -> dict:
    if not DIGESTS_PATH.is_file():
        return {}
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))["workloads"]


def expected_digests(workload: str, seed: int) -> dict[str, str] | None:
    """Reference digests for this workload and seed, or None if never captured."""
    return load_digests().get(workload, {}).get(str(seed))


def _straggler_problems(corpus: Path, out: Path) -> list[str]:
    truth = json.loads((corpus / "ground_truth.json").read_text(encoding="utf-8"))["submissions"]
    table = out / "logs" / "stragglers.csv"
    if not table.is_file():
        return [f"{table.name} missing"]
    with open(table, encoding="utf-8", newline="") as f:
        rows = list(csv.DictReader(f))
    problems = []
    seen = set()
    for row in rows:
        sid, phase = row["Submission"], row["Phase"]
        seen.add((sid, phase))
        want = truth.get(sid, {}).get("pattern", {}).get(phase)
        if row["Pattern"] != want:
            problems.append(f"{sid} {phase}: pattern {row['Pattern']}, truth {want}")
        elif want != "NONE":
            got = sorted(int(r) for r in row["StragglerRanks"].split(";") if r)
            if got != truth[sid]["stragglers"][phase]:
                problems.append(f"{sid} {phase}: straggler ranks differ from ground truth")
    for sid, sub in truth.items():
        for phase, pattern in sub["pattern"].items():
            if pattern != "NONE" and (sid, phase) not in seen:
                problems.append(f"{sid} {phase}: {pattern} stragglers not reported")
    return problems


def check_chain(
    workload: Workload,
    corpus: Path,
    chain: Path,
    expected: dict[str, str] | None,
    since: float,
) -> tuple[dict[str, list[str]], dict[str, str | None]]:
    """Problems found per stage of a pass that started at `since`, and its stage digests.

    The pass's `out/` tree must have been removed before it started.
    """
    problems: dict[str, list[str]] = {"ingest": []}
    manifests = list((chain / "manifests").glob("*.json"))
    n_stale = len(stale_files(chain / "manifests", since))
    if n_stale:
        problems["ingest"].append(f"{n_stale} files in the manifest directory left from an earlier run")
    if len(manifests) != workload.n_submissions:
        problems["ingest"].append(
            f"{len(manifests)} manifests for {workload.n_submissions} submissions"
        )
    digests = stage_digests(workload, chain)
    for stage, digest in digests.items():
        problems[stage] = []
        if digest is None:
            problems[stage].append("no .csv or .svg output")
        elif expected is not None and digest != expected.get(stage):
            problems[stage].append("output digest differs from the reference")
    if "logs-stragglers" in problems:
        problems["logs-stragglers"] += _straggler_problems(
            corpus, chain / "out" / "logs-stragglers"
        )
    return problems, digests
