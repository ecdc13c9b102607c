"""Composite score recomputation, per-scale normalization, and summary stats.

Composite scores are geometric means computed in log space with an explicit
zero short-circuit, so a zero phase value yields a zero composite instead of
a domain error (zero phase values occur in real submissions).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .config import PipelineConfig
from .errors import (
    EmptyInputError,
    IncompletePhasesError,
    NormalizationError,
)
from .types import BW_SCORE_PHASES, MD_SCORE_PHASES, Phase, Submission, SubmissionMeta


@dataclass
class ScoreSet:
    score_bw: float
    score_md: float
    score_overall: float


@dataclass
class SummaryStats:
    n: int
    min: float
    median: float
    mean: float
    max: float
    cv: float | None  # sample (n-1) std / |mean|; None when mean == 0 or n < 2


def _geometric_mean(values: Sequence[float]) -> float:
    for v in values:
        if v < 0:
            raise ValueError(f"negative phase value {v}")
        if v == 0.0:
            return 0.0
    return math.exp(math.fsum(math.log(v) for v in values) / len(values))


def _gather(phases: Mapping[Phase, float], wanted: Iterable[Phase]) -> list[float]:
    missing = [p for p in wanted if phases.get(p) is None]
    if missing:
        raise IncompletePhasesError(missing)
    return [float(phases[p]) for p in wanted]


def score_bw(phases: Mapping[Phase, float]) -> float:
    """Bandwidth composite: 4th root of the product of the four IOR phases."""
    return _geometric_mean(_gather(phases, BW_SCORE_PHASES))


def score_md(phases: Mapping[Phase, float]) -> float:
    """Metadata composite: 5th root of the product of the five scoring phases."""
    return _geometric_mean(_gather(phases, MD_SCORE_PHASES))


def score_overall(bw: float, md: float) -> float:
    """Overall composite: square root of bandwidth times metadata score."""
    if bw < 0 or md < 0:
        raise ValueError("scores must be >= 0")
    return math.sqrt(bw * md)


def phase_values(sub: Submission) -> dict[Phase, float]:
    return {phase: result.value for phase, result in sub.phases.items()}


def recompute_scores(sub: Submission) -> ScoreSet:
    """Recompute all three composites from a submission's phase values."""
    values = phase_values(sub)
    bw = score_bw(values)
    md = score_md(values)
    return ScoreSet(score_bw=bw, score_md=md, score_overall=score_overall(bw, md))


def _recomputed(sub: Submission) -> dict[str, float]:
    """The composites computable from a submission's phase values, by metric
    name: each of bw and md whose phases are all present, overall when both are."""
    values = phase_values(sub)
    out: dict[str, float] = {}
    for name, fn in (("score_bw", score_bw), ("score_md", score_md)):
        try:
            out[name] = fn(values)
        except IncompletePhasesError:
            pass
    if "score_bw" in out and "score_md" in out:
        out["score_overall"] = score_overall(out["score_bw"], out["score_md"])
    return out


def _reported(sub: Submission) -> dict[str, float | None]:
    return {
        "score_bw": sub.reported_score_bw,
        "score_md": sub.reported_score_md,
        "score_overall": sub.reported_score_overall,
    }


def recomputation_findings(
    sub: Submission, rel_tol: float = PipelineConfig.recompute_rel_tol
) -> list[str]:
    """Compare recomputed composites against reported ones.

    Mismatches beyond rel_tol come back as human-readable findings; missing
    phases or missing reported scores simply produce no finding.
    """
    findings: list[str] = []
    reported = _reported(sub)
    for name, computed in _recomputed(sub).items():
        if reported[name] in (None, 0):
            continue
        rel = abs(computed - reported[name]) / reported[name]
        if rel > rel_tol:
            findings.append(
                f"{sub.meta.submission_id}: {name} recomputed {computed:.6g} "
                f"vs reported {reported[name]:.6g} (rel err {rel:.2e})"
            )
    return findings


def per_node(value: float, meta: SubmissionMeta) -> float:
    """Divide a metric, or a numpy row of them, by the client node count."""
    if meta.client_nodes is None or meta.client_nodes < 1:
        raise NormalizationError(f"{meta.submission_id}: no usable client node count")
    return value / meta.client_nodes


def per_process(value: float, meta: SubmissionMeta) -> float:
    """Divide a metric, or a numpy row of them, by the total process count
    (given, or nodes x ppn)."""
    total = meta.total_procs
    if total is None and meta.procs_per_node is not None:
        total = meta.client_nodes * meta.procs_per_node
    if total is None or total < 1:
        raise NormalizationError(
            f"{meta.submission_id}: neither total_procs nor procs_per_node available"
        )
    return value / total


def summary_stats(values: Sequence[float]) -> SummaryStats:
    """Min/median/mean/max plus coefficient of variation (sample std / mean)."""
    if len(values) == 0:
        raise EmptyInputError("summary_stats needs at least one value")
    arr = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("summary_stats requires finite values")
    mean = float(np.mean(arr))
    cv: float | None = None
    if arr.size >= 2 and mean != 0.0:
        cv = float(np.std(arr, ddof=1)) / abs(mean)
    return SummaryStats(
        n=int(arr.size),
        min=float(np.min(arr)),
        median=float(np.median(arr)),
        mean=mean,
        max=float(np.max(arr)),
        cv=cv,
    )


# --- corpus metric tables -------------------------------------------------------

SCORE_METRICS = ("score_overall", "score_bw", "score_md")
METRIC_NAMES: tuple[str, ...] = SCORE_METRICS + tuple(p.value for p in Phase)

NORMALIZATIONS = ("raw", "per-node", "per-process")


def submission_scores(sub: Submission) -> dict[str, float]:
    """Reported scores when present, recomputed otherwise (where possible)."""
    out: dict[str, float] = {}
    recomputed = _recomputed(sub)
    reported = _reported(sub)
    for name in SCORE_METRICS:
        if reported[name] is not None:
            out[name] = float(reported[name])
        elif name in recomputed:
            out[name] = recomputed[name]
    return out


def metric_table(
    submissions: Sequence[Submission], normalize: str = "raw"
) -> tuple[list[str], np.ndarray]:
    """Build the submissions x metrics matrix used by stats and reporting.

    Missing values are NaN. A submission that lacks the count the
    normalization divides by has its row blanked, not the table, so each
    downstream analysis keeps every usable observation.
    """
    if normalize not in NORMALIZATIONS:
        raise ValueError(f"unknown normalization {normalize!r}")
    divide = {"raw": None, "per-node": per_node, "per-process": per_process}[normalize]
    names = list(METRIC_NAMES)
    column = {name: j for j, name in enumerate(names)}
    table = np.full((len(submissions), len(names)), np.nan)
    for row, sub in zip(table, submissions):
        for name, value in submission_scores(sub).items():
            row[column[name]] = value
        for phase, result in sub.phases.items():
            row[column[phase.value]] = result.value
        if divide is not None:
            try:
                row[:] = divide(row, sub.meta)
            except NormalizationError:
                row[:] = np.nan
    return names, table
