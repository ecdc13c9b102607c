"""Per-process log analyses: cache flags, close-time overhead,
stonewall-relative ratios, straggler detection/classification, and
parallel-find load imbalance.

Straggler detection combines a Tukey fence (Q3 + k IQR over the stonewall
ratios) with an absolute ratio floor: a few percent of wear-down past the
stonewall is normal bulk-synchronous behavior and must not be flagged just
because the distribution is tight. Every threshold's default is a field of
`config.PipelineConfig` or `config.StragglerParams`.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .config import PipelineConfig, StragglerParams
from .errors import (
    DegenerateInputError,
    NotAvailableError,
    SampleSizeError,
)
from .metrics import SummaryStats, summary_stats
from .types import Phase, PhaseResult, ProcessTimingTable, Submission

class Pattern(str, Enum):
    NONE = "NONE"
    CONTIGUOUS = "CONTIGUOUS"
    CLUSTERED = "CLUSTERED"
    DISPERSED = "DISPERSED"

    def __str__(self):
        return self.value


def flag_cache_affected(
    phases: Iterable[PhaseResult], threshold_s: float = PipelineConfig.cache_threshold_s
) -> tuple[list[PhaseResult], list[str]]:
    """Mark read/stat phases whose runtime is under the caching threshold.

    Flagged phases stay in every analysis; the flag is an annotation, not an
    exclusion. Write phases are governed by the stonewall and never flagged.
    Returns the updated phase list and notes for phases lacking a runtime.
    """
    updated: list[PhaseResult] = []
    notes: list[str] = []
    for result in phases:
        if not result.phase.is_read_or_stat:
            updated.append(result)
            continue
        if result.runtime_s is None:
            notes.append(f"{result.phase}: no runtime recorded, cache flag left unset")
            updated.append(result)
            continue
        flag = result.runtime_s < threshold_s
        updated.append(dataclasses.replace(result, cache_flag=flag) if flag != result.cache_flag else result)
    return updated, notes


@dataclass
class CloseTimeReport:
    phase: Phase
    ranks: np.ndarray  # int64, the ranks with a close value
    close_s_per_rank: np.ndarray  # float64, aligned with ranks
    stats: SummaryStats
    fraction_of_runtime: np.ndarray  # float64 in [0, 1], aligned with ranks
    omitted_ranks: int = 0  # rows without a close value


def close_time_report(timing: ProcessTimingTable) -> CloseTimeReport:
    """Per-rank file-close durations and their share of each rank's runtime."""
    present = ~np.isnan(timing.close_s)
    closes = timing.close_s[present]
    if not closes.size:
        raise NotAvailableError(f"{timing.phase}: no close times recorded")
    runtime = timing.runtime_s[present]
    fractions = np.zeros(closes.size)
    np.divide(closes, runtime, out=fractions, where=runtime > 0)
    return CloseTimeReport(
        phase=timing.phase,
        ranks=timing.rank[present],
        close_s_per_rank=closes,
        stats=summary_stats(closes),
        fraction_of_runtime=np.clip(fractions, 0.0, 1.0),
        omitted_ranks=int(timing.n_ranks - closes.size),
    )


@dataclass
class StonewallRatios:
    phase: Phase
    stonewall_s: float
    ranks: np.ndarray  # int64, sorted
    ratios: np.ndarray  # float64, rank order, runtime / stonewall
    qq: np.ndarray  # (n, 2): rows (k/n, k-th smallest ratio), k = 1..n


def stonewall_ratios(
    timing: ProcessTimingTable, stonewall_s: float | None = None
) -> StonewallRatios:
    """Per-rank runtime/stonewall ratios plus sorted empirical quantile pairs.

    A ratio that overflows, under a stonewall of a few subnormal seconds,
    raises DegenerateInputError."""
    stonewall = stonewall_s if stonewall_s is not None else timing.stonewall_s
    if stonewall is None:
        raise NotAvailableError(
            f"{timing.phase}: timing table carries no stonewall duration; "
            f"pass stonewall_s={PipelineConfig.stonewall_nominal_s:g} explicitly to use the nominal value"
        )
    if stonewall <= 0:
        raise ValueError(f"stonewall_s must be > 0, got {stonewall}")
    n = timing.n_ranks
    if not n:
        raise SampleSizeError(f"{timing.phase}: timing table has no rows")
    with np.errstate(over="ignore"):
        ratios = timing.runtime_s / stonewall
    bad = ~np.isfinite(ratios)
    if np.any(bad):
        rank = int(timing.rank[np.argmax(bad)])
        raise DegenerateInputError(
            f"{timing.phase}: runtime / stonewall overflows a float at rank {rank} (stonewall_s = {stonewall})"
        )
    return StonewallRatios(
        phase=timing.phase,
        stonewall_s=stonewall,
        ranks=timing.rank,
        ratios=ratios,
        qq=np.column_stack((np.arange(1, n + 1) / n, np.sort(ratios))),
    )


def detect_stragglers(
    ratios: Sequence[float],
    ranks: Sequence[int] | None = None,
    params: StragglerParams = StragglerParams(),
) -> set[int]:
    """Ranks whose ratio exceeds Q3 + params.iqr_multiplier * IQR and
    params.ratio_floor.

    Both conditions must hold; a ratio_floor of 0 tests the fence alone,
    since no stonewall ratio is negative. Needs at least 4 observations for
    the quartiles to mean anything.
    """
    arr = np.asarray(ratios, dtype=float)
    if arr.ndim != 1 or not np.all(np.isfinite(arr)):
        raise ValueError("ratios must be a finite 1-d sequence")
    if arr.size < 4:
        raise SampleSizeError(f"straggler detection needs n >= 4, got {arr.size}")
    if ranks is None:
        ranks = np.arange(arr.size)
    elif len(ranks) != arr.size:
        raise ValueError("ranks and ratios must have equal length")
    q1, q3 = np.percentile(arr, [25.0, 75.0])
    fence = q3 + params.iqr_multiplier * (q3 - q1)
    return set(np.asarray(ranks)[(arr > fence) & (arr >= params.ratio_floor)].tolist())


@dataclass
class PatternResult:
    pattern: Pattern
    adjacency_index: float
    run_count: int


def classify_straggler_pattern(
    stragglers: Iterable[int],
    n_ranks: int,
    params: StragglerParams = StragglerParams(),
) -> PatternResult:
    """Label the rank-space arrangement of a straggler set by the pattern
    rules of `params`.

    CONTIGUOUS when one run covers nearly all stragglers, CLUSTERED when two
    or more multi-rank runs cover most of them, DISPERSED otherwise; sets
    below the minimum size, and the empty set whatever that size, are NONE.

    Runs are counted in rank space, not in table rows: a rank missing from
    the timing table (never written, or rejected at parse time) splits the
    run around it, so a contiguous block with a gap is two runs.
    """
    ranks = sorted({int(r) for r in stragglers})
    outside = next((r for r in ranks if not 0 <= r < n_ranks), None)
    if outside is not None:
        raise ValueError(f"straggler rank {outside} outside [0, {n_ranks})")
    s = len(ranks)
    # The ranks lie in [0, n_ranks), so they fit int64 whenever n_ranks does.
    column = np.array(ranks, dtype=np.int64 if n_ranks <= 2**63 else object)
    # A run starts at each rank that does not follow the one before it; the
    # first rank is >= 0, so the -2 put before it always starts one.
    starts = np.flatnonzero(np.diff(column, prepend=-2) != 1)
    run_lengths = np.diff(starts, append=s)
    run_count = starts.size
    adjacency = (s - run_count) / (s - 1) if s >= 2 else 0.0
    if s == 0 or s < params.min_pattern_size:
        return PatternResult(Pattern.NONE, adjacency, run_count)
    if run_lengths.max() >= params.contiguous_fraction * s:
        return PatternResult(Pattern.CONTIGUOUS, adjacency, run_count)
    multi = run_lengths[run_lengths >= params.min_run_length]
    if multi.size >= 2 and multi.sum() >= params.clustered_fraction * s:
        return PatternResult(Pattern.CLUSTERED, adjacency, run_count)
    return PatternResult(Pattern.DISPERSED, adjacency, run_count)


@dataclass
class StragglerReport(StonewallRatios):
    """A table's stonewall ratios with its stragglers and their classification."""

    straggler_ranks: set[int]
    pattern: Pattern
    adjacency_index: float
    run_count: int


def straggler_report(
    timing: ProcessTimingTable,
    params: StragglerParams = StragglerParams(),
    stonewall_s: float | None = None,
) -> StragglerReport:
    """Full stonewall-relative straggler analysis for one timing table."""
    ratios = stonewall_ratios(timing, stonewall_s=stonewall_s)
    stragglers = detect_stragglers(ratios.ratios, timing.rank, params)
    result = classify_straggler_pattern(stragglers, int(timing.rank[-1]) + 1, params)
    return StragglerReport(**vars(ratios), straggler_ranks=stragglers, **vars(result))


def gini(counts: Sequence[float]) -> float:
    """Gini coefficient in the mean-absolute-difference form.

    Computed via the sorted-rank identity, which is algebraically equal to
    sum |x_i - x_j| / (2 n^2 mean) but O(n log n).
    """
    arr = np.sort(np.asarray(counts, dtype=float))
    if arr.size == 0:
        raise ValueError("gini needs at least one count")
    if np.any(arr < 0):
        raise ValueError("gini requires nonnegative counts")
    total = float(np.sum(arr))
    if total == 0.0:
        raise DegenerateInputError("all counts are zero")
    n = arr.size
    index = np.arange(1, n + 1, dtype=float)
    return float((2.0 * np.sum(index * arr) - (n + 1) * total) / (n * total))


@dataclass
class ImbalanceReport:
    phase: Phase
    ranks: np.ndarray  # int64, the ranks with an item count
    items_per_rank: np.ndarray  # int64, aligned with ranks
    max_over_median: float  # inf when the median is zero but the max is not
    gini: float
    omitted_ranks: int = 0


def pfind_imbalance(timing: ProcessTimingTable) -> ImbalanceReport:
    """Item-count imbalance across find processes."""
    present = ~np.ma.getmaskarray(timing.items)
    items = timing.items.data[present]
    if not items.size:
        raise NotAvailableError(f"{timing.phase}: no item counts recorded")
    if items.size < 2:
        raise SampleSizeError(f"{timing.phase}: imbalance needs n >= 2 ranks with items")
    arr = items.astype(float)
    if not np.any(arr > 0):
        raise DegenerateInputError(f"{timing.phase}: all item counts are zero")
    median = float(np.median(arr))
    max_over_median = float(np.max(arr)) / median if median > 0 else math.inf
    return ImbalanceReport(
        phase=timing.phase,
        ranks=timing.rank[present],
        items_per_rank=items,
        max_over_median=max_over_median,
        gini=gini(arr),
        omitted_ranks=int(timing.n_ranks - items.size),
    )


@dataclass
class StonewallViolation:
    submission_id: str
    phase: Phase
    runtime_s: float


@dataclass
class RuntimeDistribution:
    per_phase: dict[Phase, SummaryStats]
    runtimes: dict[Phase, list[float]]  # the values summarized in per_phase, same order
    violations: list[StonewallViolation] = field(default_factory=list)


def runtime_distribution(
    submissions: Sequence[Submission],
    stonewall_nominal_s: float = PipelineConfig.stonewall_nominal_s,
    tolerance_s: float = PipelineConfig.stonewall_tolerance_s,
) -> RuntimeDistribution:
    """Per-phase runtimes and their summaries, plus stonewall-compliance violations.

    A write phase finishing more than tolerance_s below the nominal
    stonewall is listed as a violation (it can never legitimately happen,
    since writes must run at least the stonewall duration).
    """
    runtimes: dict[Phase, list[float]] = {}
    violations: list[StonewallViolation] = []
    for sub in submissions:
        for phase, result in sub.phases.items():
            if result.runtime_s is None:
                continue
            runtimes.setdefault(phase, []).append(result.runtime_s)
            if phase.is_write and result.runtime_s < stonewall_nominal_s - tolerance_s:
                violations.append(
                    StonewallViolation(
                        submission_id=sub.meta.submission_id,
                        phase=phase,
                        runtime_s=result.runtime_s,
                    )
                )
    runtimes = dict(sorted(runtimes.items(), key=lambda kv: kv[0].value))
    per_phase = {phase: summary_stats(values) for phase, values in runtimes.items()}
    return RuntimeDistribution(per_phase=per_phase, runtimes=runtimes, violations=violations)
