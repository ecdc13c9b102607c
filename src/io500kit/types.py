"""Core domain records: benchmark phases, submission metadata, timing tables.

These are plain dataclasses with no behavior beyond construction-time
validation; timing tables hold numpy columns. Parsing lives in `ingest`,
math in `metrics`/`stats`/`loginsight`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ValidationError


class Phase(str, Enum):
    """The twelve IO500 benchmark phases."""

    IOR_EASY_WRITE = "ior-easy-write"
    IOR_EASY_READ = "ior-easy-read"
    IOR_HARD_WRITE = "ior-hard-write"
    IOR_HARD_READ = "ior-hard-read"
    MDTEST_EASY_WRITE = "mdtest-easy-write"
    MDTEST_EASY_STAT = "mdtest-easy-stat"
    MDTEST_EASY_DELETE = "mdtest-easy-delete"
    MDTEST_HARD_WRITE = "mdtest-hard-write"
    MDTEST_HARD_STAT = "mdtest-hard-stat"
    MDTEST_HARD_READ = "mdtest-hard-read"
    MDTEST_HARD_DELETE = "mdtest-hard-delete"
    FIND = "find"

    def __str__(self):
        return self.value

    @property
    def unit(self) -> str:
        """IOR phases report GiB/s, metadata and find phases kIOPS."""
        return "GiB/s" if self.value.startswith("ior-") else "kIOPS"

    @property
    def is_write(self) -> bool:
        return self.value.endswith("-write")

    @property
    def is_read_or_stat(self) -> bool:
        return self.value.endswith(("-read", "-stat"))


# Phases entering the bandwidth composite (4th-root geometric mean).
BW_SCORE_PHASES = (
    Phase.IOR_EASY_WRITE,
    Phase.IOR_EASY_READ,
    Phase.IOR_HARD_WRITE,
    Phase.IOR_HARD_READ,
)

# Phases entering the metadata composite (5th-root geometric mean).
# Delete and read metadata phases are recorded but do not score.
MD_SCORE_PHASES = (
    Phase.MDTEST_EASY_WRITE,
    Phase.MDTEST_EASY_STAT,
    Phase.MDTEST_HARD_WRITE,
    Phase.MDTEST_HARD_STAT,
    Phase.FIND,
)


class Filesystem(str, Enum):
    LUSTRE = "lustre"
    GPFS = "gpfs-spectrumscale"
    DAOS = "daos"
    WEKAFS = "wekafs"
    BEEGFS = "beegfs"
    OTHER = "other"

    def __str__(self):
        return self.value


LIST_LABELS = ("ISC21", "SC21", "ISC22", "SC22", "other")


@dataclass
class SubmissionMeta:
    submission_id: str
    list_label: str = "other"
    institution: str | None = None
    filesystem_raw: str = ""
    filesystem_norm: Filesystem = Filesystem.OTHER
    interconnect_raw: str = ""
    interconnect_gbps: float | None = None
    nic_count_reported: int | None = None
    client_nodes: int = 1
    procs_per_node: int | None = None
    total_procs: int | None = None

    def __post_init__(self):
        if self.client_nodes < 1:
            raise ValidationError(f"client_nodes must be >= 1, got {self.client_nodes}")
        if self.total_procs is not None and self.total_procs < self.client_nodes:
            raise ValidationError(
                f"total_procs ({self.total_procs}) < client_nodes ({self.client_nodes})"
            )
        if self.interconnect_gbps is not None and self.interconnect_gbps <= 0:
            raise ValidationError("interconnect_gbps must be > 0 when set")
        if self.list_label not in LIST_LABELS:
            raise ValidationError(f"unknown list label {self.list_label!r}")


@dataclass
class PhaseResult:
    phase: Phase
    value: float
    unit: str
    runtime_s: float | None = None
    cache_flag: bool = False

    def __post_init__(self):
        if self.value < 0:
            raise ValidationError(f"{self.phase}: value must be >= 0, got {self.value}")
        if self.unit != self.phase.unit:
            raise ValidationError(
                f"{self.phase}: unit {self.unit!r} does not match expected {self.phase.unit!r}"
            )
        if self.runtime_s is not None and self.runtime_s < 0:
            raise ValidationError(f"{self.phase}: runtime_s must be >= 0")


def _first(mask: np.ndarray) -> int:
    return int(np.flatnonzero(mask)[0])


@dataclass(eq=False)
class ProcessTimingTable:
    """Per-process timing for one phase, one numpy column per field.

    `rank` is int64, sorted and unique; `start_s`, `end_s` and `close_s` are
    float64, with NaN marking an absent close time; `items` is an int64
    masked array, masked where a rank reports no item count. The constructor
    converts its arguments to these columns (sorting by rank when needed)
    and is the one place the table invariants are checked.
    """

    phase: Phase
    rank: np.ndarray
    start_s: np.ndarray
    end_s: np.ndarray
    close_s: np.ndarray | None = None
    items: np.ma.MaskedArray | None = None
    stonewall_s: float | None = None

    def __post_init__(self):
        if self.stonewall_s is not None and not self.stonewall_s > 0:
            raise ValidationError(f"stonewall_s must be > 0, got {self.stonewall_s}")
        rank = np.asarray(self.rank, dtype=np.int64)
        start = np.asarray(self.start_s, dtype=np.float64)
        end = np.asarray(self.end_s, dtype=np.float64)
        n = rank.size
        close = np.full(n, np.nan) if self.close_s is None else np.asarray(self.close_s, dtype=np.float64)
        if self.items is None:
            items = np.ma.MaskedArray(np.zeros(n, dtype=np.int64), mask=np.ones(n, dtype=bool))
        else:
            items = np.ma.MaskedArray(self.items, dtype=np.int64)
        if any(col.shape != (n,) for col in (rank, start, end, close, items)):
            raise ValidationError("timing columns must be 1-d and of equal length")
        if n and not np.all(rank[1:] > rank[:-1]):
            order = np.argsort(rank, kind="stable")
            rank, start, end, close, items = (col[order] for col in (rank, start, end, close, items))
            dupes = rank[1:] == rank[:-1]
            if np.any(dupes):
                raise ValidationError(f"duplicate ranks: {np.unique(rank[1:][dupes]).tolist()}")
        if not (np.all(np.isfinite(start)) and np.all(np.isfinite(end))) or np.any(np.isinf(close)):
            raise ValidationError("start, end and close times must be finite")
        if n and rank[0] < 0:
            raise ValidationError(f"rank must be >= 0, got {rank[0]}")
        bad = end < start
        if np.any(bad):
            i = _first(bad)
            raise ValidationError(f"rank {rank[i]}: end {end[i]} < start {start[i]}")
        with np.errstate(over="ignore"):
            bad = ~np.isfinite(end - start)
        if np.any(bad):
            i = _first(bad)
            raise ValidationError(f"rank {rank[i]}: runtime end {end[i]} - start {start[i]} overflows a float")
        bad = close < 0
        if np.any(bad):
            raise ValidationError(f"rank {rank[_first(bad)]}: close_s must be >= 0")
        bad = items.filled(0) < 0
        if np.any(bad):
            raise ValidationError(f"rank {rank[_first(bad)]}: items must be >= 0")
        self.rank, self.start_s, self.end_s, self.close_s, self.items = rank, start, end, close, items

    def __eq__(self, other):
        if not isinstance(other, ProcessTimingTable):
            return NotImplemented
        return (
            self.phase == other.phase
            and self.stonewall_s == other.stonewall_s
            and np.array_equal(self.rank, other.rank)
            and np.array_equal(self.start_s, other.start_s)
            and np.array_equal(self.end_s, other.end_s)
            and np.array_equal(self.close_s, other.close_s, equal_nan=True)
            and np.array_equal(np.ma.getmaskarray(self.items), np.ma.getmaskarray(other.items))
            and np.array_equal(self.items.filled(0), other.items.filled(0))
        )

    @property
    def rows(self) -> np.ndarray:
        """The rank column: `len(table.rows)` counts the table's ranks."""
        return self.rank

    @property
    def n_ranks(self) -> int:
        return self.rank.size

    @property
    def runtime_s(self) -> np.ndarray:
        return self.end_s - self.start_s


@dataclass
class Submission:
    meta: SubmissionMeta
    phases: dict[Phase, PhaseResult] = field(default_factory=dict)
    reported_score_bw: float | None = None
    reported_score_md: float | None = None
    reported_score_overall: float | None = None
    timing: dict[Phase, ProcessTimingTable] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)

    def __post_init__(self):
        for phase, result in self.phases.items():
            if result.phase != phase:
                raise ValidationError(f"phase map key {phase} holds result for {result.phase}")
