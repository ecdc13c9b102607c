"""Deterministic synthetic corpora: submissions with known ground truth.

All randomness flows from one 64-bit seed through counter-based Philox
streams (one derived key per submission), so a corpus is bit-identical
across runs and machines. Generated packages use exactly the on-disk
formats `ingest` reads, which lets end-to-end tests run without hand-built
fixtures.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any, Iterator, get_args

import numpy as np

from .config import override
from .errors import ConfigError
from .ingest import DEFAULT_COLUMN_MAP, META_FILENAME, SUMMARY_FILENAME, normalize_metadata
from .loginsight import Pattern
from .metrics import recompute_scores
from .types import (
    Filesystem,
    Phase,
    PhaseResult,
    ProcessTimingTable,
    Submission,
    SubmissionMeta,
)

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_key(seed: int, index: int) -> int:
    """Mix a corpus seed with an item index into an independent stream key."""
    return _splitmix64((seed & _MASK64) ^ _splitmix64(index & _MASK64))


def _rng(key: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=key))


# --- straggler placement models -----------------------------------------------
# Each model plants its pattern: place() draws the straggler ranks. The kind a
# config names is the pattern's name in lower case (see STRAGGLER_MODELS).


@dataclass
class NoStragglers:
    pattern = Pattern.NONE
    slow_factor: float = 1.0

    def place(self, n_ranks: int, rng: np.random.Generator) -> frozenset[int]:
        return frozenset()


@dataclass
class ContiguousStragglers:
    pattern = Pattern.CONTIGUOUS
    start: int | None = None  # None: random placement
    length: int = 5
    slow_factor: float = 3.0

    def __post_init__(self):
        if self.slow_factor <= 1.0:
            raise ConfigError("slow_factor must be > 1")
        if self.length < 1:
            raise ConfigError("length must be >= 1")

    def place(self, n_ranks: int, rng: np.random.Generator) -> frozenset[int]:
        if self.length >= n_ranks:
            raise ConfigError(f"{self.length} stragglers >= {n_ranks} ranks")
        start = self.start
        if start is None:
            start = int(rng.integers(0, n_ranks - self.length + 1))
        if start < 0 or start + self.length > n_ranks:
            raise ConfigError(f"contiguous run [{start}, {start + self.length}) out of range")
        return frozenset(range(start, start + self.length))


@dataclass
class ClusteredStragglers:
    pattern = Pattern.CLUSTERED
    n_clusters: int = 3
    cluster_size: int = 3
    slow_factor: float = 3.0

    def __post_init__(self):
        if self.slow_factor <= 1.0:
            raise ConfigError("slow_factor must be > 1")
        if self.n_clusters < 2 or self.cluster_size < 2:
            raise ConfigError("clustered model needs >= 2 clusters of size >= 2")

    def place(self, n_ranks: int, rng: np.random.Generator) -> frozenset[int]:
        total = self.n_clusters * self.cluster_size
        if total >= n_ranks:
            raise ConfigError(f"{total} stragglers >= {n_ranks} ranks")
        starts = _spaced_starts(rng, n_ranks, self.n_clusters, self.cluster_size)
        return frozenset(r for s in starts for r in range(s, s + self.cluster_size))


@dataclass
class DispersedStragglers:
    pattern = Pattern.DISPERSED
    count: int = 5
    slow_factor: float = 3.0

    def __post_init__(self):
        if self.slow_factor <= 1.0:
            raise ConfigError("slow_factor must be > 1")
        if self.count < 1:
            raise ConfigError("count must be >= 1")

    def place(self, n_ranks: int, rng: np.random.Generator) -> frozenset[int]:
        if self.count >= n_ranks:
            raise ConfigError(f"{self.count} stragglers >= {n_ranks} ranks")
        return frozenset(_spaced_starts(rng, n_ranks, self.count, 1))


StragglerModel = NoStragglers | ContiguousStragglers | ClusteredStragglers | DispersedStragglers
STRAGGLER_MODELS = {model.pattern.value.lower(): model for model in get_args(StragglerModel)}


def _spaced_starts(
    rng: np.random.Generator, n_ranks: int, n_blocks: int, block_len: int
) -> list[int]:
    """Random starts for n_blocks runs of block_len with >= 1 rank between runs."""
    slack = n_ranks - n_blocks * block_len - (n_blocks - 1)
    if slack < 0:
        raise ConfigError(
            f"straggler model needs {n_blocks * block_len + n_blocks - 1} ranks, "
            f"only {n_ranks} available"
        )
    offsets = np.sort(rng.integers(0, slack + 1, size=n_blocks))
    return [int(offsets[i]) + i * (block_len + 1) for i in range(n_blocks)]


# --- close-time and item-count models -------------------------------------------


@dataclass
class CloseModel:
    median_s: float = 1.0
    sigma: float = 0.8


DEFAULT_CLOSE_MODELS: dict[Filesystem, CloseModel] = {
    Filesystem.LUSTRE: CloseModel(5.0, 1.0),
    Filesystem.GPFS: CloseModel(2.0, 0.8),
    Filesystem.DAOS: CloseModel(0.01, 0.5),
    Filesystem.WEKAFS: CloseModel(1.0, 0.8),
    Filesystem.BEEGFS: CloseModel(2.0, 0.8),
    Filesystem.OTHER: CloseModel(1.0, 0.8),
}


def _r6(x: float) -> float:
    # All written numbers are quantized to 6 decimals so text round trips exactly.
    return round(float(x), 6)


def _r6_array(values: np.ndarray) -> np.ndarray:
    """Elementwise _r6: bit for bit what round(x, 6) returns, without a call per value.

    round(x, 6) is the double nearest k * 10**-6, where k is the integer
    nearest the exact product x * 10**6 (ties to even). Here s = x * 1e6 is
    that product rounded once, off by at most half an ulp of s. Where s lies
    more than one ulp (np.spacing) from every half-way point n + 1/2, the
    exact product is on the same side of each of them, so np.rint(s) is k.
    Below 2**52 that k is an exact double, and IEEE division by the exact
    1e6 gives the double nearest k * 10**-6: round's result. The rest (s
    within one ulp of a half-way point, |s| >= 2**52, non-finite values)
    takes Python's round. Plain np.rint(s) / 1e6 is not enough:
    3706.0896475 is stored just below ...6475, so round gives 3706.089647,
    but its product rounds up onto the half-way point and rint gives
    3706.089648.
    """
    values = np.asarray(values, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = values * 1e6
        k = np.rint(scaled)
        # scaled - k is exact below 2**52 (Sterbenz), and |scaled - k| <= 1/2.
        near_half = 0.5 - np.abs(scaled - k) <= np.spacing(np.abs(scaled))
        fallback = near_half | ~(np.abs(scaled) < 2.0**52)
    out = k / 1e6
    if fallback.any():
        out[fallback] = [round(x, 6) for x in values[fallback].tolist()]
    return out


def gen_timing(
    phase: Phase,
    n_ranks: int,
    stonewall_s: float,
    straggler: StragglerModel | None = None,
    close: CloseModel | None = None,
    seed: int = 0,
    items_skew: float | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[ProcessTimingTable, frozenset[int]]:
    """Generate one per-process timing table plus its true straggler set.

    Non-stragglers finish in a tight wear-down band just past the stonewall;
    stragglers run slow_factor times longer (within +-10%). Find-phase
    tables get Zipf-skewed item counts instead of a stonewall.
    """
    if n_ranks < 4:
        raise ConfigError(f"n_ranks must be >= 4, got {n_ranks}")
    if stonewall_s <= 0:
        raise ConfigError(f"stonewall_s must be > 0, got {stonewall_s}")
    if rng is None:
        rng = _rng(derive_key(seed, 0))
    model = straggler if straggler is not None else NoStragglers()
    true_set = model.place(n_ranks, rng)

    starts = rng.uniform(0.0, 1.0, size=n_ranks)
    closes = items = stonewall = None
    if phase is Phase.FIND:
        skew = items_skew if items_skew is not None else 1.3
        positions = rng.permutation(n_ranks)
        weights = (positions.astype(float) + 1.0) ** (-skew)
        weights /= float(np.median(weights))
        items = np.maximum(1, np.round(100_000.0 * weights)).astype(int)
        rate = rng.uniform(2000.0, 4000.0)  # items per second, shared scan rate
        runtimes = items / rate
        true_set = frozenset()  # placed all the same, so that the draws keep their order
    else:
        # Band floor 1.001 keeps runtimes above the stonewall even after the
        # 6-decimal quantization of start/end.
        factors = rng.uniform(1.001, 1.05, size=n_ranks)
        slow = rng.uniform(0.9, 1.1, size=n_ranks)
        slow_mask = np.isin(np.arange(n_ranks), list(true_set))
        runtimes = np.where(slow_mask, stonewall_s * model.slow_factor * slow, stonewall_s * factors)
        if close is not None:
            closes = rng.lognormal(mean=np.log(close.median_s), sigma=close.sigma, size=n_ranks)
            closes = _r6_array(np.minimum(closes, runtimes))
        stonewall = float(stonewall_s)
    table = ProcessTimingTable(
        phase=phase,
        rank=np.arange(n_ranks),
        start_s=_r6_array(starts),
        end_s=_r6_array(starts + runtimes),
        close_s=closes,
        items=items,
        stonewall_s=stonewall,
    )
    return table, true_set


# --- corpus generation ------------------------------------------------------------

# Per-node phase medians, roughly shaped like public submissions.
DEFAULT_PHASE_MEDIAN: dict[Phase, float] = {
    Phase.IOR_EASY_WRITE: 12.0,
    Phase.IOR_EASY_READ: 14.0,
    Phase.IOR_HARD_WRITE: 1.2,
    Phase.IOR_HARD_READ: 2.5,
    Phase.MDTEST_EASY_WRITE: 80.0,
    Phase.MDTEST_EASY_STAT: 200.0,
    Phase.MDTEST_EASY_DELETE: 60.0,
    Phase.MDTEST_HARD_WRITE: 30.0,
    Phase.MDTEST_HARD_STAT: 90.0,
    Phase.MDTEST_HARD_READ: 45.0,
    Phase.MDTEST_HARD_DELETE: 25.0,
    Phase.FIND: 150.0,
}

DEFAULT_FILESYSTEM_MIX: dict[Filesystem, float] = {
    Filesystem.LUSTRE: 27.0,
    Filesystem.GPFS: 12.0,
    Filesystem.DAOS: 10.0,
    Filesystem.WEKAFS: 7.0,
    Filesystem.BEEGFS: 3.0,
    Filesystem.OTHER: 2.0,
}

_FS_SPELLINGS: dict[Filesystem, tuple[str, ...]] = {
    Filesystem.LUSTRE: ("Lustre", "lustre", "Lustre 2.12"),
    Filesystem.GPFS: ("GPFS", "Spectrum Scale", "IBM Spectrum Scale"),
    Filesystem.DAOS: ("DAOS", "daos"),
    Filesystem.WEKAFS: ("WekaFS", "WekaIO"),
    Filesystem.BEEGFS: ("BeeGFS",),
    Filesystem.OTHER: ("CustomFS", "homegrown"),
}

_INTERCONNECTS: tuple[tuple[str, float], ...] = (
    ("IB HDR", 22.0),
    ("IB EDR", 18.0),
    ("Omni-Path", 11.0),
    ("100 Gb/s Ethernet", 5.0),
    ("unknown-net", 5.0),
)

_LIST_LABELS = ("ISC21", "SC21", "ISC22", "SC22")

TIMING_PHASES = (Phase.IOR_EASY_WRITE, Phase.IOR_HARD_WRITE, Phase.FIND)

# Ranks per timing table, node_range[1] * procs_per_node, at most: 32 times
# the benchmark's largest table (131,072 ranks). A rank costs about 36 bytes
# of CSV per table and synth peaks near 435 bytes per rank (columns of three
# tables, one table's cells as Python objects), so a corpus at the cap writes
# about 150 MB per table and needs about 2 GB.
MAX_RANKS_PER_TABLE = 2**22


@dataclass
class SynthConfig:
    seed: int = 0
    n_submissions: int = 61
    node_range: tuple[int, int] = (2, 32)
    procs_per_node: int = 8
    filesystem_mix: dict[Filesystem, float] = field(
        default_factory=lambda: dict(DEFAULT_FILESYSTEM_MIX)
    )
    phase_median: dict[Phase, float] = field(
        default_factory=lambda: dict(DEFAULT_PHASE_MEDIAN)
    )
    system_sigma: float = 1.0  # shared log-normal spread across a submission
    phase_sigma: float = 0.5  # independent per-phase log-normal spread
    hard_sigma_factor: float = 2.2  # extra spread for the *-hard phases
    # Network speed multiplier exponents, (gbps/100)^e per phase family: large
    # sequential I/O tracks the interconnect most directly, metadata barely.
    ior_easy_net_exp: float = 0.8
    ior_hard_net_exp: float = 0.3
    md_net_exp: float = 0.1
    straggler: StragglerModel = field(default_factory=NoStragglers)
    close_models: dict[Filesystem, CloseModel] = field(
        default_factory=lambda: dict(DEFAULT_CLOSE_MODELS)
    )
    pfind_skew: float = 1.3
    stonewall_s: float = 300.0
    cache_affected_fraction: float = 0.1
    generate_timing: bool = True

    def __post_init__(self):
        if self.n_submissions < 1:
            raise ConfigError("n_submissions must be >= 1")
        lo, hi = self.node_range
        if lo < 1 or hi < lo:
            raise ConfigError(f"invalid node_range {self.node_range}")
        if hi >= 2**63:  # node counts are drawn as int64
            raise ConfigError(f"node_range[1] must be below 2**63, got {hi}")
        if self.procs_per_node < 1:
            raise ConfigError("procs_per_node must be >= 1")
        if self.generate_timing and hi * self.procs_per_node > MAX_RANKS_PER_TABLE:
            raise ConfigError(
                f"node_range[1] * procs_per_node must be at most {MAX_RANKS_PER_TABLE} "
                f"ranks per timing table, got {hi} * {self.procs_per_node}"
            )
        weights = list(self.filesystem_mix.values())
        if any(w < 0 for w in weights) or sum(weights) <= 0:
            raise ConfigError("filesystem_mix weights must be nonnegative, not all zero")
        if self.system_sigma < 0 or self.phase_sigma < 0:
            raise ConfigError("sigmas must be >= 0")
        for fs, model in self.close_models.items():
            if not model.median_s > 0:
                raise ConfigError(f"close_models.{fs}.median_s must be > 0, got {model.median_s}")
            if model.sigma < 0:
                raise ConfigError(f"close_models.{fs}.sigma must be >= 0, got {model.sigma}")
        if not 0.0 <= self.cache_affected_fraction <= 1.0:
            raise ConfigError("cache_affected_fraction must be in [0, 1]")
        if self.pfind_skew <= 0:
            raise ConfigError("pfind_skew must be > 0")
        if self.stonewall_s <= 0:
            raise ConfigError("stonewall_s must be > 0")


def straggler_model_from_dict(spec: dict) -> StragglerModel:
    """The model of spec["kind"] (default "none"), its parameters typed by the
    model's defaults; a parameter whose default is null also takes null."""
    if not isinstance(spec, dict):
        raise ConfigError(f"synth config: straggler must be an object, got {json.dumps(spec)}")
    kind = spec.get("kind", "none")
    model = STRAGGLER_MODELS.get(kind) if isinstance(kind, str) else None
    if model is None:
        raise ConfigError(f"unknown straggler model kind {kind!r}")
    defaults = vars(model())
    params = {k: v for k, v in spec.items() if k != "kind" and not (v is None and defaults.get(k, 0) is None)}
    typed = override({k: 0 if v is None else v for k, v in defaults.items()}, params, "synth config", "straggler")
    return model(**{k: typed[k] for k in params})


# The maps as JSON. A given filesystem_mix replaces the default mix, a given
# phase median updates its phase, and a close model is typed by CloseModel().
_JSON_MAPS = {
    "filesystem_mix": {fs.value: weight for fs, weight in DEFAULT_FILESYSTEM_MIX.items()},
    "phase_median": {phase.value: median for phase, median in DEFAULT_PHASE_MEDIAN.items()},
    "close_models": {fs.value: asdict(CloseModel()) for fs in Filesystem},
}


def synth_config_from_dict(spec: dict) -> SynthConfig:
    """Build a SynthConfig from a JSON-shaped dict.

    The keys are SynthConfig's fields, each value typed by its default with
    the rule that types the pipeline config (config.override): node_range is
    a list of two integers, and the maps are keyed by filesystem or phase
    name. Anything else raises ConfigError.
    """
    unknown = sorted(set(spec) - {f.name for f in fields(SynthConfig)})
    if unknown:
        raise ConfigError(f"unknown synth config keys: {unknown}")
    defaults = {k: _JSON_MAPS.get(k, v) for k, v in vars(SynthConfig()).items() if k != "straggler"}
    typed = override(defaults, {k: v for k, v in spec.items() if k != "straggler"}, "synth config")
    mix, medians, closes = (typed.pop(k) for k in _JSON_MAPS)
    return SynthConfig(
        **typed,
        filesystem_mix={Filesystem(k): mix[k] for k in spec.get("filesystem_mix", mix)},
        phase_median={Phase(k): median for k, median in medians.items()},
        close_models={
            **DEFAULT_CLOSE_MODELS,
            **{Filesystem(k): CloseModel(**closes[k]) for k in spec.get("close_models", ())},
        },
        straggler=straggler_model_from_dict(spec.get("straggler", {})),
    )


@dataclass
class GeneratedSubmission:
    submission: Submission
    true_stragglers: dict[Phase, frozenset[int]]
    true_pattern: dict[Phase, Pattern]


def gen_corpus(config: SynthConfig) -> list[GeneratedSubmission]:
    """Generate a corpus; reported scores equal recomputed ones by construction."""
    fs_items = sorted(config.filesystem_mix.items(), key=lambda kv: kv[0].value)
    fs_choices = [fs for fs, _ in fs_items]
    fs_weights = np.asarray([w for _, w in fs_items], dtype=float)
    fs_weights /= fs_weights.sum()
    ic_names = [name for name, _ in _INTERCONNECTS]
    ic_weights = np.asarray([w for _, w in _INTERCONNECTS], dtype=float)
    ic_weights /= ic_weights.sum()

    out: list[GeneratedSubmission] = []
    for i in range(config.n_submissions):
        rng = _rng(derive_key(config.seed, i))
        nodes = int(rng.integers(config.node_range[0], config.node_range[1] + 1))
        ppn = config.procs_per_node
        fs = fs_choices[int(rng.choice(len(fs_choices), p=fs_weights))]
        fs_raw = _FS_SPELLINGS[fs][int(rng.integers(0, len(_FS_SPELLINGS[fs])))]
        ic_raw = ic_names[int(rng.choice(len(ic_names), p=ic_weights))]
        meta = normalize_metadata(
            {
                "submission_id": f"synth-{i:04d}",
                "list_label": _LIST_LABELS[int(rng.integers(0, len(_LIST_LABELS)))],
                "institution": f"site-{int(rng.integers(0, max(2, config.n_submissions // 4)))}",
                "filesystem": fs_raw,
                "interconnect": ic_raw,
                "client_nodes": nodes,
                "procs_per_node": ppn,
                "total_procs": nodes * ppn,
            }
        )

        quality = float(np.exp(config.system_sigma * rng.standard_normal()))
        values: dict[Phase, float] = {}
        for phase in Phase:
            sigma = config.phase_sigma
            if "hard" in phase.value:
                sigma *= config.hard_sigma_factor
            noise = float(np.exp(sigma * rng.standard_normal()))
            net = 1.0
            if meta.interconnect_gbps is not None:
                if phase.value.startswith("ior-easy"):
                    exp = config.ior_easy_net_exp
                elif phase.value.startswith("ior-hard"):
                    exp = config.ior_hard_net_exp
                else:
                    exp = config.md_net_exp
                net = (meta.interconnect_gbps / 100.0) ** exp
            values[phase] = _r6(config.phase_median[phase] * nodes * quality * noise * net)

        timing: dict[Phase, ProcessTimingTable] = {}
        true_stragglers: dict[Phase, frozenset[int]] = {}
        true_pattern: dict[Phase, Pattern] = {}
        if config.generate_timing:
            n_ranks = nodes * ppn
            for phase in TIMING_PHASES:
                model: StragglerModel
                if phase is Phase.IOR_HARD_WRITE:
                    model = config.straggler
                else:
                    model = NoStragglers()
                close = config.close_models.get(meta.filesystem_norm) if phase is not Phase.FIND else None
                table, truth = gen_timing(
                    phase,
                    n_ranks,
                    config.stonewall_s,
                    straggler=model,
                    close=close,
                    items_skew=config.pfind_skew,
                    rng=rng,
                )
                timing[phase] = table
                true_stragglers[phase] = truth
                true_pattern[phase] = model.pattern

        phases: dict[Phase, PhaseResult] = {}
        for phase in Phase:
            if phase in timing:
                runtime = float(np.max(timing[phase].runtime_s))
            elif phase.is_write:
                runtime = rng.uniform(config.stonewall_s + 1.0, config.stonewall_s + 200.0)
            elif phase.is_read_or_stat:
                if rng.random() < config.cache_affected_fraction:
                    runtime = rng.uniform(3.0, 9.5)
                else:
                    runtime = rng.uniform(15.0, 400.0)
            else:
                runtime = rng.uniform(10.0, 200.0)
            phases[phase] = PhaseResult(
                phase=phase, value=values[phase], unit=phase.unit, runtime_s=_r6(runtime)
            )

        sub = Submission(meta=meta, phases=phases, timing=timing)
        scores = recompute_scores(sub)
        sub.reported_score_bw = scores.score_bw
        sub.reported_score_md = scores.score_md
        sub.reported_score_overall = scores.score_overall
        out.append(
            GeneratedSubmission(
                submission=sub,
                true_stragglers=true_stragglers,
                true_pattern=true_pattern,
            )
        )
    return out


# --- on-disk corpus ---------------------------------------------------------------


def _summary_text(sub: Submission) -> str:
    lines = []
    for phase in Phase:
        result = sub.phases.get(phase)
        if result is None:
            continue
        lines.append(
            f"[RESULT] {phase.value} {result.value:.6f} {result.unit} "
            f": time {result.runtime_s:.6f} seconds"
        )
    lines.append(
        f"[SCORE ] Bandwidth {sub.reported_score_bw!r} GiB/s "
        f": IOPS {sub.reported_score_md!r} kiops "
        f": TOTAL {sub.reported_score_overall!r}"
    )
    return "\n".join(lines) + "\n"


# The raw metadata fields of meta.txt and repo.csv, in order, keyed as ingest
# reads them (DEFAULT_COLUMN_MAP's keys), each with the SubmissionMeta
# attribute that holds it.
_META_FIELDS = {
    "submission_id": "submission_id",
    "list_label": "list_label",
    "institution": "institution",
    "filesystem": "filesystem_raw",
    "interconnect": "interconnect_raw",
    "client_nodes": "client_nodes",
    "procs_per_node": "procs_per_node",
    "total_procs": "total_procs",
}


def _raw_meta(meta: SubmissionMeta) -> dict[str, Any]:
    """meta's raw fields by _META_FIELDS' keys; None where one is unset."""
    return {key: getattr(meta, attr) for key, attr in _META_FIELDS.items()}


def _meta_text(meta: SubmissionMeta) -> str:
    return "\n".join(f"{key} = {value}" for key, value in _raw_meta(meta).items() if value is not None) + "\n"


# Rows formatted at a time: one block's cells, never a whole table's, are alive at once.
_BLOCK_ROWS = 8192


def _timing_pieces(table: ProcessTimingTable) -> Iterator[str]:
    """A table's timing CSV in pieces: the comment and header lines, then
    _BLOCK_ROWS rows at a time."""
    # One %-format per block over its flat cells: "%d" is str() of an int and
    # "%.6f" is f"{x:.6f}". A column with gaps is written as strings, its gaps as "".
    # Each column: (values, format, the cells of a block of its values).
    columns = [
        (table.rank, "%d", np.ndarray.tolist),
        (table.start_s, "%.6f", np.ndarray.tolist),
        (table.end_s, "%.6f", np.ndarray.tolist),
    ]
    header = "rank,start,end"
    gaps = np.isnan(table.close_s)
    if not np.all(gaps):
        header += ",close"
        if np.any(gaps):
            columns.append((table.close_s, "%s", lambda part: ["" if x != x else f"{x:.6f}" for x in part.tolist()]))
        else:
            columns.append((table.close_s, "%.6f", np.ndarray.tolist))
    if table.items.count():
        header += ",items"
        if table.items.count() < table.n_ranks:
            columns.append((table.items, "%s", lambda part: ["" if x is None else str(x) for x in part.tolist()]))
        else:
            columns.append((table.items, "%d", lambda part: part.compressed().tolist()))
    comment = "" if table.stonewall_s is None else f"# stonewall_s = {table.stonewall_s:.6f}\n"
    yield comment + header + "\n"
    row = ",".join(fmt for _, fmt, _ in columns) + "\n"
    for at in range(0, table.n_ranks, _BLOCK_ROWS):
        n = min(_BLOCK_ROWS, table.n_ranks - at)
        cells: list = [None] * (n * len(columns))
        for j, (values, _, block_cells) in enumerate(columns):
            cells[j :: len(columns)] = block_cells(values[at : at + n])
        yield (row * n) % tuple(cells)


def _repo_csv_text(subs: list[Submission]) -> str:
    cmap = DEFAULT_COLUMN_MAP
    scores = ("score_overall", "score_bw", "score_md")
    header = [cmap[key] for key in (*_META_FIELDS, *scores)] + [cmap["phases"][p.value] for p in Phase]
    lines = [",".join(header)]
    for sub in subs:
        cells = ["" if value is None else str(value) for value in _raw_meta(sub.meta).values()]
        cells += [repr(getattr(sub, f"reported_{key}")) for key in scores]
        for phase in Phase:
            result = sub.phases.get(phase)
            cells.append("" if result is None else f"{result.value:.6f}")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def write_corpus(generated: list[GeneratedSubmission], outdir: str | Path) -> list[Path]:
    """Write package directories, a repo CSV, and a ground-truth sidecar.

    Returns the package directory paths in generation order.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    package_dirs: list[Path] = []
    truth: dict[str, dict] = {}
    for gen in generated:
        sub = gen.submission
        pkg = outdir / sub.meta.submission_id
        pkg.mkdir(parents=True, exist_ok=True)
        (pkg / SUMMARY_FILENAME).write_text(_summary_text(sub), encoding="utf-8", newline="\n")
        (pkg / META_FILENAME).write_text(_meta_text(sub.meta), encoding="utf-8", newline="\n")
        for phase, table in sub.timing.items():
            with (pkg / f"{phase.value}.csv").open("w", encoding="utf-8", newline="\n") as f:
                f.writelines(_timing_pieces(table))
        package_dirs.append(pkg)
        truth[sub.meta.submission_id] = {
            "stragglers": {
                phase.value: sorted(ranks) for phase, ranks in gen.true_stragglers.items()
            },
            "pattern": {phase.value: pat.value for phase, pat in gen.true_pattern.items()},
        }
    (outdir / "repo.csv").write_text(
        _repo_csv_text([g.submission for g in generated]), encoding="utf-8", newline="\n"
    )
    (outdir / "ground_truth.json").write_text(
        json.dumps({"format_version": 1, "submissions": truth}, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
        newline="\n",
    )
    return package_dirs
