"""Parsers for submission packages, per-process timing CSVs, and repository
CSV exports, plus metadata normalization and the manifest interchange format.

All parse functions are pure functions of their input text. Nothing here is
silently dropped: skipped rows and tolerated oddities are returned as
warnings or skip records alongside the parsed data.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import math
import operator
import re
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, Collection, Iterator, Mapping, get_args, get_type_hints

import numpy as np

from .config import read_json_object
from .errors import (
    ConfigError,
    EmptyInputError,
    LoadError,
    ParseError,
    SchemaError,
    ValidationError,
)
from .types import (
    LIST_LABELS,
    Filesystem,
    Phase,
    PhaseResult,
    ProcessTimingTable,
    Submission,
    SubmissionMeta,
)

MANIFEST_FORMAT_VERSION = 3

SUMMARY_FILENAME = "result_summary.txt"
META_FILENAME = "meta.txt"

_RESULT_RE = re.compile(
    r"^\s*\[RESULT\]\s+(?P<phase>\S+)\s+(?P<value>\S+)\s+(?P<unit>\S+)"
    r"\s*:\s*time\s+(?P<time>\S+)\s+seconds\s*$"
)
_SCORE_RE = re.compile(
    r"^\s*\[SCORE\s*\]\s+Bandwidth\s+(?P<bw>\S+)\s+(?:GiB/s|GB/s)"
    r"\s*:\s*IOPS\s+(?P<md>\S+)\s+kiops"
    r"\s*:\s*TOTAL\s+(?P<total>\S+)\s*$",
    re.IGNORECASE,
)


@dataclass
class ParsedSummary:
    phases: list[PhaseResult]
    reported_score_bw: float | None = None
    reported_score_md: float | None = None
    reported_score_overall: float | None = None
    warnings: list[str] = field(default_factory=list)


def _parse_float(token: str, what: str, line_no: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"malformed {what} {token!r}", line=line_no) from None
    if value != value or value in (float("inf"), float("-inf")):
        raise ParseError(f"non-finite {what} {token!r}", line=line_no)
    return value


def parse_result_summary(text: str) -> ParsedSummary:
    """Parse an IO500 result summary.

    Recognizes `[RESULT] <phase> <value> <unit> : time <t> seconds` and
    `[SCORE] Bandwidth <v> GiB/s : IOPS <v> kiops : TOTAL <v>` lines; phase
    names may use `-` or `_` separators, and `GB/s` is accepted as a legacy
    spelling of `GiB/s` (recorded with a warning). All other lines are
    skipped.
    """
    parsed = ParsedSummary(phases=[])
    seen: dict[Phase, int] = {}
    score_line: int | None = None
    for line_no, line in enumerate(text.splitlines(), start=1):
        m = _RESULT_RE.match(line)
        if m:
            name = m.group("phase").lower().replace("_", "-")
            try:
                phase = Phase(name)
            except ValueError:
                parsed.warnings.append(
                    f"line {line_no}: unrecognized phase name {m.group('phase')!r}, skipped"
                )
                continue
            if phase in seen:
                raise ParseError(
                    f"duplicate phase {phase} (first seen on line {seen[phase]})",
                    line=line_no,
                )
            value = _parse_float(m.group("value"), "value", line_no)
            runtime = _parse_float(m.group("time"), "time", line_no)
            unit = _normalize_unit(m.group("unit"), phase, line_no, parsed.warnings)
            seen[phase] = line_no
            parsed.phases.append(
                PhaseResult(phase=phase, value=value, unit=unit, runtime_s=runtime)
            )
            continue
        m = _SCORE_RE.match(line)
        if m:
            if score_line is not None:
                raise ParseError(
                    f"duplicate score line (first seen on line {score_line})", line=line_no
                )
            score_line = line_no
            parsed.reported_score_bw = _parse_float(m.group("bw"), "bandwidth score", line_no)
            parsed.reported_score_md = _parse_float(m.group("md"), "IOPS score", line_no)
            parsed.reported_score_overall = _parse_float(m.group("total"), "total score", line_no)
    if not parsed.phases and score_line is None:
        raise EmptyInputError("no RESULT or SCORE lines found in summary")
    return parsed


def _normalize_unit(token: str, phase: Phase, line_no: int, warnings: list[str]) -> str:
    if token == "GiB/s":
        unit = "GiB/s"
    elif token == "GB/s":
        warnings.append(f"line {line_no}: unit GB/s recorded as GiB/s for {phase}")
        unit = "GiB/s"
    elif token.lower() == "kiops":
        unit = "kIOPS"
    else:
        raise ParseError(f"unknown unit {token!r} for {phase}", line=line_no)
    if unit != phase.unit:
        raise ParseError(f"unit {token!r} does not match {phase} ({phase.unit})", line=line_no)
    return unit


def parse_process_timing(text: str, phase: Phase) -> tuple[ProcessTimingTable, list[str]]:
    """Parse a per-process timing CSV for one phase.

    Expects a header with at least `rank,start,end`; `close` and `items` are
    optional and extra columns are ignored. Leading `# key = value` comment
    lines may carry `stonewall_s`. Rows violating end >= start (or with
    negative close/items) are rejected individually and reported in the
    returned warnings; duplicate ranks are a hard error.

    The data lines are converted a column at a time, in chunks of
    _CHUNK_ROWS lines. Only when a cell fails to convert or a rank repeats
    are the lines checked one at a time, to raise the error for the first
    offending line.
    """
    stonewall_s, width, col, body, first_line = _timing_layout(text, phase)
    parsed = _timing_columns(body, width, col, phase)
    if parsed is None:
        _raise_first_bad_line(body, first_line, width, col, phase)
    columns, warnings = parsed
    return ProcessTimingTable(phase=phase, stonewall_s=stonewall_s, **columns), warnings


def _timing_layout(text: str, phase: Phase):
    """Stonewall, header width, column index, data lines and the first data line's number."""
    stonewall_s: float | None = None
    lines = text.splitlines()
    idx = 0
    while idx < len(lines) and (not lines[idx].strip() or lines[idx].lstrip().startswith("#")):
        stripped = lines[idx].lstrip()
        if stripped.startswith("#"):
            m = re.match(r"#\s*(stonewall(?:_s)?)\s*[:=]\s*(\S+)", stripped)
            if m:
                stonewall_s = _parse_float(m.group(2), "stonewall", idx + 1)
        idx += 1
    if idx >= len(lines):
        raise SchemaError(f"{phase}: timing CSV has no header")
    header = [h.strip().lower() for h in lines[idx].split(",")]
    missing = [col for col in ("rank", "start", "end") if col not in header]
    if missing:
        raise SchemaError(
            f"{phase}: missing required columns {missing}; found {header}"
        )
    col = {name: header.index(name) for name in header}
    return stonewall_s, len(header), col, lines[idx + 1 :], idx + 2


_INT64_BOUND = 2.0**63
_count_commas = operator.methodcaller("count", ",")


def _optional_floats(cells: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Values of an optional column (NaN where blank) and its blank-cell mask."""
    n = len(cells)
    try:
        return np.fromiter(map(float, cells), np.float64, n), np.zeros(n, dtype=bool)
    except ValueError:
        stripped = [c.strip() for c in cells]
        values = np.fromiter((float(c) if c else np.nan for c in stripped), np.float64, n)
        return values, np.fromiter((not c for c in stripped), bool, n)


# Data lines converted at a time: the cell strings of one chunk, never of a
# whole table, are alive at once.
_CHUNK_ROWS = 8192


def _chunk_columns(lines: list[str], width: int, col: dict[str, int]):
    """The number columns of some data lines, by name (an optional column also
    gives its blank-cell mask as `no_<name>`), or None when a cell does not convert."""
    if any("#" in line for line in lines) or set(map(_count_commas, lines)) != {width - 1}:
        # Drop blank and comment lines and cut extra cells, so that every line has width cells.
        cells = [
            line.split(",") for line in lines if line.strip() and not line.lstrip().startswith("#")
        ]
        if any(len(row) < width for row in cells):
            return None
        lines = [",".join(row[:width]) for row in cells]
    n = len(lines)
    flat = ",".join(lines).split(",") if n else []

    def column(name: str) -> list[str]:
        return flat[col[name] :: width]

    try:
        chunk = {
            "rank": np.fromiter(map(int, column("rank")), np.int64, n),
            "start": np.fromiter(map(float, column("start")), np.float64, n),
            "end": np.fromiter(map(float, column("end")), np.float64, n),
        }
        for name in ("close", "items"):
            if name in col:
                chunk[name], chunk[f"no_{name}"] = _optional_floats(column(name))
    except (ValueError, OverflowError):
        return None
    return chunk


def _timing_columns(body: list[str], width: int, col: dict[str, int], phase: Phase):
    """Whole-column conversion of the data lines, _CHUNK_ROWS lines at a time:
    (columns, warnings), or None when some cell does not convert or a rank repeats."""
    chunks = []
    for at in range(0, max(len(body), 1), _CHUNK_ROWS):
        chunk = _chunk_columns(body[at : at + _CHUNK_ROWS], width, col)
        if chunk is None:
            return None
        chunks.append(chunk)
    joined = {name: np.concatenate([chunk[name] for chunk in chunks]) for name in chunks[0]}
    del chunks
    rank, start, end = joined["rank"], joined["start"], joined["end"]
    close, no_close = joined.get("close"), joined.get("no_close")
    items, no_items = joined.get("items"), joined.get("no_items")
    n = len(rank)
    if not (np.all(np.isfinite(start)) and np.all(np.isfinite(end))):
        return None
    if close is not None and not np.all(np.isfinite(close) | no_close):
        return None
    if items is not None:
        if not np.all((np.abs(items) < _INT64_BOUND) | no_items):
            return None
        items = np.ma.MaskedArray(np.where(no_items, 0.0, items).astype(np.int64), mask=no_items)
    ordered = np.sort(rank)
    if np.any(ordered[1:] == ordered[:-1]):
        return None

    # A row is rejected for the first of these that holds, in this order.
    reasons = [end < start, rank < 0]
    reasons.append(np.zeros(n, dtype=bool) if close is None else close < 0)
    reasons.append(np.zeros(n, dtype=bool) if items is None else items.filled(0) < 0)
    rejected = np.logical_or.reduce(reasons)
    warnings = []
    for i in np.flatnonzero(rejected).tolist():
        r = int(rank[i])
        if reasons[0][i]:
            warnings.append(f"{phase}: rank {r} rejected (end {float(end[i])} < start {float(start[i])})")
        elif reasons[1][i]:
            warnings.append(f"{phase}: rank {r} rejected (negative rank)")
        elif reasons[2][i]:
            warnings.append(f"{phase}: rank {r} rejected (negative close {float(close[i])})")
        else:
            warnings.append(f"{phase}: rank {r} rejected (negative items {int(items[i])})")
    keep = ~rejected
    columns = {
        "rank": rank[keep],
        "start_s": start[keep],
        "end_s": end[keep],
        "close_s": None if close is None else close[keep],
        "items": None if items is None else items[keep],
    }
    return columns, warnings


def _raise_first_bad_line(body: list[str], first_line: int, width: int, col: dict[str, int], phase: Phase):
    """Raise the error of the earliest data line whose cells do not convert or
    whose rank repeats, scanning from the first: the checks of a row-by-row
    parse, in its order. Called only when the column conversion has failed."""
    seen_ranks: set[int] = set()
    for line_no, line in enumerate(body, start=first_line):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        cells = [c.strip() for c in line.split(",")]
        if len(cells) < width:
            raise ParseError(
                f"{phase}: expected {width} cells, got {len(cells)}", line=line_no
            )
        try:
            rank = int(cells[col["rank"]])
        except ValueError:
            rank = None
        if rank is None or not -_INT64_BOUND <= rank < _INT64_BOUND:
            raise ParseError(f"{phase}: malformed rank {cells[col['rank']]!r}", line=line_no)
        _parse_float(cells[col["start"]], "start", line_no)
        _parse_float(cells[col["end"]], "end", line_no)
        if "close" in col and cells[col["close"]] != "":
            _parse_float(cells[col["close"]], "close", line_no)
        if "items" in col and cells[col["items"]] != "":
            try:
                value = float(cells[col["items"]])
            except ValueError:
                value = math.nan
            if not abs(value) < _INT64_BOUND:  # also false for NaN
                raise ParseError(f"{phase}: malformed items {cells[col['items']]!r}", line=line_no)
        if rank in seen_ranks:
            raise ValidationError(f"{phase}: duplicate rank {rank} on line {line_no}")
        seen_ranks.add(rank)
    raise ParseError(f"{phase}: timing columns do not convert, yet no line is at fault")


# --- metadata normalization -------------------------------------------------

# Case-insensitive substring rules, first match wins; they also catch
# version-suffixed spellings like "Lustre 2.12".
_FS_SUBSTRINGS = (
    ("lustre", Filesystem.LUSTRE),
    ("gpfs", Filesystem.GPFS),
    ("spectrum", Filesystem.GPFS),
    ("storage scale", Filesystem.GPFS),
    ("daos", Filesystem.DAOS),
    ("weka", Filesystem.WEKAFS),
    ("beegfs", Filesystem.BEEGFS),
)

# Link-generation names mapped to nominal Gb/s. HDR100 must precede HDR.
_IC_SPEEDS = (
    ("hdr100", 100.0),
    ("hdr-100", 100.0),
    ("ndr", 400.0),
    ("hdr", 200.0),
    ("edr", 100.0),
    ("fdr", 56.0),
    ("qdr", 40.0),
    ("omni-path", 100.0),
    ("omnipath", 100.0),
    ("opa", 100.0),
)

_IC_EXPLICIT_RE = re.compile(r"(\d+(?:\.\d+)?)\s*(?:gb/s|gbps|gbit/s|gbit)", re.IGNORECASE)


def normalize_filesystem(raw: str) -> Filesystem:
    """Map a self-reported filesystem name onto the canonical set (total)."""
    key = raw.strip().lower()
    for fragment, fs in _FS_SUBSTRINGS:
        if fragment in key:
            return fs
    return Filesystem.OTHER


def normalize_interconnect(raw: str) -> float | None:
    """Map a self-reported interconnect string to nominal Gb/s, or None."""
    key = raw.strip().lower()
    if not key:
        return None
    m = _IC_EXPLICIT_RE.search(key)
    if m:
        speed = float(m.group(1))  # inf for a run of hundreds of digits
        return speed if 0 < speed < math.inf else None
    for fragment, speed in _IC_SPEEDS:
        if fragment in key:
            return speed
    return None


def normalize_list_label(raw: str) -> str:
    key = raw.strip().upper()
    return key if key in LIST_LABELS else "other"


def interconnect_class(meta: SubmissionMeta) -> str:
    """Grouping label for interconnect speed ("200 Gb/s", ..., "unknown")."""
    if meta.interconnect_gbps is None:
        return "unknown"
    return f"{meta.interconnect_gbps:g} Gb/s"


def _coerce_int(value: Any) -> int | None:
    if value is None:
        return None
    try:
        out = int(float(str(value).strip()))
    except (ValueError, TypeError, OverflowError):  # OverflowError: "inf"
        return None
    return out


def normalize_metadata(raw: Mapping[str, Any]) -> SubmissionMeta:
    """Build a normalized SubmissionMeta from raw metadata strings.

    Total: unknown filesystems map to `other`, unknown interconnects leave
    the speed unset, unparseable counts are dropped. Never raises.
    """
    fs_raw = str(raw.get("filesystem", "") or "")
    ic_raw = str(raw.get("interconnect", "") or "")
    client_nodes = _coerce_int(raw.get("client_nodes"))
    if client_nodes is None or client_nodes < 1:
        client_nodes = 1
    procs_per_node = _coerce_int(raw.get("procs_per_node"))
    if procs_per_node is not None and procs_per_node < 1:
        procs_per_node = None
    total_procs = _coerce_int(raw.get("total_procs"))
    if total_procs is not None and total_procs < client_nodes:
        total_procs = None
    nic_count = _coerce_int(raw.get("nic_count"))
    if nic_count is not None and nic_count < 1:
        nic_count = None
    institution = raw.get("institution")
    institution = str(institution) if institution not in (None, "") else None
    return SubmissionMeta(
        submission_id=str(raw.get("submission_id", "") or "unknown"),
        list_label=normalize_list_label(str(raw.get("list_label", "") or "")),
        institution=institution,
        filesystem_raw=fs_raw,
        filesystem_norm=normalize_filesystem(fs_raw),
        interconnect_raw=ic_raw,
        interconnect_gbps=normalize_interconnect(ic_raw),
        nic_count_reported=nic_count,
        client_nodes=client_nodes,
        procs_per_node=procs_per_node,
        total_procs=total_procs,
    )


# --- repository CSV ----------------------------------------------------------

DEFAULT_COLUMN_MAP: dict[str, Any] = {
    "submission_id": "id",
    "list_label": "list",
    "institution": "institution",
    "filesystem": "filesystem",
    "interconnect": "interconnect",
    "nic_count": "nic_count",
    "client_nodes": "client_nodes",
    "procs_per_node": "procs_per_node",
    "total_procs": "total_procs",
    "score_overall": "score",
    "score_bw": "score_bw",
    "score_md": "score_md",
    "phases": {phase.value: phase.value.replace("-", "_") for phase in Phase},
}


def load_column_map(path: str | Path) -> dict[str, Any]:
    """Read a column map JSON file; missing keys fall back to the default.

    Column names are strings, or null for a field the export lacks; a key
    the default lacks, any other shape, and a file that cannot be read or
    parsed, is a ConfigError.
    """
    user = read_json_object(path, "column map")
    user_phases = user.pop("phases", {})
    if not isinstance(user_phases, dict):
        raise ConfigError(f"column map {path}: 'phases' must be an object")
    unknown = sorted(user.keys() - DEFAULT_COLUMN_MAP)
    unknown += sorted(f"phases.{k}" for k in user_phases.keys() - DEFAULT_COLUMN_MAP["phases"])
    if unknown:
        raise ConfigError(f"column map {path}: unknown keys: {', '.join(unknown)}")
    bad = [k for k, v in [*user.items(), *user_phases.items()] if v is not None and not isinstance(v, str)]
    if bad:
        raise ConfigError(f"column map {path}: columns must be strings or null: {', '.join(bad)}")
    return {**DEFAULT_COLUMN_MAP, **user, "phases": {**DEFAULT_COLUMN_MAP["phases"], **user_phases}}


@dataclass
class RepoParse:
    submissions: list[Submission]
    skipped: list[tuple[int, str]]  # (1-based data row number, reason)

    @property
    def n_rows(self) -> int:
        return len(self.submissions) + len(self.skipped)


def _repo_number(name: str, raw: str | None, warnings: list[str]) -> float | None:
    """A phase value or score from its cell: None when the cell is blank, or,
    with a warning, when it holds no finite number >= 0."""
    if raw is None:
        return None
    try:
        value = float(raw)
    except ValueError:
        warnings.append(f"{name}: unparseable value {raw!r}, dropped")
        return None
    if not math.isfinite(value):
        warnings.append(f"{name}: non-finite value {raw!r}, dropped")
        return None
    if value < 0:
        warnings.append(f"{name}: negative value {value}, dropped")
        return None
    return value


def parse_repo_csv(text: str, column_map: Mapping[str, Any] | None = None) -> RepoParse:
    """Parse a repository CSV export into metadata + phase-value Submissions.

    Rows missing the required fields (list label, filesystem, client node
    count) are skipped with a recorded reason. The skip and emit counts
    always sum to the input data-row count. A field the column map lacks or
    names as null is absent.
    """
    cmap = column_map if column_map is not None else DEFAULT_COLUMN_MAP
    try:
        reader = csv.reader(io.StringIO(text))
        rows = list(reader)
    except csv.Error as exc:
        raise ParseError(f"unreadable CSV: {exc}") from exc
    if not rows:
        raise ParseError("empty CSV: no header row")
    header = [h.strip() for h in rows[0]]
    index = {name: i for i, name in enumerate(header)}
    phase_cols: Mapping[str, str] = cmap.get("phases", {})

    def cell(row: list[str], column: str | None) -> str | None:
        i = index.get(column)
        if i is None or i >= len(row):
            return None
        value = row[i].strip()
        return value if value != "" else None

    submissions: list[Submission] = []
    skipped: list[tuple[int, str]] = []
    for data_no, row in enumerate(rows[1:], start=1):
        if not any(c.strip() for c in row):
            skipped.append((data_no, "blank row"))
            continue
        # Over the default's keys: a caller's map may lack some.
        raw = {name: cell(row, cmap.get(name)) for name in DEFAULT_COLUMN_MAP if name != "phases"}
        missing = []
        if raw["list_label"] is None:
            missing.append("list label")
        if raw["filesystem"] is None:
            missing.append("filesystem")
        nodes = _coerce_int(raw["client_nodes"])
        if raw["client_nodes"] is None:
            missing.append("client_nodes")
        elif nodes is None or nodes < 1:
            skipped.append((data_no, f"invalid client_nodes {raw['client_nodes']!r}"))
            continue
        if missing:
            skipped.append((data_no, "missing required fields: " + ", ".join(missing)))
            continue

        meta = normalize_metadata(
            {**raw, "submission_id": raw["submission_id"] or f"row-{data_no}", "client_nodes": nodes}
        )
        warnings: list[str] = []
        phases: dict[Phase, PhaseResult] = {}
        for phase in Phase:
            value = _repo_number(phase.value, cell(row, phase_cols.get(phase.value)), warnings)
            if value is not None:
                phases[phase] = PhaseResult(phase=phase, value=value, unit=phase.unit)
        submissions.append(
            Submission(
                meta=meta,
                phases=phases,
                reported_score_bw=_repo_number("score_bw", raw["score_bw"], warnings),
                reported_score_md=_repo_number("score_md", raw["score_md"], warnings),
                reported_score_overall=_repo_number("score_overall", raw["score_overall"], warnings),
                warnings=warnings,
            )
        )
    if not submissions:
        raise EmptyInputError(
            f"no usable rows in repository CSV ({len(skipped)} skipped)"
        )
    return RepoParse(submissions=submissions, skipped=skipped)


# --- package loading ----------------------------------------------------------


def _parse_meta_file(text: str) -> dict[str, str]:
    raw: dict[str, str] = {}
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" in stripped:
            key, _, value = stripped.partition("=")
        elif ":" in stripped:
            key, _, value = stripped.partition(":")
        else:
            continue
        raw[key.strip().lower()] = value.strip()
    return raw


def _match_timing_phase(filename: str) -> Phase | None:
    stem = Path(filename).stem.lower().replace("_", "-")
    for phase in Phase:
        if stem == phase.value or stem.startswith(phase.value + "-") or stem.startswith(
            phase.value + "."
        ):
            return phase
    return None


def read_text(path: str | Path) -> str:
    """Read a UTF-8 input file; a file that cannot be read or decoded raises LoadError."""
    path = Path(path)
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise LoadError(f"{path.name}: not UTF-8 text (byte {exc.start})") from None
    except OSError as exc:
        raise LoadError(f"{path.name}: {exc.strerror or exc}") from None


def load_submission(package_dir: str | Path) -> Submission:
    """Assemble a Submission from a package directory.

    Requires `result_summary.txt`; `meta.txt` and per-phase `<phase>*.csv`
    timing files are optional. A corrupt timing CSV degrades to a warning;
    a missing, unreadable or unparseable summary or meta file is fatal.
    """
    package_dir = Path(package_dir)
    summary_path = package_dir / SUMMARY_FILENAME
    if not summary_path.is_file():
        raise LoadError(f"{package_dir}: missing {SUMMARY_FILENAME}")
    summary = parse_result_summary(read_text(summary_path))
    warnings = list(summary.warnings)

    meta_path = package_dir / META_FILENAME
    raw_meta: dict[str, Any] = {}
    if meta_path.is_file():
        raw_meta = dict(_parse_meta_file(read_text(meta_path)))
    else:
        warnings.append(f"{META_FILENAME} missing; metadata defaults used")
    raw_meta.setdefault("submission_id", package_dir.name)
    meta = normalize_metadata(raw_meta)

    timing: dict[Phase, ProcessTimingTable] = {}
    for csv_path in sorted(package_dir.glob("*.csv")):
        phase = _match_timing_phase(csv_path.name)
        if phase is None:
            warnings.append(f"{csv_path.name}: no phase match, ignored")
            continue
        if phase in timing:
            warnings.append(f"{csv_path.name}: duplicate timing file for {phase}, ignored")
            continue
        try:
            table, table_warnings = parse_process_timing(read_text(csv_path), phase)
        except (LoadError, ParseError, SchemaError, ValidationError) as exc:
            warnings.append(f"{csv_path.name}: timing discarded ({exc})")
            continue
        warnings.extend(table_warnings)
        timing[phase] = table

    return Submission(
        meta=meta,
        phases={p.phase: p for p in summary.phases},
        reported_score_bw=summary.reported_score_bw,
        reported_score_md=summary.reported_score_md,
        reported_score_overall=summary.reported_score_overall,
        timing=timing,
        warnings=warnings,
    )


# --- manifest interchange ------------------------------------------------------


def _sorted_tables(sub: Submission) -> list[tuple[str, ProcessTimingTable]]:
    return sorted((phase.value, table) for phase, table in sub.timing.items())  # names are unique


def _header_tree(sub: Submission, timing: Any) -> dict[str, Any]:
    """The manifest document tree with `timing` as given."""
    return {
        "format_version": MANIFEST_FORMAT_VERSION,
        "meta": asdict(sub.meta),
        "phases": [asdict(sub.phases[p]) for p in Phase if p in sub.phases],
        "reported_score_bw": sub.reported_score_bw,
        "reported_score_md": sub.reported_score_md,
        "reported_score_overall": sub.reported_score_overall,
        "timing": timing,
        "warnings": list(sub.warnings),
    }


def _table_tree(table: ProcessTimingTable) -> dict[str, Any]:
    return {
        "stonewall_s": table.stonewall_s,
        "rank": table.rank.tolist(),
        "start_s": table.start_s.tolist(),
        "end_s": table.end_s.tolist(),
        "close_s": np.ma.masked_invalid(table.close_s).tolist(),  # NaN -> null
        "items": table.items.tolist(),
    }


def to_manifest(sub: Submission) -> dict[str, Any]:
    """Serialize a Submission into the manifest document tree.

    The tree holds `timing` as a dict from phase name to table;
    the manifest file holds each table on a line of its own.
    """
    return _header_tree(sub, {name: _table_tree(table) for name, table in _sorted_tables(sub)})


# JSON value kinds a manifest field may hold. bool is not a number here.
_STR, _INT, _NUM, _BOOL, _LIST, _OBJ = (str,), (int,), (int, float), (bool,), (list,), (dict,)


def _get(obj: Any, key: str, kinds: tuple[type, ...], where: str, nullable: bool = False) -> Any:
    if not isinstance(obj, dict):
        raise ValidationError(f"{where}: expected an object, got {type(obj).__name__}")
    if key not in obj:
        raise ValidationError(f"{where}: missing {key!r}")
    value = obj[key]
    if value is None and nullable:
        return None
    if not isinstance(value, kinds) or (isinstance(value, bool) and bool not in kinds):
        raise ValidationError(f"{where}.{key}: unexpected {type(value).__name__} value")
    return value


def _enum(cls, value: str, where: str):
    try:
        return cls(value)
    except ValueError:
        raise ValidationError(f"{where}: unknown value {value!r}") from None


# The JSON kinds of a record field's annotation. A field of any other type is
# a str enum, held as its value.
_KINDS = {str: _STR, int: _INT, float: _NUM, bool: _BOOL}


@functools.cache
def _record_fields(cls) -> tuple[tuple[str, tuple[type, ...], Any, bool], ...]:
    """(name, JSON kinds, enum class or None, nullable) of each field of a
    record dataclass, in declaration order."""
    hints = get_type_hints(cls)
    out = []
    for f in fields(cls):
        args = get_args(hints[f.name])  # (T, NoneType) for `T | None`
        base = args[0] if args else hints[f.name]
        out.append((f.name, _KINDS.get(base, _STR), None if base in _KINDS else base, type(None) in args))
    return tuple(out)


def _record(cls, obj: Any, where: str):
    """A SubmissionMeta or PhaseResult from its manifest object, each field
    checked in declaration order against its annotation."""
    values = {}
    for name, kinds, enum, nullable in _record_fields(cls):
        value = _get(obj, name, kinds, where, nullable)
        values[name] = value if enum is None or value is None else _enum(enum, value, f"{where}.{name}")
    return cls(**values)


def _column(spec: dict, key: str, where: str, integer: bool, nullable: bool = False):
    """A timing column from its JSON list: float64 (NaN where null) or, for an
    integer column, int64 (masked where null when nullable)."""
    values = _get(spec, key, _LIST, where)
    n = len(values)
    absent = values.count(None)
    if nullable and n and absent == n:
        if integer:
            return np.ma.MaskedArray(np.zeros(n, dtype=np.int64), mask=np.ones(n, dtype=bool))
        return np.full(n, np.nan)
    if not absent:
        try:
            arr = np.array(values)
        except ValueError:  # nested lists of unequal length
            arr = None
        if arr is not None and arr.ndim == 1 and (arr.dtype.kind in ("i" if integer else "if") or not n):
            return arr.astype(np.int64 if integer else np.float64)
    elif nullable:
        kinds = _INT if integer else _NUM
        if all(v is None or (type(v) in kinds and (not integer or abs(v) < _INT64_BOUND)) for v in values):
            if not integer:
                return np.array(values, dtype=np.float64)
            data = np.array([0 if v is None else v for v in values], dtype=np.int64)
            return np.ma.MaskedArray(data, mask=np.array([v is None for v in values], dtype=bool))
    raise ValidationError(f"{where}.{key}: expected a list of {'integers' if integer else 'numbers'}")


def _check_version(doc: Any) -> None:
    if not isinstance(doc, dict):
        raise ValidationError(f"manifest: expected an object, got {type(doc).__name__}")
    version = doc.get("format_version")
    if version is None:
        raise ValidationError("manifest missing format_version")
    if type(version) is int and version in (1, 2):
        raise ValidationError(
            f"manifest format_version {version} is no longer read; "
            "re-run `io500kit ingest` to regenerate it"
        )
    if version != MANIFEST_FORMAT_VERSION or type(version) is not int:
        raise ValidationError(f"unsupported manifest format_version {version!r}")


def _timing_table(phase_name: str, spec: Any) -> ProcessTimingTable:
    """A timing table from its manifest object, the table line less its `phase`."""
    where = f"timing.{phase_name}"
    phase = _enum(Phase, phase_name, where)
    columns = {
        "stonewall_s": _get(spec, "stonewall_s", _NUM, where, nullable=True),
        "rank": _column(spec, "rank", where, integer=True),
        "start_s": _column(spec, "start_s", where, integer=False),
        "end_s": _column(spec, "end_s", where, integer=False),
        "close_s": _column(spec, "close_s", where, integer=False, nullable=True),
        "items": _column(spec, "items", where, integer=True, nullable=True),
    }
    try:
        return ProcessTimingTable(phase=phase, **columns)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from None


def _submission(doc: Mapping[str, Any], timing: Callable[[], dict[Phase, ProcessTimingTable]]) -> Submission:
    """A Submission from a manifest tree whose version is checked. Its fields
    are checked in a fixed order: meta, phases, then the tables `timing()`
    returns, then warnings and scores."""
    meta = _record(SubmissionMeta, _get(doc, "meta", _OBJ, "manifest"), "meta")
    phases: dict[Phase, PhaseResult] = {}
    for i, entry in enumerate(_get(doc, "phases", _LIST, "manifest")):
        result = _record(PhaseResult, entry, f"phases[{i}]")
        phases[result.phase] = result
    tables = timing()
    warnings = _get(doc, "warnings", _LIST, "manifest")
    if not all(isinstance(w, str) for w in warnings):
        raise ValidationError("manifest.warnings: expected a list of strings")
    return Submission(
        meta=meta,
        phases=phases,
        reported_score_bw=_get(doc, "reported_score_bw", _NUM, "manifest", nullable=True),
        reported_score_md=_get(doc, "reported_score_md", _NUM, "manifest", nullable=True),
        reported_score_overall=_get(doc, "reported_score_overall", _NUM, "manifest", nullable=True),
        timing=tables,
        warnings=list(warnings),
    )


def from_manifest(doc: Mapping[str, Any]) -> Submission:
    """Reconstruct a Submission from a manifest document tree.

    Only format_version 3 is read; any shape error raises ValidationError.
    """
    _check_version(doc)

    def timing() -> dict[Phase, ProcessTimingTable]:
        tables = (_timing_table(name, spec) for name, spec in _get(doc, "timing", _OBJ, "manifest").items())
        return {table.phase: table for table in tables}

    return _submission(doc, timing)


def _manifest_text_lines(sub: Submission) -> Iterator[str]:
    """The manifest's lines, one at a time: the header, then one line per timing table.

    The header is the document tree with `timing` replaced by the list of
    the tables' phase names, in line order; each table line is the table's
    object plus its `phase`. Every line is strict, compact JSON with sorted
    keys, a form that keeps the stdlib's C encoder.
    """
    tables = _sorted_tables(sub)
    yield _json_line(_header_tree(sub, [name for name, _ in tables]))
    for name, table in tables:
        yield _json_line({"phase": name, **_table_tree(table)})


def _json_line(part: dict[str, Any]) -> str:
    return json.dumps(part, separators=(",", ":"), sort_keys=True, allow_nan=False) + "\n"


def dumps_manifest(sub: Submission) -> str:
    """The manifest text: JSON Lines, a header line and then one line per timing table."""
    return "".join(_manifest_text_lines(sub))


def write_manifest(sub: Submission, path: str | Path) -> None:
    """Write the manifest a line at a time, so that one table's JSON lists are
    alive at once; a write that fails leaves no file behind."""
    path = Path(path)
    try:
        with path.open("w", encoding="utf-8", newline="\n") as f:
            f.writelines(_manifest_text_lines(sub))
    except BaseException:
        path.unlink(missing_ok=True)
        raise


_JSON = json.JSONDecoder()


# The read buffer is as large as the file up to this size: a table line of
# megabytes takes few read calls, and a small file costs no more than its size.
_READ_BUFFER = 1 << 20


def _file_lines(path: Path) -> Iterator[str]:
    """The lines of a file, one at a time and without their newline, as
    `read_text(path).split("\n")` gives them: the last is what follows the
    final newline. Text mode translates line ends as read_text does. A byte
    that is not UTF-8 raises read_text's LoadError, which names its offset."""
    try:
        buffering = min(max(path.stat().st_size, io.DEFAULT_BUFFER_SIZE), _READ_BUFFER)
        with path.open(encoding="utf-8", buffering=buffering) as f:
            for line in f:
                if not line.endswith("\n"):  # the end of a file without a final newline
                    yield line
                    return
                yield line[:-1]
            yield ""
    except UnicodeDecodeError:
        read_text(path)
        raise
    except OSError as exc:
        raise LoadError(f"{path.name}: {exc.strerror or exc}") from None


def _whole_text_header(path: Path):
    """For a file whose line 1 is not one JSON value: the first JSON value of
    the whole text, such as an older single-document manifest, the rest of the
    line it ends on, and the lines after that."""
    text = read_text(path)
    try:
        header, end = _JSON.raw_decode(text)
    except ValueError as exc:
        raise ValidationError(f"not a JSON manifest ({exc})") from None
    rest, *after = text[end:].split("\n")
    return header, rest, iter(after)


def _table_line(line: str, line_no: int, phase: Phase) -> dict[str, Any]:
    where = f"timing.{phase.value}"
    try:
        spec = json.loads(line)
    except ValueError as exc:
        raise ValidationError(f"{where}: line {line_no} is not JSON ({exc})") from None
    if _get(spec, "phase", _STR, where) != phase.value:
        raise ValidationError(f"{where}: line {line_no} holds phase {spec['phase']!r}")
    return spec


def _manifest_submission(header: Any, rest: str, lines: Iterator[str], phases) -> Submission:
    """The Submission of a manifest from its decoded header, the rest of the
    header's line and an iterator over the lines after it.

    The lines are read to the end, one at a time, so that an undecodable
    byte (LoadError) and then a wrong line count are reported before any
    other fault, as a read of the whole text would. Only the table lines of
    `phases` (all when None) are decoded, each into its table before the
    next."""
    try:
        _check_version(header)
        index = _get(header, "timing", _LIST, "manifest")
        index_phases = [_enum(Phase, name, f"timing.{name}") for name in index]
        if len(set(index_phases)) != len(index_phases):
            raise ValidationError("manifest.timing: a phase is listed twice")
        if rest:
            raise ValidationError("manifest: line 1 holds more than the header")
    except ValidationError:
        for _ in lines:
            pass
        raise
    tables: dict[Phase, ProcessTimingTable] = {}
    line_error = table_error = None  # the first of each, in line order
    n_lines, unterminated = 1, False
    for line_no, line in enumerate(lines, start=2):
        n_lines, unterminated = line_no, line != ""
        if line_error is not None or line_no - 2 >= len(index_phases):
            continue
        phase = index_phases[line_no - 2]
        if phases is not None and phase not in phases:
            continue
        try:
            spec = _table_line(line, line_no, phase)
        except ValidationError as exc:
            line_error = exc
            continue
        if table_error is None:
            try:
                tables[phase] = _timing_table(phase.value, spec)
            except ValidationError as exc:  # reported after the header's meta and phases
                table_error = exc
        del spec, line  # so that one table's lists are alive at a time
    if unterminated or n_lines != len(index) + 2:
        tail = " and an unterminated one" if unterminated else ""
        raise ValidationError(
            f"manifest: expected {len(index) + 1} complete lines (a header and {len(index)} "
            f"tables), found {n_lines - 1}{tail}; the file is truncated or damaged"
        )
    if line_error is not None:
        raise line_error

    def timing() -> dict[Phase, ProcessTimingTable]:
        if table_error is not None:
            raise table_error
        return tables

    return _submission(header, timing)


def read_manifest(path: str | Path, phases: Collection[Phase] | None = None) -> Submission:
    """Load one manifest, reading it a line at a time and decoding only the
    timing tables of `phases` (all when None); the others are left out of the
    Submission. Errors name the file."""
    file = Path(path)
    try:
        with contextlib.closing(_file_lines(file)) as lines:
            first = next(lines)
            try:
                header, end = _JSON.raw_decode(first)
            except ValueError:
                return _manifest_submission(*_whole_text_header(file), phases)
            return _manifest_submission(header, first[end:], lines, phases)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def read_manifest_dir(
    directory: str | Path, phases: Collection[Phase] | None = None
) -> list[Submission]:
    """Load every `*.json` manifest in a directory, sorted by filename, with
    the timing tables of `phases` (all when None)."""
    directory = Path(directory)
    paths = sorted(directory.glob("*.json"))
    if not paths:
        raise EmptyInputError(f"no manifests found in {directory}")
    return [read_manifest(p, phases) for p in paths]
