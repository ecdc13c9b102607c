"""Parsers for submission packages, per-process timing CSVs, and repository
CSV exports, plus metadata normalization and the manifest interchange format.

All parse functions are pure functions of their input text. Nothing here is
silently dropped: skipped rows and tolerated oddities are returned as
warnings or skip records alongside the parsed data.
"""

from __future__ import annotations

import array
import contextlib
import csv
import functools
import io
import itertools
import json
import math
import re
import shutil
import tempfile
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Collection, Iterable, Iterator, Mapping, get_args, get_type_hints
from warnings import catch_warnings, simplefilter

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

MANIFEST_FORMAT_VERSION = 5

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
    if not math.isfinite(value):
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

    numpy's reader converts the data lines when they are ASCII. Any text it
    refuses (a non-ASCII character, a blank cell, a comment line after the
    header, a short or long line, a spelling such as `1_0` or `10.0` that
    int()/float() accept), warns on, or reads to a non-finite time or a
    repeated rank, goes to the row scan, which converts a line at a time and
    raises the error of the first line at fault.
    """
    stonewall_s, width, col, start, first_line = _timing_layout(text, phase)
    columns = _read_columns(text, start, width, col) or _scan_rows(text, start, first_line, width, col, phase)
    rank, start_s, end_s, close, items = columns

    # A row is rejected for the first of these that holds, in this order.
    n = len(rank)
    reasons = [end_s < start_s, rank < 0]
    reasons.append(np.zeros(n, dtype=bool) if close is None else close < 0)
    reasons.append(np.zeros(n, dtype=bool) if items is None else items.filled(0) < 0)
    rejected = np.logical_or.reduce(reasons)
    warnings = []
    for i in np.flatnonzero(rejected).tolist():
        r = int(rank[i])
        if reasons[0][i]:
            warnings.append(f"{phase}: rank {r} rejected (end {float(end_s[i])} < start {float(start_s[i])})")
        elif reasons[1][i]:
            warnings.append(f"{phase}: rank {r} rejected (negative rank)")
        elif reasons[2][i]:
            warnings.append(f"{phase}: rank {r} rejected (negative close {float(close[i])})")
        else:
            warnings.append(f"{phase}: rank {r} rejected (negative items {int(items[i])})")
    keep = ~rejected
    table = ProcessTimingTable(
        phase=phase,
        rank=rank[keep],
        start_s=start_s[keep],
        end_s=end_s[keep],
        close_s=None if close is None else close[keep],
        items=None if items is None else items[keep],
        stonewall_s=stonewall_s,
    )
    return table, warnings


# Characters of a timing CSV converted at a time: about 7,000 lines of a synth
# table. The cell strings of one slice, never of a whole table, are alive at once.
_SLICE_CHARS = 1 << 18


def _slices(text: str, start: int) -> Iterator[str]:
    """The data lines of a timing CSV, `text[start:]`, in pieces of about
    _SLICE_CHARS, at least one, each cut just after a "\n". A "\r\n" then
    never straddles a cut, so the pieces' splitlines() concatenate to the
    lines `text[start:].splitlines()` gives, without that copy."""
    at, n = start, len(text)
    while True:
        end = n
        if n - at > _SLICE_CHARS:
            # After the last "\n" within the slice, or after the first beyond it.
            end = text.rfind("\n", at, at + _SLICE_CHARS) + 1 or text.find("\n", at + _SLICE_CHARS) + 1 or n
        yield text[at:end]
        at = end
        if at >= n:
            return


def _leading_lines(text: str) -> Iterator[tuple[str, int]]:
    """The lines of text as splitlines() gives them, each with the offset
    just after its line end, split a "\n"-ended piece at a time."""
    at = 0
    while at < len(text):
        piece = text[at : text.find("\n", at) + 1 or len(text)]
        for line, ended in zip(piece.splitlines(), piece.splitlines(keepends=True)):
            at += len(ended)
            yield line, at


def _timing_layout(text: str, phase: Phase):
    """Stonewall, header width, column index, the offset of the data lines
    and the first data line's number. Reads the text only up to its header line."""
    stonewall_s: float | None = None
    for idx, (line, end) in enumerate(_leading_lines(text)):
        stripped = line.lstrip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            m = re.match(r"#\s*(stonewall(?:_s)?)\s*[:=]\s*(\S+)", stripped)
            if m:
                stonewall_s = _parse_float(m.group(2), "stonewall", idx + 1)
            continue
        header = [h.strip().lower() for h in line.split(",")]
        missing = [col for col in ("rank", "start", "end") if col not in header]
        if missing:
            raise SchemaError(
                f"{phase}: missing required columns {missing}; found {header}"
            )
        col = {name: header.index(name) for name in header}
        return stonewall_s, len(header), col, end, idx + 2
    raise SchemaError(f"{phase}: timing CSV has no header")


_INT64_BOUND = 2.0**63
# The columns numpy's reader converts, and their dtypes; it reads the first
# character of any other column's cells, to be dropped.
_DTYPES = {"rank": np.int64, "start": np.float64, "end": np.float64, "close": np.float64, "items": np.int64}


def _count(text: str) -> int:
    """The item count `text` spells: an integer spelling read exactly, in
    int64's range, or a whole float spelling (`10.0`, `1e3`) of magnitude
    below 2**63. Raises ValueError for any other, such as `1.5` or `inf`."""
    try:
        value = int(text)
    except ValueError:
        number = float(text)
        if not (abs(number) < _INT64_BOUND and number.is_integer()):  # also false for NaN
            raise ValueError(f"not a count: {text!r}") from None
        return int(number)
    if not -_INT64_BOUND <= value < _INT64_BOUND:
        raise ValueError(f"not a count: {text!r}")
    return value


def _ascii_lines(text: str, start: int) -> Iterator[str]:
    """The data lines from `start`, a slice of the text at a time. Raises
    ValueError at a slice that is not ASCII: numpy reads some other
    characters as digits (U+01FE and then 1 as 4621)."""
    for piece in _slices(text, start):
        if not piece.isascii():
            raise ValueError("not ASCII")
        yield from piece.splitlines()


def _read_columns(text: str, start: int, width: int, col: dict[str, int]):
    """(rank, start, end, close, items) of the data lines from `start`, read by
    numpy's reader, or None when it refuses a line or warns (a release that
    only deprecates a spelling still reads it, `2.7` as rank 2; a body with no
    data), or reads a non-finite time or a repeated rank."""
    named = {i: name for name, i in col.items() if name in _DTYPES}
    dtype = [(named[i], _DTYPES[named[i]]) if i in named else (f"_{i}", "S1") for i in range(width)]
    try:
        with catch_warnings():
            simplefilter("error")
            table = np.loadtxt(_ascii_lines(text, start), dtype=dtype, delimiter=",", comments=None, ndmin=1)
    except (ValueError, Warning):
        return None
    if not all(np.isfinite(table[name]).all() for name in ("start", "end", "close") if name in col):
        return None
    ordered = np.sort(table["rank"])
    if np.any(ordered[1:] == ordered[:-1]):
        return None
    items = np.ma.MaskedArray(table["items"]) if "items" in col else None
    return table["rank"], table["start"], table["end"], table["close"] if "close" in col else None, items


def _scan_rows(text: str, start: int, first_line: int, width: int, col: dict[str, int], phase: Phase):
    """(rank, start, end, close, items) of the data lines from `start`,
    converted a line at a time into array.array buffers, a slice of the text
    at a time: a blank close is NaN and a blank item count masked. Raises the
    error of the first line whose cells do not convert or whose rank repeats."""
    rank, start_s, end_s, close, items, no_items = (array.array(code) for code in "qdddqB")
    seen_ranks: set[int] = set()
    lines = (line for piece in _slices(text, start) for line in piece.splitlines())
    for line_no, line in enumerate(lines, start=first_line):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        # Only the cells converted are stripped; a hostname cell is only split off.
        cells = line.split(",")
        if len(cells) < width:
            raise ParseError(
                f"{phase}: expected {width} cells, got {len(cells)}", line=line_no
            )
        cell = cells[col["rank"]].strip()
        try:
            r = int(cell)
        except ValueError:
            r = None
        if r is None or not -_INT64_BOUND <= r < _INT64_BOUND:
            raise ParseError(f"{phase}: malformed rank {cell!r}", line=line_no)
        rank.append(r)
        start_s.append(_parse_float(cells[col["start"]].strip(), "start", line_no))
        end_s.append(_parse_float(cells[col["end"]].strip(), "end", line_no))
        if "close" in col:
            cell = cells[col["close"]].strip()
            close.append(_parse_float(cell, "close", line_no) if cell else math.nan)
        if "items" in col:
            cell = cells[col["items"]].strip()
            try:
                items.append(_count(cell) if cell else 0)
            except ValueError:
                raise ParseError(f"{phase}: malformed items {cell!r}", line=line_no) from None
            no_items.append(not cell)
        if r in seen_ranks:
            raise ValidationError(f"{phase}: duplicate rank {r} on line {line_no}")
        seen_ranks.add(r)
    return (
        np.frombuffer(rank, np.int64),
        np.frombuffer(start_s, np.float64),
        np.frombuffer(end_s, np.float64),
        np.frombuffer(close, np.float64) if "close" in col else None,
        np.ma.MaskedArray(np.frombuffer(items, np.int64), mask=np.frombuffer(no_items, bool)) if "items" in col else None,
    )


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
    """The whole number `value` spells (`10`, ` 10 `, `10.0`, `1e3`), or None:
    a fraction such as `2.5`, like `inf` or text, is no count. An integer
    spelling is read exactly, not through a float."""
    if value is None:
        return None
    text = str(value).strip()
    try:
        number = float(text)
    except ValueError:
        return None
    if not number.is_integer():  # also false for inf and NaN
        return None
    try:
        return int(text)
    except ValueError:  # `10.0`, `1e3`
        return int(number)


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


# A meta.txt line: its key, up to the first "=" or ":", and its value.
_META_LINE = re.compile(r"([^=:]*)[=:](.*)")


def _parse_meta_file(text: str) -> dict[str, str]:
    raw: dict[str, str] = {}
    for line in text.splitlines():
        stripped = line.strip()
        match = _META_LINE.match(stripped)
        if match and not stripped.startswith("#"):
            raw[match[1].strip().lower()] = match[2].strip()
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


def load_package_header(package_dir: str | Path) -> Submission:
    """A package's Submission without its timing tables: its summary and
    meta. A missing, unreadable or unparseable summary raises, and so does an
    unreadable meta file; a missing one is a warning, and default metadata is
    used. A meta line without "=" or ":", or one that starts with "#", is
    skipped."""
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

    return Submission(
        meta=normalize_metadata(raw_meta),
        phases={p.phase: p for p in summary.phases},
        reported_score_bw=summary.reported_score_bw,
        reported_score_md=summary.reported_score_md,
        reported_score_overall=summary.reported_score_overall,
        warnings=warnings,
    )


Tables = Iterator[tuple[Phase, ProcessTimingTable]]


def _package_tables(package_dir: Path, phases: Collection[Phase] | None, warnings: list[str]) -> Tables:
    """The timing tables of `phases` (all when None), one at a time in
    phase-name order, each CSV parsed when it is reached and let go before
    the next is read. A phase's table is the first of its `<phase>*.csv`
    files, in file-name order, that parses. Once the last table has been
    given, the warnings of the files are added to `warnings` in file-name
    order, which can differ from phase-name order (`IOR_Easy_Write.csv`
    sorts before `find.csv`)."""
    paths = sorted(package_dir.glob("*.csv"))
    notes: list[list[str]] = [[] for _ in paths]  # each file's warnings
    files: dict[Phase, list[int]] = {}  # each phase's files, in file-name order
    for i, csv_path in enumerate(paths):
        phase = _match_timing_phase(csv_path.name)
        if phase is None:
            notes[i].append(f"{csv_path.name}: no phase match, ignored")
        elif phases is None or phase in phases:
            files.setdefault(phase, []).append(i)
    for phase in sorted(files, key=lambda p: p.value):
        given = []  # popped as it is given, as in _file_lines
        for i in files[phase]:
            if given:
                notes[i].append(f"{paths[i].name}: duplicate timing file for {phase}, ignored")
                continue
            try:
                table, table_warnings = parse_process_timing(read_text(paths[i]), phase)
            except (LoadError, ParseError, SchemaError, ValidationError) as exc:
                notes[i].append(f"{paths[i].name}: timing discarded ({exc})")
                continue
            notes[i].extend(table_warnings)
            given.append((phase, table))
            del table
        if given:
            yield given.pop()
    warnings.extend(itertools.chain.from_iterable(notes))


def stream_package(
    package_dir: str | Path, phases: Collection[Phase] | None = None, header: Submission | None = None
) -> tuple[Submission, Tables]:
    """A package's Submission without timing tables, and a one-pass
    iterator of its `(phase, table)` pairs, those of `phases` (all when
    None), in phase-name order, each timing CSV parsed when the iterator
    reaches it. The Submission's warnings gain the timing CSVs' once the
    iterator is exhausted.

    Requires `result_summary.txt`; `meta.txt` and per-phase `<phase>*.csv`
    timing files are optional (see load_package_header). A corrupt timing
    CSV degrades to a warning, as does a missing meta file.
    `header`, the package's load_package_header where the caller has read
    it already, stands in for reading the summary and meta again; it is
    not changed.
    """
    if header is None:
        header = load_package_header(package_dir)
    sub = replace(header, warnings=list(header.warnings))
    return sub, _package_tables(Path(package_dir), phases, sub.warnings)


def load_submission(
    package_dir: str | Path, phases: Collection[Phase] | None = None, header: Submission | None = None
) -> Submission:
    """Assemble a Submission from a package directory: stream_package's
    Submission with its tables collected into `timing`."""
    sub, tables = stream_package(package_dir, phases, header)
    sub.timing = dict(tables)
    return sub


# --- manifest interchange ------------------------------------------------------


def _header_tree(sub: Submission, timing: Any) -> dict[str, Any]:
    """The manifest document tree with `timing` as given."""
    return {
        "format_version": MANIFEST_FORMAT_VERSION,
        "meta": asdict(sub.meta),
        "phases": [asdict(result) for result in sub.phases.values()],
        "reported_score_bw": sub.reported_score_bw,
        "reported_score_md": sub.reported_score_md,
        "reported_score_overall": sub.reported_score_overall,
        "timing": timing,
        "warnings": list(sub.warnings),
    }


# The time columns a table line may hold in integer microseconds, in key order.
_MICROSECOND_COLUMNS = ("close_s", "end_s", "start_s")
# Integers below this in magnitude are exact doubles.
_EXACT_INT_BOUND = 2.0**53


def _microseconds(column: np.ndarray) -> np.ndarray | None:
    """A time column in integer microseconds (0 where a value is NaN, an
    absent close time), or None when some present value x is not exactly one:
    k = rint(x * 1e6) must have |k| < 2**53, and k / 1e6, as the reader
    computes it, must have the bits of x. So -0.0 (read back as 0.0), a
    subnormal and any value off a microsecond keep their column in floats.
    At most two column-sized arrays are alive at a time."""
    absent = np.isnan(column)
    with np.errstate(over="ignore"):
        k = column * 1e6
    np.rint(k, out=k)
    k[absent] = 0.0
    if k.size and not (-_EXACT_INT_BOUND < k.min() and k.max() < _EXACT_INT_BOUND):
        return None
    ints = k.astype(np.int64)
    del k
    back = ints / 1e6
    np.copyto(back, column, where=absent)
    return ints if np.array_equal(back.view(np.int64), column.view(np.int64)) else None


def _table_members(name: str, table: ProcessTimingTable) -> Iterator[tuple[str, Any]]:
    """A table line's members in key order: `phase`, `stonewall_s`, the five
    columns and last `us`, the list of the time columns written in integer
    microseconds (see _microseconds). A column is None (JSON null) where it
    holds the default the reader fills in: `rank` equal to 0..n-1, every
    close time absent, every item count absent; a null is the one way a
    column holds its default, so the tree and the streamed line cannot
    differ on it. An absent close time is masked. Each column is made only
    when its member is reached, so one column's transients are alive at a time."""
    scaled: list[str] = []

    def time(key: str) -> np.ndarray:
        column = getattr(table, key)
        ints = _microseconds(column)
        if ints is not None:
            scaled.append(key)
        absent = np.isnan(column)
        written = column if ints is None else ints
        return np.ma.MaskedArray(written, mask=absent) if absent.any() else written

    yield "close_s", None if np.isnan(table.close_s).all() else time("close_s")
    yield "end_s", time("end_s")
    yield "items", None if np.ma.getmaskarray(table.items).all() else table.items
    yield "phase", name
    yield "rank", None if np.array_equal(table.rank, np.arange(table.n_ranks)) else table.rank
    yield "start_s", time("start_s")
    yield "stonewall_s", table.stonewall_s
    yield "us", scaled


def _table_tree(table: ProcessTimingTable) -> dict[str, Any]:
    """A table line's object less its `phase`."""
    members = _table_members(table.phase.value, table)
    return {key: v.tolist() if isinstance(v, np.ndarray) else v for key, v in members if key != "phase"}


def to_manifest(sub: Submission) -> dict[str, Any]:
    """Serialize a Submission into the manifest document tree.

    The tree holds `timing` as a dict from phase name to table;
    the manifest file holds each table on a line of its own.
    """
    return _header_tree(sub, {phase.value: _table_tree(table) for phase, table in sub.timing.items()})


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


# The timing columns of a table line: (integer, nullable), in the order
# _timing_table checks them. A nullable column may hold null for a value.
_COLUMNS = {
    "rank": (True, False),
    "start_s": (False, False),
    "end_s": (False, False),
    "close_s": (False, True),
    "items": (True, True),
}
# The columns that may be null as a whole, which stands for their default
# (see _table_members). `start_s` never is: it gives the table's length.
_DEFAULTED = frozenset({"rank", "close_s", "items"})


_NULL = type(None)


def _column(spec: dict, key: str, where: str, integer: bool, nullable: bool = False):
    """A timing column from its JSON list, of a kind set by the exact types of
    its values, found in one pass before any numpy conversion: int64 where
    every value is an integer (masked where null; refused if one does not
    fit), else, for a time column of numbers, float64 (NaN where null);
    _seconds makes a time column seconds. Any other value, `true` and
    `false` among them, is refused. A numpy column is one _table_line has
    converted already; None is a column at its default."""
    values = _get(spec, key, (list, np.ndarray), where, nullable=key in _DEFAULTED)
    if values is None or isinstance(values, np.ndarray):
        return values
    kinds = set(map(type, values))
    null = nullable and _NULL in kinds
    if null:
        kinds.discard(_NULL)
    with contextlib.suppress(OverflowError):  # an integer beyond int64, or beyond a float
        if kinds <= {int} and not null:
            return np.array(values, dtype=np.int64)
        if kinds <= {int}:
            data = np.array([0 if v is None else v for v in values], dtype=np.int64)
            return np.ma.MaskedArray(data, mask=np.array([v is None for v in values], dtype=bool))
        if not integer and kinds <= {int, float}:
            return np.array(values, dtype=np.float64)
    raise ValidationError(f"{where}.{key}: expected a list of {'integers' if integer else 'numbers'}")


def _seconds(column: np.ndarray | None, scaled: bool, where: str) -> np.ndarray | None:
    """A time column from _column in float64 seconds, NaN where absent: a
    `scaled` column holds integer microseconds below 2**53 in magnitude,
    divided here by 1e6."""
    if column is None:
        return None
    data, mask = np.ma.getdata(column), np.ma.getmask(column)
    if not scaled:
        seconds = data.astype(np.float64, copy=False)  # a copy where data is int64, as where masked
    elif data.dtype.kind == "i" and (not data.size or -_EXACT_INT_BOUND < data.min() and data.max() < _EXACT_INT_BOUND):
        seconds = data / 1e6
    else:
        raise ValidationError(f"{where}: expected a list of integer microseconds below 2**53 in magnitude")
    if mask is not np.ma.nomask:
        seconds[mask] = np.nan
    return seconds


# A version 3 line is a version 4 line that never holds a column as null, and
# a version 4 line a version 5 line without `us`.
_READ_VERSIONS = (3, 4, MANIFEST_FORMAT_VERSION)


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
    if type(version) is not int or version not in _READ_VERSIONS:
        raise ValidationError(f"unsupported manifest format_version {version!r}")


def _timing_table(phase_name: str, spec: Any) -> ProcessTimingTable:
    """A timing table from its manifest object, the table line less its `phase`."""
    where = f"timing.{phase_name}"
    phase = _enum(Phase, phase_name, where)
    columns = {
        "stonewall_s": _get(spec, "stonewall_s", _NUM, where, nullable=True),
        **{key: _column(spec, key, where, *kind) for key, kind in _COLUMNS.items()},
    }
    scaled = _get(spec, "us", _LIST, where) if "us" in spec else []
    for i, key in enumerate(scaled):
        if key not in _MICROSECOND_COLUMNS:
            raise ValidationError(f"{where}.us: unknown column {key!r}")
        if key in scaled[:i]:
            raise ValidationError(f"{where}.us: {key!r} is listed twice")
        if columns[key] is None:
            raise ValidationError(f"{where}.{key}: null, yet listed in 'us'")
    for key in _MICROSECOND_COLUMNS:
        columns[key] = _seconds(columns[key], key in scaled, f"{where}.{key}")
    if columns["rank"] is None:
        columns["rank"] = np.arange(columns["start_s"].size, dtype=np.int64)
    try:
        return ProcessTimingTable(phase=phase, **columns)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from None


def _header_submission(doc: Mapping[str, Any]) -> Submission:
    """The Submission of a manifest tree whose version is checked, less its
    tables. Its fields are checked in this order, and the first fault is
    raised: meta, phases, warnings, then the scores."""
    meta = _record(SubmissionMeta, _get(doc, "meta", _OBJ, "manifest"), "meta")
    phases: dict[Phase, PhaseResult] = {}
    for i, entry in enumerate(_get(doc, "phases", _LIST, "manifest")):
        result = _record(PhaseResult, entry, f"phases[{i}]")
        phases[result.phase] = result
    warnings = _get(doc, "warnings", _LIST, "manifest")
    if not all(isinstance(w, str) for w in warnings):
        raise ValidationError("manifest.warnings: expected a list of strings")
    return Submission(
        meta=meta,
        phases=phases,
        reported_score_bw=_get(doc, "reported_score_bw", _NUM, "manifest", nullable=True),
        reported_score_md=_get(doc, "reported_score_md", _NUM, "manifest", nullable=True),
        reported_score_overall=_get(doc, "reported_score_overall", _NUM, "manifest", nullable=True),
        warnings=list(warnings),
    )


def from_manifest(doc: Mapping[str, Any]) -> Submission:
    """Reconstruct a Submission from a manifest document tree.

    Format versions 3, 4 and 5 are read; any shape error raises ValidationError,
    the header's fields checked first, then the tables.
    """
    _check_version(doc)
    sub = _header_submission(doc)
    tables = (_timing_table(name, spec) for name, spec in _get(doc, "timing", _OBJ, "manifest").items())
    return replace(sub, timing={table.phase: table for table in tables})


def _json_line(part: dict[str, Any]) -> str:
    return json.dumps(part, separators=(",", ":"), sort_keys=True, allow_nan=False) + "\n"


# Column values encoded at a time: one block's Python numbers, never a whole
# column's, are alive at once.
_ENCODE_BLOCK = 8192
_ENCODER = json.JSONEncoder(separators=(",", ":"), allow_nan=False)


def _table_line_pieces(name: str, table: ProcessTimingTable) -> Iterator[str]:
    """The text of `_json_line({"phase": name, **_table_tree(table)})` in
    pieces: the members in key order, and each column encoded _ENCODE_BLOCK
    values at a time, the brackets of each block's list stripped."""
    for i, (key, value) in enumerate(_table_members(name, table)):
        yield ("," if i else "{") + _ENCODER.encode(key) + ":"
        if isinstance(value, np.ndarray):
            yield "["
            for at in range(0, value.size, _ENCODE_BLOCK):
                yield ("," if at else "") + _ENCODER.encode(value[at : at + _ENCODE_BLOCK].tolist())[1:-1]
            yield "]"
        else:
            yield _ENCODER.encode(value)
        del value  # before the next column is made
    yield "}\n"


def dumps_manifest(sub: Submission) -> str:
    """The manifest text, as write_manifest writes it: JSON Lines, a header
    line and then one line per timing table.

    The header is the document tree with `timing` replaced by the list of
    the tables' phase names, in line order; each table line is the table's
    object plus its `phase`. Every line is strict, compact JSON with sorted
    keys, a form that keeps the stdlib's C encoder.
    """
    lines = (_table_line_pieces(phase.value, table) for phase, table in sub.timing.items())
    header = _json_line(_header_tree(sub, [phase.value for phase in sub.timing]))
    return header + "".join(itertools.chain.from_iterable(lines))


def write_manifest(
    sub: Submission, path: str | Path, tables: Iterable[tuple[Phase, ProcessTimingTable]] | None = None
) -> None:
    """Write the manifest a piece at a time, so that one block of a column's
    Python numbers is alive at once; a write that fails leaves no file behind.

    The table lines are those of `tables`, `(phase, table)` pairs in
    phase-name order such as stream_package gives, or of `sub.timing` when
    None. Each table is encoded when it is reached, and `sub` is read only
    once the last has been, so its warnings may grow while the tables are
    read. The header indexes the tables, so their lines go first to an
    unnamed temporary file beside the manifest, made at the first table,
    and are copied after the header."""
    path = Path(path)
    try:
        with path.open("w", encoding="utf-8", newline="\n") as f, contextlib.ExitStack() as stack:
            names, spool = [], None
            for phase, table in sub.timing.items() if tables is None else tables:
                if spool is None:
                    spool = stack.enter_context(
                        tempfile.TemporaryFile("w+", encoding="utf-8", newline="\n", dir=path.parent)
                    )
                spool.writelines(_table_line_pieces(phase.value, table))
                names.append(phase.value)
                del table  # before the next table is read
            f.write(_json_line(_header_tree(sub, names)))
            if spool is not None:
                spool.seek(0)
                shutil.copyfileobj(spool, f)
    except BaseException:
        path.unlink(missing_ok=True)
        raise


_JSON = json.JSONDecoder()


def _file_lines(path: Path) -> Iterator[str]:
    """The lines of a file, one at a time and without their newline, as
    `read_text(path).split("\n")` gives them: the last is what follows the
    final newline, and "\r\n" and a lone "\r" end a line as in text mode.
    A byte that is not UTF-8 raises the LoadError read_text raises, which
    names its offset in the file.

    Each line is read as bytes up to its "\n" and decoded on its own, its
    line end left out of the decode, so that a long line is not copied to
    strip it; a UTF-8 sequence never holds a "\n" byte."""
    try:
        with path.open("rb") as f:
            offset = 0
            for raw in f:
                terminated = raw.endswith(b"\n")
                end = len(raw) - (2 if raw.endswith(b"\r\n") else terminated)
                try:
                    line = str(memoryview(raw)[:end], "utf-8")
                except UnicodeDecodeError as exc:
                    raise LoadError(f"{path.name}: not UTF-8 text (byte {offset + exc.start})") from None
                offset += len(raw)
                del raw  # so that one copy of a long line is alive while it is used
                if "\r" in line:
                    *ended, line = line.replace("\r\n", "\n").replace("\r", "\n").split("\n")
                    yield from ended
                if not terminated:  # the end of a file without a final newline
                    yield line
                    return
                # A generator holds what it yields in a local until it is resumed; popped
                # from a list, the line is held by its user alone, which lets it go.
                given = [line]
                del line
                yield given.pop()
            yield ""
    except OSError as exc:
        raise LoadError(f"{path.name}: {exc.strerror or exc}") from None


# JSON whitespace, as the stdlib decoder skips it between tokens.
_WS = re.compile(r"[ \t\n\r]*")


def _object_members(line: str, at: int) -> dict[str, Any]:
    """The object that starts at line[at], a "{", decoded one member at a
    time by the stdlib decoder. A timing column's list becomes its numpy
    column (see _column) before the next member is decoded; a list that does
    not convert is kept, for _timing_table to report in its order. The last
    of repeated keys wins, as in json.loads. A syntax fault raises ValueError."""
    spec: dict[str, Any] = {}
    at = _WS.match(line, at + 1).end()
    closed = line[at : at + 1] == "}"
    while not closed:
        if line[at : at + 1] != '"':
            raise ValueError("expected a key")
        key, at = _JSON.raw_decode(line, at)
        at = _WS.match(line, at).end()
        if line[at : at + 1] != ":":
            raise ValueError("expected ':'")
        value, at = _JSON.raw_decode(line, _WS.match(line, at + 1).end())
        if key in _COLUMNS and isinstance(value, list):
            with contextlib.suppress(ValidationError):
                value = _column({key: value}, key, "", *_COLUMNS[key])
        spec[key] = value
        at = _WS.match(line, at).end()
        separator = line[at : at + 1]
        if separator not in (",", "}"):
            raise ValueError("expected ',' or '}'")
        closed = separator == "}"
        if not closed:
            at = _WS.match(line, at + 1).end()
    if _WS.match(line, at + 1).end() != len(line):
        raise ValueError("extra data")
    return spec


def _table_line(line: str, line_no: int, phase: Phase) -> dict[str, Any]:
    """A table line's object, its columns converted as it is decoded (see
    _object_members). A line that is not an object is decoded whole, for
    _get to name its kind. On a syntax fault, the message is the one
    json.loads gives for the whole line."""
    where = f"timing.{phase.value}"
    start = _WS.match(line).end()
    try:
        spec = _object_members(line, start) if line[start : start + 1] == "{" else json.loads(line)
    except ValueError:
        try:
            json.loads(line)
        except ValueError as exc:
            raise ValidationError(f"{where}: line {line_no} is not JSON ({exc})") from None
        raise  # json.loads reads the line: a fault of _object_members, not of the line
    if _get(spec, "phase", _STR, where) != phase.value:
        raise ValidationError(f"{where}: line {line_no} holds phase {spec['phase']!r}")
    return spec


def _manifest_tables(lines: Iterator[str], index: list[Phase], phases) -> Tables:
    """The tables of the table lines of `phases` (all when None), one at a
    time in line order, each line decoded when it is reached and let go
    before the next is read. `lines` are the lines after the header, as many
    as it indexes tables (or more). A line's JSON and phase are checked, then
    its table's columns; a fault is raised when it is reached, and no later
    line is decoded."""
    for line_no, phase in enumerate(index, start=2):
        line = next(lines, "")  # "" where the file has lost lines since they were counted
        if phases is not None and phase not in phases:
            del line  # before the next line is read
            continue
        spec = _table_line(line, line_no, phase)
        del line
        given = [(phase, _timing_table(phase.value, spec))]  # popped as it is given, as in _file_lines
        del spec  # so that one table's lists are alive at a time
        yield given.pop()


def _first_pass(file: Path) -> tuple[Any, list[Phase]]:
    """A manifest's header, the JSON value on line 1, and the phases its
    `timing` index lists. The file is read to its end, a line at a time, so
    that an undecodable byte (LoadError) is raised first, then a fault in
    line 1's structure, then a wrong line count."""
    with contextlib.closing(_file_lines(file)) as lines:
        first = next(lines)
        n_lines, unterminated = 1, first != ""  # line 1 is the last line until another follows
        for line in lines:
            n_lines, unterminated = n_lines + 1, line != ""
            del line  # also while the next line is read
    try:
        header, end = _JSON.raw_decode(first)
    except ValueError as exc:
        raise ValidationError(
            f"not a JSON manifest ({exc}); tools/convert_manifest.py converts manifests of format_version 1 and 2"
        ) from None
    _check_version(header)
    names = _get(header, "timing", _LIST, "manifest")
    index = [_enum(Phase, name, f"timing.{name}") for name in names]
    if len(set(index)) != len(index):
        raise ValidationError("manifest.timing: a phase is listed twice")
    if first[end:]:
        raise ValidationError("manifest: line 1 holds more than the header")
    if unterminated or n_lines != len(index) + 2:
        tail = " and an unterminated one" if unterminated else ""
        raise ValidationError(
            f"manifest: expected {len(index) + 1} complete lines (a header and {len(index)} "
            f"tables), found {n_lines - 1}{tail}; the file is truncated or damaged"
        )
    return header, index


def stream_manifest(path: str | Path, phases: Collection[Phase] | None = None) -> tuple[Submission, Tables]:
    """One manifest's Submission without timing tables, and a one-pass
    iterator of its `(phase, table)` pairs, those of `phases` (all when
    None), in phase-name order, each table line decoded when the iterator
    reaches it.

    Faults are raised in file order. The file is read once to its end
    (_first_pass) and the header's fields are checked (_header_submission)
    before anything is returned; the iterator reads the file again and
    raises the first fault of a table line it reaches (_manifest_tables).
    Errors name the file."""
    file = Path(path)
    try:
        header, index = _first_pass(file)
        sub = _header_submission(header)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None

    def tables() -> Tables:
        with contextlib.closing(_file_lines(file)) as lines:
            next(lines, None)  # the header line
            try:
                yield from _manifest_tables(lines, index, phases)
            except ValidationError as exc:
                raise ValidationError(f"{path}: {exc}") from None

    if index != sorted(index, key=lambda phase: phase.value):  # not as this package writes it
        return sub, iter(sorted(tables(), key=lambda item: item[0].value))
    return sub, tables()


def read_manifest(path: str | Path, phases: Collection[Phase] | None = None) -> Submission:
    """Load one manifest: stream_manifest's Submission with its tables
    collected into `timing`, the others left out."""
    sub, tables = stream_manifest(path, phases)
    sub.timing = dict(tables)
    return sub


def manifest_paths(directory: str | Path) -> list[Path]:
    """The manifests of a directory: its `*.json` files, in file-name order."""
    return sorted(Path(directory).glob("*.json"))
