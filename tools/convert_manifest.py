"""Convert manifests of format_version 1, 2 or 3 to the current format (4), in place.

    PYTHONPATH=src python tools/convert_manifest.py tests/golden/p0*.json

Version 1 stored each timing table as a list of per-rank row objects and was
written with indent=2. Version 2 was one compact JSON document whose tree is
the version 3 tree: version 3 only moves each timing table onto a line of
its own. The package reads neither, so this script decodes them on its own.
Version 3 is read with `ingest.read_manifest`: version 4 differs only in
writing a timing column that holds its default as null.

The script writes the Submission with `ingest.write_manifest` to a temporary
file beside the original and reads that back with `ingest.read_manifest`.
Only when the result equals the old Submission does the new file replace the
old one. Otherwise, or when the old file cannot be read, the script reports
the file, leaves it as it was and exits 1.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import numpy as np

from io500kit import ingest
from io500kit.errors import Io500KitError
from io500kit.types import (
    Filesystem,
    Phase,
    PhaseResult,
    ProcessTimingTable,
    Submission,
    SubmissionMeta,
)


def _v1_table(phase: Phase, spec: dict) -> ProcessTimingTable:
    rows = spec.get("rows", [])
    items = [r.get("items") for r in rows]
    return ProcessTimingTable(
        phase=phase,
        stonewall_s=spec.get("stonewall_s"),
        rank=np.array([r["rank"] for r in rows], dtype=np.int64),
        start_s=np.array([r["start_s"] for r in rows], dtype=float),
        end_s=np.array([r["end_s"] for r in rows], dtype=float),
        close_s=np.array([r.get("close_s") for r in rows], dtype=float),  # None -> NaN
        items=np.ma.MaskedArray(
            np.array([0 if v is None else v for v in items], dtype=np.int64),
            mask=np.array([v is None for v in items], dtype=bool),
        ),
    )


def decode_v1(doc: dict) -> Submission:
    m = doc["meta"]
    meta = SubmissionMeta(
        submission_id=m["submission_id"],
        list_label=m["list_label"],
        institution=m.get("institution"),
        filesystem_raw=m.get("filesystem_raw", ""),
        filesystem_norm=Filesystem(m.get("filesystem_norm", "other")),
        interconnect_raw=m.get("interconnect_raw", ""),
        interconnect_gbps=m.get("interconnect_gbps"),
        nic_count_reported=m.get("nic_count_reported"),
        client_nodes=m["client_nodes"],
        procs_per_node=m.get("procs_per_node"),
        total_procs=m.get("total_procs"),
    )
    phases = {}
    for entry in doc.get("phases", []):
        phase = Phase(entry["phase"])
        phases[phase] = PhaseResult(
            phase=phase,
            value=entry["value"],
            unit=entry["unit"],
            runtime_s=entry.get("runtime_s"),
            cache_flag=bool(entry.get("cache_flag", False)),
        )
    timing = {Phase(name): _v1_table(Phase(name), spec) for name, spec in doc.get("timing", {}).items()}
    return Submission(
        meta=meta,
        phases=phases,
        reported_score_bw=doc.get("reported_score_bw"),
        reported_score_md=doc.get("reported_score_md"),
        reported_score_overall=doc.get("reported_score_overall"),
        timing=timing,
        warnings=list(doc.get("warnings", [])),
    )


def read(path: Path) -> Submission:
    """The Submission of a manifest: versions 1 and 2 are one JSON document,
    decoded here; any other is read by the package."""
    text = ingest.read_text(path)
    header, _ = json.JSONDecoder().raw_decode(text)
    version = header.get("format_version") if isinstance(header, dict) else None
    if version == 1:
        return decode_v1(json.loads(text))
    if version == 2:
        return ingest.from_manifest({**json.loads(text), "format_version": ingest.MANIFEST_FORMAT_VERSION})
    return ingest.read_manifest(path)


def main(paths: list[str]) -> int:
    status = 0
    for raw in paths:
        path = Path(raw)
        try:
            old = read(path)
        except (Io500KitError, ValueError) as exc:
            print(f"{path}: not read ({exc}), left as is", file=sys.stderr)
            status = 1
            continue
        tmp = path.with_name(path.name + ".tmp")
        ingest.write_manifest(old, tmp)
        if ingest.read_manifest(tmp) != old:
            tmp.unlink()
            version = ingest.MANIFEST_FORMAT_VERSION
            print(f"{path}: v{version} decodes to a different Submission, left as is", file=sys.stderr)
            status = 1
            continue
        os.replace(tmp, path)
        n_rows = sum(t.n_ranks for t in old.timing.values())
        print(f"{path}: converted, equal Submission ({len(old.timing)} tables, {n_rows} ranks)")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
