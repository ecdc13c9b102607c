"""Convert format_version 1 manifests to format_version 2, in place.

    PYTHONPATH=src python tools/convert_manifest_v1.py tests/golden/p0*.json

Version 1 stored each timing table as a list of per-rank row objects and was
written with indent=2. This script decodes a v1 document into a Submission
on its own (the package no longer reads v1), writes it back with
`ingest.dumps_manifest`, and checks that the v2 text decodes to a
Submission equal to the v1 one. It exits 1 and leaves the file untouched
when they differ.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from io500kit import ingest
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
    if doc.get("format_version") != 1:
        raise ValueError(f"not a v1 manifest: format_version {doc.get('format_version')!r}")
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


def main(paths: list[str]) -> int:
    status = 0
    for raw in paths:
        path = Path(raw)
        old = decode_v1(json.loads(path.read_text(encoding="utf-8")))
        text = ingest.dumps_manifest(old)
        new = ingest.from_manifest(json.loads(text))
        if new != old:
            print(f"{path}: v2 decodes to a different Submission, left as is", file=sys.stderr)
            status = 1
            continue
        path.write_text(text, encoding="utf-8", newline="\n")
        n_rows = sum(t.n_ranks for t in old.timing.values())
        print(f"{path}: converted, equal Submission ({len(old.timing)} tables, {n_rows} ranks)")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
