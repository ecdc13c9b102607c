"""Convert manifests of format_version 1, 2, 3 or 4 to the current format (5), in place.

    PYTHONPATH=src python tools/convert_manifest.py tests/golden/p0*.json

Version 1 stored each timing table as a list of per-rank row objects and was
written with indent=2. Version 2 was one compact JSON document whose tree is
the version 3 tree: version 3 only moves each timing table onto a line of
its own. The package reads neither, so this script turns each into the
version 3 tree it holds, with each version 1 table reshaped into columns,
and decodes that with `ingest.from_manifest`.
Versions 3 and 4 are read with `ingest.read_manifest`: version 4 differs
from version 3 only in writing a timing column that holds its default as
null, and version 5 from version 4 only in writing a time column whose
values are all exact microseconds as integers, named in the line's `us`.

The script writes the Submission with `ingest.write_manifest` to a temporary
file beside the original and reads that back with `ingest.read_manifest`.
Only when the result equals the old Submission does the new file replace the
old one. Otherwise, or when the old file cannot be read, or the new one
cannot be written, read back or moved into place, the script reports the
file, leaves it as it was, removes any temporary file it wrote and exits 1.
With no path, it prints its usage and exits 2.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

from io500kit import ingest
from io500kit.errors import Io500KitError
from io500kit.types import Submission


def _v1_columns(name: str, spec) -> dict:
    """A version 1 table, a list of per-rank row objects, as the version 3
    table of its five columns. Raises ValueError for any other shape."""
    rows = spec.get("rows", []) if isinstance(spec, dict) else None
    if not (isinstance(rows, list) and all(isinstance(row, dict) for row in rows)):
        raise ValueError(f"timing.{name}: expected an object whose rows are a list of objects")
    columns = {key: [row.get(key) for row in rows] for key in ("rank", "start_s", "end_s", "close_s", "items")}
    return {"stonewall_s": spec.get("stonewall_s"), **columns}


def read(path: Path) -> Submission:
    """The Submission of a manifest: versions 1 and 2 are one JSON document,
    decoded here as the version 3 tree they hold (version 1 with each table
    reshaped into columns); any other is read by the package."""
    text = ingest.read_text(path)
    header, _ = json.JSONDecoder().raw_decode(text)
    version = header.get("format_version") if isinstance(header, dict) else None
    if version not in (1, 2):
        return ingest.read_manifest(path)
    doc = json.loads(text)
    if version == 1:
        timing = doc.get("timing", {})
        if not isinstance(timing, dict):
            raise ValueError("timing: expected an object")
        doc["timing"] = {name: _v1_columns(name, spec) for name, spec in timing.items()}
    return ingest.from_manifest({**doc, "format_version": ingest.MANIFEST_FORMAT_VERSION})


def main(paths: list[str]) -> int:
    if not paths:
        print("usage: python tools/convert_manifest.py MANIFEST...", file=sys.stderr)
        return 2
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
        written = False
        try:
            ingest.write_manifest(old, tmp)  # a write that fails removes its own file
            written = True
            equal = ingest.read_manifest(tmp) == old
            if equal:
                os.replace(tmp, path)
        except OSError as exc:
            if written:
                tmp.unlink(missing_ok=True)
            print(f"{path}: not converted ({exc}), left as is", file=sys.stderr)
            status = 1
            continue
        if not equal:
            tmp.unlink()
            version = ingest.MANIFEST_FORMAT_VERSION
            print(f"{path}: v{version} decodes to a different Submission, left as is", file=sys.stderr)
            status = 1
            continue
        n_rows = sum(t.n_ranks for t in old.timing.values())
        print(f"{path}: converted, equal Submission ({len(old.timing)} tables, {n_rows} ranks)")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
