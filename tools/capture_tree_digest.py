"""Pin the output tree of the end-to-end determinism test.

    PYTHONPATH=src python tools/capture_tree_digest.py

Runs the chain of `test_c08_end_to_end_determinism` (synth seed 61, ingest,
stats, corr and the five log analyses) in a temporary directory and writes
the sha256 of every file it produced, keyed by relative path, to
tests/golden/c08_tree.json. `test_c08` compares its own tree with that file,
so any drift in a manifest, table or plot fails the test suite. Re-capture
only for an output change that is meant, and say why in CHANGES.md.

Before it writes, the script prints how many pinned entries changed (a
digest that differs, or a file added or gone) under `manifests/` and how
many elsewhere, and names each of the latter: a change of the manifest
format alone shows `0` elsewhere.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from test_acceptance import C08_TREE, run_c08_pipeline, tree_sha256  # noqa: E402


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        digests = tree_sha256(run_c08_pipeline(Path(tmp)))
    pinned = json.loads(C08_TREE.read_text(encoding="utf-8")) if C08_TREE.exists() else {}
    changed = sorted(name for name in pinned.keys() | digests.keys() if pinned.get(name) != digests.get(name))
    elsewhere = [name for name in changed if not name.startswith("manifests/")]
    print(f"changed under manifests/: {len(changed) - len(elsewhere)}", file=sys.stderr)
    print(f"changed elsewhere: {len(elsewhere)}", file=sys.stderr)
    for name in elsewhere:
        print(f"  {name}", file=sys.stderr)
    C08_TREE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} file digests to {C08_TREE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
