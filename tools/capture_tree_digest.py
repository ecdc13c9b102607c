"""Pin the output tree of the end-to-end determinism test.

    PYTHONPATH=src python tools/capture_tree_digest.py

Runs the chain of `test_c08_end_to_end_determinism` (synth seed 61, ingest,
stats, corr and the five log analyses) in a temporary directory and writes
the sha256 of every file it produced, keyed by relative path, to
tests/golden/c08_tree.json. `test_c08` compares its own tree with that file,
so any drift in a manifest, table or plot fails the test suite. Re-capture
only for an output change that is meant, and say why in CHANGES.md.
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
    C08_TREE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} file digests to {C08_TREE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
