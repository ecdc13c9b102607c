"""Workload definitions: the synth config each corpus comes from and its stage chain.

A workload is a synthetic corpus plus the CLI stages run on it, one after
another. Every stage writes to its own `--out` directory, so each output
check can be charged to the stage that produced the files.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 61
# Benchmark seeds are taken modulo SEED_SPACE. digests.json holds the
# reference outputs of every corpus 0..SEED_SPACE-1, so whatever the seed,
# each pass is compared with the reference.
SEED_SPACE = 64
# Candidate synth seeds per benchmark seed when a workload balances its size.
SEED_STRIDE = 64
NODE_TOLERANCE = 0.02
LOG_ANALYSES = ("runtime", "close", "stonewall", "stragglers", "pfind")
# Every stage any workload can run, in chain order; per-layer output always
# names all of them so each workload reports the same metric set.
ALL_STAGES = ("ingest", "stats", "corr", "groups") + tuple(f"logs-{a}" for a in LOG_ANALYSES)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    synth: dict  # synth config without the seed
    ingest_repo_csv: bool
    analyses: tuple[str, ...]  # stage names after ingest
    stats_normalize: str | None = None
    # Hold the corpus's total node count near its expectation, so that the
    # seed changes the corpus's composition but not the amount of work.
    balance_nodes: bool = False

    @property
    def n_submissions(self) -> int:
        return self.synth["n_submissions"]

    def corpus_seed(self, seed: int) -> int:
        """The synth seed for a benchmark seed.

        Without balancing it is the seed itself. With balancing it is the
        first of seed * SEED_STRIDE + j, j = 0, 1, ..., whose node counts,
        each still drawn by synth from the configured range, sum to within
        NODE_TOLERANCE of n_submissions times the range's mean. Needs
        io500kit on sys.path.
        """
        if not self.balance_nodes:
            return seed
        from io500kit import synth

        lo, hi = self.synth["node_range"]
        target = self.n_submissions * (lo + hi) / 2
        for candidate in range(seed * SEED_STRIDE, (seed + 1) * SEED_STRIDE):
            # Node counts are synth's first draw per submission; timing does not change them.
            spec = {**self.synth, "seed": candidate, "generate_timing": False}
            corpus = synth.gen_corpus(synth.synth_config_from_dict(spec))
            nodes = sum(g.submission.meta.client_nodes for g in corpus)
            if abs(nodes - target) <= NODE_TOLERANCE * target:
                return candidate
        raise ValueError(f"no balanced corpus among {SEED_STRIDE} candidates for seed {seed}")

    def stages(self, corpus: Path, chain: Path) -> list[tuple[str, list[str]]]:
        """(stage name, io500kit argv) pairs for one pass of the chain."""
        manifests = str(chain / "manifests")
        out = chain / "out"
        if self.ingest_repo_csv:
            ingest = ["ingest", str(corpus / "repo.csv"), "--format", "repo-csv"]
        else:
            ingest = ["ingest", str(corpus)]
        stages = [("ingest", ingest + ["--out", manifests])]
        for stage in self.analyses:
            if stage.startswith("logs-"):
                argv = ["logs", manifests, "--analysis", stage[len("logs-"):]]
            else:
                argv = [stage, manifests]
            if stage == "stats" and self.stats_normalize:
                argv += ["--normalize", self.stats_normalize]
            stages.append((stage, argv + ["--out", str(out / stage)]))
        return stages


def synth_argv(config_path: Path, seed: int, corpus: Path) -> list[str]:
    return ["synth", "--config", str(config_path), "--seed", str(seed), "--out", str(corpus)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="packages-64ppn",
            why="reference corpus: 61 packages, 2-32 nodes x 64 ppn, ~200k timing rows; "
            "manifest codec, process start-up and per-table rendering show",
            synth={"n_submissions": 61, "node_range": [2, 32], "procs_per_node": 64},
            ingest_repo_csv=False,
            analyses=("stats", "corr", "groups") + tuple(f"logs-{a}" for a in LOG_ANALYSES),
            stats_normalize="per-node",
            balance_nodes=True,
        ),
        Workload(
            name="repo-csv-5k",
            why="5,000 submissions from a repo CSV, no timing: metric table and "
            "correlation kernels; bypasses timing parse and log analyses",
            synth={"n_submissions": 5000, "generate_timing": False},
            ingest_repo_csv=True,
            analyses=("stats", "corr", "groups"),
        ),
        Workload(
            name="ranks-131k",
            why="one 512 x 256 = 131,072-rank submission with 4 clustered straggler "
            "groups: per-table kernels at full scale and peak memory",
            synth={
                "n_submissions": 1,
                "node_range": [512, 512],
                "procs_per_node": 256,
                "straggler": {"kind": "clustered", "n_clusters": 4, "cluster_size": 8},
            },
            ingest_repo_csv=False,
            analyses=tuple(f"logs-{a}" for a in LOG_ANALYSES),
        ),
    )
}
