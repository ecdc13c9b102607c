"""Run one workload in a single process through `io500kit.cli.main(argv)`.

    python bench/tracer.py --workload NAME --seed N --work DIR --trace 0|1

With `--trace 1` the public functions of each layer are wrapped from
outside the program: the wrapper records a span (name, start, end, span id,
parent id, workload) and a few counts, and every io500kit module that bound
the same function object (for example `loginsight` binds
`metrics.summary_stats`, `report` binds `stats.kruskal_wallis`) gets the
wrapper too. Spans stay in memory and are written to DIR/spans.jsonl at the
end. `--trace 0` is the untraced twin used to measure the tracing overhead.
Both modes import the package before any timing starts.

Writes DIR/inproc.json: per-stage wall time and exit code, the total, the
wall-clock start of synth and of the chain, and (traced) self time per span
name and the counts. DIR is reused between runs and overwritten in place.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import shutil
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

from workloads import WORKLOADS, synth_argv

LOGINSIGHT_TABLE_FUNCS = ("close_time_report", "stonewall_ratios", "straggler_report", "pfind_imbalance")


def _timing_rows(tracer, args, kwargs, result):
    tracer.counts["ingest.timing_rows"] += len(result[0].rows)


def _manifest_written(tracer, args, kwargs, result):
    tracer.counts["ingest.manifests"] += 1
    tracer.counts["ingest.manifest_bytes"] += os.path.getsize(args[1])


def _manifest_read(tracer, args, kwargs, result):
    tracer.counts["ingest.manifest_reads"] += 1


def _pairs(tracer, args, kwargs, result):
    k = len(result.variables)
    tracer.counts["stats.pairs"] += k * (k - 1) // 2


def _ranks(tracer, args, kwargs, result):
    # straggler_report calls stonewall_ratios: count each table once, at the outermost call.
    if not any(span["name"].startswith("loginsight.") for span in tracer.stack):
        tracer.counts["loginsight.ranks_analyzed"] += len(args[0].rows)


def _files(tracer, args, kwargs, result):
    tracer.counts["report.files_written"] += len(result)
    tracer.counts["report.bytes_written"] += sum(os.path.getsize(p) for p in result)


# (module, function, span name, counter). Span names become `<name>_s` metrics.
HOOKS = [
    ("synth", "gen_corpus", "synth.gen_corpus", None),
    ("synth", "write_corpus", "synth.write_corpus", None),
    ("ingest", "parse_process_timing", "ingest.parse_process_timing", _timing_rows),
    ("ingest", "parse_result_summary", "ingest.parse_result_summary", None),
    ("ingest", "parse_repo_csv", "ingest.parse_repo_csv", None),
    ("ingest", "load_submission", "ingest.load_submission", None),
    ("ingest", "to_manifest", "ingest.to_manifest", None),
    ("ingest", "dumps_manifest", "ingest.dumps_manifest", None),
    ("ingest", "write_manifest", "ingest.write_manifest", _manifest_written),
    ("ingest", "read_manifest", "ingest.read_manifest", _manifest_read),
    ("ingest", "from_manifest", "ingest.from_manifest", None),
    ("metrics", "metric_table", "metrics.metric_table", None),
    ("metrics", "recomputation_findings", "metrics.recomputation_findings", None),
    ("metrics", "summary_stats", "metrics.summary_stats", None),
    ("stats", "correlation_matrix", "stats.correlation_matrix", _pairs),
    ("stats", "kruskal_wallis", "stats.kruskal_wallis", None),
    ("loginsight", "flag_cache_affected", "loginsight.flag_cache_affected", None),
    ("loginsight", "runtime_distribution", "loginsight.runtime_distribution", None),
    *(("loginsight", f, f"loginsight.{f}", _ranks) for f in LOGINSIGHT_TABLE_FUNCS),
    ("report", "render_qq", "report.render_qq", None),
    ("report", "render_group_box", "report.render_group_box", None),
    ("report", "render_corr_heatmap", "report.render_corr_heatmap", None),
    ("report", "render_score_strip", "report.render_score_strip", None),
    # Every table text builder, including the CSV sidecars built inside the plot renderers.
    *(
        ("report", f, "report.render_tables", None)
        for f in (
            "render_summary_table",
            "render_composition_table",
            "render_imbalance_table",
            "csv_table",
            "aligned_table",
        )
    ),
    ("report", "write_render", "report.write_render", _files),
]
COUNTS = (
    "ingest.timing_rows",
    "ingest.manifests",
    "ingest.manifest_bytes",
    "ingest.manifest_reads",
    "stats.pairs",
    "loginsight.ranks_analyzed",
    "report.files_written",
    "report.bytes_written",
)


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[dict] = []
        self.stack: list[dict] = []
        self.counts: Counter = Counter()

    @contextlib.contextmanager
    def span(self, name: str):
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "id": len(self.spans),
            "parent": self.stack[-1]["id"] if self.stack else None,
            "workload": self.workload,
        }
        self.spans.append(record)
        self.stack.append(record)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self.stack.pop()

    def install(self) -> None:
        """Wrap every hooked function wherever an io500kit module binds it."""
        for module_name, func_name, span_name, counter in HOOKS:
            original = getattr(sys.modules[f"io500kit.{module_name}"], func_name)
            wrapper = self._wrap(original, span_name, counter)
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").startswith("io500kit") and (
                    getattr(module, func_name, None) is original
                ):
                    setattr(module, func_name, wrapper)

    def _wrap(self, original, span_name, counter):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(span_name):
                result = original(*args, **kwargs)
            if counter is not None:
                counter(self, args, kwargs, result)
            return result

        return wrapper

    def self_times(self) -> dict[str, float]:
        """Span duration minus the time its direct children cover, summed by name."""
        child_s: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None:
                child_s[span["parent"]] += span["end"] - span["start"]
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span["name"]] += span["end"] - span["start"] - child_s[span["id"]]
        return dict(totals)


def run_stage(cli, argv: list[str]) -> int:
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is a failed stage, not a failed benchmark
        traceback.print_exc()
        return 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    import io500kit.cli as cli

    # Before the wrappers go in, so that a balancing seed search, which calls
    # synth.gen_corpus, is not counted as the program's synth.
    corpus_seed = workload.corpus_seed(args.seed)
    tracer = Tracer(workload.name) if args.trace else None
    if tracer:
        tracer.install()
    work = args.work
    work.mkdir(parents=True, exist_ok=True)
    config = work / "synth.json"
    config.write_text(json.dumps(workload.synth), encoding="utf-8")
    corpus = work / "corpus"
    shutil.rmtree(work / "chain" / "out", ignore_errors=True)
    stages = [("synth", synth_argv(config, corpus_seed, corpus))]
    stages += workload.stages(corpus, work / "chain")

    results = {}
    started = {}
    t_start = time.perf_counter()
    for stage, argv in stages:
        started.setdefault("synth" if stage == "synth" else "chain", time.time())
        t0 = time.perf_counter()
        if tracer:
            with tracer.span(f"cli.stage.{stage}"):
                rc = run_stage(cli, argv)
        else:
            rc = run_stage(cli, argv)
        results[stage] = {"wall_s": time.perf_counter() - t0, "rc": rc}
    report = {"stages": results, "total_s": time.perf_counter() - t_start, "started": started}

    if tracer:
        report["self_s"] = tracer.self_times()
        report["counts"] = {name: tracer.counts[name] for name in COUNTS}
        with open(work / "spans.jsonl", "w", encoding="utf-8") as f:
            for span in tracer.spans:
                f.write(json.dumps(span) + "\n")
    (work / "inproc.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
