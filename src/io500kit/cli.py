"""Subcommand front end: ingest -> stats/corr/groups/logs, plus synth.

Stages exchange data through a manifest directory (one JSON Lines file per
submission: a header line, then one line per timing table) so every
intermediate is inspectable; each stage decodes only the timing tables it
reads. Exit codes are stable for CI use: 0 success, 1 hard error, 2 empty
or degenerate dataset.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import ingest, loginsight, metrics, report, stats, synth
from .config import default_outdir, load_config, read_json_object
from .errors import EmptyInputError, Io500KitError, NotAvailableError, SampleSizeError
from .ingest import SUMMARY_FILENAME, interconnect_class
from .types import Phase


def _sanitize(name: str) -> str:
    cleaned = re.sub(r"[^A-Za-z0-9_.-]+", "-", name).strip("-.")
    return cleaned or "sub"


def _unique(base: str, used: set[str]) -> str:
    name = base
    k = 2
    while name in used:
        name = f"{base}-{k}"
        k += 1
    used.add(name)
    return name


def _discover_packages(paths: list[str]) -> list[Path]:
    packages: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if (path / SUMMARY_FILENAME).is_file():
            packages.append(path)
            continue
        if path.is_dir():
            packages.extend(
                sorted(p for p in path.iterdir() if (p / SUMMARY_FILENAME).is_file())
            )
    return packages


def _write_lines(path: Path, lines: list[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


# --- ingest -----------------------------------------------------------------


def cmd_ingest(args) -> int:
    config = load_config(args.config)
    cmap = ingest.load_column_map(args.column_map) if args.column_map else None
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    submissions = []
    errors: list[str] = []
    skipped: list[str] = []

    if args.format == "repo-csv":
        for raw in args.paths:
            text = ingest.read_text(raw)
            result = ingest.parse_repo_csv(text, cmap)
            submissions.extend(result.submissions)
            skipped.extend(f"{raw}: row {n}: {reason}" for n, reason in result.skipped)
    else:
        packages = _discover_packages(args.paths)
        if not packages:
            raise EmptyInputError(f"no submission packages found under {args.paths}")
        for pkg in packages:
            try:
                submissions.append(ingest.load_submission(pkg))
            except Io500KitError as exc:
                errors.append(f"{pkg}: {exc}")

    findings: list[str] = []
    for sub in submissions:
        flagged, notes = loginsight.flag_cache_affected(
            list(sub.phases.values()), config["cache_threshold_s"]
        )
        sub.phases = {p.phase: p for p in flagged}
        sub.warnings.extend(notes)
        findings.extend(metrics.recomputation_findings(sub, config["recompute_rel_tol"]))

    used: set[str] = set()
    for sub in submissions:
        name = _unique(_sanitize(sub.meta.submission_id), used)
        ingest.write_manifest(sub, outdir / f"{name}.json")

    lines = [
        f"submissions: {len(submissions)}",
        f"skipped rows: {len(skipped)}",
        f"hard errors: {len(errors)}",
        f"recomputation findings: {len(findings)}",
    ]
    for entry in skipped:
        lines.append(f"SKIP {entry}")
    for entry in errors:
        lines.append(f"ERROR {entry}")
    for entry in findings:
        lines.append(f"FINDING {entry}")
    for sub in submissions:
        for w in sub.warnings:
            lines.append(f"WARN {sub.meta.submission_id}: {w}")
    _write_lines(outdir / "validation.txt", lines)

    print(f"wrote {len(submissions)} manifests to {outdir}")
    if errors:
        for entry in errors:
            print(f"error: {entry}", file=sys.stderr)
        return 1
    if not submissions:
        return 2
    return 0


# --- stats ------------------------------------------------------------------


def _column_stats(names, table) -> list[tuple[str, metrics.SummaryStats]]:
    rows = []
    for j, name in enumerate(names):
        col = table[:, j]
        col = col[np.isfinite(col)]
        if col.size == 0:
            continue
        rows.append((name, metrics.summary_stats(col.tolist())))
    return rows


def cmd_stats(args) -> int:
    subs = ingest.read_manifest_dir(args.manifest_dir, phases=())
    names, table = metrics.metric_table(subs, args.normalize)
    stats_rows = _column_stats(names, table)
    if not stats_rows:
        raise EmptyInputError("no metric values available")
    csv_text, txt = report.render_summary_table(stats_rows)
    report.write_render(args.out, "stats", f"summary_{args.normalize}", csv_text=csv_text, txt=txt)

    comp_csv, comp_txt = report.render_composition_table(subs)
    report.write_render(args.out, "stats", "composition", csv_text=comp_csv, txt=comp_txt)

    overall_idx = names.index("score_overall")
    strip_rows = [
        (subs[i].meta.filesystem_norm.value, float(table[i, overall_idx]))
        for i in range(len(subs))
        if np.isfinite(table[i, overall_idx])
    ]
    notes: list[str] = []
    if strip_rows:
        spec = report.RenderSpec(
            title=f"overall score ({args.normalize})", scale="log10", y_label="score"
        )
        svg, sidecar = report.render_score_strip(strip_rows, spec)
        report.write_render(
            args.out, "stats", f"score_strip_{args.normalize}", svg=svg, csv_text=sidecar
        )
    for i, sub in enumerate(subs):
        if not np.any(np.isfinite(table[i, :])):
            notes.append(f"{sub.meta.submission_id}: excluded (no usable values after {args.normalize})")
    if notes:
        _write_lines(Path(args.out) / "stats" / "notes.txt", notes)
    print(f"stats tables written to {Path(args.out) / 'stats'}")
    return 0


# --- correlations ------------------------------------------------------------


def cmd_corr(args) -> int:
    subs = ingest.read_manifest_dir(args.manifest_dir, phases=())
    names, table = metrics.metric_table(subs, args.normalize)
    corr = stats.correlation_matrix(names, table, method=args.method, alpha=args.alpha)
    spec = report.RenderSpec(
        title=f"{args.method} correlations ({args.normalize}, alpha={args.alpha:g})"
    )
    svg, sidecar = report.render_corr_heatmap(corr, spec)
    name = f"{args.method}_{args.normalize}"
    report.write_render(args.out, "corr", name, svg=svg, csv_text=sidecar)
    if corr.warnings:
        _write_lines(Path(args.out) / "corr" / f"{name}_warnings.txt", corr.warnings)
    n_sig = int(np.sum(np.triu(corr.significant, 1)))
    print(f"correlation matrix {name}: {len(corr.variables)} variables, {n_sig} significant pairs")
    return 0


# --- group comparisons --------------------------------------------------------


def cmd_groups(args) -> int:
    config = load_config(args.config)
    subs = ingest.read_manifest_dir(args.manifest_dir, phases=())
    names, table = metrics.metric_table(subs, args.normalize)
    j = names.index(args.metric)
    grouped: dict[str, list[float]] = {}
    for i, sub in enumerate(subs):
        if np.isfinite(table[i, j]):
            grouped.setdefault(interconnect_class(sub.meta), []).append(float(table[i, j]))
    if len(grouped) < 2:
        raise SampleSizeError("group comparison needs at least two interconnect classes")
    groups = sorted(grouped.items())
    warnings = [
        f"group {label!r} has n={len(values)} < {config['min_group_size_warn']}"
        for label, values in groups
        if len(values) < config["min_group_size_warn"]
    ]
    test = stats.kruskal_wallis([values for _, values in groups])

    spec = report.RenderSpec(
        title=f"{args.metric} ({args.normalize}) by interconnect class",
        scale="log10",
        y_label=args.metric,
    )
    svg, sidecar = report.render_group_box(groups, spec)
    name = f"{args.metric}_{args.normalize}"
    report.write_render(args.out, "groups", name, svg=svg, csv_text=sidecar)

    lines = [
        f"metric: {args.metric} ({args.normalize})",
        f"groups: " + ", ".join(f"{label} (n={len(values)})" for label, values in groups),
        f"H = {test.h:.6g}",
        f"p = {test.p:.6g}",
        f"eta_sq = {test.eta_sq:.6g}",
        f"caveat: {stats.INDEPENDENCE_CAVEAT}",
    ]
    if test.approximate:
        lines.append("note: total n < 5, chi-square approximation unreliable")
    lines.extend(f"warning: {w}" for w in warnings)
    _write_lines(Path(args.out) / "groups" / f"{name}.txt", lines)
    print(f"H={test.h:.4g} p={test.p:.4g} eta_sq={test.eta_sq:.4g} ({len(groups)} groups)")
    return 0


# --- log-derived analyses --------------------------------------------------------
# Each analysis takes the submissions and returns the line cmd_logs prints. An
# analysis with no rows writes nothing, not even its notes.


def _load_submissions_any(path: str, phases) -> list:
    """The packages under `path` when it holds any, such as a synth output
    directory with its ground_truth.json; otherwise its manifests."""
    packages = _discover_packages([path])
    if packages:
        return [ingest.load_submission(pkg) for pkg in packages]
    p = Path(path)
    if p.is_dir() and any(p.glob("*.json")):
        return ingest.read_manifest_dir(p, phases=phases)
    raise EmptyInputError(f"no manifests or packages found under {path}")


def _per_table(subs, phases, analyze, noted):
    """(sub, phase, analyze(table)) for each timing table of `phases`, in phase-name
    order, and the messages of the `noted` exceptions, whose tables are left out."""
    results, notes = [], []
    for sub in subs:
        for phase in sorted(sub.timing.keys() & phases, key=lambda p: p.value):
            try:
                results.append((sub, phase, analyze(sub.timing[phase])))
            except noted as exc:
                notes.append(str(exc))
    return results, notes


def _emit(out, name: str, tables: tuple[str, str], notes_file="", notes=()) -> None:
    """Write a summary's tables as logs/<name>.csv and .txt, and any notes as logs/<notes_file>."""
    csv_text, txt = tables
    report.write_render(out, "logs", name, csv_text=csv_text, txt=txt)
    if notes:
        _write_lines(Path(out) / "logs" / notes_file, notes)


def _logs_runtime(subs, phases, args, config) -> str:
    dist = loginsight.runtime_distribution(
        subs, config["stonewall_nominal_s"], config["stonewall_tolerance_s"]
    )
    if not dist.per_phase:
        return "no runtime data available"
    stats_rows = [(phase.value, s) for phase, s in dist.per_phase.items()]
    _emit(args.out, "runtime_summary", report.render_summary_table(stats_rows))
    lines = [f"stonewall violations: {len(dist.violations)}"] + [
        f"{v.submission_id} {v.phase}: runtime {v.runtime_s:.6g} s" for v in dist.violations
    ]
    _write_lines(Path(args.out) / "logs" / "runtime_violations.txt", lines)
    groups = [(phase.value, values) for phase, values in dist.runtimes.items()]
    spec = report.RenderSpec(title="phase runtimes", scale="log10", y_label="seconds")
    svg, sidecar = report.render_group_box(groups, spec, annotate=False)
    report.write_render(args.out, "logs", "runtime_box", svg=svg, csv_text=sidecar)
    return f"runtime summary over {len(subs)} submissions, {len(dist.violations)} violations"


def _logs_close(subs, phases, args, config) -> str:
    # A table without close times is skipped silently: close writes no notes.
    results, _ = _per_table(subs, phases, loginsight.close_time_report, NotAvailableError)
    if not results:
        return "no close-time data available"
    rows = [
        [
            sub.meta.submission_id,
            phase.value,
            str(rep.stats.n),
            report.fmt_csv(rep.stats.mean),
            report.fmt_csv(rep.stats.max),
            report.fmt_csv(float(np.median(rep.fraction_of_runtime))),
        ]
        for sub, phase, rep in results
    ]
    header = ["Submission", "Phase", "N", "MeanClose_s", "MaxClose_s", "MedianFraction"]
    _emit(args.out, "close_summary", report.tables(header, rows))
    fs_groups: dict[str, list[np.ndarray]] = {}
    for sub, _, rep in results:
        fs_groups.setdefault(sub.meta.filesystem_norm.value, []).append(rep.close_s_per_rank)
    groups = [(fs, np.concatenate(closes)) for fs, closes in sorted(fs_groups.items())]
    spec = report.RenderSpec(
        title="close time by filesystem", scale="log10", y_label="close seconds"
    )
    svg, sidecar = report.render_group_box(groups, spec, annotate=False)
    report.write_render(args.out, "logs", "close_box", svg=svg, csv_text=sidecar)
    return f"close-time summary for {len(rows)} phase tables"


def _logs_stonewall(subs, phases, args, config) -> str:
    analyze = functools.partial(loginsight.stonewall_ratios, stonewall_s=args.stonewall)
    # Io500KitError: no stonewall, an empty table, a ratio that overflows.
    results, notes = _per_table(subs, phases, analyze, Io500KitError)
    if not results:
        return "no stonewall timing data available"
    rows = []
    for sub, phase, rat in results:
        spec = report.RenderSpec(title=f"{sub.meta.submission_id} {phase.value}")
        name = f"qq_{_sanitize(sub.meta.submission_id)}_{phase.value}"
        # The (svg, sidecar) pair is written and dropped before the next table's is drawn.
        report.write_render(args.out, "logs", name, *report.render_qq(rat.qq, spec))
        rows.append(
            [
                sub.meta.submission_id,
                phase.value,
                str(len(rat.ratios)),
                report.fmt_csv(float(rat.ratios.min())),
                report.fmt_csv(float(rat.ratios.max())),
            ]
        )
    header = ["Submission", "Phase", "Ranks", "MinRatio", "MaxRatio"]
    _emit(args.out, "stonewall_summary", report.tables(header, rows), "stonewall_notes.txt", notes)
    return f"stonewall ratios for {len(rows)} write-phase tables"


def _logs_stragglers(subs, phases, args, config) -> str:
    analyze = functools.partial(
        loginsight.straggler_report, stonewall_s=args.stonewall, **config["straggler"]
    )
    # Io500KitError: as for stonewall, and tables too small for the quartiles.
    results, notes = _per_table(subs, phases, analyze, Io500KitError)
    if not results:
        return "no straggler timing data available"
    rows = [
        [
            sub.meta.submission_id,
            phase.value,
            str(len(rep.ranks)),
            str(len(rep.straggler_ranks)),
            rep.pattern.value,
            report.fmt_csv(rep.adjacency_index),
            str(rep.run_count),
            ";".join(str(r) for r in sorted(rep.straggler_ranks)),
        ]
        for sub, phase, rep in results
    ]
    header = "Submission Phase Ranks Stragglers Pattern Adjacency Runs StragglerRanks".split()
    _emit(args.out, "stragglers", report.tables(header, rows), "straggler_notes.txt", notes)
    return f"straggler analysis for {len(rows)} write-phase tables"


def _logs_pfind(subs, phases, args, config) -> str:
    # Io500KitError: missing items, tiny tables, all-zero counts.
    results, notes = _per_table(subs, phases, loginsight.pfind_imbalance, Io500KitError)
    if not results:
        return "no find-phase item data available"
    rows = []
    for sub, _, rep in results:
        detail = report.render_imbalance_table(rep.items_per_rank, rep.max_over_median, rep.gini)
        _emit(args.out, f"pfind_{_sanitize(sub.meta.submission_id)}", detail)
        rows.append(
            [
                sub.meta.submission_id,
                str(len(rep.items_per_rank)),
                str(int(np.median(rep.items_per_rank))),
                str(int(rep.items_per_rank.max())),
                report.fmt_csv(rep.max_over_median),  # "inf" when the median is zero
                report.fmt_csv(rep.gini),
            ]
        )
    header = ["Submission", "Ranks", "MedianItems", "MaxItems", "MaxOverMedian", "Gini"]
    _emit(args.out, "pfind", report.tables(header, rows), "pfind_notes.txt", notes)
    return f"pfind imbalance for {len(rows)} submissions"


# Each analysis with the timing tables it reads.
_WRITE_PHASES = [phase for phase in Phase if phase.is_write]
LOG_ANALYSES = {
    "close": (_logs_close, list(Phase)),
    "stonewall": (_logs_stonewall, _WRITE_PHASES),
    "stragglers": (_logs_stragglers, _WRITE_PHASES),
    "pfind": (_logs_pfind, [Phase.FIND]),
    "runtime": (_logs_runtime, ()),
}


def cmd_logs(args) -> int:
    config = load_config(args.config)
    analysis, phases = LOG_ANALYSES[args.analysis]
    print(analysis(_load_submissions_any(args.path, phases), phases, args, config))
    return 0


# --- synth --------------------------------------------------------------------


def cmd_synth(args) -> int:
    spec = read_json_object(args.config, "synth config") if args.config else {}
    if args.seed is not None:
        spec["seed"] = args.seed
    if args.n is not None:
        spec["n_submissions"] = args.n
    config = synth.synth_config_from_dict(spec)
    corpus = synth.gen_corpus(config)
    synth.write_corpus(corpus, args.out)
    print(f"wrote {len(corpus)} synthetic submissions to {args.out}")
    return 0


# --- argument parsing ------------------------------------------------------------


def _float_between(lo: float, hi: float, requirement: str):
    """An argparse type: a float strictly between lo and hi."""

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not lo < value < hi:  # also false for NaN
            raise argparse.ArgumentTypeError(f"{requirement}, got {text!r}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="io500kit",
        description="Ingest, validate, and statistically characterize IO500 submissions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    outdir = str(default_outdir())

    p = sub.add_parser("ingest", help="parse packages or a repo CSV into manifests")
    p.add_argument("paths", nargs="+", help="package dirs, dir of packages, or CSV files")
    p.add_argument("--format", choices=("package", "repo-csv"), default="package")
    p.add_argument("--column-map", help="JSON column map for repo CSVs")
    p.add_argument("--out", default=outdir + "/manifests")
    p.add_argument("--config", help="pipeline config JSON overriding defaults")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("stats", help="summary statistics and composition tables")
    p.add_argument("manifest_dir")
    p.add_argument("--normalize", choices=metrics.NORMALIZATIONS, default="raw")
    p.add_argument("--out", default=outdir)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("corr", help="correlation matrix with FDR correction")
    p.add_argument("manifest_dir")
    p.add_argument("--method", choices=("spearman", "pearson"), default="spearman")
    p.add_argument("--normalize", choices=metrics.NORMALIZATIONS, default="per-node")
    p.add_argument(
        "--alpha", type=_float_between(0.0, 1.0, "must lie strictly between 0 and 1"), default=0.05
    )
    p.add_argument("--out", default=outdir)
    p.set_defaults(func=cmd_corr)

    p = sub.add_parser("groups", help="group comparison by interconnect class")
    p.add_argument("manifest_dir")
    p.add_argument("--metric", default="score_overall", choices=metrics.METRIC_NAMES)
    p.add_argument("--normalize", choices=metrics.NORMALIZATIONS, default="per-node")
    p.add_argument("--out", default=outdir)
    p.add_argument("--config", help="pipeline config JSON overriding defaults")
    p.set_defaults(func=cmd_groups)

    p = sub.add_parser("logs", help="per-process log analyses")
    p.add_argument("path", help="manifest dir, package dir, or dir of packages")
    p.add_argument("--analysis", choices=tuple(LOG_ANALYSES), required=True)
    p.add_argument(
        "--stonewall",
        type=_float_between(0.0, math.inf, "must be a positive finite number of seconds"),
        help="explicit stonewall seconds when logs lack it",
    )
    p.add_argument("--out", default=outdir)
    p.add_argument("--config", help="pipeline config JSON overriding defaults")
    p.set_defaults(func=cmd_logs)

    p = sub.add_parser("synth", help="generate a deterministic synthetic corpus")
    p.add_argument("--config", help="synth config JSON")
    p.add_argument("--seed", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--out", default=outdir + "/synth")
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except EmptyInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Io500KitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
