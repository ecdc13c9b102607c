"""Subcommand front end: ingest -> stats/corr/groups/logs, plus synth.

Stages exchange data through a manifest directory (one JSON Lines file per
submission: a header line, then one line per timing table) so every
intermediate is inspectable. Every analysis reads a manifest dir, a package
dir or a dir of packages through one loader, keeping only the timing tables
it reads. Exit codes are stable for CI use: 0 success, 1 hard error (a
package that does not load, a path that is missing or not a directory, or
a dataset too small for its statistic), 2 when no usable record is left.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
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


def _file_stems(subs) -> list[str]:
    """Each submission's file-name stem, in order: its sanitized ID, with -2,
    -3, ... added where an earlier submission's stem is the same."""
    stems: list[str] = []
    used: set[str] = set()
    for sub in subs:
        base = name = _sanitize(sub.meta.submission_id)
        k = 2
        while name in used:
            name = f"{base}-{k}"
            k += 1
        used.add(name)
        stems.append(name)
    return stems


def _must_exist(path) -> None:
    """A path that does not exist raises the OSError that names it (exit 1),
    so that a mistyped path does not read as an empty dataset (exit 2)."""
    os.stat(path)


def _unique(paths: list) -> list:
    """paths in order, each kept only where it is first named: two paths
    that resolve to the same file or directory name it twice."""
    first: dict[Path, object] = {}
    for path in paths:
        first.setdefault(Path(path).resolve(), path)
    return list(first.values())


def _load_packages(paths: list[str], phases=None) -> tuple[dict, list[str]]:
    """Each package in `paths` (a package dir, or a dir of packages read in
    name order) that loads, with the timing tables of `phases` (all when
    None), by the file stem of its manifest, in that order; and
    `<package dir>: <reason>` for each package that does not load."""
    found: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if (path / SUMMARY_FILENAME).is_file():
            found.append(path)
        else:  # a file raises NotADirectoryError, which names it
            found.extend(sorted(p for p in path.iterdir() if (p / SUMMARY_FILENAME).is_file()))
    subs, errors = [], []
    for pkg in _unique(found):
        try:
            subs.append(ingest.load_submission(pkg, phases))
        except Io500KitError as exc:
            errors.append(f"{pkg}: {exc}")
    return dict(zip(_file_stems(subs), subs)), errors


def _txt(lines: list[str]) -> list[report.Piece]:
    """A text file of `lines`, each ended by a newline, as the piece
    report.write_render takes: none, and so no file, when there are no lines."""
    return [("txt", "\n".join(lines) + "\n")] if lines else []


# --- ingest -----------------------------------------------------------------


def cmd_ingest(args) -> int:
    config = load_config(args.config)
    cmap = ingest.load_column_map(args.column_map) if args.column_map else None
    errors: list[str] = []
    skipped: list[str] = []
    for raw in args.paths:
        _must_exist(raw)

    if args.format == "repo-csv":
        read = []
        for raw in _unique(args.paths):
            result = ingest.parse_repo_csv(ingest.read_text(raw), cmap)
            read.extend(result.submissions)
            skipped.extend(f"{raw}: row {n}: {reason}" for n, reason in result.skipped)
        subs = dict(zip(_file_stems(read), read))
    else:
        subs, errors = _load_packages(args.paths)
        if not (subs or errors):
            raise EmptyInputError(f"no submission packages found under {args.paths}")

    findings: list[str] = []
    for sub in subs.values():
        flagged, notes = loginsight.flag_cache_affected(
            list(sub.phases.values()), config.cache_threshold_s
        )
        sub.phases = {p.phase: p for p in flagged}
        sub.warnings.extend(notes)
        findings.extend(metrics.recomputation_findings(sub, config.recompute_rel_tol))

    outdir = Path(args.out)  # made only once the input is read: a rejected run leaves none
    outdir.mkdir(parents=True, exist_ok=True)
    for stem, sub in subs.items():
        ingest.write_manifest(sub, outdir / f"{stem}.json")

    lines = [
        f"submissions: {len(subs)}",
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
    for sub in subs.values():
        for w in sub.warnings:
            lines.append(f"WARN {sub.meta.submission_id}: {w}")
    report.write_render(outdir, "", "validation", _txt(lines))  # beside the manifests

    print(f"wrote {len(subs)} manifests to {outdir}")
    for entry in errors:
        print(f"error: {entry}", file=sys.stderr)
    if errors:
        return 1
    if not subs:
        return 2
    return 0


# --- analyses ------------------------------------------------------------------
# Each analysis is run(subs, args, config): it takes {file stem: Submission}
# in file-name order, each with only the timing tables the analysis reads,
# writes its files under args.out with report.write_render (a plot as the
# pieces its renderer returns) and returns the line cmd_analysis prints.
# A log analysis with no rows writes nothing, not even its notes.


def _load(path: str, phases) -> tuple[dict, list[str]]:
    """Each submission under `path` by its file stem, in file-name order,
    with only the timing tables of `phases`; and the errors of the packages
    left out.

    A path that holds any package (such as a synth output directory with its
    ground_truth.json) is read as packages, as `ingest` reads them: each
    package that loads is named and placed as `ingest` would name its
    manifest, and one that does not is left out and named in the errors.
    Any other directory is read as manifests, each named by its file stem.
    """
    _must_exist(path)
    subs, errors = _load_packages([path], phases)
    if not (subs or errors):
        try:
            return ingest.read_manifest_dir(path, phases), []
        except EmptyInputError:
            raise EmptyInputError(f"no manifests or packages found under {path}") from None
    return dict(sorted(subs.items(), key=lambda item: f"{item[0]}.json")), errors


def _per_table(subs, analyze, noted, notes: list[str]):
    """(sub, stem, phase, analyze(table)) for each timing table loaded, one
    at a time in phase-name order. The message of a `noted` exception goes
    to `notes`, and its table is left out."""
    for stem, sub in subs.items():
        for phase in sorted(sub.timing, key=lambda p: p.value):
            try:
                result = analyze(sub.timing[phase])
            except noted as exc:
                notes.append(str(exc))
            else:
                yield sub, stem, phase, result


def _column_stats(names, table) -> list[tuple[str, metrics.SummaryStats]]:
    rows = []
    for j, name in enumerate(names):
        col = table[:, j]
        col = col[np.isfinite(col)]
        if col.size == 0:
            continue
        rows.append((name, metrics.summary_stats(col.tolist())))
    return rows


def run_stats(subs, args, config) -> str:
    names, table = metrics.metric_table(list(subs.values()), args.normalize)
    stats_rows = _column_stats(names, table)
    if not stats_rows:
        raise EmptyInputError("no metric values available")
    report.write_render(args.out, "stats", f"summary_{args.normalize}", report.render_summary_table(stats_rows))
    report.write_render(args.out, "stats", "composition", report.render_composition_table(subs.values()))

    overall_idx = names.index("score_overall")
    strip_rows = [
        (sub.meta.filesystem_norm.value, float(row[overall_idx]))
        for sub, row in zip(subs.values(), table)
        if np.isfinite(row[overall_idx])
    ]
    if strip_rows:
        spec = report.RenderSpec(
            title=f"overall score ({args.normalize})", scale="log10", y_label="score"
        )
        strip = report.render_score_strip(strip_rows, spec)
        report.write_render(args.out, "stats", f"score_strip_{args.normalize}", strip)
    notes = [
        f"{sub.meta.submission_id}: excluded (no usable values after {args.normalize})"
        for sub, row in zip(subs.values(), table)
        if not np.any(np.isfinite(row))
    ]
    report.write_render(args.out, "stats", "notes", _txt(notes))
    return f"stats tables written to {Path(args.out) / 'stats'}"


def run_corr(subs, args, config) -> str:
    names, table = metrics.metric_table(list(subs.values()), args.normalize)
    corr = stats.correlation_matrix(names, table, method=args.method, alpha=args.alpha)
    spec = report.RenderSpec(
        title=f"{args.method} correlations ({args.normalize}, alpha={args.alpha:g})"
    )
    name = f"{args.method}_{args.normalize}"
    report.write_render(args.out, "corr", name, report.render_corr_heatmap(corr, spec))
    report.write_render(args.out, "corr", f"{name}_warnings", _txt(corr.warnings))
    n_sig = int(np.sum(np.triu(corr.significant, 1)))
    return f"correlation matrix {name}: {len(corr.variables)} variables, {n_sig} significant pairs"


def run_groups(subs, args, config) -> str:
    names, table = metrics.metric_table(list(subs.values()), args.normalize)
    j = names.index(args.metric)
    grouped: dict[str, list[float]] = {}
    for sub, row in zip(subs.values(), table):
        if np.isfinite(row[j]):
            grouped.setdefault(interconnect_class(sub.meta), []).append(float(row[j]))
    if len(grouped) < 2:
        raise SampleSizeError("group comparison needs at least two interconnect classes")
    groups = sorted(grouped.items())
    warnings = [
        f"group {label!r} has n={len(values)} < {config.min_group_size_warn}"
        for label, values in groups
        if len(values) < config.min_group_size_warn
    ]
    test = stats.kruskal_wallis([values for _, values in groups])

    spec = report.RenderSpec(
        title=f"{args.metric} ({args.normalize}) by interconnect class",
        scale="log10",
        y_label=args.metric,
    )
    name = f"{args.metric}_{args.normalize}"
    report.write_render(args.out, "groups", name, report.render_group_box(groups, spec))

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
    report.write_render(args.out, "groups", name, _txt(lines))
    return f"H={test.h:.4g} p={test.p:.4g} eta_sq={test.eta_sq:.4g} ({len(groups)} groups)"


def run_runtime(subs, args, config) -> str:
    dist = loginsight.runtime_distribution(
        list(subs.values()), config.stonewall_nominal_s, config.stonewall_tolerance_s
    )
    if not dist.per_phase:
        return "no runtime data available"
    stats_rows = [(phase.value, s) for phase, s in dist.per_phase.items()]
    report.write_render(args.out, "logs", "runtime_summary", report.render_summary_table(stats_rows))
    lines = [f"stonewall violations: {len(dist.violations)}"] + [
        f"{v.submission_id} {v.phase}: runtime {v.runtime_s:.6g} s" for v in dist.violations
    ]
    report.write_render(args.out, "logs", "runtime_violations", _txt(lines))
    groups = [(phase.value, values) for phase, values in dist.runtimes.items()]
    spec = report.RenderSpec(title="phase runtimes", scale="log10", y_label="seconds")
    report.write_render(args.out, "logs", "runtime_box", report.render_group_box(groups, spec, annotate=False))
    return f"runtime summary over {len(subs)} submissions, {len(dist.violations)} violations"


def run_close(subs, args, config) -> str:
    rows = []
    fs_groups: dict[str, list[np.ndarray]] = {}
    # A table without close times is skipped silently: close writes no notes.
    for sub, _, phase, rep in _per_table(subs, loginsight.close_time_report, NotAvailableError, []):
        rows.append(
            [
                sub.meta.submission_id,
                phase.value,
                str(rep.stats.n),
                report.fmt_csv(rep.stats.mean),
                report.fmt_csv(rep.stats.max),
                report.fmt_csv(float(np.median(rep.fraction_of_runtime))),
            ]
        )
        fs_groups.setdefault(sub.meta.filesystem_norm.value, []).append(rep.close_s_per_rank)
    if not rows:
        return "no close-time data available"
    header = ["Submission", "Phase", "N", "MeanClose_s", "MaxClose_s", "MedianFraction"]
    report.write_render(args.out, "logs", "close_summary", report.tables(header, rows))
    groups = [(fs, np.concatenate(closes)) for fs, closes in sorted(fs_groups.items())]
    spec = report.RenderSpec(
        title="close time by filesystem", scale="log10", y_label="close seconds"
    )
    report.write_render(args.out, "logs", "close_box", report.render_group_box(groups, spec, annotate=False))
    return f"close-time summary for {len(rows)} phase tables"


def run_stonewall(subs, args, config) -> str:
    analyze = functools.partial(loginsight.stonewall_ratios, stonewall_s=args.stonewall)
    rows, notes = [], []
    # Io500KitError: no stonewall, an empty table, a ratio that overflows.
    for sub, stem, phase, rat in _per_table(subs, analyze, Io500KitError, notes):
        spec = report.RenderSpec(title=f"{sub.meta.submission_id} {phase.value}")
        # Each table's plot is written, and its ratios dropped, before the next table's are computed.
        report.write_render(args.out, "logs", f"qq_{stem}_{phase.value}", report.render_qq(rat.qq, spec))
        rows.append(
            [
                sub.meta.submission_id,
                phase.value,
                str(len(rat.ratios)),
                report.fmt_csv(float(rat.ratios.min())),
                report.fmt_csv(float(rat.ratios.max())),
            ]
        )
    if not rows:
        return "no stonewall timing data available"
    header = ["Submission", "Phase", "Ranks", "MinRatio", "MaxRatio"]
    report.write_render(args.out, "logs", "stonewall_summary", report.tables(header, rows))
    report.write_render(args.out, "logs", "stonewall_notes", _txt(notes))
    return f"stonewall ratios for {len(rows)} write-phase tables"


def run_stragglers(subs, args, config) -> str:
    analyze = functools.partial(
        loginsight.straggler_report, params=config.straggler, stonewall_s=args.stonewall
    )
    rows, notes = [], []
    # Io500KitError: as for stonewall, and tables too small for the quartiles.
    for sub, _, phase, rep in _per_table(subs, analyze, Io500KitError, notes):
        rows.append(
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
        )
    if not rows:
        return "no straggler timing data available"
    header = "Submission Phase Ranks Stragglers Pattern Adjacency Runs StragglerRanks".split()
    report.write_render(args.out, "logs", "stragglers", report.tables(header, rows))
    report.write_render(args.out, "logs", "straggler_notes", _txt(notes))
    return f"straggler analysis for {len(rows)} write-phase tables"


def run_pfind(subs, args, config) -> str:
    rows, notes = [], []
    # Io500KitError: missing items, tiny tables, all-zero counts.
    for sub, stem, _, rep in _per_table(subs, loginsight.pfind_imbalance, Io500KitError, notes):
        detail = report.render_imbalance_table(rep.items_per_rank, rep.max_over_median, rep.gini)
        report.write_render(args.out, "logs", f"pfind_{stem}", detail)
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
    if not rows:
        return "no find-phase item data available"
    header = ["Submission", "Ranks", "MedianItems", "MaxItems", "MaxOverMedian", "Gini"]
    report.write_render(args.out, "logs", "pfind", report.tables(header, rows))
    report.write_render(args.out, "logs", "pfind_notes", _txt(notes))
    return f"pfind imbalance for {len(rows)} submissions"


# Each analysis with the timing tables it reads: `stats`, `corr` and `groups`
# are commands of their own, the others the choices of `logs --analysis`.
_WRITE_PHASES = tuple(phase for phase in Phase if phase.is_write)
ANALYSES = {
    "stats": (run_stats, ()),
    "corr": (run_corr, ()),
    "groups": (run_groups, ()),
    "close": (run_close, tuple(Phase)),
    "stonewall": (run_stonewall, _WRITE_PHASES),
    "stragglers": (run_stragglers, _WRITE_PHASES),
    "pfind": (run_pfind, (Phase.FIND,)),
    "runtime": (run_runtime, ()),
}
LOG_ANALYSES = ("close", "stonewall", "stragglers", "pfind", "runtime")


def cmd_analysis(args) -> int:
    config = load_config(getattr(args, "config", None))  # before any input is read
    run, phases = ANALYSES[args.analysis if args.command == "logs" else args.command]
    subs, errors = _load(args.path, phases)
    print(run(subs, args, config))
    for entry in errors:
        print(f"error: {entry}", file=sys.stderr)
    return 1 if errors else 0


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
    config_help = "pipeline config JSON overriding defaults"

    p = sub.add_parser("ingest", help="parse packages or a repo CSV into manifests")
    p.add_argument("paths", nargs="+", help="package dirs, dir of packages, or CSV files")
    p.add_argument("--format", choices=("package", "repo-csv"), default="package")
    p.add_argument("--column-map", help="JSON column map for repo CSVs")
    p.add_argument("--out", default=outdir + "/manifests")
    p.add_argument("--config", help=config_help)
    p.set_defaults(func=cmd_ingest)

    @contextlib.contextmanager
    def analysis(name, help, config=False):
        """An analysis command: its input `path`, then the options the caller
        adds, `--out`, and `--config` when it takes one."""
        p = sub.add_parser(name, help=help)
        p.add_argument("path", help="manifest dir, package dir, or dir of packages")
        yield p
        p.add_argument("--out", default=outdir)
        if config:
            p.add_argument("--config", help=config_help)
        p.set_defaults(func=cmd_analysis)

    with analysis("stats", "summary statistics and composition tables") as p:
        p.add_argument("--normalize", choices=metrics.NORMALIZATIONS, default="raw")

    with analysis("corr", "correlation matrix with FDR correction") as p:
        p.add_argument("--method", choices=("spearman", "pearson"), default="spearman")
        p.add_argument("--normalize", choices=metrics.NORMALIZATIONS, default="per-node")
        p.add_argument(
            "--alpha", type=_float_between(0.0, 1.0, "must lie strictly between 0 and 1"), default=0.05
        )

    with analysis("groups", "group comparison by interconnect class", config=True) as p:
        p.add_argument("--metric", default="score_overall", choices=metrics.METRIC_NAMES)
        p.add_argument("--normalize", choices=metrics.NORMALIZATIONS, default="per-node")

    with analysis("logs", "per-process log analyses", config=True) as p:
        p.add_argument("--analysis", choices=LOG_ANALYSES, required=True)
        p.add_argument(
            "--stonewall",
            type=_float_between(0.0, math.inf, "must be a positive finite number of seconds"),
            help="stonewall seconds for every table, in place of the one its log carries",
        )

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
    except OSError as exc:  # such as an --out that names a file
        print(f"error: {exc.filename}: {exc.strerror}" if exc.filename else f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
