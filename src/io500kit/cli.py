"""Subcommand front end: ingest -> stats/corr/groups/logs, plus synth.

Stages exchange data through a manifest directory (one JSON Lines file per
submission: a header line, then one line per timing table) so every
intermediate is inspectable. Every analysis reads a manifest dir, a package
dir or a dir of packages through one loader, keeping only the timing tables
it reads. Every command, `synth` included, writes its files into a hidden
staging directory inside --out and moves them into place only when the run
succeeds, so a run that fails leaves --out as it found it. Exit codes are
stable for CI use: 0 success, 1 hard error (a package that does not load,
a path that is missing or not a directory, or a dataset too small for its
statistic), 2 when no usable record is left.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import itertools
import math
import os
import re
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from . import ingest, loginsight, metrics, report, stats, synth
from .config import default_outdir, load_config, read_json_object
from .errors import EmptyInputError, Io500KitError, NotAvailableError, SampleSizeError
from .ingest import SUMMARY_FILENAME, Tables, interconnect_class
from .types import Phase, Submission


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


def _load_packages(paths: list[str], phases=None) -> tuple[list[tuple[str, Callable]], list[str]]:
    """(file stem, open) for each package in `paths` (a package dir, or a dir
    of packages read in name order) whose summary and meta load, in that
    order: the stem its manifest takes, and a call that returns
    ingest.stream_package's Submission and iterator of its timing tables of
    `phases` (all when None); and `<package dir>: <reason>` for each package
    that does not load. Every summary and meta is read here, once, so a bad
    package is left out before any output is made."""
    found: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if (path / SUMMARY_FILENAME).is_file():
            found.append(path)
        else:  # a file raises NotADirectoryError, which names it
            found.extend(sorted(p for p in path.iterdir() if (p / SUMMARY_FILENAME).is_file()))
    headers, errors = [], []
    for pkg in _unique(found):
        try:
            headers.append((pkg, ingest.load_package_header(pkg)))
        except Io500KitError as exc:
            errors.append(f"{pkg}: {exc}")
    stems = _file_stems(header for _, header in headers)
    loaders = [functools.partial(ingest.stream_package, pkg, phases, header) for pkg, header in headers]
    return list(zip(stems, loaders)), errors


class _Output:
    """A run's --out directory, written as one transaction: each file goes
    to a hidden staging directory, made inside --out at the first write.
    Used as a context manager, it moves the staged files into place when
    the run succeeds. It always removes the staging directory, and when the
    run fails, also --out and its parents where the run made them, so that
    a run that fails leaves --out as it found it."""

    def __init__(self, path):
        self.path = Path(path)
        self.stage: Path | None = None
        self.made: list[Path] = []  # --out and the parents the run made, children first

    def _staged(self) -> Path:
        if self.stage is None:
            self.made = list(itertools.takewhile(lambda d: not os.path.lexists(d), (self.path, *self.path.parents)))
            self.path.mkdir(parents=True, exist_ok=True)
            try:
                self.stage = Path(tempfile.mkdtemp(prefix=".io500kit-run-", dir=self.path))
            except OSError as exc:
                exc.filename = str(self.path)  # not the staging directory's random name
                raise
        return self.stage

    def write(self, analysis: str, name: str, pieces) -> None:
        """report.write_render into the staging directory."""
        report.write_render(self._staged(), analysis, name, pieces)

    def manifest(self, sub: Submission, stem: str, tables: Tables) -> None:
        ingest.write_manifest(sub, self._staged() / f"{stem}.json", tables)

    def corpus(self, generated: list[synth.GeneratedSubmission]) -> None:
        """synth.write_corpus into the staging directory."""
        synth.write_corpus(generated, self._staged())

    def _commit(self) -> None:
        """Make each staged directory and move each staged file into place,
        parents first, once no target is a file where a directory goes or a
        directory where a file goes: each raises the error a write in place
        would raise, naming the target."""
        staged = {p.relative_to(self.stage): p.is_dir() for p in sorted(self.stage.rglob("*"))}
        for rel, is_dir in staged.items():
            target = self.path / rel
            if is_dir and os.path.lexists(target) and not target.is_dir():
                raise FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), str(target))
            if not is_dir and target.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(target))
        for rel, is_dir in staged.items():
            if is_dir:
                (self.path / rel).mkdir(exist_ok=True)
            else:  # over an earlier run's file; a copy where the target is on another file system
                shutil.move(self.stage / rel, self.path / rel)

    def __enter__(self) -> "_Output":
        return self

    def __exit__(self, kind, exc, tb) -> None:
        committed = False
        try:
            if kind is None and self.stage is not None:
                self._commit()
            committed = kind is None
        finally:
            if self.stage is not None:
                shutil.rmtree(self.stage, ignore_errors=True)
            if not committed:
                for directory in self.made:
                    with contextlib.suppress(OSError):  # such as a directory another process wrote to
                        directory.rmdir()


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
        subs = ((stem, sub, ()) for stem, sub in zip(_file_stems(read), read))
    else:
        loaders, errors = _load_packages(args.paths)
        if not (loaders or errors):
            raise EmptyInputError(f"no submission packages found under {args.paths}")
        subs = ((stem, *load()) for stem, load in loaders)

    # One submission at a time is loaded, flagged and written, and one table
    # at a time parsed, written and dropped; only the findings and warnings
    # are kept, for validation.txt.
    n_subs = 0
    findings: list[str] = []
    warnings: list[str] = []
    with _Output(args.out) as out:
        for stem, sub, tables in subs:
            flagged, notes = loginsight.flag_cache_affected(
                list(sub.phases.values()), config.cache_threshold_s
            )
            sub.phases = {p.phase: p for p in flagged}
            # A package's phases all carry a runtime: only a repo-CSV row, which
            # has no tables, gets notes, so they follow every other warning.
            sub.warnings.extend(notes)
            findings.extend(metrics.recomputation_findings(sub, config.recompute_rel_tol))
            out.manifest(sub, stem, tables)
            warnings.extend(f"WARN {sub.meta.submission_id}: {w}" for w in sub.warnings)
            n_subs += 1

        lines = [
            f"submissions: {n_subs}",
            f"skipped rows: {len(skipped)}",
            f"hard errors: {len(errors)}",
            f"recomputation findings: {len(findings)}",
        ]
        lines.extend(f"SKIP {entry}" for entry in skipped)
        lines.extend(f"ERROR {entry}" for entry in errors)
        lines.extend(f"FINDING {entry}" for entry in findings)
        lines.extend(warnings)
        out.write("", "validation", _txt(lines))  # beside the manifests

    print(f"wrote {n_subs} manifests to {out.path}")
    for entry in errors:
        print(f"error: {entry}", file=sys.stderr)
    if errors:
        return 1
    if not n_subs:
        return 2
    return 0


# --- analyses ------------------------------------------------------------------
# Each analysis is run(subs, args, config): `subs` is a one-pass iterator of
# (file stem, Submission, tables) triples in file-name order, each Submission
# loaded, without its timing tables, when the iterator reaches it, and `tables`
# a one-pass iterator of the (phase, table) pairs of the timing tables the
# analysis reads, each table read when it is reached. An analysis writes its
# files with args.out.write, which takes what report.write_render takes less
# the directory (a plot as the pieces its renderer returns), and returns the
# line cmd_analysis prints. The per-table log analyses go through _per_table,
# which drops each table and its result before it reads the next. A log
# analysis with no rows writes nothing, not even its notes.


def _load(path: str, phases) -> tuple[Iterator[tuple[str, Submission, Tables]], list[str]]:
    """Each submission under `path` by its file stem, in file-name order,
    loaded when the iterator reaches it, with an iterator of its timing
    tables of `phases`; and the errors of the packages left out.

    A path that holds any package (such as a synth output directory with its
    ground_truth.json) is read as packages, as `ingest` reads them: each
    package that loads is named and placed as `ingest` would name its
    manifest, and one that does not is left out and named in the errors.
    Any other directory is read as manifests, each named by its file stem:
    its header is read when it is reached, and each table line when its
    iterator reaches it.
    """
    _must_exist(path)
    loaders, errors = _load_packages([path], phases)
    if loaders or errors:
        loaders.sort(key=lambda item: f"{item[0]}.json")
    else:
        manifests = ingest.manifest_paths(path)
        if not manifests:
            raise EmptyInputError(f"no manifests or packages found under {path}")
        loaders = [(p.stem, functools.partial(ingest.stream_manifest, p, phases)) for p in manifests]
    return ((stem, *load()) for stem, load in loaders), errors


def _per_table(subs, args, analyze, noted, each, name: str, notes_name: str | None, header: list[str]) -> int:
    """Run `analyze` on each timing table, leaving out one that raises `noted`,
    its message a note; each(meta, stem, phase, result) writes a table's own
    files and returns its summary row. With rows, writes logs/<name>, their
    table, and logs/<notes_name>, when named, the notes. Returns the row count."""
    rows, notes = [], []
    for stem, sub, tables in subs:
        for phase, table in tables:
            try:
                result = analyze(table)
            except noted as exc:
                notes.append(str(exc))
                continue
            finally:
                del table
            rows.append(each(sub.meta, stem, phase, result))
            del result
    if rows:
        args.out.write("logs", name, report.tables(header, rows))
        if notes_name:
            args.out.write("logs", notes_name, _txt(notes))
    return len(rows)


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
    subs = [sub for _, sub, _ in subs]
    names, table = metrics.metric_table(subs, args.normalize)
    stats_rows = _column_stats(names, table)
    if not stats_rows:
        raise EmptyInputError("no metric values available")
    args.out.write("stats", f"summary_{args.normalize}", report.render_summary_table(stats_rows))
    args.out.write("stats", "composition", report.render_composition_table(subs))

    overall_idx = names.index("score_overall")
    strip_rows = [
        (sub.meta.filesystem_norm.value, float(row[overall_idx]))
        for sub, row in zip(subs, table)
        if np.isfinite(row[overall_idx])
    ]
    if strip_rows:
        spec = report.RenderSpec(
            title=f"overall score ({args.normalize})", scale="log10", y_label="score"
        )
        strip = report.render_score_strip(strip_rows, spec)
        args.out.write("stats", f"score_strip_{args.normalize}", strip)
    notes = [
        f"{sub.meta.submission_id}: excluded (no usable values after {args.normalize})"
        for sub, row in zip(subs, table)
        if not np.any(np.isfinite(row))
    ]
    args.out.write("stats", "notes", _txt(notes))
    return f"stats tables written to {args.out.path / 'stats'}"


def run_corr(subs, args, config) -> str:
    names, table = metrics.metric_table([sub for _, sub, _ in subs], args.normalize)
    corr = stats.correlation_matrix(names, table, method=args.method, alpha=args.alpha)
    spec = report.RenderSpec(
        title=f"{args.method} correlations ({args.normalize}, alpha={args.alpha:g})"
    )
    name = f"{args.method}_{args.normalize}"
    args.out.write("corr", name, report.render_corr_heatmap(corr, spec))
    args.out.write("corr", f"{name}_warnings", _txt(corr.warnings))
    n_sig = int(np.sum(np.triu(corr.significant, 1)))
    return f"correlation matrix {name}: {len(corr.variables)} variables, {n_sig} significant pairs"


def run_groups(subs, args, config) -> str:
    subs = [sub for _, sub, _ in subs]
    names, table = metrics.metric_table(subs, args.normalize)
    j = names.index(args.metric)
    grouped: dict[str, list[float]] = {}
    for sub, row in zip(subs, table):
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
    args.out.write("groups", name, report.render_group_box(groups, spec))

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
    args.out.write("groups", name, _txt(lines))
    return f"H={test.h:.4g} p={test.p:.4g} eta_sq={test.eta_sq:.4g} ({len(groups)} groups)"


def run_runtime(subs, args, config) -> str:
    subs = [sub for _, sub, _ in subs]
    dist = loginsight.runtime_distribution(subs, config.stonewall_nominal_s, config.stonewall_tolerance_s)
    if not dist.per_phase:
        return "no runtime data available"
    stats_rows = [(phase.value, s) for phase, s in dist.per_phase.items()]
    args.out.write("logs", "runtime_summary", report.render_summary_table(stats_rows))
    lines = [f"stonewall violations: {len(dist.violations)}"] + [
        f"{v.submission_id} {v.phase}: runtime {v.runtime_s:.6g} s" for v in dist.violations
    ]
    args.out.write("logs", "runtime_violations", _txt(lines))
    groups = [(phase.value, values) for phase, values in dist.runtimes.items()]
    spec = report.RenderSpec(title="phase runtimes", scale="log10", y_label="seconds")
    args.out.write("logs", "runtime_box", report.render_group_box(groups, spec, annotate=False))
    return f"runtime summary over {len(subs)} submissions, {len(dist.violations)} violations"


def run_close(subs, args, config) -> str:
    fs_groups: dict[str, list[np.ndarray]] = {}
    header = ["Submission", "Phase", "N", "MeanClose_s", "MaxClose_s", "MedianFraction"]

    def each(meta, stem, phase, rep):
        fs_groups.setdefault(meta.filesystem_norm.value, []).append(rep.close_s_per_rank)
        return [
            meta.submission_id,
            phase.value,
            str(rep.stats.n),
            report.fmt_csv(rep.stats.mean),
            report.fmt_csv(rep.stats.max),
            report.fmt_csv(float(np.median(rep.fraction_of_runtime))),
        ]
    # A table without close times is skipped silently: close writes no notes.
    n = _per_table(subs, args, loginsight.close_time_report, NotAvailableError, each, "close_summary", None, header)
    if not n:
        return "no close-time data available"
    spec = report.RenderSpec(title="close time by filesystem", scale="log10", y_label="close seconds")
    # Each group's pieces are let go once joined, and the render holds the one
    # reference to each joined column, which it drops once it is quantized.
    groups = [(fs, np.concatenate(fs_groups.pop(fs))) for fs in sorted(fs_groups)]
    box = report.render_group_box(groups, spec, annotate=False)
    del groups
    args.out.write("logs", "close_box", box)
    return f"close-time summary for {n} phase tables"


def run_stonewall(subs, args, config) -> str:
    analyze = functools.partial(loginsight.stonewall_ratios, stonewall_s=args.stonewall)
    header = ["Submission", "Phase", "Ranks", "MinRatio", "MaxRatio"]

    def each(meta, stem, phase, rat):
        spec = report.RenderSpec(title=f"{meta.submission_id} {phase.value}")
        args.out.write("logs", f"qq_{stem}_{phase.value}", report.render_qq(rat.qq, spec))
        return [
            meta.submission_id,
            phase.value,
            str(len(rat.ratios)),
            report.fmt_csv(float(rat.ratios.min())),
            report.fmt_csv(float(rat.ratios.max())),
        ]
    # Io500KitError: no stonewall, an empty table, a ratio that overflows.
    n = _per_table(subs, args, analyze, Io500KitError, each, "stonewall_summary", "stonewall_notes", header)
    return f"stonewall ratios for {n} write-phase tables" if n else "no stonewall timing data available"


def run_stragglers(subs, args, config) -> str:
    analyze = functools.partial(loginsight.straggler_report, params=config.straggler, stonewall_s=args.stonewall)
    header = "Submission Phase Ranks Stragglers Pattern Adjacency Runs StragglerRanks".split()

    def each(meta, stem, phase, rep):
        return [
            meta.submission_id,
            phase.value,
            str(len(rep.ranks)),
            str(len(rep.straggler_ranks)),
            rep.pattern.value,
            report.fmt_csv(rep.adjacency_index),
            str(rep.run_count),
            ";".join(str(r) for r in sorted(rep.straggler_ranks)),
        ]
    # Io500KitError: as for stonewall, and tables too small for the quartiles.
    n = _per_table(subs, args, analyze, Io500KitError, each, "stragglers", "straggler_notes", header)
    return f"straggler analysis for {n} write-phase tables" if n else "no straggler timing data available"


def run_pfind(subs, args, config) -> str:
    header = ["Submission", "Ranks", "MedianItems", "MaxItems", "MaxOverMedian", "Gini"]

    def each(meta, stem, phase, rep):
        detail = report.render_imbalance_table(rep.items_per_rank, rep.max_over_median, rep.gini)
        args.out.write("logs", f"pfind_{stem}", detail)
        return [
            meta.submission_id,
            str(len(rep.items_per_rank)),
            report.fmt_median_count(rep.items_per_rank),
            str(int(rep.items_per_rank.max())),
            report.fmt_csv(rep.max_over_median),  # "inf" when the median is zero
            report.fmt_csv(rep.gini),
        ]
    # Io500KitError: missing items, tiny tables, all-zero counts.
    n = _per_table(subs, args, loginsight.pfind_imbalance, Io500KitError, each, "pfind", "pfind_notes", header)
    return f"pfind imbalance for {n} submissions" if n else "no find-phase item data available"


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
    with _Output(args.out) as args.out:  # a run that fails part way leaves --out as it found it
        line = run(subs, args, config)
    print(line)  # once the files are in place
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
    with _Output(args.out) as out:
        out.corpus(corpus)
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
