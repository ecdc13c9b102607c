"""Acceptance suite: one test per exit criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The dataset-level directional checks (criterion 7) only run when
IO500KIT_DATASET_CSV points at a repository CSV export restricted to the
ISC21-SC22 lists; membership of the original corpus is not published, so
those checks are directional, not exact.
"""

import hashlib
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from io500kit import cli, ingest, loginsight, metrics, stats, synth
from io500kit.errors import Io500KitError
from io500kit.loginsight import Pattern
from io500kit.types import Phase
from oracles import bh_oracle, kruskal_oracle, spearman_oracle

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"


def _report(ok: bool, label: str, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"{status}: {label}" + (f" ({detail})" if detail else ""))
    assert ok, f"{label}: {detail}"


# --- criterion 1: scoring round trip ---------------------------------------------------


def test_c01_scoring_round_trip(tmp_path):
    # in-memory: recomputed == reported to 1e-9 relative, timed for 100 subs
    corpus = synth.gen_corpus(
        synth.SynthConfig(seed=1, n_submissions=100, generate_timing=False)
    )
    t0 = time.perf_counter()
    worst = 0.0
    for gen in corpus:
        sub = gen.submission
        scores = metrics.recompute_scores(sub)
        for got, want in (
            (scores.score_bw, sub.reported_score_bw),
            (scores.score_md, sub.reported_score_md),
            (scores.score_overall, sub.reported_score_overall),
        ):
            rel = abs(got - want) / want if want else abs(got - want)
            worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    _report(
        worst <= 1e-9 and elapsed < 1.0,
        "criterion 1a: synth recomputed == reported (1e-9 rel, <1s/100)",
        f"worst rel {worst:.2e}, {elapsed:.3f}s",
    )

    # on-disk round trip through both ingest routes
    small = synth.gen_corpus(synth.SynthConfig(seed=2, n_submissions=20, node_range=(2, 8)))
    pkg_dirs = synth.write_corpus(small, tmp_path)
    worst_disk = 0.0
    for pkg in pkg_dirs:
        sub = ingest.load_submission(pkg)
        scores = metrics.recompute_scores(sub)
        worst_disk = max(
            worst_disk,
            abs(scores.score_overall - sub.reported_score_overall)
            / sub.reported_score_overall,
        )
    for sub in ingest.parse_repo_csv((tmp_path / "repo.csv").read_text()).submissions:
        scores = metrics.recompute_scores(sub)
        worst_disk = max(
            worst_disk,
            abs(scores.score_overall - sub.reported_score_overall)
            / sub.reported_score_overall,
        )
    _report(
        worst_disk <= 1e-9,
        "criterion 1b: on-disk round trip preserves score agreement",
        f"worst rel {worst_disk:.2e}",
    )

    # real-format fixture: reported scores rounded in the source file
    sub = ingest.load_submission(FIXTURES / "packages" / "p01_dash_full")
    findings = metrics.recomputation_findings(sub, rel_tol=5e-3)
    _report(
        findings == [],
        "criterion 1c: rounded reported scores agree within 5e-3",
        f"{len(findings)} findings",
    )


# --- criterion 2: statistical oracle suite ------------------------------------------------


def test_c02_oracle_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    checked = 0
    while checked < 1000:
        n = int(rng.integers(3, 9))
        x = rng.integers(0, 6, size=n).astype(float)
        y = rng.integers(0, 6, size=n).astype(float)
        if np.all(x == x[0]) or np.all(y == y[0]):
            continue
        r, _ = stats.spearman(x, y)
        assert abs(r - spearman_oracle(x.tolist(), y.tolist())) <= 1e-10
        checked += 1

    checked = 0
    while checked < 1000:
        k = int(rng.integers(2, 4))
        sizes = rng.integers(1, 5, size=k)
        if sizes.sum() < 3:
            continue
        groups = [rng.integers(0, 5, size=s).astype(float).tolist() for s in sizes]
        pooled = [v for g in groups for v in g]
        if all(v == pooled[0] for v in pooled):
            continue
        assert abs(stats.kruskal_wallis(groups).h - kruskal_oracle(groups)) <= 1e-10
        checked += 1

    for _ in range(1000):
        m = int(rng.integers(1, 12))
        p = np.round(rng.random(m), 3)
        alpha = float(rng.choice([0.01, 0.05, 0.1]))
        adjusted, reject = stats.bh_fdr(p, alpha=alpha)
        oracle_adj, oracle_rej = bh_oracle(p.tolist(), alpha)
        assert np.allclose(adjusted, oracle_adj, atol=1e-10)
        assert reject.tolist() == oracle_rej
    elapsed = time.perf_counter() - t0
    _report(
        elapsed < 30.0,
        "criterion 2: 3x1000 oracle instances match to 1e-10",
        f"{elapsed:.1f}s",
    )


# --- criterion 3: worked values --------------------------------------------------------------


def test_c03_worked_values():
    kw = stats.kruskal_wallis([[1, 2, 3], [4, 5, 6]])
    ok_kw = abs(kw.h - 3.857142857142857) <= 1e-3 and abs(kw.eta_sq - 0.7714285714) <= 1e-3
    r, _ = stats.spearman([1, 2, 3, 4, 5], [5, 6, 7, 8, 7])
    ok_rs = abs(r - 0.8207826816681233) <= 1e-4
    _, reject = stats.bh_fdr([0.01, 0.02, 0.03, 0.04], alpha=0.05)
    ok_bh = bool(reject.all())
    _report(
        ok_kw and ok_rs and ok_bh,
        "criterion 3: worked values (H, eta_sq, r_s, BH rejects)",
        f"H={kw.h:.4f} eta={kw.eta_sq:.4f} r_s={r:.4f} rejects={int(reject.sum())}/4",
    )


# --- criterion 4: invariance properties -------------------------------------------------------


def test_c04_invariance_properties():
    rng = np.random.default_rng(404)
    # Spearman monotone-transform invariance
    transforms = (np.exp, lambda v: v**3, lambda v: 2.5 * v + 7.0)
    done = 0
    while done < 200:
        n = int(rng.integers(3, 20))
        x = rng.integers(0, 10, size=n).astype(float)
        y = rng.integers(0, 10, size=n).astype(float)
        if np.all(x == x[0]) or np.all(y == y[0]):
            continue
        g = transforms[done % 3]
        h = transforms[(done + 1) % 3]
        assert stats.spearman(g(x), h(y)) == stats.spearman(x, y)
        done += 1
    # Pearson positive-affine invariance
    done = 0
    while done < 200:
        n = int(rng.integers(3, 25))
        x = rng.normal(0, 3, size=n)
        y = x * 0.4 + rng.normal(0, 1, size=n)
        if np.std(x) == 0 or np.std(y) == 0:
            continue
        a, b = float(rng.uniform(0.1, 5)), float(rng.normal(0, 10))
        r0, _ = stats.pearson(x, y)
        r1, _ = stats.pearson(a * x + b, y)
        assert abs(r1 - r0) <= 1e-12
        done += 1
    # KW joint-monotone invariance
    for _ in range(200):
        sizes = rng.integers(2, 8, size=int(rng.integers(2, 5)))
        groups = [rng.integers(0, 12, size=s).astype(float).tolist() for s in sizes]
        transformed = [[float(np.exp(v / 4.0)) for v in g] for g in groups]
        assert stats.kruskal_wallis(transformed).h == stats.kruskal_wallis(groups).h
    # CV scale invariance
    for _ in range(200):
        values = rng.lognormal(0, 1, size=int(rng.integers(2, 40)))
        c = float(rng.lognormal(0, 2))
        base = metrics.summary_stats(values.tolist()).cv
        scaled = metrics.summary_stats((c * values).tolist()).cv
        assert abs(scaled - base) <= 1e-12 * max(1.0, abs(base))
    # geometric-mean scale equivariance and zero annihilation
    bw_keys = list(metrics.BW_SCORE_PHASES)
    for _ in range(200):
        vals = rng.lognormal(0, 2, size=4)
        c = float(rng.lognormal(0, 1.5))
        base = metrics.score_bw(dict(zip(bw_keys, vals)))
        scaled = metrics.score_bw(dict(zip(bw_keys, c * vals)))
        assert abs(scaled - c * base) <= 1e-12 * c * base
        zeroed = vals.copy()
        zeroed[int(rng.integers(0, 4))] = 0.0
        assert metrics.score_bw(dict(zip(bw_keys, zeroed))) == 0.0
    # BH alpha monotonicity
    for _ in range(200):
        p = rng.random(size=int(rng.integers(1, 25)))
        a1, a2 = sorted(rng.random(2))
        _, r1 = stats.bh_fdr(p, alpha=a1)
        _, r2 = stats.bh_fdr(p, alpha=a2)
        assert np.all(r2[r1])
    _report(True, "criterion 4: six invariance properties, 200 cases each")


# --- criterion 5: straggler classifier calibration ----------------------------------------------


def test_c05_straggler_classifier():
    t0 = time.perf_counter()
    models = {
        Pattern.CONTIGUOUS: synth.ContiguousStragglers,
        Pattern.CLUSTERED: synth.ClusteredStragglers,
        Pattern.DISPERSED: synth.DispersedStragglers,
    }
    accuracy = {}
    for want, model_cls in models.items():
        hits = 0
        for seed in range(200):
            table, _ = synth.gen_timing(
                Phase.IOR_HARD_WRITE, 100, 300.0, model_cls(), seed=seed
            )
            if loginsight.straggler_report(table).pattern is want:
                hits += 1
        accuracy[want.value] = hits / 200.0
    false_pos = 0
    for seed in range(200):
        table, _ = synth.gen_timing(
            Phase.IOR_HARD_WRITE, 100, 300.0, synth.NoStragglers(), seed=seed
        )
        if loginsight.straggler_report(table).pattern is not Pattern.NONE:
            false_pos += 1
    fp_rate = false_pos / 200.0
    elapsed = time.perf_counter() - t0
    _report(
        all(acc >= 0.95 for acc in accuracy.values()) and fp_rate <= 0.02 and elapsed < 60.0,
        "criterion 5: pattern recovery >=95%, NONE FP <=2%, <60s",
        f"{accuracy}, fp={fp_rate:.3f}, {elapsed:.1f}s",
    )


# --- criterion 6: pfind metrics -------------------------------------------------------------------


def test_c06_pfind_metrics(timing_factory):
    uniform = timing_factory(
        phase=Phase.FIND, runtimes=[60.0] * 8, stonewall=None, items=[12345] * 8
    )
    rep_u = loginsight.pfind_imbalance(uniform)
    skewed = timing_factory(
        phase=Phase.FIND,
        runtimes=[60.0] * 16,
        stonewall=None,
        items=[100_000] * 15 + [5_000_000],
    )
    rep_s = loginsight.pfind_imbalance(skewed)
    _report(
        rep_u.gini == 0.0 and rep_u.max_over_median == 1.0 and rep_s.max_over_median == 50.0,
        "criterion 6: uniform gini=0 ratio=1; 5M-vs-100k ratio=50 exactly",
        f"gini={rep_u.gini}, uniform ratio={rep_u.max_over_median}, skew ratio={rep_s.max_over_median}",
    )


# --- criterion 7: dataset-level directional checks (optional input) -------------------------------


DATASET_ENV = "IO500KIT_DATASET_CSV"


@pytest.mark.skipif(
    DATASET_ENV not in os.environ,
    reason=f"set {DATASET_ENV} to a repository CSV restricted to lists ISC21-SC22",
)
def test_c07_dataset_directional_checks():
    from dataset_checks import run_directional_checks

    cmap = None
    map_path = os.environ.get("IO500KIT_DATASET_COLUMN_MAP")
    if map_path:
        cmap = ingest.load_column_map(map_path)
    text = Path(os.environ[DATASET_ENV]).read_text(encoding="utf-8")
    subs = [
        s
        for s in ingest.parse_repo_csv(text, cmap).submissions
        if s.meta.list_label in ("ISC21", "SC21", "ISC22", "SC22")
    ]
    all_ok = True
    for ok, label, detail in run_directional_checks(subs):
        print(("PASS" if ok else "FAIL") + f": criterion {label} ({detail})")
        all_ok &= ok
    assert all_ok


# --- criterion 8: end-to-end determinism --------------------------------------------------------------


C08_TREE = GOLDEN / "c08_tree.json"  # written by tools/capture_tree_digest.py


def run_c08_pipeline(root: Path) -> dict[str, bytes]:
    """The criterion-8 chain from seed 61 under root: every file it writes,
    keyed by its path relative to root."""
    corpus = root / "corpus"
    manifests = root / "manifests"
    out = root / "out"
    chain = [
        ["synth", "--seed", "61", "--n", "61", "--out", str(corpus)],
        ["ingest", str(corpus), "--out", str(manifests)],
        ["stats", str(manifests), "--normalize", "per-node", "--out", str(out)],
        ["corr", str(manifests), "--normalize", "per-node", "--out", str(out)],
        *(
            ["logs", str(manifests), "--analysis", analysis, "--out", str(out)]
            for analysis in ("runtime", "close", "stonewall", "stragglers", "pfind")
        ),
    ]
    for argv in chain:
        code = cli.main(argv)
        if code != 0:
            raise AssertionError(f"io500kit {argv[0]} exited {code}")
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def tree_sha256(tree: dict[str, bytes]) -> dict[str, str]:
    return {name: hashlib.sha256(data).hexdigest() for name, data in tree.items()}


def test_c08_end_to_end_determinism(tmp_path):
    t0 = time.perf_counter()
    tree1 = run_c08_pipeline(tmp_path / "run1")
    tree2 = run_c08_pipeline(tmp_path / "run2")
    elapsed = time.perf_counter() - t0
    identical = tree1 == tree2
    n_manifests = sum(
        1 for name in tree1 if name.startswith("manifests/") and name.endswith(".json")
    )
    _report(
        identical and n_manifests == 61 and elapsed < 120.0,
        "criterion 8: full pipeline twice from one seed is byte-identical, <2min",
        f"{len(tree1)} files, {n_manifests} manifests, {elapsed:.1f}s",
    )
    pinned = json.loads(C08_TREE.read_text(encoding="utf-8"))
    digests = tree_sha256(tree1)
    drifted = sorted(name for name in pinned.keys() | digests.keys() if pinned.get(name) != digests.get(name))
    _report(
        not drifted,
        f"criterion 8: output tree matches {C08_TREE.name}",
        f"{len(drifted)} of {len(pinned)} files differ: {drifted[:5]}",
    )


# --- criterion 9: golden parser corpus ------------------------------------------------------------------


def test_c09_golden_parser_corpus():
    n_checked = 0
    for pkg in sorted((FIXTURES / "packages").iterdir()):
        sub = ingest.load_submission(pkg)
        flagged, notes = loginsight.flag_cache_affected(list(sub.phases.values()), 10.0)
        sub.phases = {p.phase: p for p in flagged}
        sub.warnings.extend(notes)
        got = ingest.dumps_manifest(sub)
        want = (GOLDEN / f"{pkg.name}.json").read_text(encoding="utf-8")
        assert got == want, f"{pkg.name}: manifest drifted from golden"
        n_checked += 1

    expected_errors = json.loads((GOLDEN / "errors.json").read_text())
    parse_by_suffix = {
        ".txt": lambda t: ingest.parse_result_summary(t),
        ".csv": lambda t: ingest.parse_process_timing(t, Phase.IOR_EASY_WRITE),
    }
    for name, expected in sorted(expected_errors.items()):
        path = FIXTURES / "errors" / name
        text = path.read_text(encoding="utf-8")
        if name == "e08_empty_repo.csv":
            call = lambda t: ingest.parse_repo_csv(t)
        else:
            call = parse_by_suffix[path.suffix]
        with pytest.raises(Io500KitError) as excinfo:
            call(text)
        assert type(excinfo.value).__name__ == expected["type"], name
        assert str(excinfo.value) == expected["message"], name
        n_checked += 1
    _report(
        n_checked >= 12,
        "criterion 9: golden parser corpus pinned",
        f"{n_checked} fixtures checked",
    )
