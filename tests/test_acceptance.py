"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. Criteria 7 and 8 exercise
the full pipeline and dominate the runtime (a few minutes in total).
"""

import time

import numpy as np
import pytest

from coparse import cli, esvm, graphcut, grouping, io, pipeline, synthgen


def report(name, elapsed, budget, detail=""):
    print(f"[ACCEPTANCE] {name}: PASS in {elapsed:.1f}s (budget {budget}s) {detail}")


def test_criterion_1_background_baseline_identity():
    """All-background aPA equals the mean background fraction to 1e-12."""
    start = time.time()
    rng = np.random.default_rng(1001)
    for trial in range(50):
        spec = synthgen.default_scene_spec(seed=int(rng.integers(0, 2 ** 31)))
        corpus = synthgen.generate(spec, int(rng.integers(1, 4)))
        predictions = {
            rec.id: np.zeros(rec.ground_truth.shape, dtype=np.int64)
            for rec in corpus.images
        }
        metrics = pipeline.evaluate(predictions, corpus)
        expected = pipeline.background_fraction(corpus)
        assert abs(metrics.apa - expected) <= 1e-12
    elapsed = time.time() - start
    assert elapsed < 10
    report("1 baseline arithmetic", elapsed, 10, "50 corpora, tol 1e-12")


def test_criterion_2_multicut_oracle_equivalence():
    """solve_multicut matches the exhaustive oracle on 500 random instances."""
    start = time.time()
    rng = np.random.default_rng(1002)
    checked = 0
    while checked < 500:
        n = int(rng.integers(2, 11))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = tuple((u, v, int(rng.integers(0, 2)))
                      for u, v in pairs if rng.uniform() < 0.6)
        masks = []
        for _ in range(int(rng.integers(0, 3))):
            size = int(rng.integers(2, n + 1))
            ids = frozenset(int(i) for i in rng.choice(n, size=size, replace=False))
            masks.append((ids, float(rng.uniform(0.0, 1.0))))
        if not edges and not masks:
            continue
        inst = grouping.MulticutInstance(node_count=n, edges=edges,
                                         mask_constraints=tuple(masks))
        sol = grouping.solve_multicut(inst, 0.5)
        oracle = grouping.brute_force_multicut(inst, 0.5)
        assert abs(sol.objective - oracle.objective) <= 1e-9, \
            f"objective {sol.objective} vs oracle {oracle.objective}"
        checked += 1
    elapsed = time.time() - start
    assert elapsed < 60
    report("2 multicut oracle equivalence", elapsed, 60, "500 instances, tol 1e-9")


def test_criterion_3_map_oracle():
    """Expansion hits the exact MAP on >= 95% of 500 metric problems."""
    start = time.time()
    rng = np.random.default_rng(1003)
    hits = 0
    total = 500
    for _ in range(total):
        n = int(rng.integers(2, 9))
        n_labels = int(rng.integers(2, 5))
        cands = tuple(np.arange(n_labels, dtype=np.int64) for _ in range(n))
        unary = tuple(rng.uniform(0, 5, size=n_labels) for _ in range(n))
        edges = []
        for u in range(n):
            for v in range(u + 1, n):
                if rng.uniform() < 0.4:
                    if rng.uniform() < 0.5:
                        table = float(rng.uniform(0, 5)) * (1.0 - np.eye(n_labels))
                    else:
                        ii, jj = np.meshgrid(np.arange(n_labels),
                                             np.arange(n_labels), indexing="ij")
                        table = float(rng.uniform(0, 2.5)) \
                            * np.minimum(np.abs(ii - jj), 2).astype(float)
                    edges.append((u, v, table))
        problem = graphcut.LabelingProblem(candidates=cands, unary=unary,
                                           edges=tuple(edges))
        result = graphcut.alpha_expansion(problem, pipeline.Config().max_sweeps)
        _, optimum = graphcut.brute_force_map(problem)
        moves = result.move_energies
        assert all(moves[i + 1] < moves[i] for i in range(len(moves) - 1)), \
            "accepted move did not strictly decrease the energy"
        assert result.energy <= 2.0 * optimum + 1e-9
        if abs(result.energy - optimum) <= 1e-9:
            hits += 1
    elapsed = time.time() - start
    assert hits >= 0.95 * total, f"optimum attained on only {hits}/{total}"
    assert elapsed < 120
    report("3 MAP oracle", elapsed, 120, f"optimum on {hits}/{total}")


def test_criterion_4_flow_cut_duality():
    """Flow equals cut capacity exactly on 1000 random networks."""
    start = time.time()
    rng = np.random.default_rng(1004)
    for _ in range(1000):
        n = int(rng.integers(2, 31))
        tail, head, cap = [], [], []
        for _ in range(int(rng.integers(1, 3 * n))):
            u, v = rng.integers(0, n, size=2)
            if u != v:
                tail.append(u)
                head.append(v)
                cap.append(float(rng.integers(0, 50)))
        res = graphcut.max_flow(n, 0, n - 1, tail, head, cap)
        assert res.flow == res.cut_capacity

    diamond = graphcut.max_flow(4, 0, 3, [0, 0, 1, 2, 1], [1, 2, 3, 3, 2],
                                [2.0, 2.0, 1.0, 3.0, 1.0])
    assert diamond.flow == 4.0
    elapsed = time.time() - start
    assert elapsed < 30
    report("4 flow/cut duality", elapsed, 30, "1000 networks + diamond=4")


def test_criterion_5_esvm_convexity_and_gradients():
    """Midpoint convexity, finite-difference subgradients, monotone descent."""
    start = time.time()
    rng = np.random.default_rng(1005)
    lam1, lam2 = 0.5, 0.01
    pos = rng.standard_normal(24)
    negs = rng.standard_normal((40, 24))

    for _ in range(1000):
        w1 = rng.standard_normal(24)
        w2 = rng.standard_normal(24)
        mid = esvm.esvm_energy((w1 + w2) / 2, pos, negs, lam1, lam2)
        avg = 0.5 * (esvm.esvm_energy(w1, pos, negs, lam1, lam2)
                     + esvm.esvm_energy(w2, pos, negs, lam1, lam2))
        assert mid <= avg + 1e-9

    checked = 0
    while checked < 100:
        w = rng.standard_normal(24)
        margins = np.concatenate([[1 - w @ pos], 1 + negs @ w])
        if np.abs(margins).min() < 1e-3:
            continue
        g = esvm.esvm_subgradient(w, pos, negs, lam1, lam2)
        h = 1e-6
        fd = np.empty(24)
        for i in range(24):
            e = np.zeros(24)
            e[i] = h
            fd[i] = (esvm.esvm_energy(w + e, pos, negs, lam1, lam2)
                     - esvm.esvm_energy(w - e, pos, negs, lam1, lam2)) / (2 * h)
        denom = max(1.0, float(np.linalg.norm(g)))
        assert float(np.linalg.norm(g - fd)) / denom <= 1e-5
        checked += 1

    for seed in range(5):
        srng = np.random.default_rng(seed)
        res = esvm.train_esvm(srng.standard_normal(16),
                              srng.standard_normal((30, 16)),
                              lam1, lam2)
        assert (np.diff(res.best_energy_trace) <= 0).all()
    elapsed = time.time() - start
    assert elapsed < 60
    report("5 exemplar energy checks", elapsed, 60,
           "1000 convexity draws, 100 gradient probes, 5 runs")


def test_criterion_6_calibration_recovery():
    """Refit of synthetic logistic scores recovers (2.0, 0.3) within 0.2.

    500 samples per seed on a jittered score grid whose per-cell label counts
    match the target curve in expectation, so the check isolates the fitter
    from Bernoulli sampling noise (which alone exceeds the tolerance).
    """
    start = time.time()
    for seed in range(20):
        rng = np.random.default_rng(2000 + seed)
        grid = np.linspace(0.3 - 1.5, 0.3 + 1.5, 50) \
            + rng.uniform(-0.01, 0.01, size=50)
        scores, labels = [], []
        for s in grid:
            p = 1.0 / (1.0 + np.exp(-2.0 * (s - 0.3)))
            k = int(round(10 * p))
            scores.extend([s] * 10)
            labels.extend([True] * k + [False] * (10 - k))
        cal = esvm.calibrate(np.asarray(scores), np.asarray(labels))
        assert abs(cal.alpha - 2.0) <= 0.2, f"seed {seed}: alpha {cal.alpha}"
        assert abs(cal.beta - 0.3) <= 0.2, f"seed {seed}: beta {cal.beta}"
    elapsed = time.time() - start
    assert elapsed < 10
    report("6 calibration recovery", elapsed, 10, "20 seeds, 500 samples, tol 0.2")


def test_criterion_7_end_to_end_cross_validation():
    """10-fold CV on the default 20-image corpus meets the pinned targets."""
    start = time.time()
    corpus = synthgen.generate(synthgen.default_scene_spec(seed=42), 20)
    config = pipeline.Config(seed=42)
    result = pipeline.cross_validate(corpus, config)
    for outcome in result.folds:
        assert outcome.counters["phase1_iterations"] <= 10
        assert outcome.phase1_converged, \
            f"fold {outcome.fold} hit the iteration cap without terminating"
        assert outcome.counters["phase1_fixed_point"], \
            f"fold {outcome.fold} ended in a closed orbit, not at a fixed point"
    assert result.apa_mean >= 0.90, f"aPA {result.apa_mean}"
    assert result.magr_mean >= 0.75, f"mAGR {result.magr_mean}"
    elapsed = time.time() - start
    assert elapsed < 600
    report("7 end-to-end synthetic corpus", elapsed, 600,
           f"aPA {result.apa_mean:.4f}, mAGR {result.magr_mean:.4f}")


def test_criterion_8_determinism(tmp_path):
    """Two identical `coparse run` invocations produce identical bytes."""
    start = time.time()
    corpus = synthgen.generate(synthgen.default_scene_spec(seed=8), 3)
    manifest = io.save_corpus(corpus, tmp_path / "corpus")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", "--manifest", str(manifest), "--out", str(out_a),
                     "--seed", "8"]) == 0
    assert cli.main(["run", "--manifest", str(manifest), "--out", str(out_b),
                     "--seed", "8"]) == 0
    names_a = sorted(p.name for p in out_a.iterdir())
    names_b = sorted(p.name for p in out_b.iterdir())
    assert names_a == names_b
    for name in names_a:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
    elapsed = time.time() - start
    assert elapsed < 600
    report("8 determinism", elapsed, 600, f"{len(names_a)} files byte-identical")


def test_criterion_9_energy_model_sanity():
    """Energies finite in [0, E_max]; per-edge shifts leave the argmin alone."""
    start = time.time()
    corpus = synthgen.generate(synthgen.default_scene_spec(seed=9), 3)
    # the criterion is about the assembled tables, not phase-1 convergence
    config = pipeline.Config(seed=9, max_phase1_iters=3)
    maps = pipeline.build_maps(corpus.images)
    model = pipeline.train_label_model(
        corpus.vocabulary, [pipeline.ground_truth_rows(r, maps[r.id]) for r in corpus.images])
    phase1 = pipeline.run_cosegmentation(corpus, config, maps)
    from coparse import colabel

    source_regions = {e.id: e.source_region for e in phase1.exemplars}
    graph = colabel.build_graph(list(corpus.images), phase1.regions,
                                phase1.propagations, source_regions, model, maps,
                                config.beta_pair, config.sigmoid_sharpness, config.e_max)
    for u in graph.problem.unary:
        assert np.isfinite(u).all() and (u >= 0).all() and (u <= config.e_max).all()
    for _, _, table in graph.problem.edges:
        assert np.isfinite(table).all()
        assert table.min() >= 0.0 and table.min() <= 1e-9
        assert table.max() <= config.e_max

    rng = np.random.default_rng(1009)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        n_labels = int(rng.integers(2, 4))
        cands = tuple(np.arange(n_labels, dtype=np.int64) for _ in range(n))
        unary = tuple(rng.uniform(0, 5, size=n_labels) for _ in range(n))
        edges = []
        for u in range(n):
            for v in range(u + 1, n):
                if rng.uniform() < 0.5:
                    edges.append((u, v, rng.uniform(0, 5, size=(n_labels, n_labels))))
        base = graphcut.LabelingProblem(candidates=cands, unary=unary,
                                        edges=tuple(edges))
        shifted = graphcut.LabelingProblem(
            candidates=cands, unary=unary,
            edges=tuple((u, v, t - t.min()) for u, v, t in edges))
        res_a = graphcut.alpha_expansion(base, pipeline.Config().max_sweeps)
        res_b = graphcut.alpha_expansion(shifted, pipeline.Config().max_sweeps)
        assert (res_a.labeling == res_b.labeling).all()
    elapsed = time.time() - start
    assert elapsed < 30
    report("9 energy-model sanity", elapsed, 30,
           "pipeline tables + 100 shift-invariance problems")