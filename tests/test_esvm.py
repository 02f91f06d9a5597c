from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from coparse import esvm, features, kernels, pipeline, synthgen
from coparse.core import Partition, PropagationRecord, label_components, regions_of
from coparse.errors import InsufficientDataError

from conftest import assert_calibration_stationary, make_image


CONFIG = pipeline.Config()
SELECTION = (CONFIG.a_min, CONFIG.a_max, CONFIG.tau_sel, CONFIG.n_sel)


def maps_of(images):
    return {image.id: features.image_maps(image.pixels) for image in images}


def pyramids_of(images, scales=(1.0, 0.8, 1.25)):
    return {image.id: features.hog_pyramid(features.luma(image.pixels), scales)
            for image in images}


def _subgradient_reference(positive, negatives, lam1, lam2, iterations=1500, seed=0):
    """The former trainer: projected subgradient steps from 3 fixed starts.

    Returns the best energy it found; the exact dual solve must match or beat it.
    """
    negs = np.asarray(negatives, dtype=np.float64)
    pos = np.asarray(positive, dtype=np.float64)
    dim = pos.size
    radius = np.sqrt(2.0 * (lam1 + lam2 * negs.shape[0]))
    rng = np.random.default_rng([seed, 0x5E5])
    w = np.stack([np.zeros(dim), pos / (pos @ pos), rng.standard_normal(dim) * 0.01])
    best = np.full(w.shape[0], np.inf)
    for t in range(1, iterations + 2):
        margin_pos = 1.0 - w @ pos
        margins_neg = 1.0 + negs @ w.T
        active = margins_neg > 0.0
        e = (0.5 * (w * w).sum(axis=1) + lam1 * np.maximum(0.0, margin_pos)
             + lam2 * np.where(active, margins_neg, 0.0).sum(axis=0))
        best = np.minimum(best, e)
        if t > iterations:
            break
        g = w.copy()
        g[margin_pos > 0.0] -= lam1 * pos
        g += lam2 * (negs.T @ active).T
        w = w - g / t
        norms = np.sqrt((w * w).sum(axis=1))
        over = norms > radius
        if over.any():
            w[over] *= (radius / norms[over])[:, None]
    return float(best.min())


def _training_instance(seed):
    """Even seeds: build_exemplar's shape, 1 positive and 200 negatives of
    HOG-like features plus a bias column. Odd seeds: small Gaussian problems
    with random weights."""
    rng = np.random.default_rng(700 + seed)
    if seed % 2 == 0:
        cy, cx = (int(v) for v in rng.integers(2, 6, size=2))
        dim = (cy - 1) * (cx - 1) * 4 * features.HOG_BINS
        pos = np.append(np.minimum(rng.exponential(0.08, dim), 0.2), 1.0)
        negs = np.hstack([np.minimum(rng.exponential(0.08, (200, dim)), 0.2),
                          np.ones((200, 1))])
        return pos, negs, 0.5, 0.01
    dim, n_neg = int(rng.integers(1, 30)), int(rng.integers(1, 60))
    return (rng.standard_normal(dim), rng.standard_normal((n_neg, dim)),
            float(rng.uniform(0.05, 2.0)), float(rng.uniform(0.001, 0.2)))


class TestEnergy:
    def test_energy_at_zero(self):
        rng = np.random.default_rng(0)
        pos = rng.uniform(size=12)
        negs = rng.uniform(size=(7, 12))
        e = esvm.esvm_energy(np.zeros(12), pos, negs, 0.5, 0.01)
        assert e == pytest.approx(0.5 + 0.01 * 7)

    def test_midpoint_convexity(self):
        rng = np.random.default_rng(1)
        pos = rng.standard_normal(10)
        negs = rng.standard_normal((20, 10))
        for _ in range(200):
            w1 = rng.standard_normal(10)
            w2 = rng.standard_normal(10)
            mid = esvm.esvm_energy((w1 + w2) / 2, pos, negs, 0.5, 0.01)
            avg = (esvm.esvm_energy(w1, pos, negs, 0.5, 0.01)
                   + esvm.esvm_energy(w2, pos, negs, 0.5, 0.01)) / 2
            assert mid <= avg + 1e-9

    def test_subgradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        pos = rng.standard_normal(8)
        negs = rng.standard_normal((15, 8))
        checked = 0
        while checked < 50:
            w = rng.standard_normal(8)
            margins = np.concatenate([[1 - w @ pos], 1 + negs @ w])
            if np.abs(margins).min() < 1e-3:
                continue  # step over hinge kinks
            g = esvm.esvm_subgradient(w, pos, negs, 0.5, 0.01)
            fd = np.empty(8)
            h = 1e-7
            for i in range(8):
                e = np.zeros(8)
                e[i] = h
                fd[i] = (esvm.esvm_energy(w + e, pos, negs, 0.5, 0.01)
                         - esvm.esvm_energy(w - e, pos, negs, 0.5, 0.01)) / (2 * h)
            assert np.allclose(g, fd, rtol=1e-5, atol=1e-7)
            checked += 1

    def test_energy_nondecreasing_in_lam2(self):
        rng = np.random.default_rng(3)
        pos = rng.standard_normal(6)
        negs = rng.standard_normal((10, 6))
        e1 = esvm.train_esvm(pos, negs, 0.5, 0.01).energy
        e2 = esvm.train_esvm(pos, negs, 0.5, 0.02).energy
        assert e2 >= e1 - 1e-9


class TestTraining:
    def test_one_dimensional_toy_matches_grid_search(self):
        res = esvm.train_esvm(np.array([1.0]), np.array([[-1.0]]), 0.5, 0.01)
        ws = np.arange(-3.0, 3.0, 1e-3)
        energies = 0.5 * ws ** 2 + 0.5 * np.maximum(0, 1 - ws) \
            + 0.01 * np.maximum(0, 1 - ws)
        assert res.w[0] > 0.0
        assert res.w[0] == pytest.approx(ws[np.argmin(energies)], abs=2e-3)
        assert res.energy == pytest.approx(energies.min(), abs=1e-5)

    def test_trace_non_increasing(self):
        rng = np.random.default_rng(4)
        pos = rng.standard_normal(20)
        negs = rng.standard_normal((30, 20))
        res = esvm.train_esvm(pos, negs, 0.5, 0.01)
        assert (np.diff(res.best_energy_trace) <= 0).all()

    def test_empty_negatives_rejected(self):
        with pytest.raises(InsufficientDataError):
            esvm.train_esvm(np.ones(3), np.empty((0, 3)), 0.5, 0.01)

    @pytest.mark.parametrize("seed", range(20))
    def test_dual_solve_beats_subgradient_reference(self, seed):
        pos, negs, lam1, lam2 = _training_instance(seed)
        res = esvm.train_esvm(pos, negs, lam1, lam2)
        assert res.energy <= _subgradient_reference(pos, negs, lam1, lam2) + 1e-9
        assert res.energy == esvm.esvm_energy(res.w, pos, negs, lam1, lam2)
        assert 0.0 <= res.duality_gap <= 1e-6
        trace = res.best_energy_trace
        assert trace.size > 0 and (np.diff(trace) <= 0).all()
        assert trace[-1] <= res.energy

    def test_trace_kept_when_solver_stops_at_start(self, monkeypatch):
        def stop_at_start(q, c, callback=None):
            # no accepted iterate, so the callback never runs
            a = np.zeros(len(c))
            return a, float(c.sum())

        monkeypatch.setattr(kernels, "solve_box_qp", stop_at_start)
        negs = np.random.default_rng(5).standard_normal((30, 20))
        res = esvm.train_esvm(np.ones(20), negs, 0.5, 0.01)
        assert not res.w.any()
        assert res.best_energy_trace.tolist() == [res.energy]
        assert res.energy == pytest.approx(0.5 + 0.01 * 30)
        assert res.duality_gap == pytest.approx(0.5 + 0.01 * 30)

    @pytest.mark.parametrize("seed", range(4))
    def test_repeated_negatives_merged_with_their_count(self, seed, monkeypatch):
        # build_exemplar's shape: 200 negatives, a third of them repeats
        pos, negs, lam1, lam2 = _training_instance(2 * seed)
        rng = np.random.default_rng(seed)
        negs = np.vstack([negs[:134], negs[rng.integers(0, 134, size=66)]])
        negs = negs[rng.permutation(len(negs))]
        sizes = []
        solve = kernels.solve_box_qp

        def recorded(q, c, callback=None):
            sizes.append((len(c), float(c[1:].sum())))
            return solve(q, c, callback)

        monkeypatch.setattr(kernels, "solve_box_qp", recorded)
        res = esvm.train_esvm(pos, negs, lam1, lam2)
        # one dual variable per distinct negative, each with C = lam2 * count
        assert sizes == [(1 + 134, pytest.approx(lam2 * 200))]
        assert res.energy == esvm.esvm_energy(res.w, pos, negs, lam1, lam2)
        assert 0.0 <= res.duality_gap <= 1e-9
        # the same optimum as the solve over every row
        monkeypatch.undo()
        unmerged = kernels.solve_box_qp(
            np.vstack([pos, -negs]) @ np.vstack([pos, -negs]).T,
            np.array([lam1] + [lam2] * len(negs)))[0]
        w = np.vstack([pos, -negs]).T @ unmerged
        assert res.energy <= esvm.esvm_energy(w, pos, negs, lam1, lam2) + 1e-9


def logistic_refit_data(alpha, beta, seed, n_points=50, per_point=10):
    """500 scores on a jittered grid; labels match the curve per cell."""
    rng = np.random.default_rng(3000 + seed)
    grid = np.linspace(beta - 1.5, beta + 1.5, n_points) \
        + rng.uniform(-0.01, 0.01, size=n_points)
    scores, labels = [], []
    for s in grid:
        p = 1.0 / (1.0 + np.exp(-alpha * (s - beta)))
        k = int(round(per_point * p))
        scores.extend([s] * per_point)
        labels.extend([True] * k + [False] * (per_point - k))
    return np.asarray(scores), np.asarray(labels)


def penalized_loglik(scores, labels, alpha, c):
    """The objective ``calibrate`` maximizes, at z = alpha*s - c."""
    z = alpha * scores - c
    return float(-np.where(labels, np.logaddexp(0.0, -z), np.logaddexp(0.0, z)).sum()
                 - esvm.CALIBRATION_RIDGE * alpha ** 2)


def _hog_reference(patch, template):
    """The single-crop HOG pipeline written out for one 2-D raster."""
    cy, cx = template
    h, w = patch.shape
    out_h, out_w = cy * features.CELL, cx * features.CELL
    r = (np.arange(out_h) + 0.5) * h / out_h - 0.5
    c = (np.arange(out_w) + 0.5) * w / out_w - 0.5
    r0 = np.clip(np.floor(r).astype(np.int64), 0, h - 1)
    c0 = np.clip(np.floor(c).astype(np.int64), 0, w - 1)
    r1 = np.minimum(r0 + 1, h - 1)
    c1 = np.minimum(c0 + 1, w - 1)
    fr = np.clip(r - r0, 0.0, 1.0)[:, None]
    fc = np.clip(c - c0, 0.0, 1.0)[None, :]
    top = patch[r0[:, None], c0] * (1 - fc) + patch[r0[:, None], c1] * fc
    bot = patch[r1[:, None], c0] * (1 - fc) + patch[r1[:, None], c1] * fc
    gy, gx = np.gradient(top * (1 - fr) + bot * fr)
    theta = np.mod(np.arctan2(gy, gx), np.pi)
    obin = np.minimum((theta * features.HOG_BINS / np.pi).astype(np.int64),
                      features.HOG_BINS - 1)
    cells = kernels.cell_histograms(np.hypot(gx, gy), obin, cy, cx)
    blocks = np.concatenate([cells[:-1, :-1], cells[:-1, 1:], cells[1:, :-1], cells[1:, 1:]],
                            axis=2)
    norm = np.sqrt((blocks ** 2).sum(axis=2, keepdims=True) + 1e-10 ** 2)
    blocks = np.minimum(blocks / norm, 0.2)
    norm = np.sqrt((blocks ** 2).sum(axis=2, keepdims=True) + 1e-10 ** 2)
    return (blocks / norm).ravel()


def _pyramid_windows(pyramid, template, image_shape):
    """Every template window of every pyramid level it fits, keyed by its
    bytes, as (blocks, (y0, x0, height, width)) pairs: the window and its
    box in image pixels, mapped back with Python's round."""
    cy, cx = template
    h, w = image_shape
    windows = {}
    for sh, sw, blocks in pyramid.values():
        for y in range(blocks.shape[0] - cy + 2):
            for x in range(blocks.shape[1] - cx + 2):
                wh = max(1, int(round(cy * features.CELL * h / sh)))
                ww = max(1, int(round(cx * features.CELL * w / sw)))
                y0 = min(int(round(y * features.CELL * h / sh)), h - wh)
                x0 = min(int(round(x * features.CELL * w / sw)), w - ww)
                window = blocks[y:y + cy - 1, x:x + cx - 1]
                windows.setdefault(window.tobytes(), []).append((window, (y0, x0, wh, ww)))
    return windows


class TestNegatives:
    def test_rows_are_pyramid_windows_off_the_foreground(self, monkeypatch):
        # every negative set Phase I samples on four images of the criterion-8
        # scene, whose iterations train exemplars of at least three templates
        corpus = synthgen.generate(synthgen.default_scene_spec(seed=8), 4)
        config = pipeline.Config(seed=8)
        checked = []
        sample = esvm.sample_negatives
        rng = np.random.default_rng(3)
        windows = {}

        def checked_sample(corpus_images, image, excluded, template, count, rng_, pyramids):
            got = sample(corpus_images, image, excluded, template, count, rng_, pyramids)
            def fitting(rec):
                return any(esvm.fits(blocks, template)
                           for _, _, blocks in pyramids[rec.id].values())

            others = [rec for rec in corpus_images if rec.id != image.id and fitting(rec)]
            assert got.shape == (count, (template[0] - 1) * (template[1] - 1) * 36)
            n_same = 0 if not fitting(image) else count if not others else count // 2
            for i, row in enumerate(got):
                source = image if i < n_same else others[(i - n_same) % len(others)]
                if (source.id, template) not in windows:
                    windows[source.id, template] = _pyramid_windows(
                        pyramids[source.id], template, source.pixels.shape[:2])
                matches = windows[source.id, template].get(row.tobytes())
                assert matches, f"row {i} is no window of {source.id}"
                window, _ = matches[0]
                # the vector score_windows dots with the template weights
                wvec = rng.standard_normal(row.size)
                score = kernels.score_windows(window, template[0] - 1, template[1] - 1,
                                              wvec, 1)
                assert score.shape == (1, 1) and score[0, 0] == pytest.approx(row @ wvec)
                if source is image:
                    assert any(2 * excluded[y0:y0 + wh, x0:x0 + ww].sum() <= wh * ww
                               for _, (y0, x0, wh, ww) in matches)
            checked.append(template)
            return got

        monkeypatch.setattr(esvm, "sample_negatives", checked_sample)
        pipeline.run_cosegmentation(corpus, config, pipeline.build_maps(corpus.images))
        assert len(set(checked)) >= 3

    def test_hog_matches_written_out_reference(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            patch = rng.uniform(0, 255, size=tuple(rng.integers(2, 80, size=2)))
            template = tuple(int(v) for v in rng.integers(2, 9, size=2))
            assert (features.hog(patch, template) == _hog_reference(patch, template)).all()


class TestCalibration:
    def test_midpoint_score(self):
        rng = np.random.default_rng(5)
        scores = np.concatenate([rng.normal(1, 0.3, 50), rng.normal(-1, 0.3, 50)])
        labels = np.concatenate([np.ones(50, bool), np.zeros(50, bool)])
        cal = esvm.calibrate(scores, labels)
        assert esvm.calibrated_score(cal.alpha, cal.beta, cal.beta) == pytest.approx(0.5)
        assert cal.alpha > 0
        assert not cal.degenerate

    def test_monotonic_in_raw_score(self):
        cal = esvm.CalibrationResult(alpha=2.0, beta=0.0)
        xs = np.linspace(-3, 3, 50)
        ys = esvm.calibrated_score(cal.alpha, cal.beta, xs)
        assert (np.diff(ys) > 0).all()
        assert ((ys > 0) & (ys < 1)).all()

    def test_recovers_known_parameters(self):
        # generate-and-refit oracle at (alpha, beta) = (2.0, 0.3); per score
        # cell the label counts match the curve in expectation, which keeps
        # the check about the fitter instead of Bernoulli sampling noise
        for seed in range(5):
            scores, labels = logistic_refit_data(2.0, 0.3, seed)
            cal = esvm.calibrate(scores, labels)
            assert cal.alpha == pytest.approx(2.0, abs=0.2)
            assert cal.beta == pytest.approx(0.3, abs=0.2)

    def test_single_class_degenerate_fallback(self):
        cal = esvm.calibrate(np.array([0.2, 0.4, 0.9]), np.array([True, True, True]))
        assert cal.degenerate
        assert cal.alpha == 1.0
        assert cal.beta == pytest.approx(0.5)

    def test_separable_scores_move_the_fit(self):
        # one positive above every negative, as build_exemplar scores them;
        # the ridge keeps this fit finite
        rng = np.random.default_rng(4)
        scores = np.concatenate([[1.0], rng.normal(-1.0, 0.2, 200)])
        flags = np.zeros(scores.size, dtype=bool)
        flags[0] = True
        cal = esvm.calibrate(scores, flags)
        assert not cal.degenerate
        assert cal.alpha != 1.0 and cal.beta != float(scores.mean())
        assert_calibration_stationary(scores, flags, cal)

    def test_overlapping_scores_move_the_fit(self):
        scores, labels = logistic_refit_data(2.0, 0.3, 0)
        cal = esvm.calibrate(scores, labels)
        assert cal.alpha != 1.0

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(st.lists(st.floats(-20, 20), min_size=1, max_size=60),
           st.lists(st.floats(-20, 20), min_size=1, max_size=60), st.booleans())
    def test_fit_is_the_penalized_optimum(self, positives, negatives, separable):
        # the best alpha is positive only when the positives score higher on
        # average, so the draws are shifted to make them: above every negative
        # when separable, else just their mean above the negatives' mean
        positives = np.asarray(positives)
        floor = max(negatives) if separable else np.mean(negatives)
        positives = positives + max(0.0, floor + 0.5 - (positives.min() if separable
                                                         else positives.mean()))
        scores = np.concatenate([positives, negatives])
        labels = np.arange(scores.size) < positives.size
        cal = esvm.calibrate(scores, labels)
        assert not cal.degenerate and cal.alpha > 0
        assert_calibration_stationary(scores, labels, cal)
        start = penalized_loglik(scores, labels, 1.0, float(scores.mean()))
        assert penalized_loglik(scores, labels, cal.alpha, cal.alpha * cal.beta) >= start


def make_detection_corpus():
    """Unique bright rectangle on a dark background, twice."""
    images = []
    for i, (r0, c0) in enumerate([(32, 24), (48, 16)]):
        h, w = 128, 96
        pixels = np.full((h, w, 3), 40, dtype=np.uint8)
        rng = np.random.default_rng(100 + i)
        pixels = (pixels.astype(float) + rng.normal(0, 2, size=pixels.shape)).clip(0, 255).astype(np.uint8)
        pixels[r0:r0 + 64, c0:c0 + 48] = (220, 60, 60)
        spmap = np.zeros((h, w), dtype=np.int64)
        spmap[r0:r0 + 64, c0:c0 + 48] = 1
        images.append(make_image(spmap, pixels=pixels, image_id=f"det{i}"))
    return images


def _iou(a, b) -> float:
    ax0, ay0, ax1, ay1 = a
    bx0, by0, bx1, by1 = b
    iw = min(ax1, bx1) - max(ax0, bx0)
    ih = min(ay1, by1) - max(ay0, by0)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = (ax1 - ax0) * (ay1 - ay0) + (bx1 - bx0) * (by1 - by0) - inter
    return inter / union


def _windows_ref(exemplar, image, stride, scales):
    """Scalar window list (raw, scale index, y0, x0, height, width) in scale,
    row and column order, from a pyramid built here."""
    cy, cx = exemplar.template
    gray = features.luma(image.pixels)
    h, w = gray.shape
    step = max(1, stride // features.CELL)
    raw_windows = []
    for s_idx, s in enumerate(scales):
        sh, sw = max(1, int(round(h * s))), max(1, int(round(w * s)))
        grid_y, grid_x = sh // features.CELL, sw // features.CELL
        if grid_y < cy or grid_x < cx:
            continue
        gy, gx = np.gradient(features.bilinear_resize(gray, sh, sw))
        obin = np.minimum((np.mod(np.arctan2(gy, gx), np.pi) * features.HOG_BINS / np.pi)
                          .astype(np.int64), features.HOG_BINS - 1)
        cells = kernels.cell_histograms(np.hypot(gx, gy), obin, grid_y, grid_x)
        blocks = features.block_normalize(cells)
        scores = kernels.score_windows(blocks, cy - 1, cx - 1, exemplar.w[:-1], step) \
            + float(exemplar.w[-1])
        for i in range(scores.shape[0]):
            for j in range(scores.shape[1]):
                ww = max(1, int(round(cx * features.CELL * w / sw)))
                wh = max(1, int(round(cy * features.CELL * h / sh)))
                x0 = min(int(round(j * step * features.CELL * w / sw)), w - ww)
                y0 = min(int(round(i * step * features.CELL * h / sh)), h - wh)
                raw_windows.append((float(scores[i, j]), s_idx, y0, x0, wh, ww))
    return raw_windows


@dataclass(frozen=True)
class _Detection:
    image_id: str
    x: int
    y: int
    width: int
    height: int
    raw_score: float
    calibrated: float


def _nms_ref(image_id, raw_windows, alpha, beta):
    """sorted() order and pairwise-IoU greedy NMS over one image's windows
    (raw, scale index, y0, x0, height, width)."""
    if not raw_windows:
        return []
    raws = np.array([rw[0] for rw in raw_windows])
    cal = esvm.calibrated_score(alpha, beta, raws)
    order = sorted(range(len(raw_windows)),
                   key=lambda i: (-cal[i], -raws[i], raw_windows[i][1],
                                  raw_windows[i][2], raw_windows[i][3]))
    kept, kept_boxes = [], []
    for i in order:
        _, _, y0, x0, wh, ww = raw_windows[i]
        box = (x0, y0, x0 + ww, y0 + wh)
        if any(_iou(box, kb) > 0.5 for kb in kept_boxes):
            continue
        kept_boxes.append(box)
        kept.append(_Detection(image_id=image_id, x=x0, y=y0, width=ww, height=wh,
                               raw_score=float(raws[i]), calibrated=float(cal[i])))
    return kept


def _detect_ref(exemplar, image, stride, scales):
    """Full NMS over the scalar window list of one image."""
    return _nms_ref(image.id, _windows_ref(exemplar, image, stride, scales),
                    exemplar.alpha, exemplar.beta)


def _global_top_k(detections, k):
    """One global sort of every image's NMS survivors on (calibrated, raw,
    image, row, column), as (image, x, y, height, width, score)."""
    detections = sorted(detections, key=lambda d: (-d.calibrated, -d.raw_score,
                                                   d.image_id, d.y, d.x))
    return [(d.image_id, d.x, d.y, d.height, d.width, d.calibrated) for d in detections[:k]]


def _region_saliency_full(maps, region, a_min, a_max):
    """Saliency with the dilation and both histograms over the whole image."""
    if not a_min <= region.area_fraction <= a_max:
        return 0.0
    dy = region.centroid[0] - 0.5
    dx = region.centroid[1] - 0.5
    centrality = float(np.exp(-(dy * dy + dx * dx) / 0.18))
    mask = region.region_map == region.id[1]
    band = ndimage.binary_dilation(mask, iterations=5) & ~mask
    if not band.any():
        return 0.0
    contrast = features.chi_square(features.region_histogram(maps, mask),
                                   features.region_histogram(maps, band))
    return centrality * contrast


class TestSelection:
    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(st.integers(2, 12), st.integers(2, 12), st.integers(1, 4), st.integers(1, 5),
           st.integers(0, 2 ** 32 - 1))
    def test_windowed_saliency_equals_full_image(self, blocks_y, blocks_x, side, groups, seed):
        # blocky regions of random pixels, many of them on the image border
        rng = np.random.default_rng(seed)
        coarse = rng.integers(0, 3, size=(blocks_y, blocks_x))
        spmap, _ = label_components(np.kron(coarse, np.ones((side, side), dtype=np.int64)))
        h, w = spmap.shape
        pixels = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
        image = make_image(spmap, pixels=pixels)
        m = int(spmap.max()) + 1
        regions = regions_of(image, Partition.from_assignment(rng.integers(0, groups, size=m)))
        maps = features.image_maps(pixels)
        for region in regions:
            assert (esvm.region_saliency(maps, region, 0.0, 1.0)
                    == _region_saliency_full(maps, region, 0.0, 1.0))

    def test_empty_regions(self, quad_image):
        maps = features.image_maps(quad_image.pixels)
        assert esvm.select_regions(maps, [], *SELECTION) == []

    def test_area_gate(self):
        images = make_detection_corpus()
        regions = regions_of(images[0], Partition.from_assignment([0, 1]))
        # background region occupies ~75% of the frame: above a_max
        maps = features.image_maps(images[0].pixels)
        assert esvm.region_saliency(maps, regions[0], 0.02, 0.6) == 0.0

    def test_centered_contrast_region_selected_first(self):
        images = make_detection_corpus()
        regions = regions_of(images[0], Partition.from_assignment([0, 1]))
        maps = features.image_maps(images[0].pixels)
        selected = esvm.select_regions(maps, regions, *SELECTION)
        assert selected[0] == 1

    def test_centered_region_outranks_border_sliver_of_equal_area(self):
        # two equal-area squares of identical color on a flat background
        h, w = 64, 64
        pixels = np.full((h, w, 3), 50, dtype=np.uint8)
        spmap = np.zeros((h, w), dtype=np.int64)
        pixels[24:40, 24:40] = (220, 220, 60)   # centered 16x16
        spmap[24:40, 24:40] = 1
        pixels[0:16, 0:16] = (220, 220, 60)     # corner 16x16
        spmap[0:16, 0:16] = 2
        image = make_image(spmap, pixels=pixels, image_id="rank")
        regions = regions_of(image, Partition.from_assignment([0, 1, 2]))
        maps = features.image_maps(image.pixels)
        s_center = esvm.region_saliency(maps, regions[1], 0.02, 0.6)
        s_corner = esvm.region_saliency(maps, regions[2], 0.02, 0.6)
        assert s_center > s_corner > 0.0
        assert esvm.select_regions(maps, regions, *SELECTION)[0] == 1

    def test_region_too_thin_for_hog_is_skipped(self):
        # a salient centered line one pixel wide passes a zero area floor
        h, w = 64, 64
        pixels = np.full((h, w, 3), 50, dtype=np.uint8)
        spmap = np.zeros((h, w), dtype=np.int64)
        pixels[16:48, 32] = (220, 220, 60)
        spmap[16:48, 32] = 1
        image = make_image(spmap, pixels=pixels, image_id="line")
        regions = regions_of(image, Partition.from_assignment([0, 1]))
        maps = features.image_maps(image.pixels)
        assert esvm.region_saliency(maps, regions[1], 0.0, 0.6) > 0.05
        assert esvm.select_regions(maps, regions, 0.0, *SELECTION[1:]) == []


class TestPropagation:
    def test_k_zero_empty(self):
        images = make_detection_corpus()
        regions = regions_of(images[0], Partition.from_assignment([0, 1]))
        excluded = regions[1].region_map == 1
        ex = esvm.build_exemplar("e0", images[0], regions[1], images, excluded,
                                 0.5, 0.01, seed=7, maps=maps_of(images),
                                 pyramids=pyramids_of(images))
        assert esvm.propagate(ex, images, pyramids_of(images), 0, CONFIG.stride,
                              CONFIG.scales) == []

    def test_self_detection_overlaps_source(self):
        images = make_detection_corpus()
        regions = regions_of(images[0], Partition.from_assignment([0, 1]))
        excluded = regions[1].region_map == 1
        ex = esvm.build_exemplar("e0", images[0], regions[1], images, excluded,
                                 0.5, 0.01, seed=7, maps=maps_of(images),
                                 pyramids=pyramids_of(images))
        table = esvm.detect(ex, images[0], pyramids_of(images)[images[0].id], CONFIG.stride,
                            CONFIG.scales)
        assert table.shape[1] == 6 and len(table)
        _, _, y0, x0, wh, ww = table[table[:, 0].argmax()]
        bbox = (24, 32, 24 + 48, 32 + 64)  # (x0, y0, x1, y1)
        assert _iou((x0, y0, x0 + ww, y0 + wh), bbox) >= 0.5

    def test_detect_matches_scalar_reference(self):
        images = make_detection_corpus()
        regions = regions_of(images[0], Partition.from_assignment([0, 1]))
        ex = esvm.build_exemplar("e0", images[0], regions[1], images,
                                 regions[1].region_map == 1, 0.5, 0.01, seed=7,
                                 maps=maps_of(images), pyramids=pyramids_of(images))
        # at scale 16/17 every odd window offset lands on a half pixel, and
        # at scale 0.05 no template fits, so the table is empty
        flat = make_image(np.zeros((170, 136), dtype=np.int64), image_id="flat")
        settings = ((8, (1.0, 0.8, 1.25)), (16, (0.7, 1.1)), (4, (1.0,)), (8, (16 / 17,)),
                    (8, (0.05,)))
        every_scale = sorted({s for _, scales in settings for s in scales})
        for image in images + [flat]:
            # one pyramid per image serves every call, whatever its scale subset
            pyramid = features.hog_pyramid(features.luma(image.pixels), every_scale)
            for stride, scales in settings:
                table = esvm.detect(ex, image, pyramid, stride, scales)
                assert table.shape == (len(table), 6)
                assert [tuple(row) for row in table.tolist()] == \
                    _windows_ref(ex, image, stride, scales)

    def test_nms_and_ordering(self):
        images = make_detection_corpus()
        regions = regions_of(images[0], Partition.from_assignment([0, 1]))
        excluded = regions[1].region_map == 1
        ex = esvm.build_exemplar("e0", images[0], regions[1], images, excluded,
                                 0.5, 0.01, seed=7, maps=maps_of(images),
                                 pyramids=pyramids_of(images))
        props = esvm.propagate(ex, images, pyramids_of(images), 8, CONFIG.stride, CONFIG.scales)
        assert len(props) <= 8
        scores = [p.score for p in props]
        assert scores == sorted(scores, reverse=True)
        # no surviving pair on one image overlaps more than 0.5
        for a in range(len(props)):
            for b in range(a + 1, len(props)):
                pa, pb = props[a], props[b]
                if pa.target_image != pb.target_image:
                    continue
                box_a = (pa.x, pa.y, pa.x + pa.mask.shape[1], pa.y + pa.mask.shape[0])
                box_b = (pb.x, pb.y, pb.x + pb.mask.shape[1], pb.y + pb.mask.shape[0])
                assert _iou(box_a, box_b) <= 0.5

    def test_masks_inside_bounds(self):
        images = make_detection_corpus()
        regions = regions_of(images[0], Partition.from_assignment([0, 1]))
        ex = esvm.build_exemplar("e0", images[0], regions[1], images,
                                 regions[1].region_map == 1, 0.5, 0.01, seed=7,
                                 maps=maps_of(images), pyramids=pyramids_of(images))
        for p in esvm.propagate(ex, images, pyramids_of(images), 6, CONFIG.stride,
                                CONFIG.scales):
            h, w = p.mask.shape
            img = next(i for i in images if i.id == p.target_image)
            assert 0 <= p.x and p.x + w <= img.pixels.shape[1]
            assert 0 <= p.y and p.y + h <= img.pixels.shape[0]
            assert 0.0 < p.score < 1.0


def _propagate_ref(exemplar, images, k, stride, scales):
    """Full NMS on every image, then one global sort, from the scalar
    reference alone."""
    return _global_top_k([d for image in images
                          for d in _detect_ref(exemplar, image, stride, scales)], k)


def _window_tables(draw, n_images):
    """Random window tables, one per image: raw scores from a few values, so
    ties are common, and boxes on a coarse grid, so windows overlap."""
    side = st.sampled_from([8, 16, 24])
    row = st.tuples(st.sampled_from([-1.0, 0.0, 0.25, 2.0]), st.integers(0, 2),
                    st.integers(0, 4).map(lambda v: 8 * v), st.integers(0, 4).map(lambda v: 8 * v),
                    side, side)
    return [np.array(draw(st.lists(row, max_size=25)), dtype=np.float64).reshape(-1, 6)
            for _ in range(n_images)]


class TestEarlyStoppingNms:
    def exemplar(self, images):
        regions = regions_of(images[0], Partition.from_assignment([0, 1]))
        return esvm.build_exemplar("e0", images[0], regions[1], images,
                                   regions[1].region_map == 1, 0.5, 0.01, seed=7,
                                   maps=maps_of(images), pyramids=pyramids_of(images))

    def test_propagate_equals_full_nms_and_a_global_sort(self):
        images = make_detection_corpus()
        ex = self.exemplar(images)
        # uniform images score every window alike: every window ties with
        # the k-th, and only the image, row and column order them
        flats = [make_image(np.zeros((96, 80), dtype=np.int64), image_id=f"flat{i}")
                 for i in (1, 0)]
        for corpus in (images, flats, images + flats, flats[:1]):
            for stride, scales in ((8, (1.0, 0.8, 1.25)), (16, (0.7, 1.1)), (8, (1.0,))):
                pyramids = pyramids_of(corpus, scales)
                for k in (1, 2, 3, 5, 8, 40, 1000):
                    got = [(p.target_image, p.x, p.y, *p.mask.shape, p.score)
                           for p in esvm.propagate(ex, corpus, pyramids, k, stride, scales)]
                    assert got == _propagate_ref(ex, corpus, k, stride, scales)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(st.data(), st.permutations(["img2", "img0", "img3", "img1"]), st.integers(1, 4),
           st.integers(0, 40))
    def test_random_tables_rank_as_full_nms_and_a_global_sort(self, data, ids, n_images, k):
        tables = dict(zip(ids, _window_tables(data.draw, n_images)))
        corpus = [SimpleNamespace(id=image_id) for image_id in tables]
        ex = esvm.Exemplar(id="e", w=np.zeros(1), alpha=0.7, beta=0.3,
                           source_region=("src", 0), mask=np.ones((8, 8), dtype=bool),
                           template=(2, 2))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(esvm, "detect", lambda _ex, image, *_a, **_kw: tables[image.id])
            got = [(p.target_image, p.x, p.y, *p.mask.shape, p.score)
                   for p in esvm.propagate(ex, corpus, dict.fromkeys(tables), k, 8, (1.0,))]
        want = _global_top_k([d for image_id, table in tables.items()
                              for d in _nms_ref(image_id, [(row[0], *map(int, row[1:]))
                                                           for row in table.tolist()],
                                                ex.alpha, ex.beta)], k)
        assert got == want


def rle_round_trip(mask: np.ndarray) -> tuple[dict, np.ndarray]:
    """The run lengths of ``mask`` and the mask read back from them, as a
    propagation placed at the top-left of an image of the mask's size."""
    rec = PropagationRecord(source_exemplar="e", target_image="img", x=0, y=0,
                            mask=mask, score=0.5)
    doc = esvm.propagation_to_json(rec)
    return doc["mask"], esvm.propagation_from_json(doc, {"img": mask.shape}).mask


class TestSerialization:
    def test_rle_round_trip(self):
        rng = np.random.default_rng(6)
        mask = rng.uniform(size=(13, 7)) < 0.4
        _, back = rle_round_trip(mask)
        assert (back == mask).all()

    def test_rle_leading_ones(self):
        mask = np.array([[True, True, False]])
        doc, back = rle_round_trip(mask)
        assert doc["runs"][0] == 0
        assert (back == mask).all()

    def test_exemplar_json_round_trip(self):
        # a 2x2-cell template: 36 HOG weights and the bias, a 16x16 mask
        ex = esvm.Exemplar(id="img:r1", w=np.arange(37, dtype=np.float64),
                           alpha=1.5, beta=-0.25, source_region=("img", 1),
                           mask=np.eye(16, dtype=bool), template=(2, 2))
        back = esvm.exemplar_from_json(esvm.exemplar_to_json(ex))
        assert back.id == ex.id
        assert np.array_equal(back.w, ex.w)
        assert back.alpha == ex.alpha and back.beta == ex.beta
        assert back.source_region == ex.source_region
        assert (back.mask == ex.mask).all()
        assert back.template == ex.template

    def test_propagation_json_round_trip(self):
        rec = PropagationRecord(source_exemplar="e", target_image="img",
                                x=3, y=9, mask=np.ones((2, 3), dtype=bool), score=0.75)
        back = esvm.propagation_from_json(esvm.propagation_to_json(rec), {"img": (11, 6)})
        assert back.source_exemplar == rec.source_exemplar
        assert back.target_image == rec.target_image
        assert (back.x, back.y, back.score) == (3, 9, 0.75)
        assert (back.mask == rec.mask).all()
