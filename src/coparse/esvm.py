"""Exemplar detectors: region selection, hinge-loss training, logistic
calibration, and sliding-window propagation of segmentation masks.

One linear classifier is trained per selected region (single positive
against sampled negatives) by solving its SVM dual, a box-constrained QP,
to optimality; its raw responses are mapped through a fitted logistic so
scores are comparable across exemplars, and the top detections place the
exemplar's mask into other images.
"""

from __future__ import annotations

import base64
import zlib
from dataclasses import dataclass

import numpy as np
from scipy import ndimage
from scipy.special import expit

from . import features, kernels
from .core import ImageRecord, PropagationRecord, Region
from .errors import InsufficientDataError, MalformedInputError

NEGATIVES_PER_EXEMPLAR = 200
CALIBRATION_RIDGE = 1e-3   # keeps alpha finite on separable score sets
BAND_WIDTH = 5             # pixels: the saliency band's reach around a region


@dataclass(frozen=True)
class Exemplar:
    id: str
    w: np.ndarray                      # template HOG weights plus trailing bias
    alpha: float
    beta: float
    source_region: tuple[str, int]
    mask: np.ndarray                   # bool at template pixel resolution
    template: tuple[int, int]          # (cells_y, cells_x)
    duality_gap: float = 0.0           # of the training; 0 when read from JSON
    degenerate_calibration: bool = False   # the logistic fit fell back; False from JSON


@dataclass(frozen=True)
class DetectionWindow:
    image_id: str
    x: int
    y: int
    width: int
    height: int
    raw_score: float
    calibrated: float


# ---------------------------------------------------------------------------
# Region selection
# ---------------------------------------------------------------------------

def region_saliency(maps: features.ImageMaps, region: Region,
                    a_min: float, a_max: float) -> float:
    """Area-gated centrality times contrast against the border band of the
    region's image, whose maps are ``maps``.

    The band is the ring that ``BAND_WIDTH`` 4-neighbour dilations add to the
    region, so it lies inside the region's bounding box grown by
    ``BAND_WIDTH``; both histograms are taken on that window, whose pixels
    each region adds in the same row-major order as on the whole image.
    """
    if not a_min <= region.area_fraction <= a_max:
        return 0.0
    dy = region.centroid[0] - 0.5
    dx = region.centroid[1] - 0.5
    centrality = float(np.exp(-(dy * dy + dx * dx) / 0.18))
    box_rows, box_cols = region.bbox
    h, w = region.region_map.shape
    rows = slice(max(box_rows.start - BAND_WIDTH, 0), min(box_rows.stop + BAND_WIDTH, h))
    cols = slice(max(box_cols.start - BAND_WIDTH, 0), min(box_cols.stop + BAND_WIDTH, w))
    mask = region.region_map[rows, cols] == region.id[1]
    band = ndimage.binary_dilation(mask, iterations=BAND_WIDTH) & ~mask
    if not band.any():
        return 0.0
    local = maps.window(rows, cols)
    contrast = features.chi_square(features.region_histogram(local, mask),
                                   features.region_histogram(local, band))
    return centrality * contrast


def select_regions(maps: features.ImageMaps, regions: list[Region],
                   a_min: float = 0.02, a_max: float = 0.6,
                   tau_sel: float = 0.05, n_sel: int = 4) -> list[int]:
    """Region indices ranked by saliency, thresholded and capped; a region
    whose bounding box is too thin for a HOG patch is never selected."""
    scored = []
    for region in regions:
        rows, cols = region.bbox
        if min(rows.stop - rows.start, cols.stop - cols.start) < features.MIN_PATCH_SIDE:
            continue
        s = region_saliency(maps, region, a_min, a_max)
        if s > tau_sel:
            scored.append((-s, region.id[1]))
    scored.sort()
    return [k for _, k in scored[:n_sel]]


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def esvm_energy(w: np.ndarray, positive: np.ndarray, negatives: np.ndarray,
                lam1: float, lam2: float) -> float:
    """0.5*||w||^2 + lam1*hinge(positive) + lam2*sum hinge(negatives).

    Negatives enter with flipped sign so a large response on a negative is
    penalized.
    """
    margin_pos = 1.0 - float(w @ positive)
    margins_neg = 1.0 + negatives @ w
    return (0.5 * float(w @ w)
            + lam1 * max(0.0, margin_pos)
            + lam2 * float(np.maximum(0.0, margins_neg).sum()))


def esvm_subgradient(w: np.ndarray, positive: np.ndarray, negatives: np.ndarray,
                     lam1: float, lam2: float) -> np.ndarray:
    g = w.copy()
    if 1.0 - float(w @ positive) > 0.0:
        g -= lam1 * positive
    active = (1.0 + negatives @ w) > 0.0
    if active.any():
        g += lam2 * negatives[active].sum(axis=0)
    return g


@dataclass(frozen=True)
class TrainResult:
    w: np.ndarray
    energy: float
    best_energy_trace: np.ndarray   # best-so-far energy per solver iteration, non-increasing
    duality_gap: float


def _augment(f: np.ndarray) -> np.ndarray:
    return np.concatenate([np.asarray(f, dtype=np.float64), [1.0]])


def train_esvm(positive: np.ndarray, negatives: list[np.ndarray] | np.ndarray,
               lam1: float = 0.5, lam2: float = 0.01, seed: int = 0) -> TrainResult:
    """Minimize ``esvm_energy`` exactly through its dual.

    With the signed rows X = [positive; -negatives] the energy is a linear
    SVM with C = (lam1, lam2, ..., lam2) per row, whose dual is the box QP
    min 0.5 a'(XX')a - sum(a), 0 <= a <= C, solved by
    ``kernels.solve_box_qp``; then w = X'a. The trace holds the best primal
    energy seen up to each solver iteration plus one entry that also counts
    the returned ``w``, so it is never empty. The solve is deterministic;
    ``seed`` is unused.
    Features are taken as given; callers wanting a bias append a constant
    coordinate (build_exemplar does).
    """
    negs = np.asarray(negatives, dtype=np.float64)
    if negs.ndim != 2 or negs.shape[0] == 0:
        raise InsufficientDataError("at least one negative example is required")
    if lam1 <= 0 or lam2 <= 0:
        raise MalformedInputError("regularization weights must be positive")
    pos = np.asarray(positive, dtype=np.float64)
    x = np.vstack([pos, -negs])
    gram = x @ x.T
    c = np.full(x.shape[0], lam2)
    c[0] = lam1
    energies = []

    def record(a):
        # the energy at w = X'a, from the margins Xw = Ka
        margins = gram @ a
        energies.append(0.5 * float(a @ margins)
                        + float(c @ np.maximum(0.0, 1.0 - margins)))

    alpha, gap = kernels.solve_box_qp(gram, c, callback=record)
    w = x.T @ alpha
    energy = esvm_energy(w, pos, negs, lam1, lam2)
    energies.append(energy)
    return TrainResult(w=w, energy=energy,
                       best_energy_trace=np.minimum.accumulate(energies),
                       duality_gap=gap)


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CalibrationResult:
    alpha: float
    beta: float
    degenerate: bool = False


def calibrated_score(alpha: float, beta: float, raw) -> np.ndarray | float:
    return 1.0 / (1.0 + np.exp(-alpha * (np.asarray(raw, dtype=np.float64) - beta)))


def calibrate(scores: np.ndarray, is_positive: np.ndarray) -> CalibrationResult:
    """Fit the logistic (alpha, beta) by Newton's method on the log-likelihood.

    The fit runs over p = (alpha, c) with z = alpha*s - c, so beta = c/alpha;
    there the log-likelihood, less a small ridge on alpha that keeps the fit
    finite when the classes are separable, is concave and a Newton step
    halved until it does not lower the objective always ascends. Halving also
    keeps alpha positive, so the calibrated score increases with the raw one.
    Single-class inputs fall back to (1, mean score) and are flagged
    degenerate.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(is_positive, dtype=bool).astype(np.float64)
    if y.min() == y.max():
        return CalibrationResult(alpha=1.0, beta=float(s.mean()), degenerate=True)
    x = np.stack([s, -np.ones_like(s)], axis=1)
    ridge = np.array([CALIBRATION_RIDGE, 0.0])

    def objective(p):
        z = x @ p
        # log sigma(z) computed stably for both signs
        return float(-(y * np.logaddexp(0.0, -z) + (1 - y) * np.logaddexp(0.0, z)).sum()
                     - ridge @ p ** 2)

    p = np.array([1.0, float(s.mean())])
    value = objective(p)
    for _ in range(100):
        q = expit(x @ p)
        grad = x.T @ (y - q) - 2.0 * ridge * p
        if np.abs(grad).max() < 1e-9:
            break
        step = np.linalg.solve(x.T @ (x * (q * (1.0 - q))[:, None]) + np.diag(2.0 * ridge),
                               grad)
        trial = p + step
        # a step small enough to leave p unchanged ends the halving
        while trial[0] <= 1e-6 or (trial_value := objective(trial)) < value:
            step *= 0.5
            trial = p + step
        p, value = trial, trial_value
    return CalibrationResult(alpha=float(p[0]), beta=float(p[1] / p[0]))


# ---------------------------------------------------------------------------
# Exemplar construction and negative sampling
# ---------------------------------------------------------------------------

def exemplar_seed(global_seed: int, exemplar_id: str) -> list[int]:
    return [global_seed, zlib.crc32(exemplar_id.encode())]


def sample_negatives(corpus_images: list[ImageRecord], image: ImageRecord,
                     excluded: np.ndarray, bbox_hw: tuple[int, int],
                     template: tuple[int, int], count: int,
                     rng: np.random.Generator,
                     maps: dict[str, features.ImageMaps]) -> np.ndarray:
    """HOG descriptors of random crops avoiding the selected foreground.

    Half the crops come from this image (center outside ``excluded``), half
    are drawn round-robin from the other images. ``maps`` holds each
    image's maps by id; the crops are cut from their luma.
    """
    bh, bw = bbox_hw
    # every luminance raster used goes into one flat buffer, and each crop
    # becomes (start, row pitch, height, width) in it
    offsets: dict[str, int] = {}
    rasters: list[np.ndarray] = []

    def crop(rec, forbid):
        h, w = rec.pixels.shape[:2]
        if rec.id not in offsets:
            offsets[rec.id] = sum(r.size for r in rasters)
            rasters.append(maps[rec.id].luma.ravel())
        for _ in range(50):
            sc = rng.uniform(0.8, 1.25)
            ch = min(max(8, int(round(bh * sc))), h)
            cw = min(max(8, int(round(bw * sc))), w)
            y = int(rng.integers(0, h - ch + 1))
            x = int(rng.integers(0, w - cw + 1))
            if forbid is not None and forbid[y + ch // 2, x + cw // 2]:
                continue
            return offsets[rec.id] + y * w + x, w, ch, cw
        return offsets[rec.id], w, min(bh, h), min(bw, w)

    others = [rec for rec in corpus_images if rec.id != image.id]
    n_same = count if not others else count // 2
    crops = [crop(image, excluded) for _ in range(n_same)]
    crops += [crop(others[i % len(others)], None) for i in range(count - n_same)]
    return features.hog_crops(np.concatenate(rasters), *zip(*crops), template)


def build_exemplar(exemplar_id: str, image: ImageRecord, region: Region,
                   corpus_images: list[ImageRecord], excluded: np.ndarray,
                   lam1: float, lam2: float, seed: int,
                   maps: dict[str, features.ImageMaps]) -> Exemplar:
    """Train and calibrate one exemplar from a selected region; ``maps``
    holds the maps of ``image`` and of every corpus image by id."""
    rows, cols = region.bbox
    bbox_hw = (rows.stop - rows.start, cols.stop - cols.start)
    template = features.template_from_bbox(*bbox_hw)
    cy, cx = template
    patch = maps[image.id].luma[rows, cols]
    positive = features.hog(patch, template)
    rng = np.random.default_rng(exemplar_seed(seed, exemplar_id))
    negatives = sample_negatives(corpus_images, image, excluded, bbox_hw, template,
                                 NEGATIVES_PER_EXEMPLAR, rng, maps)
    # bias enters as a constant feature coordinate
    pos_aug = _augment(positive)
    negs_aug = np.hstack([negatives, np.ones((negatives.shape[0], 1))])
    trained = train_esvm(pos_aug, negs_aug, lam1, lam2)
    raws = np.concatenate([[trained.w @ pos_aug], negs_aug @ trained.w])
    flags = np.zeros(raws.size, dtype=bool)
    flags[0] = True
    cal = calibrate(raws, flags)
    mask = features.nearest_resize_mask(region.region_map[rows, cols] == region.id[1],
                                        cy * features.CELL, cx * features.CELL)
    if not mask.any():
        mask = np.ones_like(mask)
    return Exemplar(id=exemplar_id, w=trained.w, alpha=cal.alpha, beta=cal.beta,
                    source_region=region.id, mask=mask, template=template,
                    duality_gap=trained.duality_gap,
                    degenerate_calibration=cal.degenerate)


# ---------------------------------------------------------------------------
# Propagation
# ---------------------------------------------------------------------------

def detect(exemplar: Exemplar, image: ImageRecord,
           pyramid: features.HogPyramid,
           stride: int = 8, scales: tuple[float, ...] = (1.0, 0.8, 1.25)
           ) -> list[DetectionWindow]:
    """Score all windows of one image over the scale set, then NMS at IoU 0.5.

    ``pyramid`` is ``features.hog_pyramid`` of the image's luma over (at
    least) ``scales``.
    """
    cy, cx = exemplar.template
    w_blocks = exemplar.w[:-1]
    bias = float(exemplar.w[-1])
    h, w = image.pixels.shape[:2]
    step = max(1, stride // features.CELL)
    score_parts, window_parts = [], []
    for s_idx, s in enumerate(scales):
        sh, sw, blocks = pyramid[s]
        # a window of cy x cx cells covers (cy - 1) x (cx - 1) blocks
        if blocks.shape[0] < cy - 1 or blocks.shape[1] < cx - 1:
            continue
        scores = kernels.score_windows(blocks, cy - 1, cx - 1, w_blocks, step) + bias
        win_h = cy * features.CELL
        win_w = cx * features.CELL
        ww = max(1, int(round(win_w * w / sw)))
        wh = max(1, int(round(win_h * h / sh)))
        # int / int is correctly rounded and np.round rounds half to even, as
        # Python's round does, so offsets equal int(round(xs * w / sw))
        ys = np.arange(scores.shape[0]) * (step * features.CELL)
        xs = np.arange(scores.shape[1]) * (step * features.CELL)
        y0 = np.minimum(np.round(ys * h / sh).astype(np.int64), h - wh)
        x0 = np.minimum(np.round(xs * w / sw).astype(np.int64), w - ww)
        y0, x0 = np.broadcast_arrays(y0[:, None], x0[None, :])
        score_parts.append(scores.ravel())
        window_parts.append(np.stack([np.full(scores.size, s_idx), y0.ravel(), x0.ravel(),
                                      np.full(scores.size, wh), np.full(scores.size, ww)]))
    if not score_parts:
        return []
    raws = np.concatenate(score_parts)
    s_idx, y0, x0, wh, ww = np.concatenate(window_parts, axis=1)
    cal = calibrated_score(exemplar.alpha, exemplar.beta, raws)
    order = np.lexsort((x0, y0, s_idx, -raws, -cal))
    raws, cal, y0, x0, wh, ww = (a[order] for a in (raws, cal, y0, x0, wh, ww))
    y1, x1 = y0 + wh, x0 + ww
    area = wh * ww
    alive = np.ones(order.size, dtype=bool)
    kept: list[DetectionWindow] = []
    for i in range(order.size):
        if not alive[i]:
            continue
        kept.append(DetectionWindow(image_id=image.id, x=int(x0[i]), y=int(y0[i]),
                                    width=int(ww[i]), height=int(wh[i]),
                                    raw_score=float(raws[i]), calibrated=float(cal[i])))
        # IoU is symmetric, so a kept window drops every later one it overlaps
        inter = (np.maximum(np.minimum(x1, x1[i]) - np.maximum(x0, x0[i]), 0)
                 * np.maximum(np.minimum(y1, y1[i]) - np.maximum(y0, y0[i]), 0))
        alive &= inter / (area + area[i] - inter) <= 0.5
    return kept


def propagate(exemplar: Exemplar, corpus_images: list[ImageRecord],
              pyramids: dict[str, features.HogPyramid],
              k: int = 5, stride: int = 8,
              scales: tuple[float, ...] = (1.0, 0.8, 1.25)
              ) -> list[PropagationRecord]:
    """Global top-k NMS-filtered detections, each carrying the resized mask;
    ``pyramids`` holds each corpus image's HOG pyramid by id."""
    if k <= 0:
        return []
    windows: list[DetectionWindow] = []
    for image in corpus_images:
        windows.extend(detect(exemplar, image, pyramids[image.id], stride=stride,
                              scales=scales))
    windows.sort(key=lambda d: (-d.calibrated, -d.raw_score, d.image_id, d.y, d.x))
    records = []
    for det in windows[:k]:
        mask = features.nearest_resize_mask(exemplar.mask, det.height, det.width)
        records.append(PropagationRecord(
            source_exemplar=exemplar.id, target_image=det.image_id,
            x=det.x, y=det.y, mask=mask, score=det.calibrated))
    return records


# ---------------------------------------------------------------------------
# Serialization (JSON-lines exemplars, JSON propagation arrays)
# ---------------------------------------------------------------------------

def mask_to_rle(mask: np.ndarray) -> dict:
    """Row-major run lengths, alternating and starting with a zero run."""
    flat = np.asarray(mask, dtype=np.uint8).ravel()
    edges = np.flatnonzero(np.diff(flat)) + 1
    runs = np.diff(np.concatenate([[0], edges, [flat.size]]))
    counts = runs.tolist()
    if flat.size and flat[0] == 1:
        counts = [0] + counts
    return {"shape": list(mask.shape), "runs": counts}


def mask_from_rle(doc: dict) -> np.ndarray:
    shape, runs = tuple(doc["shape"]), doc["runs"]
    if len(shape) != 2 or not all(isinstance(n, int) and n >= 0 for n in (*shape, *runs)):
        raise MalformedInputError("mask shape must be 2-D, run lengths non-negative integers")
    if sum(runs) != shape[0] * shape[1]:
        raise MalformedInputError("run lengths do not cover the mask")
    return np.repeat(np.arange(len(runs)) % 2 == 1, runs).reshape(shape)


def _text(value) -> str:
    if not isinstance(value, str):
        raise MalformedInputError(f"expected a string, got {value!r}")
    return value


def exemplar_to_json(exemplar: Exemplar) -> dict:
    return {
        "id": exemplar.id,
        "w": base64.b64encode(
            np.asarray(exemplar.w, dtype="<f8").tobytes()).decode("ascii"),
        "alpha": exemplar.alpha,
        "beta": exemplar.beta,
        "source_region": list(exemplar.source_region),
        "template": list(exemplar.template),
        "mask": mask_to_rle(exemplar.mask),
    }


def exemplar_from_json(doc: dict) -> Exemplar:
    image_id, index = doc["source_region"]
    w = np.frombuffer(base64.b64decode(doc["w"]), dtype="<f8").astype(np.float64)
    return Exemplar(id=_text(doc["id"]), w=w, alpha=float(doc["alpha"]),
                    beta=float(doc["beta"]), source_region=(_text(image_id), int(index)),
                    mask=mask_from_rle(doc["mask"]),
                    template=(int(doc["template"][0]), int(doc["template"][1])))


def propagation_to_json(record: PropagationRecord) -> dict:
    return {
        "exemplar": record.source_exemplar,
        "image": record.target_image,
        "x": record.x,
        "y": record.y,
        "score": record.score,
        "mask": mask_to_rle(record.mask),
    }


def propagation_from_json(doc: dict) -> PropagationRecord:
    return PropagationRecord(
        source_exemplar=_text(doc["exemplar"]), target_image=_text(doc["image"]),
        x=int(doc["x"]), y=int(doc["y"]), mask=mask_from_rle(doc["mask"]),
        score=float(doc["score"]))
